"""Acceptance gate: one test per shipping criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every criterion is self-contained and offline except the optional live
check, which is skipped unless credentials and benchmark assets are set.
"""

import hashlib
import json
import os
import sqlite3
import time

import pytest

from nl2sql.evalkit import compute_metrics, evaluate, load_dataset, write_report
from nl2sql.execution import (
    SanitizeError,
    SqlQuery,
    compare_results,
    has_top_level_order_by,
    sanitize,
)
from nl2sql.gateway import Gateway, ModelRoute, ReplayBackend, read_replay_log
from nl2sql.pipeline import PipelineConfig
from nl2sql.taxonomy import default_taxonomy, parse_codes, render_summary

from conftest import QuestionKeyedBackend, execute_once, run_pipeline_once, scripted_gateway
from test_evalkit import DATASET, FIX_BY_QUESTION, SQL_BY_QUESTION
from test_execution import COMPARATOR_PAIRS, SANITIZE_CORPUS, SANITIZE_REJECTS, oracle_verdict
from test_taxonomy import NAMED_FAILURE_MODES


def report_pass(name):
    print(f"\nACCEPTANCE PASS: {name}")


# --- 1. taxonomy integrity ---------------------------------------------------

def test_acceptance_taxonomy_integrity():
    started = time.monotonic()
    taxonomy = default_taxonomy()
    assert len(taxonomy.categories) == 9
    assert len(taxonomy.codes) == 31
    assert len({c.code for c in taxonomy.codes}) == 31
    titles_by_code = {c.code: c.title for c in taxonomy.codes}
    for title, expected_code in NAMED_FAILURE_MODES.items():
        assert titles_by_code[expected_code] == title
    known, unknown = parse_codes(render_summary(taxonomy), taxonomy)
    assert [c.code for c in known] == [c.code for c in taxonomy.codes]
    assert unknown == []
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report_pass(
        "taxonomy integrity (9 categories, 31 codes, round-trip, "
        f"{elapsed:.3f}s)"
    )


# --- 2. pipeline control flow ------------------------------------------------

QUESTION = "How many singers do we have?"
GOLD = "SELECT COUNT(*) FROM singer"
WRONG = "SELECT COUNT(*) FROM concert"


def _run(music_schema, fixture_db, gateway, **config_kw):
    config = PipelineConfig(**config_kw)
    return run_pipeline_once(
        QUESTION, music_schema, fixture_db, config, gateway, gold_query=GOLD
    )


def test_acceptance_pipeline_control_flow(music_schema, fixture_db):
    started = time.monotonic()

    first_try = _run(music_schema, fixture_db, scripted_gateway([GOLD]))
    assert first_try.trace.status == "solved"
    assert len(first_try.trace.attempts) == 1
    assert [s.role for s in first_try.trace.stages] == [
        "schema_linking", "subproblem", "query_plan", "sql",
    ]

    fixed = _run(
        music_schema, fixture_db,
        scripted_gateway([WRONG], correction_sql_responses=[GOLD]),
    )
    assert fixed.trace.status == "solved"
    assert len(fixed.trace.attempts) == 2
    assert [s.role for s in fixed.trace.stages].count("correction_plan") == 1

    exhausted = _run(
        music_schema, fixture_db,
        scripted_gateway([WRONG], correction_sql_responses=[
            "SELECT COUNT(*) FROM stadium", "SELECT COUNT(*) FROM track",
            "SELECT COUNT(*) FROM genre",
        ]),
        max_correction_attempts=3,
    )
    assert exhausted.trace.status == "exhausted"
    assert len(exhausted.trace.attempts) == 4

    no_correction = _run(
        music_schema, fixture_db, scripted_gateway([WRONG]),
        skip_correction=True,
    )
    assert len(no_correction.trace.attempts) == 1
    assert [s.role for s in no_correction.trace.stages] == [
        "schema_linking", "subproblem", "query_plan", "sql",
    ]

    no_plan = _run(
        music_schema, fixture_db,
        scripted_gateway([GOLD], query_plan=[]),
        skip_query_plan=True,
    )
    assert [s.role for s in no_plan.trace.stages] == [
        "schema_linking", "subproblem", "sql",
    ]

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report_pass(
        "pipeline control flow (0/1/3 correction rounds exact, "
        f"ablation stage sequences, {elapsed:.3f}s)"
    )


# --- 3. comparator vs. hand-executed oracle ----------------------------------

def test_acceptance_comparator_oracle(fixture_db):
    with sqlite3.connect(fixture_db) as conn:
        tables = conn.execute(
            "SELECT COUNT(*) FROM sqlite_master WHERE type='table'"
        ).fetchone()[0]
    assert tables >= 8
    assert len(COMPARATOR_PAIRS) >= 40

    disagreements = 0
    for gold, pred, order_sensitive, expected in COMPARATOR_PAIRS:
        assert has_top_level_order_by(SqlQuery(gold)) is order_sensitive
        verdict = compare_results(
            execute_once(fixture_db, SqlQuery(gold)),
            execute_once(fixture_db, SqlQuery(pred)),
            order_sensitive,
        )
        if verdict is not expected:
            disagreements += 1
        if oracle_verdict(fixture_db, gold, pred, order_sensitive) is not expected:
            disagreements += 1
        # reflexivity: EA(gold, gold) is always true
        reflexive = compare_results(
            execute_once(fixture_db, SqlQuery(gold)),
            execute_once(fixture_db, SqlQuery(gold)),
            order_sensitive,
        )
        assert reflexive is True
    assert disagreements == 0
    report_pass(
        f"comparator oracle ({tables} tables, {len(COMPARATOR_PAIRS)} pairs, "
        "0 disagreements, reflexivity 100%)"
    )


# --- 4. sanitizer corpus ------------------------------------------------------

def test_acceptance_sanitizer_corpus():
    assert len(SANITIZE_CORPUS) >= 20
    for raw, expected in SANITIZE_CORPUS:
        assert sanitize(raw).text == expected
    for raw in SANITIZE_REJECTS:
        with pytest.raises(SanitizeError):
            sanitize(raw)
    report_pass(
        f"sanitizer corpus ({len(SANITIZE_CORPUS)} exact matches, "
        f"{len(SANITIZE_REJECTS)} rejects)"
    )


# --- 5. metrics arithmetic + checkpoint resume --------------------------------

@pytest.fixture()
def mini_dataset(tmp_path, fixture_tables_file, db_root):
    questions = tmp_path / "dev.json"
    questions.write_text(json.dumps([
        {"question": q, "query": gold, "db_id": "music"} for q, gold in DATASET
    ]), encoding="utf-8")
    return load_dataset(str(questions), fixture_tables_file, db_root)


def keyed_gateway():
    backend = QuestionKeyedBackend(SQL_BY_QUESTION, FIX_BY_QUESTION)
    return Gateway(backends={"test": backend},
                   route=ModelRoute.uniform("test", "fixture-model"))


def make_rows(true_count, total):
    from test_evalkit import make_rows as _make
    return _make(true_count, total)


def test_acceptance_metrics_and_checkpoint(mini_dataset, tmp_path):
    assert compute_metrics(make_rows(947, 1034))["execution_accuracy"] == 91.59
    assert compute_metrics(make_rows(67, 100))["execution_accuracy"] == 67.00
    assert compute_metrics(make_rows(0, 100))["execution_accuracy"] == 0.00
    assert compute_metrics(make_rows(0, 7))["execution_accuracy"] == 0.00

    samples, schemas, db_paths = mini_dataset
    config = PipelineConfig()
    straight = evaluate(samples, schemas, db_paths, config, keyed_gateway(),
                        parallelism=1)

    # interrupt after five samples, then resume from the checkpoint
    checkpoint = tmp_path / "rows.jsonl"
    evaluate(samples[:5], schemas, db_paths, config, keyed_gateway(),
             parallelism=1, checkpoint_path=str(checkpoint))
    resumed = evaluate(samples, schemas, db_paths, config, keyed_gateway(),
                       parallelism=1, checkpoint_path=str(checkpoint))

    out_a, out_b = tmp_path / "straight", tmp_path / "resumed"
    write_report(straight, out_a)
    write_report(resumed, out_b)
    for name in ("report.json", "per_sample.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    report_pass(
        "metrics arithmetic (947/1034=91.59, 67/100=67.00, 0/N=0.00) "
        "and interrupt/resume report byte-identical"
    )


# --- 6. replay determinism -----------------------------------------------------

def test_acceptance_replay_determinism(mini_dataset, tmp_path):
    samples, schemas, db_paths = mini_dataset
    config = PipelineConfig()
    cache_dir = tmp_path / "cache"

    def replay_gateway():
        inner = QuestionKeyedBackend(SQL_BY_QUESTION, FIX_BY_QUESTION)
        backend = ReplayBackend(inner, cache_dir)
        return Gateway(backends={"test": backend},
                       route=ModelRoute.uniform("test", "fixture-model"))

    # warm the cache, then run twice against it
    evaluate(samples, schemas, db_paths, config, replay_gateway(), parallelism=2)
    entries = len(read_replay_log(cache_dir))
    assert entries > 0

    first = evaluate(samples, schemas, db_paths, config, replay_gateway(),
                     parallelism=2)
    assert len(read_replay_log(cache_dir)) == entries  # pure cache hits
    second = evaluate(samples, schemas, db_paths, config, replay_gateway(),
                      parallelism=2)

    out_a, out_b = tmp_path / "first", tmp_path / "second"
    write_report(first, out_a)
    write_report(second, out_b)
    for name in ("report.json", "per_sample.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    report_pass(
        f"replay determinism (warm cache of {entries} entries, "
        "two runs byte-identical)"
    )


# --- 7. read-only safety --------------------------------------------------------

def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_acceptance_database_read_only(mini_dataset, fixture_db):
    samples, schemas, db_paths = mini_dataset
    watched = sorted(set(db_paths.values()) | {fixture_db})
    before = {p: _digest(p) for p in watched}

    evaluate(samples, schemas, db_paths, PipelineConfig(), keyed_gateway(),
             parallelism=2)
    for sql in ("SELECT * FROM singer ORDER BY age",
                "DELETE FROM singer",          # rejected: read-only connection
                "DROP TABLE album",            # rejected: read-only connection
                "SELECT * FROM no_such_table"):
        execute_once(fixture_db, SqlQuery(sql))

    after = {p: _digest(p) for p in watched}
    assert after == before
    report_pass(
        f"read-only safety ({len(watched)} database file(s) byte-identical "
        "after eval batch and write attempts)"
    )


# --- 8. optional live run --------------------------------------------------------

LIVE_VARS = ("NL2SQL_API_KEY", "NL2SQL_API_BASE", "NL2SQL_SPIDER_ROOT")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in LIVE_VARS),
    reason="live check needs NL2SQL_API_KEY, NL2SQL_API_BASE, NL2SQL_SPIDER_ROOT",
)
def test_acceptance_live_valid_sql_rate():
    from nl2sql.cli import main

    root = os.environ["NL2SQL_SPIDER_ROOT"]
    out = os.path.join(root, "live_acceptance_out")
    code = main([
        "eval",
        "--questions", os.path.join(root, "dev.json"),
        "--tables", os.path.join(root, "tables.json"),
        "--db-root", os.path.join(root, "database"),
        "--limit", "100",
        "--out", out,
    ])
    assert code == 0
    payload = json.loads(open(os.path.join(out, "report.json")).read())
    rate = payload["aggregates"]["valid_sql_rate"]
    assert 94.0 <= rate <= 99.0, f"valid-SQL rate {rate} outside soft band"
    report_pass(f"live valid-SQL rate {rate}% within 94-99% band")
