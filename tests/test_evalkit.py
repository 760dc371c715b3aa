import contextlib
import errno
import gc
import hashlib
import importlib
import itertools
import json
import os
import random
import sqlite3
import subprocess
import sys
import threading
import weakref
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, example, given, settings
import hypothesis.strategies as st

from nl2sql import evalkit, jsonl, taxonomy
from nl2sql import schema as schema_module
from nl2sql.cli import main
from nl2sql.evalkit import (
    DatasetError,
    MetricsError,
    RunReport,
    SampleRow,
    _row_cost,
    compute_metrics,
    evaluate,
    load_dataset,
    write_report,
)
from nl2sql import pipeline
from nl2sql.agents import load_default_templates
from nl2sql.gateway import (
    AGENT_ROLES,
    ChatResponse,
    Gateway,
    ModelRoute,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
    read_replay_log,
)
from nl2sql.jsonl import AppendLog
from nl2sql.execution import ExecutionOutcome, connect_readonly, larger_than_cache
from nl2sql.pipeline import (
    PipelineConfig,
    PipelineTrace,
    append_trace,
    gold_sql,
    load_traces,
)

from conftest import (
    FULL_LINK_JSON,
    PLAN_JSON,
    QuestionKeyedBackend,
    build_fixture_db,
    fixture_tables_entry,
    question_keyed_gateway,
    run_pipeline_once,
)

# 10-sample mini benchmark over the music fixture database.
DATASET = [
    ("How many singers do we have?", "SELECT COUNT(*) FROM singer"),
    ("What are the names of all singers?", "SELECT name FROM singer"),
    ("How many concerts are there?", "SELECT COUNT(*) FROM concert"),
    ("What is the maximum stadium capacity?", "SELECT MAX(capacity) FROM stadium"),
    ("List the distinct countries of singers.", "SELECT DISTINCT country FROM singer"),
    ("What is the average age of singers?", "SELECT AVG(age) FROM singer"),
    ("List all album titles.", "SELECT title FROM album"),
    ("How many genres are there?", "SELECT COUNT(*) FROM genre"),
    ("What are the names of stadiums in Leeds?",
     "SELECT name FROM stadium WHERE city = 'Leeds'"),
    ("How many tracks are there?", "SELECT COUNT(*) FROM track"),
]

# SQL agent: correct for 8 samples, wrong for the last two.
SQL_BY_QUESTION = {q: gold for q, gold in DATASET}
SQL_BY_QUESTION["What are the names of stadiums in Leeds?"] = "SELECT name FROM stadium"
SQL_BY_QUESTION["How many tracks are there?"] = "SELECT COUNT(*) FROM album"

# Correction SQL agent: fixes the Leeds query; keeps the track count wrong.
FIX_BY_QUESTION = {
    "What are the names of stadiums in Leeds?":
        "SELECT name FROM stadium WHERE city = 'Leeds'",
    "How many tracks are there?": "SELECT COUNT(*) FROM album",
}


@pytest.fixture()
def questions_file(tmp_path):
    path = tmp_path / "dev.json"
    entries = [
        {"question": q, "query": gold, "db_id": "music"} for q, gold in DATASET
    ]
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


@pytest.fixture()
def dataset(questions_file, fixture_tables_file, db_root):
    return load_dataset(questions_file, fixture_tables_file, db_root)


def new_gateway():
    return question_keyed_gateway(SQL_BY_QUESTION, FIX_BY_QUESTION)


# --- loading -------------------------------------------------------------------

def test_load_dataset_full(dataset):
    samples, schemas, db_paths = dataset
    assert len(samples) == 10
    assert [s.index for s in samples] == list(range(10))
    assert "music" in schemas and "music" in db_paths


def test_load_dataset_limit(questions_file, fixture_tables_file, db_root):
    samples, _, _ = load_dataset(questions_file, fixture_tables_file, db_root,
                                 limit=3)
    assert [s.index for s in samples] == [0, 1, 2]


def test_load_dataset_offset(questions_file, fixture_tables_file, db_root):
    samples, _, _ = load_dataset(questions_file, fixture_tables_file, db_root,
                                 offset=8, limit=5)
    assert [s.index for s in samples] == [8, 9]


def test_load_dataset_unknown_db(tmp_path, fixture_tables_file, db_root):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([
        {"question": "q", "query": "SELECT 1", "db_id": "nope"}
    ]))
    with pytest.raises(DatasetError, match="sample 0"):
        load_dataset(str(path), fixture_tables_file, db_root)


@pytest.mark.parametrize("field, value", [
    ("query", None), ("question", None), ("question", ["q"]), ("db_id", 7),
])
def test_load_dataset_rejects_non_text_field(tmp_path, fixture_tables_file, db_root,
                                             field, value):
    entry = {"question": "q", "query": "SELECT 1", "db_id": "music"}
    entry[field] = value
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(DatasetError, match=f"entry 0: '{field}' is not text"):
        load_dataset(str(path), fixture_tables_file, db_root)


def test_load_dataset_missing_db_file(tmp_path, questions_file, fixture_tables_file):
    with pytest.raises(DatasetError, match="database file missing"):
        load_dataset(questions_file, fixture_tables_file, tmp_path)


@pytest.mark.parametrize("make", [
    lambda path: path.write_bytes(b"not a database " * 1000),
    os.mkdir,  # a directory where the file should be
], ids=["text-bytes", "directory"])
def test_load_dataset_refuses_a_database_file_sqlite_cannot_read(
        tmp_path, questions_file, fixture_tables_file, make):
    (tmp_path / "music").mkdir()
    make(tmp_path / "music" / "music.sqlite")
    with pytest.raises(DatasetError, match=r"^sample 0: cannot (read|open) database "):
        load_dataset(questions_file, fixture_tables_file, tmp_path)


# --- metrics ---------------------------------------------------------------------

def make_rows(true_count, total):
    return [
        SampleRow(index=i, db_id="music", final_sql="SELECT 1",
                  ea=i < true_count, valid=True, attempts=1, tokens=10,
                  cost=0.0, stage_error=False, exact_match=False)
        for i in range(total)
    ]


def test_metrics_headline_rounding():
    assert compute_metrics(make_rows(947, 1034))["execution_accuracy"] == 91.59


def test_metrics_mini_batch():
    assert compute_metrics(make_rows(67, 100))["execution_accuracy"] == 67.00


def test_metrics_zero():
    assert compute_metrics(make_rows(0, 100))["execution_accuracy"] == 0.00


def test_metrics_half_up():
    # 5/8 = 62.5% exactly: half-up keeps the 62.50
    assert compute_metrics(make_rows(5, 8))["execution_accuracy"] == 62.50
    # 1/3 = 33.333..., rounds down; 2/3 = 66.666... rounds up
    assert compute_metrics(make_rows(1, 3))["execution_accuracy"] == 33.33
    assert compute_metrics(make_rows(2, 3))["execution_accuracy"] == 66.67


def test_metrics_empty_rows():
    with pytest.raises(MetricsError):
        compute_metrics([])


def test_metrics_histogram_and_totals():
    rows = make_rows(2, 3)
    rows[2].attempts = 4
    metrics = compute_metrics(rows)
    assert metrics["attempts_histogram"] == {"1": 2, "4": 1}
    assert metrics["total_tokens"] == 30


# --- cost ------------------------------------------------------------------------

def priced_trace(usages):
    trace = PipelineTrace(sample_id="t")
    for prompt_tokens, completion_tokens in usages:
        response = ChatResponse("x", prompt_tokens=prompt_tokens,
                                completion_tokens=completion_tokens)
        trace.add_stage("sql", "prompt", response, "m")
    return trace


def test_usage_paper_scale_run():
    # 2,838,667 tokens at $15/MTok lands on $42.58 at 2 d.p.
    trace = priced_trace([(2_000_000, 838_667)])
    assert trace.total_tokens == 2_838_667
    row = make_rows(0, 1)[0]
    row.cost = _row_cost(trace, {"m": 15.0})
    assert compute_metrics([row])["total_cost"] == 42.58


def test_usage_empty_and_unit():
    assert _row_cost(priced_trace([]), {}) == 0.0
    # unpriced models fall back to the default $15/MTok
    assert _row_cost(priced_trace([(600_000, 400_000)]), {}) == 15.0


def test_usage_is_exact_sum():
    trace = priced_trace([(i, 2 * i) for i in range(50)])
    assert trace.total_tokens == sum(3 * i for i in range(50))
    assert _row_cost(trace, {"default": 1.0}) == pytest.approx(
        sum(3 * i for i in range(50)) / 1_000_000
    )


# --- evaluation -------------------------------------------------------------------

def test_evaluate_mini_batch(dataset):
    samples, schemas, db_paths = dataset
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      new_gateway(), parallelism=1)
    agg = report.aggregates
    assert agg["samples"] == 10
    assert agg["execution_accuracy"] == 90.00  # 9 of 10, Leeds fixed in loop
    assert agg["valid_sql_rate"] == 100.00
    assert agg["stage_error_count"] == 0
    by_index = {r.index: r for r in report.rows}
    assert by_index[8].ea is True and by_index[8].attempts == 2
    # the track fix repeats the failed SQL, so a second round would resend
    # the first round's prompt: the loop stops after one round
    assert by_index[9].ea is False and by_index[9].attempts == 2


def test_evaluate_parallel_matches_serial(dataset):
    samples, schemas, db_paths = dataset
    serial = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      new_gateway(), parallelism=1)
    parallel = evaluate(samples, schemas, db_paths, PipelineConfig(),
                        new_gateway(), parallelism=4)
    assert serial.aggregates == parallel.aggregates
    assert [r.final_sql for r in serial.rows] == [r.final_sql for r in parallel.rows]


def test_evaluate_gold_as_prediction_is_perfect(dataset):
    """EA reflexivity: a gateway that answers with the gold query scores 100%."""
    samples, schemas, db_paths = dataset
    gateway = question_keyed_gateway({q: gold for q, gold in DATASET})
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      gateway, parallelism=1)
    assert report.aggregates["execution_accuracy"] == 100.00


def test_checkpoint_resume_identical_report(dataset, tmp_path):
    samples, schemas, db_paths = dataset
    config = PipelineConfig()

    straight = evaluate(samples, schemas, db_paths, config, new_gateway(),
                        parallelism=1)

    checkpoint = tmp_path / "rows.jsonl"
    evaluate(samples[:5], schemas, db_paths, config, new_gateway(),
             parallelism=1, checkpoint_path=str(checkpoint))
    assert checkpoint.exists()
    resumed = evaluate(samples, schemas, db_paths, config, new_gateway(),
                       parallelism=1, checkpoint_path=str(checkpoint))

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_report(straight, out_a)
    write_report(resumed, out_b)
    for name in ("report.json", "per_sample.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_checkpoint_skips_done_samples(dataset, tmp_path):
    samples, schemas, db_paths = dataset
    checkpoint = tmp_path / "rows.jsonl"
    evaluate(samples, schemas, db_paths, PipelineConfig(), new_gateway(),
             parallelism=1, checkpoint_path=str(checkpoint))
    lines_before = checkpoint.read_text().count("\n")

    gateway = question_keyed_gateway({})  # would KeyError if any sample ran
    report = evaluate(samples, schemas, db_paths, PipelineConfig(), gateway,
                      parallelism=1, checkpoint_path=str(checkpoint))
    assert checkpoint.read_text().count("\n") == lines_before
    assert report.aggregates["samples"] == 10


def test_resume_after_torn_checkpoint_line(dataset, tmp_path, caplog):
    samples, schemas, db_paths = dataset
    checkpoint = tmp_path / "rows.jsonl"
    evaluate(samples[:1], schemas, db_paths, PipelineConfig(), new_gateway(),
             parallelism=1, checkpoint_path=str(checkpoint))
    # a kill mid-write leaves a partial last line
    with open(checkpoint, "a", encoding="utf-8") as fh:
        fh.write('{"attempts": 1, "cost": 0.0, "db_id": "mu')

    first = evaluate(samples, schemas, db_paths, PipelineConfig(), new_gateway(),
                     parallelism=1, checkpoint_path=str(checkpoint))
    assert "skipping unreadable line 2" in caplog.text
    assert [r.index for r in first.rows] == list(range(10))

    gateway = question_keyed_gateway({})  # would fail any sample that ran
    second = evaluate(samples, schemas, db_paths, PipelineConfig(), gateway,
                      parallelism=1, checkpoint_path=str(checkpoint))
    assert second.aggregates == first.aggregates
    assert second.aggregates["execution_accuracy"] == 90.00


@pytest.mark.parametrize("field, value", [
    ("index", [0]), ("attempts", "x"), ("tokens", None), ("cost", "c"),
    ("cost", float("inf")),
])
def test_resume_skips_a_checkpoint_row_of_the_wrong_type(dataset, tmp_path, caplog,
                                                         field, value):
    samples, schemas, db_paths = dataset
    checkpoint = tmp_path / "rows.jsonl"
    first = evaluate(samples[:1], schemas, db_paths, PipelineConfig(), new_gateway(),
                     parallelism=1, checkpoint_path=str(checkpoint))
    row = asdict(first.rows[0])
    checkpoint.write_text(json.dumps(dict(row, **{field: value})) + "\n")

    report = evaluate(samples[:1], schemas, db_paths, PipelineConfig(), new_gateway(),
                      parallelism=1, checkpoint_path=str(checkpoint))
    assert "checkpoint" in caplog.text and "skipping unreadable line 1" in caplog.text
    assert report.rows == first.rows  # the sample ran again
    assert len(checkpoint.read_bytes().splitlines()) == 2


def test_stage_errors_contained(dataset):
    samples, schemas, db_paths = dataset

    class ExplodingBackend:
        def complete(self, request, role=None):
            raise RuntimeError("boom")

    from nl2sql.gateway import Gateway, ModelRoute

    gateway = Gateway(backends={"x": ExplodingBackend()},
                      route=ModelRoute.uniform("x", "m"))
    report = evaluate(samples, schemas, db_paths, PipelineConfig(), gateway,
                      parallelism=1)
    assert report.aggregates["execution_accuracy"] == 0.00
    assert report.aggregates["valid_sql_rate"] == 0.00
    assert report.aggregates["stage_error_count"] == 10


def test_gateway_error_scores_stage_error(dataset, caplog):
    samples, schemas, db_paths = dataset
    scripts = {"schema_linking": [FULL_LINK_JSON], "subproblem": ["{}"],
               "query_plan": [PLAN_JSON]}  # the sql stage has no fixture
    gateway = Gateway(backends={"s": ScriptedBackend(scripts=scripts)},
                      route=ModelRoute.uniform("s", "m"))
    report = evaluate(samples[:1], schemas, db_paths, PipelineConfig(), gateway,
                      parallelism=1)
    row = report.rows[0]
    assert row.stage_error is True and row.ea is False
    assert row.tokens > 0  # the three stages that ran are kept
    assert "crashed" not in caplog.text


def test_aggregates_recomputable_from_rows(dataset):
    samples, schemas, db_paths = dataset
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      new_gateway(), parallelism=1)
    assert compute_metrics(report.rows) == report.aggregates


def test_write_report_deterministic(dataset, tmp_path):
    samples, schemas, db_paths = dataset
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      new_gateway(), parallelism=1)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    write_report(report, out_a)
    write_report(report, out_b)
    for name in ("report.json", "per_sample.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_write_report_values_match(dataset, tmp_path):
    samples, schemas, db_paths = dataset
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      new_gateway(), parallelism=1)
    paths = write_report(report, tmp_path / "out")
    with open(paths["json"]) as fh:
        payload = json.load(fh)
    assert payload["aggregates"] == report.aggregates
    assert len(payload["rows"]) == 10
    with open(paths["csv"]) as fh:
        csv_lines = fh.read().splitlines()
    assert len(csv_lines) == 11  # header + 10 rows
    with open(paths["summary"]) as fh:
        summary = fh.read()
    assert "90.00%" in summary


def test_write_report_escapes_a_lone_surrogate(tmp_path):
    rows = [SampleRow(index=i, db_id="music", final_sql=sql, ea=False, valid=False,
                      attempts=1, tokens=0, cost=0.0, stage_error=False,
                      exact_match=False)
            for i, sql in enumerate(["SELECT 1 -- \ud800", "SELECT 'Zürich' -- ok"])]
    paths = write_report(RunReport(rows=rows, aggregates=compute_metrics(rows)),
                         tmp_path / "out")
    raw = (tmp_path / "out" / "report.json").read_bytes()
    assert b"SELECT 1 -- \\ud800" in raw and "'Zürich'".encode() in raw
    payload = json.loads(raw.decode("utf-8"))
    assert [r["final_sql"] for r in payload["rows"]] == [r.final_sql for r in rows]
    with open(paths["csv"], encoding="utf-8") as fh:
        assert "SELECT 1 -- \\ud800" in fh.read()


_row_text = st.text(st.characters(exclude_categories=())
                    | st.sampled_from('\ud800\udfff\x00",\n{}[]: \\'), max_size=12)
_rows = st.lists(st.builds(
    SampleRow, index=st.integers(0, 10**6), db_id=_row_text, final_sql=_row_text,
    ea=st.booleans(), valid=st.booleans(), attempts=st.integers(0, 9),
    tokens=st.integers(0, 10**7), cost=st.floats(allow_nan=False, allow_infinity=False),
    stage_error=st.booleans(), exact_match=st.booleans()), max_size=4)


@given(rows=_rows, histogram=st.dictionaries(st.sampled_from("0123"), st.integers(0, 9)))
@example(rows=[SampleRow(index=0, db_id="music", final_sql="SELECT 1 -- \ud800 ü", ea=False,
                         valid=False, attempts=1, tokens=3, cost=1e-06, stage_error=False,
                         exact_match=False)],
         histogram={"1": 1})
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_write_report_json_equals_the_streamed_asdict_dump(rows, histogram, tmp_path):
    aggregates = dict(compute_metrics(make_rows(1, 2)), attempts_histogram=histogram)
    write_report(RunReport(rows=rows, aggregates=aggregates), tmp_path / "out")
    streamed = tmp_path / "streamed.json"  # how report.json was written before
    with open(streamed, "w", encoding="utf-8", errors="backslashreplace") as fh:
        json.dump({"aggregates": aggregates, "rows": [asdict(r) for r in rows]},
                  fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    assert (tmp_path / "out" / "report.json").read_bytes() == streamed.read_bytes()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _row_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_row_text, inner, max_size=3),
    max_leaves=8)


@given(records=st.lists(st.dictionaries(_row_text, _json_values, max_size=4), max_size=3))
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_append_log_lines_equal_the_dumps_reference(records, tmp_path):
    path = tmp_path / "log.jsonl"
    path.unlink(missing_ok=True)
    with AppendLog(path) as log:
        log.extend(records)
    # how each line was encoded before the log kept one encoder
    expected = "".join(json.dumps(r, ensure_ascii=True, sort_keys=True) + "\n"
                       for r in records)
    if records:
        assert path.read_bytes() == expected.encode("ascii")
    else:  # nothing to write: the log is not even opened
        assert not path.exists()


def test_exact_match_diagnostic(dataset):
    samples, schemas, db_paths = dataset
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      new_gateway(), parallelism=1)
    by_index = {r.index: r for r in report.rows}
    assert by_index[0].exact_match is True  # echoed gold verbatim
    assert by_index[9].exact_match is False


def test_exact_match_keeps_literal_case(tmp_path, fixture_tables_file, db_root):
    """A prediction that differs from the gold only in a literal's case is
    neither an EA hit nor an exact match; keyword case still folds."""
    gold = "SELECT name FROM stadium WHERE city = 'leeds'"
    question = "What are the names of stadiums in leeds?"
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": question, "query": gold, "db_id": "music"}]))
    samples, schemas, db_paths = load_dataset(str(path), fixture_tables_file, db_root)
    for predicted, exact in (("SELECT name FROM stadium WHERE city = 'Leeds'", False),
                             ("select NAME from stadium  where city = 'leeds';", True)):
        gateway = question_keyed_gateway({question: predicted})
        report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                          gateway, parallelism=1)
        assert report.rows[0].exact_match is exact


def test_exact_match_reads_comments_and_keeps_literal_whitespace(
        tmp_path, fixture_tables_file, db_root):
    gold = "SELECT name FROM stadium WHERE name = 'North Arena'"
    question = "Which stadium is North Arena?"
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": question, "query": gold, "db_id": "music"}]))
    samples, schemas, db_paths = load_dataset(str(path), fixture_tables_file, db_root)
    for predicted, exact in (
            ("SELECT name FROM stadium WHERE name = 'North  Arena'", False),
            ("select name from stadium -- it's\nwhere name = 'North Arena'", True),
            ("SELECT name /* the 'name' */ FROM stadium WHERE name = 'North Arena'", True)):
        gateway = question_keyed_gateway({question: predicted})
        report = evaluate(samples, schemas, db_paths,
                          PipelineConfig(max_correction_attempts=0), gateway, parallelism=1)
        assert report.rows[0].exact_match is exact


def test_costs_use_price_table(dataset):
    samples, schemas, db_paths = dataset
    priced = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      new_gateway(), parallelism=1,
                      prices={"fixture-model": 15.0})
    free = evaluate(samples, schemas, db_paths, PipelineConfig(),
                    new_gateway(), parallelism=1,
                    prices={"fixture-model": 0.0})
    assert priced.aggregates["total_cost"] > 0
    assert free.aggregates["total_cost"] == 0.0
    row = priced.rows[0]
    assert row.cost == pytest.approx(row.tokens * 15.0 / 1_000_000)


# --- samples sharing a gold query ----------------------------------------------

# Paraphrase groups: indexes 0, 2, 6 share one gold once whitespace and the
# trailing semicolon are dropped; 1 and 4 share another; 3 differs from them
# only in the case of a string literal, which changes its result.
PAIRED = [
    ("How many singers do we have?", "SELECT COUNT(*) FROM singer"),
    ("What are the names of stadiums in Leeds?",
     "SELECT name FROM stadium WHERE city = 'Leeds'"),
    ("Count the singers.", "SELECT COUNT(*) FROM singer;"),
    ("Which stadiums are in leeds?",
     "SELECT name FROM stadium WHERE city = 'leeds'"),
    ("Name the stadiums located in Leeds.",
     "  SELECT name FROM stadium WHERE city = 'Leeds'  "),
    ("How many concerts are there?", "SELECT COUNT(*) FROM concert"),
    ("Give the number of singers.", "SELECT COUNT(*) FROM singer"),
]
PAIRED_GOLDS = {
    "SELECT COUNT(*) FROM singer",
    "SELECT name FROM stadium WHERE city = 'Leeds'",
    "SELECT name FROM stadium WHERE city = 'leeds'",
    "SELECT COUNT(*) FROM concert",
}
# Candidates spell SELECT in lower case, so an execute call whose text starts
# with "SELECT" is a gold execution.
PAIRED_SQL = {q: gold.strip().rstrip(";").replace("SELECT", "select")
              for q, gold in PAIRED}
PAIRED_SQL["Which stadiums are in leeds?"] = (
    "select name FROM stadium WHERE city = 'Leeds'")
# The same candidates spelled with SELECT ALL, so each differs from its gold
# in more than case and is not served from the gold query's run.
PAIRED_SQL_ALL = {q: sql.replace("select", "select all", 1) for q, sql in PAIRED_SQL.items()}
PAIRED_EA = [True, True, True, False, True, True, True]


@pytest.fixture()
def paired(tmp_path, fixture_tables_file, db_root):
    path = tmp_path / "paired.json"
    path.write_text(json.dumps([
        {"question": q, "query": gold, "db_id": "music"} for q, gold in PAIRED
    ]), encoding="utf-8")
    return load_dataset(str(path), fixture_tables_file, db_root)


def count_executions(monkeypatch, counted, outcome=None):
    """Counts, by query text, the executions run_pipeline makes of queries
    whose text ``counted`` accepts. ``outcome(text)``, when given, may
    return an outcome that the execution returns instead of running."""
    counts = Counter()
    lock = threading.Lock()
    execute = pipeline.execute

    def counting_execute(connection, query, timeout=30.0):
        if counted(query.text):
            with lock:
                counts[query.text] += 1
        injected = outcome and outcome(query.text)
        if injected:
            return injected
        return execute(connection, query, timeout=timeout)

    monkeypatch.setattr(pipeline, "execute", counting_execute)
    return counts


@pytest.fixture()
def gold_runs(monkeypatch):
    """Counts, by query text, the gold executions run_pipeline makes."""
    return count_executions(monkeypatch, lambda text: text.startswith("SELECT"))


@pytest.fixture()
def executions(monkeypatch):
    """Counts, by query text, every execution run_pipeline makes."""
    return count_executions(monkeypatch, lambda text: True)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_gold_executes_once_per_db_and_gold(paired, gold_runs, parallelism):
    samples, schemas, db_paths = paired
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL), parallelism=parallelism)
    assert gold_runs == {gold: 1 for gold in PAIRED_GOLDS}
    assert [r.ea for r in report.rows] == PAIRED_EA


def test_gold_literal_case_is_not_merged(paired, gold_runs):
    samples, schemas, db_paths = paired
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL), parallelism=1)
    assert gold_runs["SELECT name FROM stadium WHERE city = 'Leeds'"] == 1
    assert gold_runs["SELECT name FROM stadium WHERE city = 'leeds'"] == 1
    by_index = {r.index: r for r in report.rows}
    assert by_index[1].ea and by_index[4].ea
    assert by_index[3].ea is False  # scored against its own, empty, gold


def test_crash_in_first_sample_of_group_keeps_gold(paired, gold_runs, caplog):
    class CrashingBackend(QuestionKeyedBackend):
        def complete(self, request, role=None):
            if role == "sql" and self._question(request) == PAIRED[0][0]:
                raise RuntimeError("backend bug")
            return super().complete(request, role)

    samples, schemas, db_paths = paired
    gateway = Gateway(backends={"t": CrashingBackend(PAIRED_SQL)},
                      route=ModelRoute.uniform("t", "fixture-model"))
    report = evaluate(samples, schemas, db_paths, PipelineConfig(), gateway,
                      parallelism=1)
    assert "sample 0 crashed" in caplog.text
    assert [r.ea for r in report.rows] == [False] + PAIRED_EA[1:]
    assert report.rows[0].stage_error is True
    # the gold ran before the crash and its outcome stays with the group
    assert gold_runs == {gold: 1 for gold in PAIRED_GOLDS}


@pytest.mark.parametrize("parallelism", [1, 4])
def test_each_distinct_query_executes_once_per_group(paired, executions, parallelism):
    samples, schemas, db_paths = paired
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL_ALL), parallelism=parallelism)
    assert [r.ea for r in report.rows] == PAIRED_EA
    assert executions == {
        **{gold: 1 for gold in PAIRED_GOLDS},
        # samples 0, 2 and 6 reply with the same candidate
        "select all COUNT(*) FROM singer": 1,
        # once in the 'Leeds' group (samples 1 and 4) and once in the
        # 'leeds' group, where it is wrong and the correction repeats it
        "select all name FROM stadium WHERE city = 'Leeds'": 2,
        "select all COUNT(*) FROM concert": 1,
    }


def test_candidate_spelled_like_its_gold_is_served_from_the_gold_run(paired, executions):
    samples, schemas, db_paths = paired
    # each candidate differs from its group's gold only in letter case, but
    # the 'leeds' group's also in a literal's case
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL), parallelism=1)
    assert [r.ea for r in report.rows] == PAIRED_EA
    assert executions == {**{gold: 1 for gold in PAIRED_GOLDS},
                          "select name FROM stadium WHERE city = 'Leeds'": 1}


def test_memo_does_not_outlive_its_group(paired, executions, connections):
    samples, schemas, db_paths = paired
    # two groups on one database whose samples reply with the same candidate
    report = evaluate([samples[1], samples[3]], schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL_ALL), parallelism=1)
    assert [r.ea for r in report.rows] == [True, False]
    assert executions["select all name FROM stadium WHERE city = 'Leeds'"] == 2
    assert connections["opened"] == 1  # the connection outlives the group


def untimed(trace) -> dict:
    """A trace record as JSON decodes it, without the stages' measured
    ``wall_time``."""
    record = json.loads(json.dumps(trace))
    for stage in record["stages"]:
        del stage["wall_time"]
    return record


def test_memo_hits_record_the_attempts_of_a_fresh_run(paired, tmp_path):
    samples, schemas, db_paths = paired
    traces = tmp_path / "traces.jsonl"
    evaluate(samples, schemas, db_paths, PipelineConfig(),
             question_keyed_gateway(PAIRED_SQL), parallelism=1,
             trace_path=str(traces))
    records = {t["sample_id"]: t for t in load_traces(str(traces))}
    for sample in samples:
        alone = run_pipeline_once(sample.question, schemas["music"], db_paths["music"],
                                  PipelineConfig(), question_keyed_gateway(PAIRED_SQL),
                                  gold_query=sample.gold_query,
                                  sample_id=str(sample.index))
        assert untimed(records[str(sample.index)]) == untimed(asdict(alone.trace))


@pytest.mark.parametrize("failed", [
    ExecutionOutcome.failure("missing_entity", "no such column: nope"),
    ExecutionOutcome.timeout(),
])
def test_failed_candidate_repeated_in_a_group_runs_each_time(paired, monkeypatch, failed):
    samples, schemas, db_paths = paired
    candidate = "select nope FROM singer"
    executions = count_executions(
        monkeypatch, lambda text: True,
        outcome=lambda text: failed if text == candidate else None)
    group = [samples[0], samples[2]]
    report = evaluate(group, schemas, db_paths, PipelineConfig(max_correction_attempts=0),
                      question_keyed_gateway({s.question: candidate for s in group}),
                      parallelism=1)
    assert [(r.valid, r.ea) for r in report.rows] == [(False, False)] * 2
    assert executions == {"SELECT COUNT(*) FROM singer": 1, candidate: 2}


@pytest.fixture()
def compiles(monkeypatch):
    """Counts the programs run_pipeline compiles."""
    counts = Counter()
    compile_program = pipeline.program

    def counting_program(connection, query):
        counts["compiled"] += 1
        return compile_program(connection, query)

    monkeypatch.setattr(pipeline, "program", counting_program)
    return counts


@pytest.fixture()
def over_page_cache(monkeypatch):
    """Has every memo take its database for one larger than its page cache,
    so every memo matches by program."""
    monkeypatch.setattr(pipeline, "larger_than_cache", lambda connection: True)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_candidates_of_their_golds_program_are_served_from_its_run(
        paired, executions, compiles, over_page_cache, parallelism):
    samples, schemas, db_paths = paired
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL_ALL), parallelism=parallelism)
    assert [r.ea for r in report.rows] == PAIRED_EA
    # the 'leeds' group's candidate differs from its gold in a literal; its
    # repeat in the correction round is served by its own form
    assert executions == {**{gold: 1 for gold in PAIRED_GOLDS},
                          "select all name FROM stadium WHERE city = 'Leeds'": 1}
    assert compiles["compiled"] > 0


def test_program_hits_record_the_attempts_of_a_fresh_run(paired, tmp_path, request):
    # over_page_cache is set after the fresh runs: each of them compiles nothing
    samples, schemas, db_paths = paired
    fresh = {}
    for sample in samples:
        alone = run_pipeline_once(sample.question, schemas["music"], db_paths["music"],
                                  PipelineConfig(), question_keyed_gateway(PAIRED_SQL_ALL),
                                  gold_query=sample.gold_query,
                                  sample_id=str(sample.index))
        fresh[str(sample.index)] = untimed(asdict(alone.trace))
    request.getfixturevalue("over_page_cache")
    traces = tmp_path / "traces.jsonl"
    evaluate(samples, schemas, db_paths, PipelineConfig(),
             question_keyed_gateway(PAIRED_SQL_ALL), parallelism=1,
             trace_path=str(traces))
    assert {t["sample_id"]: untimed(t) for t in load_traces(str(traces))} == fresh


def test_replay_hits_record_their_wall_time(dataset, tmp_path):
    samples, schemas, db_paths = dataset
    cache_dir = tmp_path / "cache"

    def run(name):
        backend = ReplayBackend(QuestionKeyedBackend(SQL_BY_QUESTION, FIX_BY_QUESTION),
                                cache_dir)
        gateway = Gateway(backends={"t": backend},
                          route=ModelRoute.uniform("t", "fixture-model"))
        try:
            report = evaluate(samples, schemas, db_paths, PipelineConfig(), gateway,
                              parallelism=2, trace_path=str(tmp_path / f"{name}.jsonl"))
        finally:
            backend.close()
        write_report(report, tmp_path / name)
        return (tmp_path / name / "report.json").read_bytes()

    cold = run("cold")
    entries = len(read_replay_log(cache_dir))
    warm = run("warm")
    assert len(read_replay_log(cache_dir)) == entries  # every call a replay hit
    stages = [stage for trace in load_traces(str(tmp_path / "warm.jsonl"))
              for stage in trace["stages"]]
    assert stages and all(stage["wall_time"] > 0 for stage in stages)
    assert warm == cold


def test_nothing_is_compiled_at_the_default_gate(paired, executions, compiles):
    samples, schemas, db_paths = paired
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL_ALL), parallelism=1)
    assert [r.ea for r in report.rows] == PAIRED_EA
    assert compiles["compiled"] == 0
    assert executions["select all COUNT(*) FROM singer"] == 1


def test_candidate_of_another_program_runs(paired, executions, compiles, over_page_cache):
    samples, schemas, db_paths = paired
    group = [samples[0], samples[2], samples[6]]  # gold SELECT COUNT(*) FROM singer
    replies = ["select all COUNT(*) FROM concert",
               "select COUNT(*) FROM singer WHERE age > 0",
               "select count(*) FROM singer AS s"]
    evaluate(group, schemas, db_paths, PipelineConfig(max_correction_attempts=0),
             question_keyed_gateway({s.question: r for s, r in zip(group, replies)}),
             parallelism=1)
    assert executions == {"SELECT COUNT(*) FROM singer": 1, replies[0]: 1, replies[1]: 1}
    # the gold before it runs, then each candidate
    assert compiles["compiled"] == 4


@pytest.mark.parametrize("failed", [
    ExecutionOutcome.failure("other", "disk I/O error"),
    ExecutionOutcome.timeout(),
])
def test_a_failed_outcome_is_not_served_by_program(paired, monkeypatch, over_page_cache,
                                                   failed):
    samples, schemas, db_paths = paired
    first, second = "select all COUNT(*) FROM singer", "select COUNT(*) FROM singer s"
    executions = count_executions(
        monkeypatch, lambda text: True,
        outcome=lambda text: failed if text == first else None)
    group = [samples[1], samples[4]]  # gold: stadiums in 'Leeds'
    evaluate(group, schemas, db_paths, PipelineConfig(max_correction_attempts=0),
             question_keyed_gateway({group[0].question: first,
                                     group[1].question: second}),
             parallelism=1)
    assert executions == {"SELECT name FROM stadium WHERE city = 'Leeds'": 1,
                          first: 1, second: 1}


@pytest.mark.parametrize("parallelism", [2, 4])
def test_workers_serve_respelled_candidates_from_the_program_table_at_once(
        tmp_path, fixture_tables_file, executions, monkeypatch, parallelism):
    """Four respellings of one gold, on a database larger than its page
    cache: two workers hold in the group at once, and the gold's one run
    serves every candidate by its program."""
    root = tmp_path / "database"
    (root / "music").mkdir(parents=True)
    path = build_fixture_db(root / "music" / "music.sqlite")
    with contextlib.closing(sqlite3.connect(path)) as conn:
        conn.execute("CREATE TABLE filler (pad TEXT)")
        conn.executemany("INSERT INTO filler VALUES (?)", [("x" * 4000,)] * 700)
        conn.commit()
    with contextlib.closing(connect_readonly(path)) as connection:
        assert larger_than_cache(connection)
    gold = "SELECT COUNT(*) FROM singer"
    replies = {f"Question {i}?": sql for i, sql in enumerate([
        "select count(*) from singer as s", "select count(*) from singer t",
        "select all count(*) from singer", "select all count(*) from singer as u"])}
    questions = tmp_path / "dev.json"
    questions.write_text(json.dumps([{"question": q, "query": gold, "db_id": "music"}
                                     for q in replies]))
    compiled_on = []
    compile_program = pipeline.program

    def recording_program(connection, query):
        compiled_on.append(threading.get_ident())
        return compile_program(connection, query)

    monkeypatch.setattr(pipeline, "program", recording_program)
    meeting, held = threading.Barrier(2, timeout=30), itertools.count()

    class Meeting(QuestionKeyedBackend):
        def complete(self, request, role=None):
            if role == "sql" and next(held) < 2:
                meeting.wait()  # two workers are in the group at once
            return super().complete(request, role)

    gateway = Gateway(backends={"t": Meeting(replies)},
                      route=ModelRoute.uniform("t", "fixture-model"))
    samples, schemas, db_paths = load_dataset(str(questions), fixture_tables_file, str(root))
    report = evaluate(samples, schemas, db_paths, PipelineConfig(), gateway,
                      parallelism=parallelism)
    assert [r.ea for r in report.rows] == [True] * len(replies)
    assert executions == {gold: 1}
    assert len(compiled_on) == 1 + len(replies)  # the gold, then each candidate
    assert len(set(compiled_on)) >= 2


def test_a_small_benchmark_batch_compiles_no_program(tmp_path, monkeypatch, compiles):
    """The benchmark's replay_warm batch: 40 questions over Spider-sized
    databases, each smaller than its page cache."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "evalbench")
    subprocess.run([sys.executable, os.path.join(bench, "gen.py"), "--size", "small",
                    "--seed", "5", "--out", str(tmp_path)], check=True)
    monkeypatch.syspath_prepend(bench)
    monkeypatch.setenv("NL2SQL_API_KEY", "simulated")
    simmodel = importlib.import_module("simmodel")
    script = json.loads((tmp_path / "bench" / "script.json").read_text(encoding="utf-8"))
    roles = {t.system_text: role for role, t in load_default_templates().items()}
    gateway = Gateway(
        backends={"sim": RemoteBackend("http://simulated.invalid",
                                       session=simmodel.SimulatedModel(script, roles))},
        route=ModelRoute.uniform("sim", "simulated-model"))
    samples, schemas, db_paths = load_dataset(
        str(tmp_path / "dev.json"), str(tmp_path / "tables.json"), str(tmp_path / "database"))
    report = evaluate(samples, schemas, db_paths, PipelineConfig(), gateway, parallelism=2)
    expected = json.loads((tmp_path / "bench" / "expected.json").read_text(encoding="utf-8"))
    assert [r.ea for r in report.rows] == [row["ea"] for row in expected]
    assert compiles["compiled"] == 0


def test_resume_runs_only_pending_samples_of_a_group(paired, gold_runs, tmp_path):
    samples, schemas, db_paths = paired
    checkpoint = tmp_path / "rows.jsonl"
    traces = tmp_path / "traces.jsonl"
    evaluate(samples[:2], schemas, db_paths, PipelineConfig(),
             question_keyed_gateway(PAIRED_SQL), parallelism=1,
             checkpoint_path=str(checkpoint))
    gold_runs.clear()

    resumed = evaluate(samples, schemas, db_paths, PipelineConfig(),
                       question_keyed_gateway(PAIRED_SQL), parallelism=4,
                       checkpoint_path=str(checkpoint), trace_path=str(traces))
    ran = sorted(int(t["sample_id"]) for t in load_traces(str(traces)))
    assert ran == [2, 3, 4, 5, 6]
    assert gold_runs == {gold: 1 for gold in PAIRED_GOLDS}
    assert [r.ea for r in resumed.rows] == PAIRED_EA
    assert checkpoint.read_text().count("\n") == len(PAIRED)


def test_report_identical_across_parallelism_with_shared_golds(paired, tmp_path):
    samples, schemas, db_paths = paired
    for parallelism in (1, 4):
        report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                          question_keyed_gateway(PAIRED_SQL),
                          parallelism=parallelism)
        write_report(report, tmp_path / str(parallelism))
    assert ((tmp_path / "1" / "report.json").read_bytes()
            == (tmp_path / "4" / "report.json").read_bytes())


def test_resume_keeps_one_trace_per_sample(dataset, tmp_path):
    samples, schemas, db_paths = dataset
    checkpoint, traces = tmp_path / "rows.jsonl", tmp_path / "traces.jsonl"
    evaluate(samples[:2], schemas, db_paths, PipelineConfig(), new_gateway(),
             parallelism=1, checkpoint_path=str(checkpoint), trace_path=str(traces))
    # a kill after sample 2's trace line and before its checkpoint row
    with AppendLog(traces) as log:
        append_trace([PipelineTrace(sample_id="2", status="stage_error")], log)

    evaluate(samples[:4], schemas, db_paths, PipelineConfig(), new_gateway(),
             parallelism=1, checkpoint_path=str(checkpoint), trace_path=str(traces))
    lines = [json.loads(line) for line in traces.read_text().splitlines()]
    assert [t["sample_id"] for t in lines] == ["0", "1", "2", "2", "3"]
    records = load_traces(str(traces))
    assert [t["sample_id"] for t in records] == ["0", "1", "2", "3"]
    assert records[2]["status"] == "solved"


def test_a_query_that_ran_before_a_reply_without_sql_is_valid(tmp_path, fixture_tables_file,
                                                             db_root):
    """The row is the last attempt that had SQL: a wrong query that ran is
    valid SQL, though every round after it replied without SQL."""
    question, gold = DATASET[0]
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": question, "query": gold, "db_id": "music"}]))
    samples, schemas, db_paths = load_dataset(str(path), fixture_tables_file, db_root)
    wrong = "SELECT name FROM singer"
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway({question: wrong}, {question: "I cannot."}),
                      parallelism=1)
    row, = report.rows
    assert (row.final_sql, row.valid, row.ea, row.attempts) == (wrong, True, False, 3)
    assert report.aggregates["valid_sql_rate"] == 100.0


def test_lone_surrogate_in_reply_yields_a_row(tmp_path, fixture_tables_file, db_root,
                                               caplog):
    question, gold = DATASET[0]
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": question, "query": gold, "db_id": "music"}]))
    samples, schemas, db_paths = load_dataset(str(path), fixture_tables_file, db_root)
    reply = gold + " -- \ud800"
    checkpoint, traces = tmp_path / "rows.jsonl", tmp_path / "traces.jsonl"
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway({question: reply}), parallelism=1,
                      checkpoint_path=str(checkpoint), trace_path=str(traces))
    assert "crashed" not in caplog.text
    row = report.rows[0]
    assert row.final_sql == reply and row.valid is False and row.ea is False
    assert [json.loads(line) for line in checkpoint.read_bytes().splitlines()] == [asdict(row)]
    assert load_traces(str(traces))[0]["stages"][3]["response"] == reply


# Text a JSON reply can carry, NULs and lone surrogates made common. The JSON
# round trip joins a high surrogate followed by a low one into one
# character, as every JSON decoder does.
_reply_text = st.text(
    st.characters(exclude_categories=()) | st.sampled_from("\x00\ud800\udbff\udc00\udfff;'\n")
).map(lambda text: json.loads(json.dumps(text)))


@given(reply=st.tuples(
    st.sampled_from(["", "SELECT COUNT(*) FROM singer", "SELECT name FROM singer -- "]),
    _reply_text,
).map("".join))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_sql_reply_yields_a_row_and_a_report(reply, tmp_path, fixture_tables_file,
                                                 db_root, caplog):
    question, gold = DATASET[0]
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": question, "query": gold, "db_id": "music"}]))
    samples, schemas, db_paths = load_dataset(str(path), fixture_tables_file, db_root)
    caplog.clear()
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway({question: reply}), parallelism=1)
    assert "crashed" not in caplog.text
    assert len(report.rows) == 1
    write_report(report, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "report.json").read_bytes().decode("utf-8"))
    assert payload["rows"][0]["final_sql"] == report.rows[0].final_sql


class _OneRoleReplies(QuestionKeyedBackend):
    """QuestionKeyedBackend, except that every call of ``role`` gets ``reply``."""

    def __init__(self, role, reply, sql_by_question):
        super().__init__(sql_by_question)
        self.role, self.reply = role, reply

    def complete(self, request, role=None):
        if role != self.role:
            return super().complete(request, role)
        return ChatResponse(self.reply, prompt_tokens=1, completion_tokens=1)


@given(role=st.sampled_from([role for role in AGENT_ROLES if role != "sql"]), reply=st.tuples(
    st.sampled_from(["", "SELECT COUNT(*) FROM singer", "SELECT name FROM singer -- ",
                     "1. SELECT '", '{"steps": ["', '{"tables": {"singer": ["',
                     '{"codes": ["SCH-04"], "steps": ["']),
    _reply_text,
).map("".join))
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_reply_of_another_role_yields_a_row_and_a_report(role, reply, tmp_path,
                                                             fixture_tables_file, db_root,
                                                             caplog):
    """The SQL stage's property above, for the other five roles."""
    question, gold = DATASET[0]
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": question, "query": gold, "db_id": "music"}]))
    samples, schemas, db_paths = load_dataset(str(path), fixture_tables_file, db_root)
    # a wrong first candidate, so that the correction roles are asked too
    first = "SELECT COUNT(*) FROM concert" if role.startswith("correction") else gold
    gateway = Gateway(backends={"test": _OneRoleReplies(role, reply, {question: first})},
                      route=ModelRoute.uniform("test", "fixture-model"))
    caplog.clear()
    report = evaluate(samples, schemas, db_paths, PipelineConfig(), gateway, parallelism=1)
    assert "crashed" not in caplog.text
    assert len(report.rows) == 1
    write_report(report, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "report.json").read_bytes().decode("utf-8"))
    assert payload["rows"][0]["final_sql"] == report.rows[0].final_sql


# --- worker sessions, held connections and logs ------------------------------

@pytest.fixture()
def two_databases(tmp_path):
    """PAIRED twice, its samples alternating between two copies of the
    fixture database: music holds the even indexes, music2 the odd."""
    root = tmp_path / "database"
    for db_id in ("music", "music2"):
        (root / db_id).mkdir(parents=True)
        build_fixture_db(root / db_id / f"{db_id}.sqlite")
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps([fixture_tables_entry("music"),
                                  fixture_tables_entry("music2")]))
    questions = tmp_path / "dev.json"
    questions.write_text(json.dumps([
        {"question": q, "query": gold, "db_id": ("music", "music2")[i % 2]}
        for i, (q, gold) in enumerate(PAIRED * 2)
    ]))
    return load_dataset(str(questions), str(tables), str(root))


# music's groups by first sample: singer 0 2 6, Leeds 4 8, leeds 10,
# concert 12; then music2's: Leeds 1 11, leeds 3, concert 5, singer 7 9 13.
TWO_DATABASE_ORDER = [0, 2, 6, 4, 8, 10, 12, 1, 11, 3, 5, 7, 9, 13]
# report.json of the two-database batch at parallelism 1, as written before
# groups were scheduled in database order.
TWO_DATABASE_REPORT_SHA256 = "57cd46c483a52fa71987b3d9907784d67f064e7db008991ece3270b8b85630ce"


@pytest.fixture()
def sessions(monkeypatch):
    """Per worker thread: the connect_readonly calls it made, and each
    sample it ran with the connection it ran on, in order."""
    opens, ran = Counter(), {}
    lock = threading.Lock()
    connect, run_one = evalkit.connect_readonly, evalkit._run_one

    def counting_connect(path):
        with lock:
            opens[threading.get_ident()] += 1
        return connect(path)

    def recording_run_one(sample, schema, connection, *args):
        with lock:
            ran.setdefault(threading.get_ident(), []).append((sample, connection))
        return run_one(sample, schema, connection, *args)

    monkeypatch.setattr(evalkit, "connect_readonly", counting_connect)
    monkeypatch.setattr(evalkit, "_run_one", recording_run_one)
    return opens, ran


def test_groups_start_in_database_then_first_sample_order(two_databases, sessions):
    samples, schemas, db_paths = two_databases
    evaluate(samples, schemas, db_paths, PipelineConfig(),
             question_keyed_gateway(PAIRED_SQL), parallelism=1)
    _, ran = sessions
    [order] = ran.values()
    assert [sample.index for sample, _ in order] == TWO_DATABASE_ORDER


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_worker_holds_one_connection_per_run_of_groups_on_a_database(
        two_databases, sessions, connections, parallelism):
    samples, schemas, db_paths = two_databases
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL), parallelism=parallelism)
    assert [r.ea for r in report.rows] == PAIRED_EA * 2
    opens, ran = sessions
    assert sum(len(order) for order in ran.values()) == len(samples)
    for thread, order in ran.items():
        runs = sum(i == 0 or sample.db_id != order[i - 1][0].db_id
                   for i, (sample, _) in enumerate(order))
        # the connections stay referenced in ``order``, so ids are unique
        assert len({id(connection) for _, connection in order}) == runs
        assert opens[thread] == runs
    assert connections["opened"] == sum(opens.values())
    if parallelism == 1:
        assert connections["opened"] == 2  # one per database
    assert connections["opened"] <= 2 * parallelism
    assert connections["peak"] <= parallelism
    assert connections["open"] == 0


def _drive(schedule, workers, pick):
    """Positions each worker takes from ``schedule`` until none is left:
    each takes one as it starts, then ``pick`` chooses which of the workers
    still taking goes next."""
    taken = [[schedule.take(worker)] for worker in range(workers)]
    live = list(range(workers))
    while live:
        worker = pick(live)
        group = schedule.take(worker)
        if group is None:
            live.remove(worker)
        else:
            taken[worker].append(group)
    return taken


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_split_runs_schedule(workers):
    order = list(range(10))  # groups as their positions in database order
    runs = [order[i * 10 // workers:(i + 1) * 10 // workers] for i in range(workers)]
    run_of = {group: i for i, run in enumerate(runs) for group in run}
    picks = [lambda live: live[0], lambda live: live[-1]]
    picks += [random.Random(seed).choice for seed in range(20)]
    for pick in picks:
        taken = _drive(evalkit._SplitRuns(order, workers), workers, pick)
        assert sorted(sum(taken, [])) == order
        for i, groups in enumerate(taken):
            own = [g for g in groups if run_of[g] == i]
            # run i's front, walked forward, then runs taken from the far
            # end, one at a time: each a walk through a slice of the
            # database order
            assert own[0] == runs[i][0] and groups[:len(own)] == own
            assert own == list(range(own[0], own[0] + len(own)))
            stolen = [list(s) for _, s in itertools.groupby(groups[len(own):], run_of.get)]
            assert len({run_of[s[0]] for s in stolen}) == len(stolen)
            assert all(s == sorted(s, reverse=True) for s in stolen)
        if workers == 2:  # the two ends of one list
            ends = runs[0] + runs[1][::-1]
            assert taken[0] == ends[:len(taken[0])]
            assert taken[1] == ends[::-1][:len(taken[1])]


@pytest.mark.parametrize("parallelism", [1, 2, 3, 4])
def test_split_run_schedule_in_evaluate(two_databases, sessions, connections,
                                        monkeypatch, tmp_path, parallelism):
    samples, schemas, db_paths = two_databases
    barrier = threading.Barrier(parallelism, timeout=30)
    started = set()
    run_one = evalkit._run_one

    def first_samples_taken_together(sample, *args):
        # every worker has taken its first sample before any finishes one,
        # so none can have taken another worker's first sample
        if threading.get_ident() not in started:
            started.add(threading.get_ident())
            barrier.wait()
        return run_one(sample, *args)

    monkeypatch.setattr(evalkit, "_run_one", first_samples_taken_together)
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL), parallelism=parallelism)
    write_report(report, tmp_path)
    raw = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == TWO_DATABASE_REPORT_SHA256

    _, ran = sessions
    assert sorted(s.index for order in ran.values() for s, _ in order) \
        == list(range(len(samples)))
    n = len(TWO_DATABASE_ORDER)
    assert {order[0][0].index for order in ran.values()} \
        == {TWO_DATABASE_ORDER[i * n // parallelism] for i in range(parallelism)}
    for order in ran.values():
        runs = sum(i == 0 or sample.db_id != order[i - 1][0].db_id
                   for i, (sample, _) in enumerate(order))
        assert len({id(connection) for _, connection in order}) == runs
    assert connections["peak"] <= parallelism


# --- one outcome memo per group, shared by the workers --------------------------

@pytest.mark.parametrize("parallelism", [2, 4])
def test_idle_worker_takes_the_unstarted_sample_of_a_running_group(
        tmp_path, fixture_tables_file, db_root, gold_runs, monkeypatch, parallelism):
    """One group of two samples per worker, so each run is one group; the
    worker of group 0 holds its first sample until another worker, its own
    run done, has taken the second."""
    tables = ("singer", "concert", "stadium", "album")[:parallelism]
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([
        {"question": f"How many {table} rows are there ({j})?",
         "query": f"SELECT COUNT(*) FROM {table}", "db_id": "music"}
        for table in tables for j in range(2)]))
    samples, schemas, db_paths = load_dataset(str(path), fixture_tables_file, db_root)
    taken = threading.Event()
    ran = {}  # sample index -> (thread, memo)
    run_one = evalkit._run_one

    def held_until_stolen(sample, *args):
        ran[sample.index] = (threading.get_ident(), args[-1])
        if sample.index == 1:
            taken.set()
        elif sample.index == 0 and not taken.wait(timeout=30):
            raise AssertionError("no worker took sample 1")
        return run_one(sample, *args)

    monkeypatch.setattr(evalkit, "_run_one", held_until_stolen)
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway({s.question: s.gold_query.lower()
                                              for s in samples}),
                      parallelism=parallelism)
    assert [r.ea for r in report.rows] == [True] * len(samples)
    (thread0, memo0), (thread1, memo1) = ran[0], ran[1]
    assert thread0 != thread1 and memo0 is memo1
    assert gold_runs == {f"SELECT COUNT(*) FROM {table}": 1 for table in tables}


@pytest.mark.parametrize("parallelism", [1, 2, 3, 4])
def test_memos_live_from_a_groups_first_sample_to_its_last(two_databases, monkeypatch,
                                                           parallelism):
    samples, schemas, db_paths = two_databases
    live = weakref.WeakSet()  # the memos given to _run_one and not yet freed
    peak = []
    lock = threading.Lock()
    run_one = evalkit._run_one

    def tracked(*args):
        with lock:
            if args[-1] not in live:
                live.add(args[-1])
                peak.append(len(live))
        return run_one(*args)

    monkeypatch.setattr(evalkit, "_run_one", tracked)
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL), parallelism=parallelism)
    assert [r.ea for r in report.rows] == PAIRED_EA * 2
    gc.collect()
    assert len(live) == 0
    assert len(peak) == len({(s.db_id, evalkit._gold_key(s.gold_query)) for s in samples})
    # one memo per worker, and one more for each group the split into runs
    # cuts in two: its other part may wait for a worker still busy elsewhere
    by_index = {s.index: (s.db_id, evalkit._gold_key(s.gold_query)) for s in samples}
    n = len(TWO_DATABASE_ORDER)
    runs = [TWO_DATABASE_ORDER[i * n // parallelism:(i + 1) * n // parallelism]
            for i in range(parallelism)]
    cut = {group for group in by_index.values()
           if sum(any(by_index[i] == group for i in run) for run in runs) > 1}
    assert max(peak) <= parallelism + len(cut)
    if parallelism != 3:
        assert not cut  # so at most one memo per worker


def test_group_connection_closed_when_a_sample_crashes(paired, connections, caplog):
    class CrashingBackend(QuestionKeyedBackend):
        def complete(self, request, role=None):
            if role == "sql" and self._question(request) in (PAIRED[0][0], PAIRED[2][0]):
                raise RuntimeError("backend bug")
            return super().complete(request, role)

    samples, schemas, db_paths = paired
    gateway = Gateway(backends={"t": CrashingBackend(PAIRED_SQL)},
                      route=ModelRoute.uniform("t", "fixture-model"))
    evaluate(samples, schemas, db_paths, PipelineConfig(), gateway, parallelism=2)
    assert "sample 0 crashed" in caplog.text and "sample 2 crashed" in caplog.text
    assert 1 <= connections["opened"] <= 2  # one database, two workers
    assert connections["open"] == 0


def test_group_whose_database_cannot_be_opened_scores_crashes(tmp_path, caplog,
                                                              connections):
    root = tmp_path / "database"
    for db_id in ("music", "music2"):
        (root / db_id).mkdir(parents=True)
        build_fixture_db(root / db_id / f"{db_id}.sqlite")
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps([fixture_tables_entry("music"),
                                  fixture_tables_entry("music2")]))
    questions = tmp_path / "dev.json"
    questions.write_text(json.dumps([
        {"question": q, "query": gold, "db_id": "music2" if i % 3 == 1 else "music"}
        for i, (q, gold) in enumerate(DATASET)
    ]))
    samples, schemas, db_paths = load_dataset(str(questions), str(tables), str(root))
    before = evaluate(samples, schemas, db_paths, PipelineConfig(), new_gateway(),
                      parallelism=2)
    os.remove(db_paths["music2"])
    os.mkdir(db_paths["music2"])  # now connect_readonly raises OSError on it
    lost = {s.index for s in samples if s.db_id == "music2"}

    checkpoint, traces = tmp_path / "rows.jsonl", tmp_path / "traces.jsonl"
    report = evaluate(samples, schemas, db_paths, PipelineConfig(), new_gateway(),
                      parallelism=2, checkpoint_path=str(checkpoint),
                      trace_path=str(traces))
    assert [r.index for r in report.rows] == list(range(len(DATASET)))
    for row, old in zip(report.rows, before.rows):
        if row.index in lost:
            assert (row.ea, row.valid, row.attempts, row.stage_error) == (False, False, 0, True)
            assert f"sample {row.index} crashed" in caplog.text
        else:
            assert row == old
    checkpointed = [json.loads(line)["index"] for line in checkpoint.read_bytes().splitlines()]
    assert sorted(checkpointed) == list(range(len(DATASET)))
    traced = {int(t["sample_id"]) for t in load_traces(str(traces))}
    assert traced == set(range(len(DATASET))) - lost
    assert connections["open"] == 0


def test_report_identical_across_parallelism_and_to_the_file_order_schedule(
        two_databases, tmp_path):
    samples, schemas, db_paths = two_databases
    for parallelism in (1, 4):
        report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                          question_keyed_gateway(PAIRED_SQL), parallelism=parallelism)
        write_report(report, tmp_path / str(parallelism))
    raw = (tmp_path / "1" / "report.json").read_bytes()
    assert raw == (tmp_path / "4" / "report.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == TWO_DATABASE_REPORT_SHA256


def test_logs_hold_whole_lines_under_parallelism_8(tmp_path, fixture_tables_file, db_root):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": q, "query": gold, "db_id": "music"}
                                for _ in range(6) for q, gold in DATASET]))
    samples, schemas, db_paths = load_dataset(str(path), fixture_tables_file, db_root)
    checkpoint, traces = tmp_path / "rows.jsonl", tmp_path / "traces.jsonl"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        report = evaluate(samples, schemas, db_paths, PipelineConfig(), new_gateway(),
                          parallelism=8, checkpoint_path=str(checkpoint),
                          trace_path=str(traces))
    finally:
        sys.setswitchinterval(interval)
    rows = {row.index: asdict(row) for row in report.rows}
    checkpointed = [json.loads(line) for line in checkpoint.read_bytes().splitlines()]
    assert sorted(r["index"] for r in checkpointed) == list(range(len(samples)))
    assert all(r == rows[r["index"]] for r in checkpointed)
    traced = [json.loads(line) for line in traces.read_bytes().splitlines()]
    assert sorted(int(t["sample_id"]) for t in traced) == list(range(len(samples)))


def _log_writes(monkeypatch, fail_at=None):
    """Counts the ``os.write`` calls made on descriptors of JSON-lines logs;
    the ``fail_at``-th of them raises ENOSPC without writing."""
    fds, writes = set(), Counter()
    open_for_append, write = jsonl._open_for_append, os.write

    def recording_open(path):
        fd = open_for_append(path)
        fds.add(fd)
        return fd

    def failing_write(fd, data):
        if fd in fds:
            writes[fd] += 1
            if sum(writes.values()) == fail_at:
                raise OSError(errno.ENOSPC, "No space left on device")
        return write(fd, data)

    monkeypatch.setattr(jsonl, "_open_for_append", recording_open)
    monkeypatch.setattr(os, "write", failing_write)
    return writes


def test_one_write_per_group_and_log(paired, tmp_path, monkeypatch):
    samples, schemas, db_paths = paired
    writes = _log_writes(monkeypatch)
    checkpoint, traces = tmp_path / "rows.jsonl", tmp_path / "traces.jsonl"
    evaluate(samples, schemas, db_paths, PipelineConfig(),
             question_keyed_gateway(PAIRED_SQL), parallelism=1,
             checkpoint_path=str(checkpoint), trace_path=str(traces))
    assert sorted(writes.values()) == [len(PAIRED_GOLDS)] * 2
    # a group's trace lines go out before its checkpoint rows
    assert [int(t["sample_id"]) for t in map(json.loads, traces.read_text().splitlines())] \
        == [json.loads(line)["index"] for line in checkpoint.read_text().splitlines()] \
        == [0, 2, 6, 1, 4, 3, 5]


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("fail_at", [1, 2, 5, 8])
def test_resume_after_a_failed_log_write(paired, tmp_path, monkeypatch, parallelism,
                                         fail_at):
    samples, schemas, db_paths = paired
    checkpoint, traces = tmp_path / "rows.jsonl", tmp_path / "traces.jsonl"
    with monkeypatch.context() as patch:
        _log_writes(patch, fail_at)
        with pytest.raises(OSError, match="No space left"):
            evaluate(samples, schemas, db_paths, PipelineConfig(),
                     question_keyed_gateway(PAIRED_SQL), parallelism=parallelism,
                     checkpoint_path=str(checkpoint), trace_path=str(traces))
    for path in (checkpoint, traces):  # only whole lines
        raw = path.read_bytes() if path.exists() else b""
        assert raw == b"" or raw.endswith(b"\n")
        for line in raw.splitlines():
            json.loads(line)
    kept = set(evalkit._read_checkpoint(str(checkpoint)))
    assert len(kept) < len(PAIRED)

    ran = []
    run_one = evalkit._run_one
    monkeypatch.setattr(evalkit, "_run_one",
                        lambda sample, *args: ran.append(sample.index) or run_one(sample, *args))
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL), parallelism=parallelism,
                      checkpoint_path=str(checkpoint), trace_path=str(traces))
    assert sorted(ran) == sorted(set(range(len(PAIRED))) - kept)
    assert [r.ea for r in report.rows] == PAIRED_EA
    assert sorted(json.loads(line)["index"]
                  for line in checkpoint.read_bytes().splitlines()) == list(range(len(PAIRED)))
    assert main(["trace", "--trace-file", str(traces)]) == 0  # nl2sql trace reads it
    assert sorted(int(t["sample_id"]) for t in load_traces(str(traces))) \
        == list(range(len(PAIRED)))


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors in /proc/self/fd (Linux)")
def test_no_descriptor_left_open_after_evaluate(two_databases, tmp_path, monkeypatch):
    samples, schemas, db_paths = two_databases
    before = _open_descriptors()
    evaluate(samples, schemas, db_paths, PipelineConfig(),
             question_keyed_gateway(PAIRED_SQL), parallelism=4,
             checkpoint_path=str(tmp_path / "a.jsonl"), trace_path=str(tmp_path / "a.t"))
    assert _open_descriptors() == before

    for fail_at in (1, 2, 3):  # a trace write, then a checkpoint write, ...
        logs = tmp_path / str(fail_at)
        with monkeypatch.context() as patch:
            _log_writes(patch, fail_at)
            with pytest.raises(OSError, match="No space left"):
                evaluate(samples, schemas, db_paths, PipelineConfig(),
                         question_keyed_gateway(PAIRED_SQL), parallelism=4,
                         checkpoint_path=str(logs / "b.jsonl"),
                         trace_path=str(logs / "b.t"))
        assert (logs / "b.jsonl").exists() and (logs / "b.t").exists()
        assert _open_descriptors() == before


def test_gold_canonicalized_once_per_sample(paired, monkeypatch):
    golds = {gold_sql(sample.gold_query).text for sample in paired[0]}
    canonicalized = Counter()
    canonical = evalkit.canonical_sql

    def counting_canonical(text):
        if text in golds:
            canonicalized["gold"] += 1
        return canonical(text)

    monkeypatch.setattr(evalkit, "canonical_sql", counting_canonical)
    samples, schemas, db_paths = paired
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL), parallelism=1)
    # to group the samples; exact_match reuses the group's key
    assert canonicalized["gold"] == len(PAIRED)
    # each final query differs from its gold only outside literals, or not at all
    assert [r.exact_match for r in report.rows] == PAIRED_EA


def test_prompt_invariants_built_once_per_run(paired, monkeypatch):
    built = Counter()

    def counting(name, build):
        def counted(obj):
            built[name] += 1
            return build(obj)
        return counted

    monkeypatch.setattr(taxonomy, "_summary_text",
                        counting("summary", taxonomy._summary_text))
    monkeypatch.setattr(schema_module, "_render_full",
                        counting("schema text", schema_module._render_full))
    taxonomy.default_taxonomy.cache_clear()
    samples, schemas, db_paths = paired  # freshly loaded: no text built yet
    report = evaluate(samples, schemas, db_paths, PipelineConfig(),
                      question_keyed_gateway(PAIRED_SQL), parallelism=1)
    assert any(r.attempts > 1 for r in report.rows)  # a correction round ran
    assert taxonomy.default_taxonomy.cache_info().misses == 1
    assert built == {"summary": 1, "schema text": 1}
