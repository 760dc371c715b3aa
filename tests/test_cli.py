import json
import os

import pytest
import yaml

from nl2sql import evalkit
from nl2sql.cli import main
from nl2sql.gateway import read_replay_log

from conftest import FULL_LINK_JSON, PLAN_JSON, CORRECTION_PLAN_JSON, fixture_tables_entry


def write_config(tmp_path, scripts, **extra):
    config = {
        "backends": {"fixtures": {"type": "scripted", "scripts": scripts}},
        **extra,
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return str(path)


def ask_scripts(sql, n=1, fixes=()):
    return {
        "schema_linking": [FULL_LINK_JSON] * n,
        "subproblem": ["{}"] * n,
        "query_plan": [PLAN_JSON] * n,
        "sql": [sql] if isinstance(sql, str) else list(sql),
        "correction_plan": [CORRECTION_PLAN_JSON] * len(fixes),
        "correction_sql": list(fixes),
    }


def test_taxonomy_list(capsys):
    assert main(["taxonomy"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 31
    assert "JOIN-02\t" in out


def test_taxonomy_summary(capsys):
    assert main(["taxonomy", "summary"]) == 0
    out = capsys.readouterr().out
    assert out.count("## ") == 9


def test_ask_prints_sql(tmp_path, fixture_db, capsys):
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM singer"))
    code = main([
        "ask", "--config", config, "--db-file", fixture_db,
        "--question", "How many singers do we have?",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "SELECT COUNT(*) FROM singer"
    assert "attempts: 1" in captured.err


def test_ask_with_gold_reports_ea(tmp_path, fixture_db, capsys):
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM singer"))
    code = main([
        "ask", "--config", config, "--db-file", fixture_db,
        "--question", "How many singers do we have?",
        "--gold", "SELECT COUNT(*) FROM singer",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "execution accuracy: True" in captured.err


def test_ask_stage_error_exit_code(tmp_path, fixture_db, capsys):
    config = write_config(tmp_path, {
        "schema_linking": ["junk", "junk again"],
    })
    code = main([
        "ask", "--config", config, "--db-file", fixture_db,
        "--question", "q",
    ])
    assert code == 3


def test_ask_gateway_error_is_stage_error(tmp_path, fixture_db, capsys):
    config = write_config(tmp_path, {})  # strict scripts with no fixture
    code = main([
        "ask", "--config", config, "--db-file", fixture_db,
        "--question", "How many singers do we have?",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(
        "stage error: schema_linking: ScriptedMissError: no fixture"
    )
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_ask_without_executable_sql_exits_3(tmp_path, fixture_db, capsys):
    config = write_config(tmp_path, ask_scripts("I cannot answer that one."))
    code = main([
        "ask", "--config", config, "--db-file", fixture_db,
        "--question", "q", "--no-correction",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "no executable SQL: no SQL statement found" in captured.err


def test_ask_runs_on_one_connection_closed_on_return(tmp_path, fixture_db,
                                                    fixture_tables_file, connections,
                                                    capsys):
    gold = "SELECT COUNT(*) FROM singer"
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM concert",
                                                fixes=[gold]))
    code = main([
        "ask", "--config", config, "--db-file", fixture_db,
        "--tables", fixture_tables_file,
        "--question", "How many singers do we have?", "--gold", gold,
    ])
    assert code == 0
    # the gold and the first candidate execute; the memo serves the fix
    assert "attempts: 2" in capsys.readouterr().err
    assert connections["opened"] == 1
    assert connections["open"] == 0


def test_ask_missing_db_is_data_error(tmp_path, capsys):
    config = write_config(tmp_path, ask_scripts("SELECT 1"))
    code = main([
        "ask", "--config", config, "--db-file", str(tmp_path / "no.sqlite"),
        "--question", "q",
    ])
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["ask"]) == 1  # --question required
    assert main([]) == 1


@pytest.fixture()
def eval_assets(tmp_path, fixture_tables_file, db_root):
    dataset = [
        ("How many singers do we have?", "SELECT COUNT(*) FROM singer"),
        ("How many concerts are there?", "SELECT COUNT(*) FROM concert"),
        ("How many genres are there?", "SELECT COUNT(*) FROM genre"),
    ]
    questions = tmp_path / "dev.json"
    questions.write_text(json.dumps([
        {"question": q, "query": gold, "db_id": "music"} for q, gold in dataset
    ]))
    scripts = ask_scripts([gold for _, gold in dataset], n=len(dataset))
    config = write_config(tmp_path, scripts)
    return str(questions), fixture_tables_file, db_root, config


def test_eval_writes_report(tmp_path, eval_assets, capsys):
    questions, tables, db_root, config = eval_assets
    out_dir = tmp_path / "out"
    code = main([
        "eval", "--config", config, "--questions", questions,
        "--tables", tables, "--db-root", db_root,
        "--parallelism", "1", "--out", str(out_dir),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "execution accuracy:  100.00%" in captured.out
    for name in ("report.json", "per_sample.csv", "summary.txt"):
        assert (out_dir / name).exists()


def test_eval_reports_a_reply_with_a_lone_surrogate(tmp_path, fixture_tables_file,
                                                     db_root, capsys):
    questions = tmp_path / "dev.json"
    questions.write_text(json.dumps([{"question": "How many singers do we have?",
                                      "query": "SELECT COUNT(*) FROM singer",
                                      "db_id": "music"}]))
    reply = "SELECT COUNT(*) FROM singer -- \ud800"
    config = write_config(tmp_path, ask_scripts(reply, fixes=[reply]))
    out_dir = tmp_path / "out"
    code = main([
        "eval", "--config", config, "--questions", str(questions),
        "--tables", fixture_tables_file, "--db-root", db_root,
        "--parallelism", "1", "--out", str(out_dir),
    ])
    assert code == 0
    assert "valid SQL rate:      0.00%" in capsys.readouterr().out
    payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert payload["rows"][0]["final_sql"] == reply


@pytest.mark.parametrize("with_cache", [True, False])
def test_eval_logs_into_directories_that_do_not_exist(tmp_path, eval_assets, capsys,
                                                      with_cache):
    questions, tables, db_root, config = eval_assets
    out = tmp_path / "runs" / "dev3"
    argv = [
        "eval", "--config", config, "--questions", questions,
        "--tables", tables, "--db-root", db_root, "--parallelism", "1",
        "--out", str(out), "--checkpoint", str(out / "rows.jsonl"),
        "--trace-file", str(out / "traces.jsonl"),
    ]
    if with_cache:
        argv += ["--cache-dir", str(out / "cache")]
    assert main(argv) == 0
    assert len((out / "rows.jsonl").read_bytes().splitlines()) == 3
    assert len((out / "traces.jsonl").read_bytes().splitlines()) == 3
    if with_cache:
        assert len(read_replay_log(out / "cache")) == 3 * 4  # four stages a sample


def test_eval_limit(tmp_path, eval_assets, capsys):
    questions, tables, db_root, config = eval_assets
    code = main([
        "eval", "--config", config, "--questions", questions,
        "--tables", tables, "--db-root", db_root,
        "--parallelism", "1", "--limit", "2", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(payload["rows"]) == 2


def test_eval_ablation_flags_reach_config(tmp_path, eval_assets):
    questions, tables, db_root, config = eval_assets
    # --no-query-plan: the query_plan script must go unconsumed
    code = main([
        "eval", "--config", config, "--questions", questions,
        "--tables", tables, "--db-root", db_root, "--parallelism", "1",
        "--no-query-plan", "--no-correction", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["aggregates"]["execution_accuracy"] == 100.00


def test_eval_parallelism_bounds_calls_in_flight(tmp_path, eval_assets, monkeypatch):
    questions, tables, db_root, config = eval_assets
    seen = {}
    real_evaluate = evalkit.evaluate

    def spy(samples, schemas, db_paths, pipeline_config, gateway, **kwargs):
        seen["max_in_flight"] = gateway.max_in_flight
        seen["parallelism"] = kwargs["parallelism"]
        return real_evaluate(samples, schemas, db_paths, pipeline_config, gateway, **kwargs)

    monkeypatch.setattr(evalkit, "evaluate", spy)
    main([
        "eval", "--config", config, "--questions", questions,
        "--tables", tables, "--db-root", db_root, "--parallelism", "8",
        "--no-correction", "--out", str(tmp_path / "out"),
    ])
    assert seen == {"max_in_flight": 8, "parallelism": 8}


def test_eval_requires_inputs(capsys):
    assert main(["eval"]) == 1


def test_eval_missing_questions_file(tmp_path, eval_assets):
    _, tables, db_root, config = eval_assets
    code = main([
        "eval", "--config", config, "--questions", str(tmp_path / "nope.json"),
        "--tables", tables, "--db-root", db_root, "--out", str(tmp_path / "o"),
    ])
    assert code == 2


def test_eval_non_text_query_exits_2(tmp_path, eval_assets, capsys):
    _, tables, db_root, config = eval_assets
    questions = tmp_path / "bad.json"
    questions.write_text(json.dumps([{"question": "q", "query": None, "db_id": "music"}]))
    code = main([
        "eval", "--config", config, "--questions", str(questions),
        "--tables", tables, "--db-root", db_root, "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "malformed entry 0: 'query' is not text" in capsys.readouterr().err


def test_eval_tables_entry_short_of_column_types_exits_2(tmp_path, eval_assets, capsys):
    questions, _, db_root, config = eval_assets
    entry = fixture_tables_entry()
    entry["column_types"].pop()
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps([entry]))
    code = main([
        "eval", "--config", config, "--questions", questions,
        "--tables", str(tables), "--db-root", db_root, "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "malformed entry 0: music:" in capsys.readouterr().err


def test_trace_inspection(tmp_path, fixture_db, capsys):
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM singer"))
    trace_file = tmp_path / "trace.jsonl"
    main([
        "ask", "--config", config, "--db-file", fixture_db,
        "--question", "How many singers do we have?",
        "--trace-file", str(trace_file),
    ])
    capsys.readouterr()
    code = main(["trace", "--trace-file", str(trace_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "schema_linking" in out
    assert "attempt 1" in out


def test_trace_skips_torn_line(tmp_path, fixture_db, capsys):
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM singer"))
    trace_file = tmp_path / "trace.jsonl"
    main(["ask", "--config", config, "--db-file", fixture_db,
          "--question", "q", "--trace-file", str(trace_file)])
    with open(trace_file, "a", encoding="ascii") as fh:
        fh.write('{"sample_id": "q", "stages": [{"role": "sq')  # killed mid-write
    capsys.readouterr()
    assert main(["trace", "--trace-file", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert out.count("=== sample q [solved] ===") == 1


@pytest.mark.parametrize("broken", [
    {"stages": [{}]}, {"stages": ["x"]}, {"attempts": [{}]},
])
def test_trace_skips_a_record_of_the_wrong_shape(tmp_path, fixture_db, capsys, broken):
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM singer"))
    trace_file = tmp_path / "trace.jsonl"
    main(["ask", "--config", config, "--db-file", fixture_db,
          "--question", "q", "--trace-file", str(trace_file)])
    record = json.loads(trace_file.read_text(encoding="ascii"))
    with open(trace_file, "a", encoding="ascii") as fh:
        fh.write(json.dumps(dict(record, sample_id="bad", **broken)) + "\n")
    capsys.readouterr()
    assert main(["trace", "--trace-file", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert out.count("=== sample q [solved] ===") == 1
    assert "sample bad" not in out


def test_trace_unknown_sample(tmp_path, fixture_db, capsys):
    config = write_config(tmp_path, ask_scripts("SELECT 1"))
    trace_file = tmp_path / "trace.jsonl"
    main(["ask", "--config", config, "--db-file", fixture_db,
          "--question", "q", "--trace-file", str(trace_file)])
    assert main(["trace", "--trace-file", str(trace_file),
                 "--sample", "missing"]) == 2


def test_cache_stats_and_clear(tmp_path, fixture_db, capsys):
    cache_dir = tmp_path / "cache"
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM singer"))
    main([
        "ask", "--config", config, "--db-file", fixture_db,
        "--question", "q", "--cache-dir", str(cache_dir),
    ])
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "cache entries: 4" in out  # one per agent stage
    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    assert "cache entries: 0" in capsys.readouterr().out
