import argparse
import functools
import json
import os
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from nl2sql import cli, evalkit
from nl2sql.cli import main
from nl2sql.gateway import GatewayError, RemoteBackend, read_replay_log

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


@pytest.mark.parametrize("gold", ["", "  ", ";", " ;; "])
def test_ask_with_a_blank_gold_exits_1_before_any_model_call(tmp_path, fixture_db, capsys,
                                                             gold):
    trace = tmp_path / "trace.jsonl"
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM singer"))
    code = main(["ask", "--config", config, "--db-file", fixture_db, "--question", "q",
                 "--gold", gold, "--trace-file", str(trace)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --gold is blank, not {gold!r}"]
    assert not trace.exists()


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


@pytest.mark.parametrize("command", ["ask", "eval"])
def test_a_database_file_sqlite_cannot_read_exits_2_before_any_model_call(
        tmp_path, eval_assets, capsys, monkeypatch, command):
    questions, tables, _, config = eval_assets
    db_file = tmp_path / "dbs" / "music" / "music.sqlite"
    db_file.parent.mkdir(parents=True)
    db_file.write_bytes(b"not a database " * 1000)
    calls = []

    def complete_for_role(self, role, messages):
        calls.append(role)
        raise GatewayError("no model call is expected")

    monkeypatch.setattr(cli.Gateway, "complete_for_role", complete_for_role)
    if command == "ask":
        argv = ["ask", "--db-file", str(db_file), "--tables", tables, "--question", "q"]
    else:
        argv = ["eval", "--questions", questions, "--tables", tables,
                "--db-root", str(tmp_path / "dbs"), "--parallelism", "1",
                "--out", str(tmp_path / "out")]
    code = main(argv + ["--config", config])
    captured = capsys.readouterr()
    assert (code, captured.out, calls) == (2, "", [])
    error, = captured.err.splitlines()
    assert error.startswith("error: ") and error.endswith(
        f"cannot read database {db_file}: file is not a database")
    assert not (tmp_path / "out").exists()


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


_ALL_ROLES = ("schema_linking", "subproblem", "query_plan", "sql",
              "correction_plan", "correction_sql")


@pytest.mark.parametrize("command", ["ask", "eval"])
@pytest.mark.parametrize("flags, extra, named", [
    (["--max-corrections", "-1"], {}, "--max-corrections"),
    ([], {"pipeline": {"correction_trigger": "sometimes"}}, "pipeline.correction_trigger"),
    ([], {"pipeline": {"timeout": "soon"}}, "pipeline.timeout"),
    ([], {"pipeline": {"max_correction_attempts": 1.5}}, "pipeline.max_correction_attempts"),
    ([], {"pipeline": {"skip_query_plan": "no"}}, "pipeline.skip_query_plan"),
    ([], {"pipeline": {"skip_correction": True}}, "pipeline.skip_correction"),
    ([], {"pipeline": {"temperature": -1}}, "pipeline.temperature"),
    ([], {"pipeline": [1, 2]}, "pipeline"),
    ([], {"backends": {"fixtures": "scripted"}}, "backends.fixtures"),
    ([], {"route": {"sql": {"model": "m"}}}, "route.sql"),
    ([], {"route": {"sql": {"backend": "fixtures", "model": "m"}}}, "route"),
    ([], {"route": {role: {"backend": "nope" if role == "sql" else "fixtures", "model": "m"}
                    for role in _ALL_ROLES}}, "route.sql"),
    ([], {"route": {"planner": {"backend": "fixtures", "model": "m"}}}, "route.planner"),
    ([], {"backends": {"fixtures": {"type": "scripted", "scripts": [1, 2]}}},
     "backends.fixtures.scripts"),
    ([], {"backends": {"fixtures": {"type": "scripted", "scripts": {"sql": 5}}}},
     "backends.fixtures.scripts.sql"),
    ([], {"backends": {"fixtures": {"type": "scripted", "scripts": {"schema_linking": [5]}}}},
     "backends.fixtures.scripts.schema_linking"),
    ([], {"backends": {"fixtures": {"type": "scripted", "exact": {}}}},
     "backends.fixtures.exact"),
    ([], {"backends": {"fixtures": {"type": "scripted", "timeout": 5}}},
     "backends.fixtures.timeout"),
    ([], {"modle": "m"}, "modle"),
    ([], {"backends": {"fixtures": {"type": "scripted", "scirpts": {}}}},
     "backends.fixtures.scirpts"),
    ([], {"route": {"sql": {"backend": "fixtures", "modle": "m"}}}, "route.sql.modle"),
    ([], {"pipeline": {"timout": 5}}, "pipeline.timout"),
    ([], {"prices": {"m": -1}}, "prices.m"),
])
def test_invalid_setting_exits_1_before_any_model_call(tmp_path, eval_assets, fixture_db,
                                                      capsys, command, flags, extra, named):
    questions, tables, db_root, _ = eval_assets
    # no scripted reply: a model call would end the command with stage errors
    config = write_config(tmp_path, {}, **extra)
    if command == "ask":
        argv = ["ask", "--db-file", fixture_db, "--question", "q"]
    else:
        argv = ["eval", "--questions", questions, "--tables", tables, "--db-root", db_root,
                "--parallelism", "1", "--out", str(tmp_path / "out")]
    code = main(argv + ["--config", config] + flags)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    error, = captured.err.splitlines()
    assert error.startswith("error: ") and f" {named} " in error
    assert not (tmp_path / "out").exists()


def test_no_correction_and_max_corrections_exclude_each_other(fixture_db, capsys):
    code = main(["ask", "--db-file", fixture_db, "--question", "q",
                 "--no-correction", "--max-corrections", "2"])
    assert code == 1
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("first, fixes, attempts", [
    ("SELECT COUNT(*) FROM concert", [], 1),  # valid but wrong: no gold, no mismatch
    ("SELECT namee FROM singer", ["SELECT COUNT(*) FROM singer"], 2),
])
def test_ask_without_gold_corrects_only_a_failing_candidate(tmp_path, fixture_db, capsys,
                                                            first, fixes, attempts):
    config = write_config(tmp_path, ask_scripts(first, fixes=fixes))  # default trigger
    code = main(["ask", "--config", config, "--db-file", fixture_db,
                 "--question", "How many singers do we have?"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == (fixes or [first])[-1]
    assert f"attempts: {attempts}" in captured.err


@pytest.mark.parametrize("flags", [["--limit", "0"], ["--offset", "3"], ["--offset", "7"],
                                   ["--offset", "2", "--limit", "0"]])
def test_eval_of_an_empty_batch_exits_1_before_any_file_write(tmp_path, eval_assets, capsys,
                                                             flags):
    questions, tables, db_root, config = eval_assets
    out = tmp_path / "runs"
    code = main(["eval", "--config", config, "--questions", questions, "--tables", tables,
                 "--db-root", db_root, "--parallelism", "1", "--out", str(out / "report"),
                 "--checkpoint", str(out / "rows.jsonl"), "--trace-file", str(out / "t.jsonl"),
                 "--cache-dir", str(out / "cache")] + flags)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    error, = captured.err.splitlines()
    assert error.startswith("error: --offset ")
    assert error.endswith(f" selects no question of {questions}")
    assert not out.exists()


@pytest.mark.parametrize("name, text", [("question", " \n"), ("query", ""), ("query", " ;; ")])
def test_eval_blank_question_or_query_exits_2(tmp_path, eval_assets, capsys, name, text):
    _, tables, db_root, config = eval_assets
    entry = {"question": "q", "query": "SELECT 1", "db_id": "music", name: text}
    questions = tmp_path / "blank.json"
    questions.write_text(json.dumps([entry]))
    code = main(["eval", "--config", config, "--questions", str(questions),
                 "--tables", tables, "--db-root", db_root, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"malformed entry 0: {name!r} is blank" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["/nonexistent/dir", "empty"])
def test_templates_dir_without_templates_exits_2(tmp_path, fixture_db, capsys, where):
    (tmp_path / "empty").mkdir()
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM singer"))
    code = main(["ask", "--config", config, "--db-file", fixture_db, "--question", "q",
                 "--templates-dir", str(tmp_path / where)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error, = captured.err.splitlines()
    assert error.startswith(f"error: templates directory {tmp_path / where} holds none of ")


def test_templates_dir_overrides_only_the_files_it_holds(tmp_path, fixture_db, capsys):
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "sql.txt").write_text("Write SQL.\n--- user ---\nSQL for: {question}",
                                       encoding="utf-8")
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM singer"))
    trace_file = tmp_path / "trace.jsonl"
    assert main(["ask", "--config", config, "--db-file", fixture_db, "--question", "q",
                 "--templates-dir", str(templates), "--trace-file", str(trace_file)]) == 0
    stages = json.loads(trace_file.read_text(encoding="ascii"))["stages"]
    assert [stage["prompt"] == "SQL for: q" for stage in stages] == [False, False, False, True]


@pytest.mark.parametrize("flag, value", [
    ("--limit", "-1"), ("--offset", "-2"), ("--parallelism", "0"), ("--parallelism", "-3"),
])
def test_eval_batch_flag_out_of_range_exits_1(tmp_path, eval_assets, capsys, flag, value):
    questions, tables, db_root, config = eval_assets
    code = main(["eval", "--config", config, "--questions", questions, "--tables", tables,
                 "--db-root", db_root, "--out", str(tmp_path / "out"), flag, value])
    captured = capsys.readouterr()
    assert code == 1
    error, = captured.err.splitlines()
    assert error.startswith(f"error: {flag} must be an integer of at least ")
    assert not (tmp_path / "out").exists()


def test_remote_timeout_that_is_not_a_number_exits_1_before_any_model_call(
        tmp_path, fixture_db, capsys, monkeypatch):
    calls = []

    class Session:
        def post(self, url, **kwargs):
            calls.append(kwargs["timeout"])
            raise ValueError(f"timeout must be a number, not {kwargs['timeout']!r}")

    monkeypatch.setenv("NL2SQL_API_KEY", "key")
    monkeypatch.setattr(cli, "RemoteBackend",
                        functools.partial(RemoteBackend, session=Session(), sleep=calls.append))
    config = write_config(tmp_path, {}, backends={"api": {"timeout": "soon"}})
    code = main(["ask", "--config", config, "--db-file", fixture_db, "--question", "q"])
    error, = capsys.readouterr().err.splitlines()
    assert code == 1
    assert error.startswith("error: config setting backends.api.timeout must be a number")
    assert calls == []


@pytest.mark.parametrize("key", [None, "rejected"])
@pytest.mark.parametrize("command", ["ask", "eval"])
def test_a_missing_or_rejected_api_key_stops_the_run_at_its_first_call(
        tmp_path, eval_assets, fixture_db, capsys, monkeypatch, key, command):
    posts, sleeps = [], []

    class Rejecting:
        def post(self, url, **kwargs):
            posts.append(url)
            return argparse.Namespace(status_code=401, headers={}, text="")

    if key is None:
        monkeypatch.delenv("NL2SQL_API_KEY", raising=False)
    else:
        monkeypatch.setenv("NL2SQL_API_KEY", key)
    monkeypatch.setattr(cli, "RemoteBackend",
                        functools.partial(RemoteBackend, session=Rejecting(), sleep=sleeps.append))
    questions, tables, db_root, _ = eval_assets
    config = write_config(tmp_path, {}, backends={"api": {"endpoint": "http://127.0.0.1:9"}})
    checkpoint, traces = tmp_path / "rows.jsonl", tmp_path / "traces.jsonl"
    if command == "ask":
        argv = ["ask", "--config", config, "--db-file", fixture_db, "--question", "q"]
    else:
        argv = ["eval", "--config", config, "--questions", questions, "--tables", tables,
                "--db-root", db_root, "--parallelism", "2", "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "out")]
    code = main(argv + ["--trace-file", str(traces)])
    captured = capsys.readouterr()
    error, = captured.err.splitlines()
    assert code == 2
    assert error.startswith("error: ")
    assert captured.out == ""
    # no retry, and at most one call per worker
    assert sleeps == [] and len(posts) <= (0 if key is None else 2)
    for log in (checkpoint, traces):
        assert not log.exists() or log.read_text() == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, code", [
    ("[1, 2]", 1),  # the same check as an inline value
    ("{'sql': ['SELECT 1']}", 2),  # not JSON
])
def test_scripts_file_is_checked(tmp_path, fixture_db, capsys, content, code):
    scripts = tmp_path / "scripts.json"
    scripts.write_text(content, encoding="utf-8")
    config = write_config(tmp_path, str(scripts))
    assert main(["ask", "--config", config, "--db-file", fixture_db, "--question", "q"]) == code
    error, = capsys.readouterr().err.splitlines()
    assert error.startswith("error: config setting backends.fixtures.scripts ")


def test_scripts_file_feeds_the_scripted_backend(tmp_path, fixture_db, capsys):
    scripts = tmp_path / "scripts.json"
    scripts.write_text(json.dumps(ask_scripts("SELECT COUNT(*) FROM singer")),
                       encoding="utf-8")
    config = write_config(tmp_path, str(scripts))
    assert main(["ask", "--config", config, "--db-file", fixture_db, "--question", "q"]) == 0
    assert capsys.readouterr().out.strip() == "SELECT COUNT(*) FROM singer"


@pytest.mark.parametrize("text", ["backends: {a: 1", "model: [unclosed\n"])
def test_config_file_that_is_not_yaml_exits_2(tmp_path, fixture_db, capsys, text):
    config = tmp_path / "config.yaml"
    config.write_text(text, encoding="utf-8")
    code = main(["ask", "--config", str(config), "--db-file", fixture_db, "--question", "q"])
    error, = capsys.readouterr().err.splitlines()
    assert code == 2
    assert error.startswith(f"error: config file {config} cannot be read: ")


@pytest.mark.parametrize("flags, pipeline", [
    ([], {"skip_query_plan": True, "max_correction_attempts": 0}),
    (["--no-query-plan", "--no-correction"], {"skip_query_plan": False}),
])
def test_skip_settings_and_their_flags(tmp_path, fixture_db, capsys, flags, pipeline):
    scripts = ask_scripts("SELECT COUNT(*) FROM singer")
    del scripts["query_plan"]  # a query_plan call would be a stage error
    config = write_config(tmp_path, scripts, pipeline=pipeline)
    code = main(["ask", "--config", config, "--db-file", fixture_db,
                 "--question", "How many singers do we have?"] + flags)
    assert code == 0
    assert capsys.readouterr().out.strip() == "SELECT COUNT(*) FROM singer"


def test_integer_temperature_reaches_the_gateway_as_a_float(tmp_path, eval_assets,
                                                            monkeypatch):
    questions, tables, db_root, _ = eval_assets
    seen = {}
    real_evaluate = evalkit.evaluate

    def spy(samples, schemas, db_paths, pipeline_config, gateway, **kwargs):
        seen["temperature"] = gateway.temperature
        return real_evaluate(samples, schemas, db_paths, pipeline_config, gateway, **kwargs)

    monkeypatch.setattr(evalkit, "evaluate", spy)
    scripts = ask_scripts(["SELECT COUNT(*) FROM singer"] * 3, n=3)
    config = write_config(tmp_path, scripts, pipeline={"temperature": 0})
    written = yaml.safe_load(Path(config).read_text(encoding="utf-8"))
    assert written["pipeline"] == {"temperature": 0}  # a YAML int
    main(["eval", "--config", config, "--questions", questions, "--tables", tables,
          "--db-root", db_root, "--parallelism", "1", "--no-correction",
          "--out", str(tmp_path / "out")])
    assert type(seen["temperature"]) is float and seen["temperature"] == 0.0


def test_readme_config_example_loads_and_lists_every_setting(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### YAML config", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.yaml"
    path.write_text(example, encoding="utf-8")
    settings = cli.load_config(argparse.Namespace(config=str(path)))
    assert settings == yaml.safe_load(example)
    assert set(settings) == set(cli.SETTINGS)
    assert set(settings["pipeline"]) == set(cli.SETTINGS["pipeline"])
    assert set(settings["route"]) == set(cli.SETTINGS["route"])
    assert {key for spec in settings["backends"].values() for key in spec} \
        == set(cli.SETTINGS["backends"]["*"])


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


@pytest.mark.parametrize("command", ["trace", "cache"])
def test_a_log_line_nested_too_deep_is_skipped(tmp_path, fixture_db, capsys, command):
    """A line nested past the JSON decoder's depth is unreadable, like a torn one."""
    cache_dir, trace_file = tmp_path / "cache", tmp_path / "trace.jsonl"
    config = write_config(tmp_path, ask_scripts("SELECT COUNT(*) FROM singer"))
    main(["ask", "--config", config, "--db-file", fixture_db, "--question", "q",
          "--trace-file", str(trace_file), "--cache-dir", str(cache_dir)])
    for log in (trace_file, cache_dir / "replay.jsonl"):
        with open(log, "a", encoding="ascii") as fh:
            fh.write("[" * 3000 + "\n")
    capsys.readouterr()
    if command == "trace":
        assert main(["trace", "--trace-file", str(trace_file)]) == 0
        assert capsys.readouterr().out.count("=== sample q [solved] ===") == 1
    else:
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "cache entries: 4" in capsys.readouterr().out


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


# --- input files: a data error, never a traceback -------------------------------

def run_eval(tmp_path, config, questions, tables, db_root, *flags):
    return main(["eval", "--config", config, "--questions", questions, "--tables", tables,
                 "--db-root", db_root, "--parallelism", "1", "--out", str(tmp_path / "out"),
                 *flags])


@pytest.mark.parametrize("which", ["questions", "tables"])
@pytest.mark.parametrize("content", [b"not json", b"[\xff]", b"\xfe\xff\x00[", b"[" * 3000],
                         ids=["not-json", "not-utf8", "utf16", "nested-too-deep"])
def test_an_input_file_that_is_not_utf8_json_exits_2_before_any_model_call(
        tmp_path, eval_assets, capsys, which, content):
    questions, tables, db_root, _ = eval_assets
    bad = tmp_path / f"bad-{which}.json"
    bad.write_bytes(content)
    files = {"questions": questions, "tables": tables, which: str(bad)}
    # no scripted reply: a model call would end the command with stage errors
    code = run_eval(tmp_path, write_config(tmp_path, {}), files["questions"], files["tables"],
                    db_root)
    captured = capsys.readouterr()
    error, = captured.err.splitlines()
    assert code == 2 and captured.out == ""
    assert error.startswith(f"error: {bad}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, problem", [
    (b"Write SQL.\nSQL for: {question}", "has no '--- user ---' line"),
    (b"Write SQL.\n--- user ---\nSQL for: {nonsense}", "uses {nonsense}"),
    (b"Write SQL.\n--- user ---\nSQL for {question} on {schema}", "uses {schema}"),
    (b"Write SQL.\n--- user ---\nSQL for: \xff{question}", "'utf-8' codec can't decode"),
])
@pytest.mark.parametrize("command", ["ask", "eval"])
def test_a_template_the_stage_cannot_render_exits_2_before_any_model_call(
        tmp_path, eval_assets, fixture_db, capsys, content, problem, command):
    questions, tables, db_root, _ = eval_assets
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "sql.txt").write_bytes(content)
    trace = tmp_path / "trace.jsonl"
    flags = ["--templates-dir", str(templates), "--trace-file", str(trace)]
    config = write_config(tmp_path, {})  # a model call would end in stage errors
    if command == "ask":
        code = main(["ask", "--config", config, "--db-file", fixture_db, "--question", "q",
                     *flags])
    else:
        code = run_eval(tmp_path, config, questions, tables, db_root, *flags)
    captured = capsys.readouterr()
    error, = captured.err.splitlines()
    assert code == 2 and captured.out == ""
    assert error.startswith(f"error: template file {templates / 'sql.txt'}: ")
    assert problem in error
    assert not trace.exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("gold, warning", [
    ("SELECT count(*) FROM nosuchtable",
     "no verdict: gold query failure: no such table: nosuchtable"),
    ("SELECT count(*) FROM singer", "execution accuracy: True"),
])
def test_ask_says_why_a_gold_gives_no_verdict(tmp_path, fixture_db, capsys, gold, warning):
    config = write_config(tmp_path, ask_scripts("SELECT count(id) FROM singer"))
    code = main(["ask", "--config", config, "--db-file", fixture_db, "--question", "q",
                 "--gold", gold])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "SELECT count(id) FROM singer"
    assert captured.err.splitlines() == ["attempts: 1", warning]


def write_inputs(directory, db_root):
    """A valid eval run's input files under ``directory``, and its argv."""
    directory = Path(directory)
    (directory / "templates").mkdir()
    (directory / "templates" / "sql.txt").write_text(
        "Write SQL.\n--- user ---\nSQL for: {question}\nPlan:\n{plan}", encoding="utf-8")
    (directory / "questions.json").write_text(json.dumps(
        [{"question": "How many singers?", "query": "SELECT COUNT(*) FROM singer",
          "db_id": "music"}]), encoding="utf-8")
    (directory / "tables.json").write_text(json.dumps([fixture_tables_entry()]),
                                           encoding="utf-8")
    (directory / "scripts.json").write_text(
        json.dumps(ask_scripts("SELECT COUNT(*) FROM singer")), encoding="utf-8")
    (directory / "config.yaml").write_text(yaml.safe_dump({
        "backends": {"fixtures": {"type": "scripted",
                                  "scripts": str(directory / "scripts.json")}},
        "templates_dir": str(directory / "templates"),
    }), encoding="utf-8")
    return ["eval", "--config", str(directory / "config.yaml"),
            "--questions", str(directory / "questions.json"),
            "--tables", str(directory / "tables.json"), "--db-root", db_root,
            "--parallelism", "1", "--out", str(directory / "out")]


def test_the_valid_inputs_of_the_input_file_property_run(tmp_path, db_root, capsys):
    assert main(write_inputs(tmp_path, db_root)) == 0
    assert "execution accuracy:  100.00%" in capsys.readouterr().out


_INPUT_FILES = ["questions.json", "tables.json", "config.yaml", "scripts.json",
                "templates/sql.txt"]
_NEAR_MISSES = [
    b"", b"null", b"0", b"[]", b"[{}]", b'[1, [], "q"]', b'{"question": "q"}', b"[" * 3000,
    b"\xef\xbb\xbf[]", b"\xff\xfe[\x00]\x00", b'["sql"]', b'{"sql": "SELECT 1"}',
    b"{'sql': []}", b'[{"question": "q", "query": "SELECT 1", "db_id": ["music"]}]',
    b'[{"db_id": "music", "table_names_original": "singer"}]',
    b"backends: {a: 1", b"backends: []", b"pipeline: {timeout: soon}", b"- [" * 5000,
    b"--- user ---\n{schema}", b"SQL for: {question}", b"--- user ---\n{question} \xff",
    json.dumps([dict(fixture_tables_entry(), db_id=["music"])]).encode(),
]


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(_INPUT_FILES),
       content=st.binary(max_size=48) | st.sampled_from(_NEAR_MISSES))
def test_no_input_file_crashes_a_command(db_root, capsys, caplog, monkeypatch, name, content):
    """Whatever one input file holds, eval gives one error: line and exit 1
    or 2, and scores no sample: a remote backend, the default when the
    config file names none, finds no API key at its first call."""
    if name == "scripts.json":  # a mapping or null is a script: it runs into stage errors
        try:
            assume(not isinstance(json.loads(content), (dict, type(None))))
        except (ValueError, RecursionError):
            pass
    monkeypatch.delenv("NL2SQL_API_KEY", raising=False)
    with tempfile.TemporaryDirectory() as directory:
        argv = write_inputs(directory, db_root)
        Path(directory, name).write_bytes(content)
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (1, 2), captured
        error, = captured.err.splitlines()
        assert error.startswith("error: ")
        assert captured.out == "" and not Path(directory, "out").exists()
    assert "crashed" not in caplog.text
