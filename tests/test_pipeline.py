import hashlib
import json
from dataclasses import asdict

import pytest

from nl2sql import pipeline
from nl2sql.execution import ExecutionOutcome, execute
from nl2sql.gateway import ChatResponse
from nl2sql.jsonl import AppendLog
from nl2sql.pipeline import (
    PipelineConfig,
    PipelineTrace,
    append_trace,
    load_traces,
    repeat_guard,
)

from conftest import run_pipeline_once, scripted_gateway

QUESTION = "How many singers do we have?"
GOLD = "SELECT COUNT(*) FROM singer"
CORRECT = "SELECT COUNT(*) FROM singer"
WRONG = "SELECT COUNT(*) FROM concert"  # executes fine, result differs
# more wrong candidates, each distinct, so no correction prompt repeats
OTHER_WRONGS = [
    "SELECT COUNT(*) FROM stadium",
    "SELECT COUNT(*) FROM track",
    "SELECT COUNT(*) FROM genre",
]


def run(music_schema, fixture_db, gateway, **config_kw):
    config = PipelineConfig(**config_kw)
    return run_pipeline_once(
        QUESTION, music_schema, fixture_db, config, gateway, gold_query=GOLD
    )


def stage_roles(result):
    return [s.role for s in result.trace.stages]


def test_first_try_success(music_schema, fixture_db):
    gateway = scripted_gateway([CORRECT])
    result = run(music_schema, fixture_db, gateway)
    assert result.trace.status == "solved"
    assert result.ea is True
    assert result.final_sql.text == CORRECT
    assert stage_roles(result) == ["schema_linking", "subproblem", "query_plan", "sql"]
    assert len(result.trace.attempts) == 1


def test_fail_then_fix_is_one_round(music_schema, fixture_db):
    gateway = scripted_gateway([WRONG], correction_sql_responses=[CORRECT])
    result = run(music_schema, fixture_db, gateway)
    assert result.trace.status == "solved"
    assert stage_roles(result) == [
        "schema_linking", "subproblem", "query_plan", "sql",
        "correction_plan", "correction_sql",
    ]
    assert len(result.trace.attempts) == 2
    assert result.trace.attempts[0].ea is False
    assert result.trace.attempts[1].ea is True


def test_always_wrong_exhausts_at_bound(music_schema, fixture_db):
    gateway = scripted_gateway([WRONG], correction_sql_responses=OTHER_WRONGS)
    result = run(music_schema, fixture_db, gateway, max_correction_attempts=3)
    assert result.trace.status == "exhausted"
    assert len(result.trace.attempts) == 1 + 3
    assert stage_roles(result).count("correction_plan") == 3
    assert result.ea is False


def test_alternating_wrongs_stop_before_resent_round(music_schema, fixture_db):
    """w0, w1, w0: a third round would resend round 1's (failed SQL,
    feedback) prompt, so the loop stops with the repeat executed."""
    w0, w1 = WRONG, OTHER_WRONGS[0]
    gateway = scripted_gateway([w0], correction_sql_responses=[w1, w0, w1])
    result = run(music_schema, fixture_db, gateway, max_correction_attempts=3)
    assert result.trace.status == "exhausted"
    assert [a.sql for a in result.trace.attempts] == [w0, w1, w0]
    assert result.trace.attempts[2].repeat_of_earlier
    assert stage_roles(result).count("correction_plan") == 2
    assert gateway.backends["test"].calls == 4 + 2 * 2  # a full third round adds 2
    assert result.ea is False


def test_repeated_candidate_still_executes(music_schema, fixture_db, monkeypatch):
    """A repeated candidate is executed again, so a transient failure of
    its first run can clear. Its text differs from the gold's, so the
    outcome memo cannot serve it from the gold query's run."""
    candidate = "SELECT count(*) FROM singer"
    calls = []

    def flaky_execute(connection, query, timeout=30.0):
        calls.append(query.text)
        if len(calls) == 2:  # the first candidate; call 1 runs the gold query
            return ExecutionOutcome.timeout()
        return execute(connection, query, timeout=timeout)

    monkeypatch.setattr(pipeline, "execute", flaky_execute)
    gateway = scripted_gateway([candidate], correction_sql_responses=[candidate])
    result = run(music_schema, fixture_db, gateway)
    assert calls == [GOLD, candidate, candidate]
    assert [a.status for a in result.trace.attempts] == ["timeout", "success"]
    assert result.trace.attempts[1].repeat_of_earlier
    assert result.trace.status == "solved"
    assert result.ea is True


def test_attempt_bound_holds_for_any_budget(music_schema, fixture_db):
    for budget in (0, 1, 2):
        gateway = scripted_gateway(
            [WRONG], correction_sql_responses=[WRONG] * budget
        )
        result = run(music_schema, fixture_db, gateway,
                     max_correction_attempts=budget)
        assert len(result.trace.attempts) <= 1 + budget
        assert result.trace.status == "exhausted"


def test_skip_correction(music_schema, fixture_db):
    gateway = scripted_gateway([WRONG])
    result = run(music_schema, fixture_db, gateway, skip_correction=True)
    assert result.trace.status == "exhausted"
    assert stage_roles(result) == ["schema_linking", "subproblem", "query_plan", "sql"]
    assert len(result.trace.attempts) == 1


def test_skip_correction_identical_on_success(music_schema, fixture_db):
    """Correction path is dead code when the first try is correct."""
    full = run(music_schema, fixture_db, scripted_gateway([CORRECT]))
    ablated = run(music_schema, fixture_db, scripted_gateway([CORRECT]),
                  skip_correction=True)
    assert full.final_sql == ablated.final_sql
    assert full.ea == ablated.ea
    assert stage_roles(full) == stage_roles(ablated)


def test_skip_query_plan(music_schema, fixture_db):
    gateway = scripted_gateway([CORRECT])
    result = run(music_schema, fixture_db, gateway, skip_query_plan=True)
    assert result.trace.status == "solved"
    assert stage_roles(result) == ["schema_linking", "subproblem", "sql"]
    sql_stage = result.trace.stages[-1]
    assert "subproblems" in sql_stage.prompt.lower()


def test_execution_error_only_trigger(music_schema, fixture_db):
    config = PipelineConfig(correction_trigger="execution_error_only")
    gateway = scripted_gateway(
        ["SELECT namee FROM singer"],
        correction_sql_responses=["SELECT name FROM singer"],
    )
    result = run_pipeline_once(QUESTION, music_schema, fixture_db, config, gateway)
    assert result.trace.status == "solved"
    assert len(result.trace.attempts) == 2
    assert result.ea is None  # no gold supplied
    assert result.outcome.status == "success"


def test_execution_error_only_accepts_wrong_but_valid(music_schema, fixture_db):
    config = PipelineConfig(correction_trigger="execution_error_only")
    gateway = scripted_gateway([WRONG])
    result = run_pipeline_once(QUESTION, music_schema, fixture_db, config, gateway)
    assert result.trace.status == "solved"
    assert len(result.trace.attempts) == 1


def test_gold_mismatch_requires_gold(music_schema, fixture_db):
    config = PipelineConfig(correction_trigger="gold_mismatch")
    with pytest.raises(ValueError):
        run_pipeline_once(QUESTION, music_schema, fixture_db, config,
                          scripted_gateway([CORRECT]))


def test_stage_error_trace_complete(music_schema, fixture_db):
    gateway = scripted_gateway([], schema_linking=["junk", "more junk"])
    result = run(music_schema, fixture_db, gateway)
    assert result.trace.status == "stage_error"
    assert result.final_sql is None
    assert len(result.trace.stages) == 2  # both linking calls recorded


def test_stage_error_mid_correction(music_schema, fixture_db):
    gateway = scripted_gateway(
        [WRONG], correction_rounds=1,
        correction_plan=["no steps json at all {", "still bad"],
    )
    result = run(music_schema, fixture_db, gateway)
    assert result.trace.status == "stage_error"
    assert result.final_sql.text == WRONG  # best attempt so far preserved


def test_sanitize_error_counts_as_attempt_and_triggers(music_schema, fixture_db):
    gateway = scripted_gateway(
        ["I cannot write that query."],
        correction_sql_responses=[CORRECT],
    )
    result = run(music_schema, fixture_db, gateway)
    assert result.trace.status == "solved"
    assert result.trace.attempts[0].status == "sanitize_error"
    assert result.trace.attempts[1].ea is True


def test_repeat_guard_flags_identical_resubmission(music_schema, fixture_db):
    gateway = scripted_gateway(
        [WRONG], correction_sql_responses=["SELECT   COUNT(*)\nFROM   concert"]
    )
    result = run(music_schema, fixture_db, gateway, max_correction_attempts=1)
    assert result.trace.attempts[1].repeat_of_earlier is True
    assert result.trace.status == "exhausted"


def test_repeat_guard_rules():
    assert repeat_guard(["SELECT a FROM t"], "SELECT a FROM t")
    assert repeat_guard(["SELECT a FROM t"], "SELECT  a\n FROM\tt")
    assert not repeat_guard(["SELECT a FROM t"], "SELECT b FROM t")
    assert not repeat_guard([], "SELECT a FROM t")


def test_stage_records_match_gateway_calls(music_schema, fixture_db):
    gateway = scripted_gateway([WRONG], correction_sql_responses=[CORRECT])
    result = run(music_schema, fixture_db, gateway)
    assert len(result.trace.stages) == gateway.backends["test"].calls


def test_solved_means_final_attempt_matches(music_schema, fixture_db):
    gateway = scripted_gateway([CORRECT])
    result = run(music_schema, fixture_db, gateway)
    assert result.trace.status == "solved"
    assert result.trace.attempts[-1].ea is True


def test_trace_persistence_roundtrip(tmp_path, music_schema, fixture_db):
    gateway = scripted_gateway([CORRECT])
    result = run(music_schema, fixture_db, gateway)
    path = tmp_path / "trace.jsonl"
    with AppendLog(path) as log:
        append_trace([result.trace], log)
        result.trace.status = "exhausted"
        append_trace([result.trace], log)
    assert len(path.read_text().splitlines()) == 2
    records = load_traces(path)
    assert len(records) == 1  # one per sample id: the last one written
    assert records[0]["status"] == "exhausted"
    assert [s["role"] for s in records[0]["stages"]] == stage_roles(result)
    assert records[0]["stages"][0]["response"]


def test_trace_line_decodes_equal_to_asdict(tmp_path, music_schema, fixture_db):
    gateway = scripted_gateway([WRONG], correction_sql_responses=[CORRECT])
    trace = run(music_schema, fixture_db, gateway).trace
    trace.stages[0].warnings.append("naïve \ud800 warning")
    trace.add_warning("trace-level ☃")
    path = tmp_path / "trace.jsonl"
    with AppendLog(path) as log:
        append_trace([trace], log)
    line = path.read_bytes()
    assert line.isascii() and line.endswith(b"\n") and line.count(b"\n") == 1
    assert json.loads(line) == asdict(trace)


def test_load_traces_skips_torn_line(tmp_path, music_schema, fixture_db):
    result = run(music_schema, fixture_db, scripted_gateway([CORRECT]))
    path = tmp_path / "trace.jsonl"
    with AppendLog(path) as log:
        append_trace([result.trace], log)
    with open(path, "a", encoding="ascii") as fh:
        fh.write('[1]\n{"sample_id": "torn", "stag')  # a foreign line, then a torn tail
    records = load_traces(path)
    assert [r["sample_id"] for r in records] == [result.trace.sample_id]
    result.trace.sample_id = "next"
    with AppendLog(path) as log:  # the next record starts its own line
        append_trace([result.trace], log)
    assert [r["sample_id"] for r in load_traces(path)] == [QUESTION, "next"]


def test_add_stage_accepts_lone_surrogate():
    trace = PipelineTrace(sample_id="s")
    trace.add_stage("sql", "prompt", ChatResponse("SELECT 1 -- \ud800"), "m")
    assert trace.stages[0].artifact_digest == hashlib.sha256(
        "SELECT 1 -- \ud800".encode("utf-8", "surrogatepass")).hexdigest()[:16]


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(max_correction_attempts=-1)
    with pytest.raises(ValueError):
        PipelineConfig(correction_trigger="nonsense")
