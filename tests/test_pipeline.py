import contextlib
import hashlib
import json
import sqlite3
import threading
from dataclasses import asdict

import pytest

from nl2sql import pipeline
from nl2sql.execution import (
    ExecutionOutcome,
    SqlQuery,
    canonical_sql,
    connect_readonly,
    execute,
    larger_than_cache,
)
from nl2sql.gateway import ChatResponse
from nl2sql.jsonl import AppendLog
from nl2sql.pipeline import (
    PipelineConfig,
    PipelineTrace,
    append_trace,
    load_traces,
)

from conftest import (
    WaitCountingCondition,
    build_fixture_db,
    run_pipeline_once,
    scripted_gateway,
)

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


def test_a_respelled_wrong_result_stops_before_a_resent_round(music_schema, fixture_db):
    """A correction that returns the earlier wrong-result query respelled
    (case, spacing, a comment) has its form and its feedback, so a second
    round would resend round 1's prompt in all but spelling: the loop
    stops."""
    respelled = "select count(*)\n  FROM Concert /* again */"
    gateway = scripted_gateway([WRONG], correction_sql_responses=[respelled, respelled],
                               correction_rounds=2)
    result = run(music_schema, fixture_db, gateway, max_correction_attempts=3)
    assert result.trace.status == "exhausted"
    assert [a.sql for a in result.trace.attempts] == [WRONG, respelled]
    assert result.trace.attempts[1].repeat_of_earlier
    assert stage_roles(result).count("correction_plan") == 1
    assert gateway.backends["test"].calls == 4 + 2  # a second round adds 2


def test_repeated_candidate_still_executes(music_schema, fixture_db, monkeypatch):
    """A repeated candidate is executed again, so a transient failure of
    its first run can clear. It differs from the gold in more than case, so
    the outcome memo cannot serve it from the gold query's run."""
    candidate = "SELECT count(id) FROM singer"
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


def test_candidate_spelled_like_the_gold_is_served_from_its_run(music_schema, fixture_db,
                                                               monkeypatch):
    calls = []

    def counting_execute(connection, query, timeout=30.0):
        calls.append(query.text)
        return execute(connection, query, timeout=timeout)

    monkeypatch.setattr(pipeline, "execute", counting_execute)
    candidate = "select count(*)\nFROM singer -- every singer"
    result = run(music_schema, fixture_db, scripted_gateway([candidate]))
    assert calls == [GOLD]
    assert [(a.sql, a.status, a.row_count) for a in result.trace.attempts] \
        == [(candidate, "success", 1)]
    assert result.ea is True and result.trace.status == "solved"


def test_attempt_bound_holds_for_any_budget(music_schema, fixture_db):
    for budget in (0, 1, 2):
        gateway = scripted_gateway(
            [WRONG], correction_sql_responses=[WRONG] * budget
        )
        result = run(music_schema, fixture_db, gateway,
                     max_correction_attempts=budget)
        assert len(result.trace.attempts) <= 1 + budget
        assert result.trace.status == "exhausted"


def test_zero_correction_budget_runs_no_round(music_schema, fixture_db):
    gateway = scripted_gateway([WRONG])
    result = run(music_schema, fixture_db, gateway, max_correction_attempts=0)
    assert result.trace.status == "exhausted"
    assert stage_roles(result) == ["schema_linking", "subproblem", "query_plan", "sql"]
    assert len(result.trace.attempts) == 1


def test_zero_correction_budget_identical_on_success(music_schema, fixture_db):
    """Correction path is dead code when the first try is correct."""
    full = run(music_schema, fixture_db, scripted_gateway([CORRECT]))
    ablated = run(music_schema, fixture_db, scripted_gateway([CORRECT]),
                  max_correction_attempts=0)
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


@pytest.mark.parametrize("first, fixes, attempts", [
    (WRONG, [], 1),  # valid but wrong: without a gold there is no mismatch
    ("SELECT namee FROM singer", ["SELECT name FROM singer"], 2),
])
def test_gold_mismatch_without_gold_corrects_only_failures(music_schema, fixture_db,
                                                           first, fixes, attempts):
    config = PipelineConfig(correction_trigger="gold_mismatch")
    gateway = scripted_gateway([first], correction_sql_responses=fixes)
    result = run_pipeline_once(QUESTION, music_schema, fixture_db, config, gateway)
    assert len(result.trace.attempts) == attempts
    assert stage_roles(result).count("correction_plan") == attempts - 1
    assert result.ea is None and result.trace.status == "solved"


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


@pytest.mark.parametrize("earlier,candidate,repeated", [
    ("SELECT a FROM t", "SELECT a FROM t", True),
    ("SELECT a FROM t", "SELECT  a\n FROM\tt", True),
    ("SELECT a FROM t", "select A from T -- again", True),
    ("SELECT a FROM t", "SELECT a /* same */ FROM t", True),
    ("SELECT a FROM t WHERE b = 'x'", "SELECT a FROM t WHERE b = 'X'", False),
    ("SELECT a FROM t", "SELECT b FROM t", False),
])
def test_repeat_of_earlier_rules(music_schema, fixture_db, earlier, candidate, repeated):
    """A repeat has the form of an earlier attempt: the same query up to
    ASCII case outside quoted tokens, whitespace and comments. A first
    attempt repeats nothing."""
    gateway = scripted_gateway([earlier], correction_sql_responses=[candidate])
    result = run(music_schema, fixture_db, gateway, max_correction_attempts=1)
    assert [a.sql for a in result.trace.attempts] == [earlier, candidate]
    assert [a.repeat_of_earlier for a in result.trace.attempts] == [False, repeated]


def test_a_timed_out_gold_runs_again_for_the_groups_next_sample(music_schema, fixture_db,
                                                               monkeypatch):
    """A gold that timed out once is not kept: the group's next sample runs
    the gold itself and is scored by that run, not failed by the timeout."""
    candidate = "SELECT count(id) FROM singer"  # right, and not the gold's form
    calls = []

    def slow_once(connection, query, timeout=30.0):
        calls.append(query.text)
        if len(calls) == 1:
            return ExecutionOutcome.timeout()
        return execute(connection, query, timeout=timeout)

    monkeypatch.setattr(pipeline, "execute", slow_once)
    gateway = scripted_gateway([candidate, candidate])
    memo = pipeline.OutcomeMemo(canonical_sql(GOLD))
    config = PipelineConfig(max_correction_attempts=0)
    first, second = [run_pipeline_once(QUESTION, music_schema, fixture_db, config, gateway,
                                       gold_query=GOLD, memo=memo) for _ in range(2)]
    assert calls == [GOLD, candidate, GOLD]  # the candidate's success is kept
    assert first.ea is None  # no verdict against a gold that timed out
    assert second.ea is True and second.trace.status == "solved"


@pytest.mark.parametrize("gold, injected", [
    ("SELECT count(*) FROM nosuchtable", None),
    (GOLD, ExecutionOutcome.timeout()),
])
def test_a_gold_that_did_not_succeed_gives_no_verdict_and_starts_no_round(
        music_schema, fixture_db, monkeypatch, gold, injected):
    def gold_fails(connection, query, timeout=30.0):
        if injected and query.text == gold:
            return injected
        return execute(connection, query, timeout=timeout)

    monkeypatch.setattr(pipeline, "execute", gold_fails)
    gateway = scripted_gateway(["SELECT count(id) FROM singer"])  # right; no fixture for a round
    result = run_pipeline_once(QUESTION, music_schema, fixture_db, PipelineConfig(), gateway,
                               gold_query=gold)
    assert result.ea is None and result.outcome.status == "success"
    assert [a.ea for a in result.trace.attempts] == [None]
    assert stage_roles(result) == ["schema_linking", "subproblem", "query_plan", "sql"]
    assert result.trace.status == "solved"


@pytest.mark.parametrize("failed", [
    ExecutionOutcome.failure("missing_entity", "no such column: nope"),
    ExecutionOutcome.timeout(),
])
def test_a_waiter_on_a_failed_run_runs_a_candidate_again_and_takes_the_gold(failed,
                                                                          monkeypatch):
    memo = pipeline.OutcomeMemo("select nope from singer")
    memo._outcomes._cond = cond = WaitCountingCondition()
    running, release = threading.Event(), threading.Event()
    fixed = ExecutionOutcome.success([(6,)], 1)
    query = SqlQuery("select nope from singer")
    got, runs = {}, []

    def run(connection, query, timeout=30.0):
        runs.append(threading.current_thread().name)
        if len(runs) > 1:
            return fixed
        running.set()
        if not release.wait(timeout=30):
            raise AssertionError("not released")
        return failed

    def outcome(name):
        got[name] = memo.execute(connection, query, "select nope from singer", 30.0)

    monkeypatch.setattr(pipeline, "execute", run)
    with contextlib.closing(sqlite3.connect(":memory:", check_same_thread=False)) \
            as connection:
        thread = threading.Thread(target=outcome, args=("first",), name="first")
        thread.start()
        assert running.wait(timeout=30)
        waiter = threading.Thread(target=outcome, args=("waiter",), name="waiter")
        waiter.start()
        assert cond.reached(1)  # the waiter found the form running
        release.set()
        for t in (thread, waiter):
            t.join(timeout=30)
            assert not t.is_alive()
        assert got["first"] is failed
        # the memo keeps only successes: the waiter runs the query itself
        assert runs == ["first", "waiter"] and got["waiter"] is fixed
        assert memo.execute(connection, query, "select nope from singer", 30.0) is fixed
        assert runs == ["first", "waiter"]


def test_two_spellings_of_one_program_arriving_together_run_once(tmp_path, monkeypatch):
    """On a database larger than its page cache, a spelling that compiles
    to the program another spelling is running waits for that run and
    takes its outcome."""
    path = build_fixture_db(tmp_path / "music.sqlite")
    with contextlib.closing(sqlite3.connect(path)) as conn:
        conn.execute("CREATE TABLE filler (pad TEXT)")
        conn.executemany("INSERT INTO filler VALUES (?)", [("x" * 4000,)] * 700)
        conn.commit()
    with contextlib.closing(connect_readonly(path)) as connection:
        assert larger_than_cache(connection)
    memo = pipeline.OutcomeMemo(canonical_sql(GOLD))
    memo._programs._cond = cond = WaitCountingCondition()
    running, release = threading.Event(), threading.Event()
    runs, got = [], {}

    def run(connection, query, timeout=30.0):
        runs.append(query.text)
        running.set()
        if not release.wait(timeout=30):
            raise AssertionError("not released")
        return execute(connection, query, timeout=timeout)

    def outcome(text):
        with contextlib.closing(connect_readonly(path)) as connection:
            got[text] = memo.execute(connection, SqlQuery(text), canonical_sql(text), 30.0)

    monkeypatch.setattr(pipeline, "execute", run)
    first, second = "select count(*) from singer as s", "SELECT COUNT(*) FROM singer t"
    threads = [threading.Thread(target=outcome, args=(text,)) for text in (first, second)]
    threads[0].start()
    assert running.wait(timeout=30)
    threads[1].start()
    assert cond.reached(1)  # the second spelling found its program running
    release.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert runs == [first]
    assert got[first].status == "success" and got[second] is got[first]


def test_a_failed_gold_runs_again_for_the_groups_next_sample(music_schema, fixture_db,
                                                            monkeypatch):
    """The memo keeps only successes, the gold's too: the group's next
    sample runs a gold that failed again, and neither sample is scored."""
    gold, candidate = "SELECT count(*) FROM nosuchtable", "SELECT count(id) FROM singer"
    calls = []

    def counted(connection, query, timeout=30.0):
        calls.append(query.text)
        return execute(connection, query, timeout=timeout)

    monkeypatch.setattr(pipeline, "execute", counted)
    gateway = scripted_gateway([candidate, candidate])
    memo = pipeline.OutcomeMemo(canonical_sql(gold))
    config = PipelineConfig(max_correction_attempts=0)
    results = [run_pipeline_once(QUESTION, music_schema, fixture_db, config, gateway,
                                 gold_query=gold, memo=memo) for _ in range(2)]
    assert calls == [gold, candidate, gold]  # the candidate's success is kept
    assert [r.ea for r in results] == [None, None]


@pytest.mark.parametrize("gold, injected, warning", [
    ("SELECT count(*) FROM nosuchtable", None,
     "no verdict: gold query failure: no such table: nosuchtable"),
    (GOLD, ExecutionOutcome.timeout(),
     "no verdict: gold query timeout: query execution timed out"),
])
def test_a_gold_that_did_not_succeed_is_named_in_a_trace_warning(
        music_schema, fixture_db, monkeypatch, gold, injected, warning):
    def gold_fails(connection, query, timeout=30.0):
        if injected and query.text == gold:
            return injected
        return execute(connection, query, timeout=timeout)

    monkeypatch.setattr(pipeline, "execute", gold_fails)
    gateway = scripted_gateway(["SELECT count(id) FROM singer"])
    result = run_pipeline_once(QUESTION, music_schema, fixture_db, PipelineConfig(), gateway,
                               gold_query=gold)
    assert result.ea is None
    assert result.trace.warnings == [warning]


@pytest.mark.parametrize("gold", [GOLD, None])
def test_the_answer_is_the_last_attempt_that_had_sql(music_schema, fixture_db, gold):
    """A round whose reply holds no SQL leaves the attempt before it as the
    answer: its query with its own outcome and verdict."""
    wrong = "SELECT name FROM singer" if gold else "SELECT namee FROM singer"
    gateway = scripted_gateway([wrong], correction_sql_responses=["I cannot fix that."])
    result = run_pipeline_once(QUESTION, music_schema, fixture_db,
                               PipelineConfig(max_correction_attempts=1), gateway,
                               gold_query=gold)
    assert [a.status for a in result.trace.attempts][1:] == ["sanitize_error"]
    assert result.final_sql.text == wrong
    assert result.outcome.status == result.trace.attempts[0].status
    assert result.outcome.status == ("success" if gold else "failure")
    assert result.ea is (False if gold else None)
    assert result.trace.status == "exhausted"


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
    trace.warnings.append("trace-level ☃")
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
