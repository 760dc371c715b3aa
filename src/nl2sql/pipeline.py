"""Pipeline orchestration: sequential agent stages, execution, and the
bounded taxonomy-guided correction loop, with a complete per-sample trace.

A single run is strictly sequential; many runs may proceed concurrently,
sharing only immutable schema/taxonomy/config, the gateway and, for the
samples of one gold group, an OutcomeMemo.
"""

import hashlib
from dataclasses import dataclass, field

from . import agents, jsonl
from .gateway import SingleFlight
from .schema import render_schema_text
from .execution import (
    SanitizeError,
    SqlQuery,
    canonical_sql,
    compare_results,
    execute,
    has_top_level_order_by,
    larger_than_cache,
    program,
    sanitize,
)
from .taxonomy import default_taxonomy

TRIGGER_MODES = ("execution_error_only", "gold_mismatch")


@dataclass
class StageRecord:
    role: str
    prompt: str
    response: str
    artifact_digest: str
    model_id: str
    prompt_tokens: int
    completion_tokens: int
    wall_time: float
    warnings: list = field(default_factory=list)


@dataclass
class AttemptRecord:
    sql: str
    status: str  # success | failure | timeout | sanitize_error
    error_kind: str = ""
    message: str = ""
    row_count: int = 0
    ea: bool | None = None
    repeat_of_earlier: bool = False


@dataclass
class PipelineTrace:
    sample_id: str
    stages: list = field(default_factory=list)
    attempts: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    status: str = "running"  # solved | exhausted | stage_error

    def add_stage(self, role, prompt, response, model_id, wall_time=0.0, warnings=None):
        self.stages.append(
            StageRecord(
                role=role,
                prompt=prompt,
                response=response.content,
                artifact_digest=hashlib.sha256(
                    response.content.encode("utf-8", "surrogatepass")
                ).hexdigest()[:16],
                model_id=model_id,
                prompt_tokens=response.prompt_tokens,
                completion_tokens=response.completion_tokens,
                wall_time=wall_time,
                warnings=list(warnings or []),
            )
        )

    @property
    def total_tokens(self):
        return sum(s.prompt_tokens + s.completion_tokens for s in self.stages)


@dataclass
class PipelineConfig:
    max_correction_attempts: int = 3
    skip_query_plan: bool = False
    correction_trigger: str = "gold_mismatch"
    timeout: float = 30.0
    templates: dict = field(default_factory=agents.load_default_templates)

    def __post_init__(self):
        if self.max_correction_attempts < 0:
            raise ValueError("max_correction_attempts must be >= 0")
        if self.correction_trigger not in TRIGGER_MODES:
            raise ValueError(f"unknown correction trigger {self.correction_trigger!r}")


@dataclass
class PipelineResult:
    final_sql: SqlQuery | None
    outcome: object  # ExecutionOutcome or None
    ea: bool | None
    trace: PipelineTrace


def _succeeded(outcome):
    return outcome.status == "success"


class OutcomeMemo:
    """ExecutionOutcomes of one gold group's queries on one database file,
    shared by the run_pipeline calls of the group's samples on any thread
    and any connection to that file. ``gold_form`` is the ``canonical_sql``
    form of the gold query as run_pipeline executes it (``gold_sql``).

    The memo keeps only successes, the gold's as well as a candidate's, by
    ``canonical_sql`` form and, when its database is larger than the page
    cache (``execution.larger_than_cache``, read at its first query), by
    compiled program too (``execution.program``, compiled on a miss by
    form). Each is a ``gateway.SingleFlight`` key: a caller that finds its
    form or program running waits for that run, takes its outcome if it is
    a success and otherwise runs the query itself.
    """

    def __init__(self, gold_form=None):
        self.gold_form = gold_form
        self._outcomes = SingleFlight({})  # form -> success
        self._programs = SingleFlight({})  # compiled program -> success
        self._large = None  # larger than its page cache? read at the first query

    def execute(self, connection, query, form, timeout):
        """A success kept for ``form`` or its program, else the outcome of executing ``query``."""
        def run():
            return execute(connection, query, timeout=timeout)

        def make():
            if self._large is None:
                self._large = larger_than_cache(connection)
            compiled = program(connection, query) if self._large else None
            if compiled is None:
                return run()
            return self._programs.get(compiled, run, keep=_succeeded)

        return self._outcomes.get(form, make, keep=_succeeded)


def gold_sql(gold_query: str) -> SqlQuery:
    """The gold query as run_pipeline executes it: surrounding whitespace
    and trailing semicolons dropped, everything else (literal case too)
    kept."""
    return SqlQuery(gold_query.strip().rstrip(";"))


def _feedback_text(outcome) -> str:
    """Feedback on a candidate that failed, timed out or gave a wrong result."""
    if outcome is None:
        return "the response did not contain an executable SQL statement"
    if outcome.status == "timeout":
        return "execution timed out"
    if outcome.status == "failure":
        return f"{outcome.error_kind} error: {outcome.message}"
    return (
        "the query executed without error but returned a wrong result: "
        f"{len(outcome.rows)} row(s) with {outcome.column_count} column(s), "
        f"first rows {outcome.rows[:5]!r}, which do not match the expected answer"
    )


def run_pipeline(question, schema, connection, config: PipelineConfig, gateway,
                 gold_query: str | None = None, sample_id: str = "",
                 memo: OutcomeMemo | None = None) -> PipelineResult:
    """Run the full agent pipeline for one question.

    Stage order: schema_linking, subproblem, query_plan (unless skipped),
    sql, sanitize, execute; then correction rounds of correction_plan,
    correction_sql, sanitize, execute until the trigger stops firing, the
    round budget is spent, or a round would resend an earlier round's
    feedback on a failed query of the same ``canonical_sql`` form. Without
    ``gold_query``, or when the gold did not succeed, there is no verdict
    (``ea`` None), and both triggers fire only on a candidate that did not
    succeed; a trace warning names the gold's failure. The result is the
    last attempt that had SQL, with its own outcome and verdict.

    Every query runs on ``connection``, from ``execution.connect_readonly``
    and owned by the caller, who closes it.

    ``memo`` holds the successful ExecutionOutcomes of queries on the
    connection's database file by their ``canonical_sql`` form, which two
    texts share only when SQLite compiles them to the same program. A
    caller may pass one OutcomeMemo, made with the gold's form, to every
    call for the samples of one gold query on one database file, from any
    thread and on any connection to that file, which must not change during
    the run. The memo keeps only successes, the gold's as well as a
    candidate's: the gold runs first unless the memo holds it, and a query
    that failed or timed out runs again when it comes back, in this sample
    or the group's next one. A query whose form another call is running
    waits for that run (see OutcomeMemo). Without ``memo`` the memo lasts
    for this call only. Each candidate text's form is computed once per
    call; it keys the memo and sets ``AttemptRecord.repeat_of_earlier``: the
    candidate has the form of an earlier attempt, the same query up to ASCII
    case outside quoted tokens, whitespace and comments. The flag only marks
    the attempt.

    On a database larger than the connection's page cache
    (``execution.larger_than_cache``, read at the memo's first query), a
    success also serves a query of another form that compiles to the same
    program (``execution.program``): table aliases added or dropped,
    ``AS``, qualified columns, ``SELECT ALL``. A query that misses by form,
    the gold too, is compiled before it runs, and a query whose program
    another call is running waits for that run; on a smaller database
    nothing is compiled. This is sound: two texts with one program read the
    same rows of one database file that does not change during the run, in
    the same order and with the same column count, whichever connection to
    that file compiled or ran them. Their column names may differ, but an
    ExecutionOutcome holds none. So a served outcome is the one executing
    the text would return.
    """
    taxonomy = default_taxonomy()
    templates = config.templates
    trace = PipelineTrace(sample_id=sample_id or question[:48])
    gold = gold_sql(gold_query) if gold_query else None
    if memo is None:
        memo = OutcomeMemo(None if gold is None else canonical_sql(gold.text))

    scored = order_sensitive = False
    if gold is not None:
        gold_outcome = memo.execute(connection, gold, memo.gold_form, config.timeout)
        scored = _succeeded(gold_outcome)
        if not scored:
            trace.warnings.append(
                f"no verdict: gold query {gold_outcome.status}: {gold_outcome.message}")
        order_sensitive = has_top_level_order_by(gold)

    forms = {}  # the canonical_sql form of each candidate text so far

    def attempt(raw_text):
        """Sanitize + execute one candidate: (query, outcome, ea), or Nones."""
        try:
            query = sanitize(raw_text)
        except SanitizeError as exc:
            trace.attempts.append(
                AttemptRecord(sql="", status="sanitize_error", message=str(exc))
            )
            return None, None, None
        form = forms.get(query.text) or canonical_sql(query.text)
        repeated = form in forms.values()
        forms[query.text] = form
        outcome = memo.execute(connection, query, form, config.timeout)
        ea = compare_results(gold_outcome, outcome, order_sensitive) if scored else None
        trace.attempts.append(
            AttemptRecord(
                sql=query.text,
                status=outcome.status,
                error_kind=outcome.error_kind,
                message=outcome.message,
                row_count=len(outcome.rows),
                ea=ea,
                repeat_of_earlier=repeated,
            )
        )
        return query, outcome, ea

    answer = (None, None, None)  # the last attempt that had SQL
    try:
        linked = agents.run_schema_linking(question, schema, gateway, trace, templates)
        schema_text = render_schema_text(linked, parent=schema)
        subproblems = agents.run_subproblem(
            question, schema_text, gateway, trace, templates
        )
        if config.skip_query_plan:
            plan_text = "Clause-level subproblems:\n" + subproblems.render()
        else:
            plan = agents.run_query_plan(
                question, schema_text, subproblems, gateway, trace, templates
            )
            plan_text = plan.render()
        raw_sql = agents.run_sql(question, plan_text, gateway, trace, templates)
        sent = set()  # (failed query's form, feedback) of every round so far
        while True:
            new_query, outcome, ea = attempt(raw_sql)
            answer = (new_query, outcome, ea) if new_query else answer
            # a round starts on no SQL, a failure, a timeout, or a wrong result under gold_mismatch
            fires = (outcome is None or not _succeeded(outcome)
                     or config.correction_trigger == "gold_mismatch" and ea is False)
            if not fires or len(sent) >= config.max_correction_attempts:
                break
            failed_sql = answer[0].text if answer[0] else "(no executable SQL was produced)"
            feedback = _feedback_text(outcome)
            key = (forms.get(failed_sql), feedback)
            if key in sent:
                break  # this query, as SQLite reads it, was sent with this feedback
            sent.add(key)
            plan = agents.run_correction_plan(
                question, schema_text, failed_sql, feedback, taxonomy,
                gateway, trace, templates,
            )
            raw_sql = agents.run_correction_sql(
                question, schema_text, plan, failed_sql,
                gateway, trace, templates,
            )
        trace.status = "exhausted" if fires else "solved"
    except agents.StageError as exc:
        trace.status = "stage_error"
        trace.warnings.append(str(exc))
    return PipelineResult(*answer, trace)


def append_trace(traces, log: jsonl.AppendLog) -> None:
    """Append one JSON line per PipelineTrace in ``traces`` to a trace log,
    all in one write. Each record is built from the dataclasses' own fields
    without copying them, and decodes equal to ``dataclasses.asdict`` of its
    trace."""
    log.extend(dict(
        vars(trace),
        stages=[vars(stage) for stage in trace.stages],
        attempts=[vars(attempt) for attempt in trace.attempts],
    ) for trace in traces)


def _trace_record(value) -> dict:
    """``value`` when it has the shape of a PipelineTrace record, each stage
    and attempt included; raises TypeError or KeyError otherwise."""
    jsonl.check_fields(value, PipelineTrace)
    for stage in value["stages"]:
        jsonl.check_fields(stage, StageRecord)
    for attempt in value["attempts"]:
        jsonl.check_fields(attempt, AttemptRecord)
    return value


def load_traces(path) -> list:
    """The readable trace records in a trace file, one per sample id: the
    last one written, at the place of the first. Unreadable lines, such as
    a torn last line, are skipped."""
    traces = {}
    for record in jsonl.read_records(path, _trace_record, "trace file"):
        traces[record["sample_id"]] = record
    return list(traces.values())
