"""Pipeline orchestration: sequential agent stages, execution, and the
bounded taxonomy-guided correction loop, with a complete per-sample trace.

A single run is strictly sequential; many runs may proceed concurrently,
sharing only immutable schema/taxonomy/config and the gateway.
"""

import hashlib
from dataclasses import dataclass, field

from . import agents, jsonl
from .schema import render_schema_text
from .execution import (
    SanitizeError,
    SqlQuery,
    compare_results,
    execute,
    has_top_level_order_by,
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

    def add_stage(self, role, prompt, response, model_id, warnings=None):
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
                wall_time=response.latency,
                warnings=list(warnings or []),
            )
        )

    def add_warning(self, message):
        self.warnings.append(message)

    @property
    def total_tokens(self):
        return sum(s.prompt_tokens + s.completion_tokens for s in self.stages)


@dataclass
class PipelineConfig:
    max_correction_attempts: int = 3
    skip_query_plan: bool = False
    skip_correction: bool = False
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


def repeat_guard(previous_sqls, candidate_sql: str) -> bool:
    """True when the candidate is whitespace-normalized identical to any
    prior attempt. The flag only marks the attempt: a flagged candidate is
    executed or served by run_pipeline's outcome memo like any other, so a
    repeat of a failed or timed-out query runs again and can succeed if
    that failure was transient."""
    norm = " ".join(candidate_sql.split())
    return any(" ".join(p.split()) == norm for p in previous_sqls)


def gold_sql(gold_query: str) -> SqlQuery:
    """The gold query as run_pipeline executes it: surrounding whitespace
    and trailing semicolons dropped, everything else (literal case too)
    kept."""
    return SqlQuery(gold_query.strip().rstrip(";"))


def _feedback_text(outcome, ea, gold_present) -> str:
    if outcome is None:
        return "the response did not contain an executable SQL statement"
    if outcome.status == "timeout":
        return "execution timed out"
    if outcome.status == "failure":
        return f"{outcome.error_kind} error: {outcome.message}"
    if gold_present and ea is False:
        sample = outcome.rows[:5]
        return (
            "the query executed without error but returned a wrong result: "
            f"{len(outcome.rows)} row(s) with {outcome.column_count} column(s), "
            f"first rows {sample!r}, which do not match the expected answer"
        )
    return "execution succeeded"


def run_pipeline(question, schema, connection, config: PipelineConfig, gateway,
                 gold_query: str | None = None, sample_id: str = "",
                 outcomes=None) -> PipelineResult:
    """Run the full agent pipeline for one question.

    Stage order: schema_linking, subproblem, query_plan (unless skipped),
    sql, sanitize, execute; then correction rounds of correction_plan,
    correction_sql, sanitize, execute until the trigger stops firing, the
    round budget is spent, or a round would resend the (failed SQL,
    feedback) pair of an earlier round.

    Every query runs on ``connection``, from ``execution.connect_readonly``
    and owned by the caller, who closes it.

    ``outcomes`` memoizes ExecutionOutcomes on that database by query text;
    a caller may pass the same dict to later calls on the same database,
    which the database must not change under. The gold query runs first
    unless the memo holds it, and its outcome is kept whatever its status.
    A candidate is served from the memo only when the memo holds a success
    for its text; otherwise it is executed, and kept if it succeeds, so a
    failed or timed-out query that comes back runs again. Without
    ``outcomes`` the memo lasts for this call only.
    """
    if config.correction_trigger == "gold_mismatch" and not gold_query:
        raise ValueError("gold_mismatch trigger requires a gold query")
    taxonomy = default_taxonomy()
    templates = config.templates
    trace = PipelineTrace(sample_id=sample_id or question[:48])
    if outcomes is None:
        outcomes = {}

    order_sensitive = False
    gold_outcome = None
    if gold_query:
        gold = gold_sql(gold_query)
        gold_outcome = outcomes.get(gold.text)
        if gold_outcome is None:
            gold_outcome = outcomes[gold.text] = execute(
                connection, gold, timeout=config.timeout)
        order_sensitive = has_top_level_order_by(gold)

    def verdict(outcome):
        if gold_outcome is None:
            return None
        return compare_results(gold_outcome, outcome, order_sensitive)

    def trigger_fires(outcome, ea):
        if outcome is None or outcome.status != "success":
            return True
        if config.correction_trigger == "gold_mismatch":
            return ea is False
        return False

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
    except agents.StageError as exc:
        trace.status = "stage_error"
        trace.add_warning(str(exc))
        return PipelineResult(None, None, None, trace)

    def attempt(raw_text):
        """Sanitize + execute one candidate; returns (query, outcome, ea)."""
        try:
            query = sanitize(raw_text)
        except SanitizeError as exc:
            trace.attempts.append(
                AttemptRecord(sql="", status="sanitize_error", message=str(exc))
            )
            return None, None, None
        repeated = repeat_guard([a.sql for a in trace.attempts], query.text)
        outcome = outcomes.get(query.text)
        if outcome is None or outcome.status != "success":
            outcome = execute(connection, query, timeout=config.timeout)
            if outcome.status == "success":
                outcomes[query.text] = outcome
        ea = verdict(outcome)
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

    query, outcome, ea = attempt(raw_sql)

    sent = set()  # (failed_sql, feedback) of every correction round so far
    while (
        trigger_fires(outcome, ea)
        and not config.skip_correction
        and len(sent) < config.max_correction_attempts
    ):
        failed_sql = query.text if query else "(no executable SQL was produced)"
        feedback = _feedback_text(outcome, ea, gold_outcome is not None)
        if (failed_sql, feedback) in sent:
            break  # that prompt was sent already; its reply would repeat too
        sent.add((failed_sql, feedback))
        try:
            plan = agents.run_correction_plan(
                question, schema_text, failed_sql, feedback, taxonomy,
                gateway, trace, templates,
            )
            raw_fixed = agents.run_correction_sql(
                question, schema_text, plan, failed_sql,
                gateway, trace, templates,
            )
        except agents.StageError as exc:
            trace.status = "stage_error"
            trace.add_warning(str(exc))
            return PipelineResult(query, outcome, ea, trace)
        new_query, outcome, ea = attempt(raw_fixed)
        query = new_query or query

    trace.status = "exhausted" if trigger_fires(outcome, ea) else "solved"
    return PipelineResult(query, outcome, ea, trace)


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
