"""The six agent roles: each pairs a prompt template with a response
parser producing a typed artifact.

Agents are stateless; all state flows through arguments and the trace
recorder. Each agent performs at most one format re-ask (two model calls
per stage invocation).
"""

import contextlib
import json
import os
import re
import sqlite3
import time
from dataclasses import dataclass, field
from importlib import resources

from . import taxonomy as taxonomy_mod
from .gateway import AGENT_ROLES, GatewayError
from .schema import LinkedSchema, ForeignKey, render_schema_text, validate_linked_schema

# The names each stage's run_* call fills in its user template.
STAGE_PLACEHOLDERS = {
    "schema_linking": {"question", "schema"},
    "subproblem": {"question", "schema"},
    "query_plan": {"question", "schema", "subproblems"},
    "sql": {"question", "plan"},
    "correction_plan": {"question", "schema", "failed_sql", "exec_feedback", "taxonomy"},
    "correction_sql": {"question", "schema", "correction_plan", "failed_sql"},
}
PLACEHOLDERS = frozenset().union(*STAGE_PLACEHOLDERS.values())

CLAUSE_KEYS = (
    "SELECT", "FROM", "WHERE", "GROUP BY", "JOIN", "DISTINCT",
    "ORDER BY", "HAVING", "EXCEPT", "LIMIT", "UNION", "INTERSECT",
)

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")
_JSON_FENCE = re.compile(r"```[ \t]*(?:json|JSON)?\s*\n?(.*?)```", re.DOTALL)
_STEP_MARKER = re.compile(r"^\s*(?:\d+[.)]\s*|[-*]\s*)")
_STEP_LINE = re.compile(r"\s*(?:\d+[.)]\s+|[-*]\s+)(.+)")
_STATEMENT_KEYWORD = re.compile(r"(SELECT|WITH|VALUES|INSERT|UPDATE|DELETE)\b", re.I)
_NO_SUCH = re.compile(r"no such (table|column|function)")

_DECODER = json.JSONDecoder()

FORMAT_REMINDER = (
    "Your previous reply could not be parsed. Reply again following the "
    "required output format exactly, with no extra commentary."
)


class ExtractionError(ValueError):
    """No balanced structured payload found in the response."""


class StageError(Exception):
    """An agent stage failed after its single format re-ask."""

    def __init__(self, role, message, raw_response=""):
        super().__init__(f"{role}: {message}")
        self.role = role
        self.raw_response = raw_response


@dataclass(frozen=True)
class PromptTemplate:
    role: str
    system_text: str
    user_template: str
    # the user template split at its placeholders: text, name, text, ...
    _segments: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segments = tuple(_PLACEHOLDER_RE.split(self.user_template))
        unknown = set(segments[1::2]) - PLACEHOLDERS
        if unknown:
            raise ValueError(f"{self.role}: unknown placeholders {sorted(unknown)}")
        object.__setattr__(self, "_segments", segments)

    def render(self, **bindings) -> str:
        parts = list(self._segments)
        try:
            parts[1::2] = [str(bindings[name]) for name in parts[1::2]]
        except KeyError as exc:
            raise KeyError(f"{self.role}: placeholder {{{exc.args[0]}}} not bound") from None
        return "".join(parts)


@dataclass
class SubproblemSet:
    """Clause-keyed partial expressions describing the query intent."""

    clauses: dict = field(default_factory=dict)

    def render(self) -> str:
        if not self.clauses:
            return "(no subproblems: simple query)"
        return "\n".join(f"{k}: {v}" for k, v in self.clauses.items())


@dataclass
class QueryPlan:
    """Ordered natural-language steps; deliberately contains no
    executable SQL."""

    steps: list
    rationale: str = ""

    def render(self) -> str:
        return "\n".join(f"{i + 1}. {s}" for i, s in enumerate(self.steps))


@dataclass
class CorrectionPlan:
    diagnosed_codes: list  # of taxonomy.ErrorCode
    unknown_codes: list
    repair_steps: list
    rationale: str = ""

    def render(self) -> str:
        parts = []
        if self.diagnosed_codes:
            parts.append("Diagnosed: " + ", ".join(c.code for c in self.diagnosed_codes))
        parts.extend(f"{i + 1}. {s}" for i, s in enumerate(self.repair_steps))
        return "\n".join(parts)


_TEMPLATE_DELIMITER = "--- user ---"


def _parse_template_file(role: str, text: str) -> PromptTemplate:
    if _TEMPLATE_DELIMITER not in text:
        raise ValueError(f"has no '{_TEMPLATE_DELIMITER}' line")
    system_text, user_template = text.split(_TEMPLATE_DELIMITER, 1)
    unfilled = set(_PLACEHOLDER_RE.findall(user_template)) - STAGE_PLACEHOLDERS[role]
    if unfilled:
        raise ValueError(f"uses {{{min(unfilled)}}}, which the {role} stage does not fill")
    return PromptTemplate(role, system_text.strip(), user_template.strip())


def load_default_templates() -> dict:
    """Six built-in templates shipped as package data."""
    templates = {}
    for role in AGENT_ROLES:
        text = resources.files("nl2sql.templates").joinpath(role + ".txt").read_text(
            encoding="utf-8"
        )
        templates[role] = _parse_template_file(role, text)
    return templates


def load_templates(directory) -> dict:
    """The built-in templates, each overridden by ``<role>.txt`` in
    ``directory`` when that file exists; raises FileNotFoundError when none
    of the six does, so a misspelt path does not run the built-in ones, and
    ValueError, naming the file, for one that is not a template of its role."""
    templates = load_default_templates()
    found = [role for role in AGENT_ROLES
             if os.path.isfile(os.path.join(str(directory), role + ".txt"))]
    if not found:
        raise FileNotFoundError(f"templates directory {directory} holds none of"
                                f" {', '.join(role + '.txt' for role in AGENT_ROLES)}")
    for role in found:
        path = os.path.join(str(directory), role + ".txt")
        try:
            with open(path, encoding="utf-8") as fh:
                templates[role] = _parse_template_file(role, fh.read())
        except ValueError as exc:  # not UTF-8, or a template the stage cannot render
            raise ValueError(f"template file {path}: {exc}") from exc
    return templates


def structured_payload(text: str):
    """The decoded first balanced JSON object/array in a chatty response,
    stripping code fences and surrounding prose."""
    if not text:
        raise ExtractionError("empty response")
    candidates = []
    for block in _JSON_FENCE.findall(text):
        candidates.append(block.strip())
    candidates.append(text)
    for candidate in candidates:
        for opener in "{[":
            start = candidate.find(opener)
            while start != -1:
                try:
                    return _DECODER.raw_decode(candidate, start)[0]
                except json.JSONDecodeError:
                    start = candidate.find(opener, start + 1)
    raise ExtractionError("no balanced JSON payload found")


def looks_like_sql_statement(step: str) -> bool:
    """Permissive check whether a plan step is itself a complete SQL
    statement: it must start with a statement keyword and parse against an
    empty in-memory database, opened and closed for the check (missing
    tables/columns still count as parsing)."""
    stripped = _STEP_MARKER.sub("", step).strip().rstrip(";")
    if not _STATEMENT_KEYWORD.match(stripped):
        return False
    try:
        with contextlib.closing(sqlite3.connect(":memory:")) as database:
            database.execute("EXPLAIN " + stripped).close()
        return True
    except sqlite3.OperationalError as exc:
        return bool(_NO_SUCH.search(str(exc)))
    except (sqlite3.Error, UnicodeEncodeError):  # a lone surrogate is no SQLite text
        return False


def _complete(gateway, role, messages):
    """One gateway call; a GatewayError (retries spent, no fixture) fails
    the stage like an unparseable reply does."""
    try:
        return gateway.complete_for_role(role, messages)
    except GatewayError as exc:
        raise StageError(role, f"{type(exc).__name__}: {exc}") from exc


def _call(gateway, trace, template: PromptTemplate, bindings: dict,
          parse, failure_hint: str):
    """Render, call, record, parse; one format re-ask on parse failure. Each
    stage record's ``wall_time`` is the wall time of its gateway call, a
    replay hit's too."""
    user_text = template.render(**bindings)
    messages = [("system", template.system_text), ("user", user_text)]
    started = time.perf_counter()
    response, model_id = _complete(gateway, template.role, messages)
    trace.add_stage(template.role, user_text, response, model_id,
                    time.perf_counter() - started)
    try:
        return parse(response.content)
    except Exception as exc:
        first_error = exc
    retry_messages = messages + [
        ("assistant", response.content),
        ("user", f"{FORMAT_REMINDER} ({failure_hint})"),
    ]
    started = time.perf_counter()
    response2, model_id = _complete(gateway, template.role, retry_messages)
    trace.add_stage(template.role, retry_messages[-1][1], response2, model_id,
                    time.perf_counter() - started,
                    warnings=[f"format re-ask after: {first_error}"])
    try:
        return parse(response2.content)
    except Exception as exc:
        raise StageError(template.role, str(exc), response2.content) from exc


def run_schema_linking(question, schema, gateway, trace, templates) -> LinkedSchema:
    """Produce a validated question-relevant crop of the schema.

    Entries that do not exist in the parent schema are dropped with a trace
    warning; join edges without a declared FK are kept (warning severity)."""

    def parse(content):
        payload = structured_payload(content)
        if not isinstance(payload, dict) or not isinstance(payload.get("tables"), dict):
            raise ValueError('expected a JSON object with a "tables" mapping')
        kept = {}
        for tname, cols in payload["tables"].items():
            if isinstance(cols, str):
                cols = [cols]
            kept[str(tname)] = [str(c) for c in cols]
        edges = []
        for edge in payload.get("joins", []):
            if isinstance(edge, (list, tuple)) and len(edge) == 4:
                edges.append(ForeignKey(*[str(x) for x in edge]))
        link = LinkedSchema(
            db_id=schema.db_id, kept=kept, join_edges=edges,
            notes=str(payload.get("notes", "")),
        )
        violations = validate_linked_schema(schema, link)
        trace.warnings.extend(
            f"schema_linking: {v}" for v in violations if v.severity != "error")
        trace.warnings.extend(
            f"schema_linking: dropped {v}" for v in violations if v.severity == "error")
        kept = {t: [c for c in cols if schema.has_column(t, c)] for t, cols in kept.items()}
        link.kept = {t: cols for t, cols in kept.items() if cols}
        link.join_edges = [
            e for e in edges
            if schema.has_column(e.src_table, e.src_column)
            and schema.has_column(e.dst_table, e.dst_column)
        ]
        if not link.kept:
            raise ValueError("no valid tables/columns remained after validation")
        return link

    return _call(
        gateway, trace, templates["schema_linking"],
        {"question": question, "schema": render_schema_text(schema)},
        parse,
        'reply with JSON: {"tables": {"table": ["col", ...]}, "joins": [["t1","c1","t2","c2"], ...]}',
    )


def run_subproblem(question, schema_text, gateway, trace, templates) -> SubproblemSet:
    """Decompose the question into clause-level subproblems."""
    def parse(content):
        payload = structured_payload(content)
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object of clause: expression pairs")
        clauses = {}
        for key, value in payload.items():
            norm = str(key).upper().replace("_", " ").strip()
            if norm not in CLAUSE_KEYS:
                trace.warnings.append(f"subproblem: dropped unknown clause key {key!r}")
                continue
            text = str(value).strip()
            if text:
                clauses[norm] = text
        return SubproblemSet(clauses)

    return _call(
        gateway, trace, templates["subproblem"],
        {"question": question, "schema": schema_text},
        parse,
        'reply with a JSON object mapping clause keywords to expressions, e.g. {"SELECT": "count(*)"}',
    )


def run_query_plan(question, schema_text, subproblems, gateway, trace,
                   templates) -> QueryPlan:
    """Generate the step-by-step plan; steps containing complete SQL are
    rejected and re-asked once with the restriction restated."""

    def parse(content):
        if not content.strip():
            raise ValueError("empty response")
        steps, rationale = _parse_steps(content)
        if not steps:
            raise ValueError("no plan steps found")
        offenders = [s for s in steps if looks_like_sql_statement(s)]
        if offenders:
            raise ValueError(
                f"plan steps must not be executable SQL: {offenders[0][:80]!r}"
            )
        return QueryPlan(steps, rationale)

    return _call(
        gateway, trace, templates["query_plan"],
        {
            "question": question,
            "schema": schema_text,
            "subproblems": subproblems.render(),
        },
        parse,
        "describe procedural steps in plain language only; never write a runnable SQL statement",
    )


def _parse_steps(content: str):
    """Steps from a JSON {"steps": [...]} payload or numbered/bulleted lines."""
    try:
        payload = structured_payload(content)
        if isinstance(payload, dict) and isinstance(payload.get("steps"), list):
            steps = [str(s).strip() for s in payload["steps"] if str(s).strip()]
            return steps, str(payload.get("rationale", ""))
        if isinstance(payload, list):
            return [str(s).strip() for s in payload if str(s).strip()], ""
    except ExtractionError:
        pass
    steps = []
    prose = []
    for line in content.splitlines():
        match = _STEP_LINE.match(line)
        if match:
            steps.append(match.group(1).strip())
        elif line.strip():
            prose.append(line.strip())
    return steps, " ".join(prose)


def _parse_raw_sql(content):
    if not content.strip():
        raise ValueError("empty response")
    return content


def run_sql(question, plan_text, gateway, trace, templates) -> str:
    """Generate raw SQL text; handed to the sanitizer, never executed
    verbatim."""
    return _call(
        gateway, trace, templates["sql"],
        {"question": question, "plan": plan_text},
        _parse_raw_sql,
        "reply with the SQL query",
    )


def run_correction_plan(question, schema_text, failed_sql, exec_feedback,
                        taxonomy, gateway, trace, templates) -> CorrectionPlan:
    """Diagnose the failed query against the error taxonomy and produce
    coded repair steps."""
    if not failed_sql.strip() or not exec_feedback.strip():
        raise ValueError("failed_sql and exec_feedback must be non-empty")

    def parse(content):
        if not content.strip():
            raise ValueError("empty response")
        codes, unknown = taxonomy_mod.parse_codes(content, taxonomy)
        steps, rationale = _parse_steps(content)
        if not steps:
            raise ValueError("no repair steps found")
        return CorrectionPlan(codes, unknown, steps, rationale or content.strip())

    return _call(
        gateway, trace, templates["correction_plan"],
        {
            "question": question,
            "schema": schema_text,
            "failed_sql": failed_sql,
            "exec_feedback": exec_feedback,
            "taxonomy": taxonomy_mod.render_summary(taxonomy),
        },
        parse,
        "cite taxonomy codes and list numbered repair steps",
    )


def run_correction_sql(question, schema_text, correction_plan, failed_sql,
                       gateway, trace, templates) -> str:
    """Regenerate the SQL following the repair plan; raw text for the
    sanitizer."""
    return _call(
        gateway, trace, templates["correction_sql"],
        {
            "question": question,
            "schema": schema_text,
            "correction_plan": correction_plan.render(),
            "failed_sql": failed_sql,
        },
        _parse_raw_sql,
        "reply with the corrected SQL query",
    )
