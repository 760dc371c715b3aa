"""The six agent roles: each pairs a prompt template with a response
parser producing a typed artifact.

Agents are stateless; all state flows through arguments and the trace
recorder. Each agent performs at most one format re-ask (two model calls
per stage invocation).
"""

import json
import re
import sqlite3
import threading
import weakref
from dataclasses import dataclass, field
from importlib import resources

from . import taxonomy as taxonomy_mod
from .gateway import AGENT_ROLES, GatewayError
from .schema import LinkedSchema, ForeignKey, render_schema_text, validate_linked_schema

PLACEHOLDERS = frozenset({
    "question", "schema", "subproblems", "plan", "failed_sql",
    "exec_feedback", "taxonomy", "correction_plan",
})

CLAUSE_KEYS = (
    "SELECT", "FROM", "WHERE", "GROUP BY", "JOIN", "DISTINCT",
    "ORDER BY", "HAVING", "EXCEPT", "LIMIT", "UNION", "INTERSECT",
)

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")

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

    def __post_init__(self):
        unknown = set(_PLACEHOLDER_RE.findall(self.user_template)) - PLACEHOLDERS
        if unknown:
            raise ValueError(f"{self.role}: unknown placeholders {sorted(unknown)}")

    def render(self, **bindings) -> str:
        def repl(match):
            name = match.group(1)
            if name not in bindings:
                raise KeyError(f"{self.role}: placeholder {{{name}}} not bound")
            return str(bindings[name])

        return _PLACEHOLDER_RE.sub(repl, self.user_template)


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
        raise ValueError(f"template for {role} missing '{_TEMPLATE_DELIMITER}' line")
    system_text, user_template = text.split(_TEMPLATE_DELIMITER, 1)
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
    """Load overriding templates from a directory; file naming = role id."""
    import os

    templates = load_default_templates()
    for role in list(templates):
        path = os.path.join(str(directory), role + ".txt")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                templates[role] = _parse_template_file(role, fh.read())
    return templates


def extract_structured_payload(text: str) -> str:
    """Return the first balanced JSON object/array in a chatty response,
    stripping code fences and surrounding prose."""
    if not text:
        raise ExtractionError("empty response")
    candidates = []
    for block in re.findall(r"```[ \t]*(?:json|JSON)?\s*\n?(.*?)```", text, re.DOTALL):
        candidates.append(block.strip())
    candidates.append(text)
    for candidate in candidates:
        for opener in "{[":
            start = candidate.find(opener)
            while start != -1:
                try:
                    _, end = _DECODER.raw_decode(candidate, start)
                    return candidate[start:end]
                except json.JSONDecodeError:
                    start = candidate.find(opener, start + 1)
    raise ExtractionError("no balanced JSON payload found")


class _ExplainDatabase:
    """An empty in-memory database to EXPLAIN plan steps against. Each
    thread has its own (``_explain``); it is closed when its thread ends."""

    def __init__(self):
        # closed by the finalizer, which may run on another thread
        self.connection = sqlite3.connect(":memory:", check_same_thread=False)
        weakref.finalize(self, self.connection.close)


_explain = threading.local()


def looks_like_sql_statement(step: str) -> bool:
    """Permissive check whether a plan step is itself a complete SQL
    statement: it must start with a statement keyword and parse against an
    empty database (missing tables/columns still count as parsing)."""
    stripped = re.sub(r"^\s*(?:\d+[.)]\s*|[-*]\s*)", "", step).strip().rstrip(";")
    if not re.match(r"(SELECT|WITH|VALUES|INSERT|UPDATE|DELETE)\b", stripped, re.I):
        return False
    try:
        database = _explain.database
    except AttributeError:
        database = _explain.database = _ExplainDatabase()
    try:
        database.connection.execute("EXPLAIN " + stripped).close()
        return True
    except sqlite3.OperationalError as exc:
        return bool(re.search(r"no such (table|column|function)", str(exc)))
    except sqlite3.Error:
        return False


def _complete(gateway, role, messages):
    """One gateway call; a GatewayError (retries spent, auth, no fixture)
    fails the stage like an unparseable reply does."""
    try:
        return gateway.complete_for_role(role, messages)
    except GatewayError as exc:
        raise StageError(role, f"{type(exc).__name__}: {exc}") from exc


def _call(gateway, trace, template: PromptTemplate, bindings: dict,
          parse, failure_hint: str):
    """Render, call, record, parse; one format re-ask on parse failure."""
    user_text = template.render(**bindings)
    messages = [("system", template.system_text), ("user", user_text)]
    response, model_id = _complete(gateway, template.role, messages)
    trace.add_stage(template.role, user_text, response, model_id)
    try:
        return parse(response.content)
    except Exception as exc:
        first_error = exc
    retry_messages = messages + [
        ("assistant", response.content),
        ("user", f"{FORMAT_REMINDER} ({failure_hint})"),
    ]
    response2, model_id = _complete(gateway, template.role, retry_messages)
    trace.add_stage(template.role, retry_messages[-1][1], response2, model_id,
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
        payload = json.loads(extract_structured_payload(content))
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
        dropped = []
        for v in violations:
            if v.severity != "error":
                trace.add_warning(f"schema_linking: {v}")
                continue
            dropped.append(str(v))
            if v.kind == "unknown-table":
                link.kept.pop(v.entity, None)
            elif v.kind == "unknown-column":
                tname, cname = v.entity.rsplit(".", 1)
                if tname in link.kept and cname in link.kept[tname]:
                    link.kept[tname].remove(cname)
                link.join_edges = [
                    e for e in link.join_edges
                    if v.entity not in (
                        f"{e.src_table}.{e.src_column}", f"{e.dst_table}.{e.dst_column}"
                    )
                ]
        link.kept = {t: c for t, c in link.kept.items() if c}
        for entity in dropped:
            trace.add_warning(f"schema_linking: dropped {entity}")
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
    canonical = {k: k for k in CLAUSE_KEYS}

    def parse(content):
        payload = json.loads(extract_structured_payload(content))
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object of clause: expression pairs")
        clauses = {}
        for key, value in payload.items():
            norm = str(key).upper().replace("_", " ").strip()
            if norm not in canonical:
                trace.add_warning(f"subproblem: dropped unknown clause key {key!r}")
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
        payload = json.loads(extract_structured_payload(content))
        if isinstance(payload, dict) and isinstance(payload.get("steps"), list):
            steps = [str(s).strip() for s in payload["steps"] if str(s).strip()]
            return steps, str(payload.get("rationale", ""))
        if isinstance(payload, list):
            return [str(s).strip() for s in payload if str(s).strip()], ""
    except (ExtractionError, json.JSONDecodeError):
        pass
    steps = []
    prose = []
    for line in content.splitlines():
        match = re.match(r"\s*(?:\d+[.)]\s+|[-*]\s+)(.+)", line)
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
