import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import pytest
from hypothesis import given

from nl2sql.agents import (
    CLAUSE_KEYS,
    PLACEHOLDERS,
    STAGE_PLACEHOLDERS,
    _PLACEHOLDER_RE,
    ExtractionError,
    PromptTemplate,
    StageError,
    load_default_templates,
    load_templates,
    looks_like_sql_statement,
    run_correction_plan,
    run_correction_sql,
    run_query_plan,
    run_schema_linking,
    run_sql,
    run_subproblem,
    structured_payload,
)
from nl2sql.pipeline import PipelineConfig, PipelineTrace
from nl2sql.schema import ForeignKey, render_schema_text
from nl2sql.taxonomy import default_taxonomy

from conftest import (
    LINKING_JSON,
    PLAN_JSON,
    SUBPROBLEM_JSON,
    run_pipeline_once,
    scripted_gateway,
)


@pytest.fixture()
def trace():
    return PipelineTrace(sample_id="t")


# --- payload extraction -------------------------------------------------------

def test_extract_from_fenced_block():
    text = 'Here you go:\n```json\n{"a": 1}\n```'
    assert structured_payload(text) == {"a": 1}


def test_extract_bare_object_with_commentary():
    text = '{"a": [1, 2]} and that is my answer.'
    assert structured_payload(text) == {"a": [1, 2]}


def test_extract_prose_with_brace_in_string_literal_only():
    with pytest.raises(ExtractionError):
        structured_payload('I said "use { as a marker" and nothing more')


def test_extract_skips_invalid_then_finds_valid():
    text = "{not json} but later {\"ok\": true}"
    assert structured_payload(text) == {"ok": True}


def test_extract_array_payload():
    assert structured_payload("steps: [1, 2, 3] done") == [1, 2, 3]


def test_extract_nested_braces_in_strings():
    payload = '{"text": "a } inside", "n": 1}'
    assert structured_payload("x " + payload) == {
        "text": "a } inside", "n": 1,
    }


# Text that cannot open a payload or a code fence of its own.
_plain = st.text(st.characters(blacklist_characters="{[`"), max_size=20)
_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False) | _plain)
# An array holds no object: the object scan runs before the array scan.
_arrays = st.lists(st.recursive(_scalars, st.lists, max_leaves=8), max_size=4)
_objects = st.dictionaries(
    _plain, st.recursive(_scalars, lambda inner: st.lists(inner)
                         | st.dictionaries(_plain, inner), max_leaves=8),
    max_size=4,
)


@given(_plain, _objects | _arrays, _plain)
def test_extract_embedded_payload_roundtrips(before, value, after):
    text = before + json.dumps(value) + after
    assert structured_payload(text) == value


def _old_extract(text):
    """The payload text extract_structured_payload returned before
    structured_payload handed back the value it had decoded already."""
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
                    _, end = json.JSONDecoder().raw_decode(candidate, start)
                    return candidate[start:end]
                except json.JSONDecodeError:
                    start = candidate.find(opener, start + 1)
    raise ExtractionError("no balanced JSON payload found")


# Chatty text around fenced, bare and broken payloads, with brackets nested
# in strings and left unbalanced.
_payload_pieces = st.sampled_from([
    "Sure:", " ", "\n", "```", "```json\n", "```JSON", "{", "}", "[", "]", '"', ",", ":",
    '{"a": 1}', '[1, [2, {"b": "]}"}]]', '{"t": "a } and { b", "n": [1, {}]}', '"x"', "1",
    "true", "{not json}", "done.",
])


@given(st.lists(_payload_pieces | _plain, max_size=12).map("".join)
       | (_plain | _objects.map(json.dumps)).map(lambda v: f"Here:\n```json\n{v}\n```"))
def test_structured_payload_equals_the_loads_of_the_old_extract(text):
    try:
        expected = json.loads(_old_extract(text))
    except ExtractionError:
        with pytest.raises(ExtractionError):
            structured_payload(text)
    else:  # compared as JSON text, as a NaN is not equal to itself
        assert json.dumps(structured_payload(text)) == json.dumps(expected)


# --- templates ----------------------------------------------------------------

def test_default_templates_load_for_all_roles():
    templates = load_default_templates()
    assert set(templates) == {
        "schema_linking", "subproblem", "query_plan", "sql",
        "correction_plan", "correction_sql",
    }


FULL_BINDINGS = dict(
    question="q", schema="s", subproblems="sp", plan="p",
    failed_sql="f", exec_feedback="e", taxonomy="t", correction_plan="c",
)


def test_placeholder_totality():
    for template in load_default_templates().values():
        rendered = template.render(**FULL_BINDINGS)
        assert "{" not in rendered and "}" not in rendered


def test_each_stage_fills_the_names_declared_for_it(music_schema, fixture_db, monkeypatch):
    """STAGE_PLACEHOLDERS is what each run_* call binds, and PLACEHOLDERS
    their union: a run with a correction round renders all six stages."""
    filled = {}
    render = PromptTemplate.render

    def recording(self, **bindings):
        filled[self.role] = set(bindings)
        return render(self, **bindings)

    monkeypatch.setattr(PromptTemplate, "render", recording)
    gateway = scripted_gateway(["SELECT COUNT(*) FROM concert"],
                               correction_sql_responses=["SELECT COUNT(*) FROM singer"])
    run_pipeline_once("How many singers do we have?", music_schema, fixture_db,
                      PipelineConfig(), gateway, gold_query="SELECT COUNT(*) FROM singer")
    assert filled == STAGE_PLACEHOLDERS
    assert PLACEHOLDERS == set().union(*filled.values())


@pytest.mark.parametrize("role", sorted(STAGE_PLACEHOLDERS))
def test_a_template_file_may_use_only_the_names_its_stage_fills(tmp_path, role):
    for name in sorted(PLACEHOLDERS - STAGE_PLACEHOLDERS[role]):
        (tmp_path / f"{role}.txt").write_text(f"sys\n--- user ---\n{{{name}}}",
                                             encoding="utf-8")
        with pytest.raises(ValueError, match=f"{role}.txt: uses {{{name}}}, which the {role}"):
            load_templates(tmp_path)
    (tmp_path / f"{role}.txt").write_text(
        "sys\n--- user ---\n" + " ".join(f"{{{n}}}" for n in STAGE_PLACEHOLDERS[role]),
        encoding="utf-8")
    assert set(_PLACEHOLDER_RE.findall(load_templates(tmp_path)[role].user_template)) == \
        STAGE_PLACEHOLDERS[role]


def test_unknown_placeholder_rejected():
    with pytest.raises(ValueError):
        PromptTemplate("sql", "sys", "do {nonsense}")


def test_unbound_placeholder_raises():
    template = PromptTemplate("sql", "sys", "{question} {plan}")
    with pytest.raises(KeyError):
        template.render(question="q")


def reference_render(template, **bindings):
    """PromptTemplate.render as it was before templates were split once: one
    regex substitution with a callback per placeholder."""
    def repl(match):
        name = match.group(1)
        if name not in bindings:
            raise KeyError(f"{template.role}: placeholder {{{name}}} not bound")
        return str(bindings[name])

    return _PLACEHOLDER_RE.sub(repl, template.user_template)


_names = st.sampled_from(sorted(PLACEHOLDERS))
_template_text = st.text(st.characters(exclude_categories=["Cs"])
                         | st.sampled_from("{}_aqz\n"), max_size=10)
_user_templates = st.lists(_template_text | _names.map("{{{}}}".format), max_size=8).map(
    "".join).filter(lambda t: set(_PLACEHOLDER_RE.findall(t)) <= PLACEHOLDERS)


@given(user_template=_user_templates,
       bindings=st.dictionaries(_names, st.text(max_size=6)
                                | _names.map("x{{{}}}y".format) | st.integers()))
def test_render_equals_the_regex_substitution(user_template, bindings):
    template = PromptTemplate("sql", "sys", user_template)
    try:
        expected = reference_render(template, **bindings)
    except KeyError as exc:
        with pytest.raises(KeyError) as raised:
            template.render(**bindings)
        assert raised.value.args == exc.args
    else:  # a bound value that holds a placeholder stays as it is
        assert template.render(**bindings) == expected


# --- SQL-in-plan detection ------------------------------------------------------

_STATEMENT_STEPS = [
    ("SELECT name FROM singer", True),
    ("1. SELECT name FROM singer;", True),
    ("Identify the singer table and its name column", False),
    ("Count all rows of the filtered result", False),
    ("Join concert to stadium on the stadium id", False),
    ("WITH x AS (SELECT 1) SELECT * FROM x", True),
    ("Select the relevant columns for the answer", False),
    ("SELECT '\ud800'", False),  # a lone surrogate: no text SQLite can read
    ("2. SELECT name FROM singer WHERE name = 'x\udfff'", False),
]


@pytest.mark.parametrize("step,expected", _STATEMENT_STEPS)
def test_looks_like_sql_statement(step, expected):
    assert looks_like_sql_statement(step) is expected


def test_looks_like_sql_statement_from_several_threads_at_once():
    # Each check opens and closes its own database, so threads share none
    # and leave none open (CI runs this with ResourceWarning as an error).
    steps = [step for step, _ in _STATEMENT_STEPS] * 20
    barrier = threading.Barrier(4, timeout=30)

    def check():
        barrier.wait()
        return [looks_like_sql_statement(step) for step in steps]

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = [future.result(timeout=60) for future in [pool.submit(check) for _ in range(4)]]
    assert results == [[expected for _, expected in _STATEMENT_STEPS] * 20] * 4


# --- agent runs against scripted fixtures --------------------------------------

def test_schema_linking_parses_fixture(music_schema, trace):
    gateway = scripted_gateway(["SELECT 1"])
    link = run_schema_linking(
        "How many singers do we have?", music_schema, gateway, trace,
        load_default_templates(),
    )
    assert link.kept == {"singer": ["id", "name", "country", "age"]}
    assert len(trace.stages) == 1
    assert trace.stages[0].role == "schema_linking"


def test_schema_linking_fenced_response(music_schema, trace):
    fenced = "Sure:\n```json\n" + LINKING_JSON + "\n```"
    gateway = scripted_gateway([], schema_linking=[fenced])
    link = run_schema_linking(
        "q", music_schema, gateway, trace, load_default_templates()
    )
    assert link.kept == {"singer": ["id", "name", "country", "age"]}


def test_schema_linking_drops_unknown_column_with_warning(music_schema, trace):
    payload = json.dumps({"tables": {"singer": ["name", "agee"]}})
    gateway = scripted_gateway([], schema_linking=[payload])
    link = run_schema_linking(
        "q", music_schema, gateway, trace, load_default_templates()
    )
    assert link.kept == {"singer": ["name"]}
    assert any("singer.agee" in w for w in trace.warnings)


def test_schema_linking_drops_qualified_names_it_warns_about(music_schema, trace):
    payload = json.dumps({
        "tables": {"singer": ["singer.name", "age"], "album": ["singer_id"]},
        "joins": [["album", "singer_id", "singer", "singer.id"],
                  ["album", "singer_id", "singer", "id"]],
    })
    gateway = scripted_gateway([], schema_linking=[payload])
    link = run_schema_linking(
        "q", music_schema, gateway, trace, load_default_templates()
    )
    assert link.kept == {"singer": ["age"], "album": ["singer_id"]}
    assert link.join_edges == [ForeignKey("album", "singer_id", "singer", "id")]
    assert trace.warnings == [
        "schema_linking: dropped unknown-column: singer.singer.name",
        "schema_linking: dropped unknown-column: singer.singer.id",
    ]
    assert "singer.name" not in render_schema_text(link, parent=music_schema)


def test_schema_linking_reasks_then_errors(music_schema, trace):
    gateway = scripted_gateway([], schema_linking=["not json", "still not json"])
    with pytest.raises(StageError) as excinfo:
        run_schema_linking("q", music_schema, gateway, trace, load_default_templates())
    assert excinfo.value.role == "schema_linking"
    assert len(trace.stages) == 2  # original + one re-ask, never more


def test_schema_linking_reask_recovers(music_schema, trace):
    gateway = scripted_gateway([], schema_linking=["garbage", LINKING_JSON])
    link = run_schema_linking(
        "q", music_schema, gateway, trace, load_default_templates()
    )
    assert link.kept["singer"]
    assert len(trace.stages) == 2
    assert trace.stages[1].warnings  # re-ask is recorded with its reason


def linked_text(music_schema, trace):
    gateway = scripted_gateway([], schema_linking=[LINKING_JSON])
    link = run_schema_linking("q", music_schema, gateway, trace,
                              load_default_templates())
    return render_schema_text(link, parent=music_schema)


def test_subproblem_parses_clauses(music_schema, trace):
    schema_text = linked_text(music_schema, trace)
    gateway = scripted_gateway([], subproblem=[SUBPROBLEM_JSON])
    subs = run_subproblem("q", schema_text, gateway, trace, load_default_templates())
    assert subs.clauses == {"SELECT": "count(*)", "FROM": "singer"}


def test_subproblem_drops_unknown_key(music_schema, trace):
    schema_text = linked_text(music_schema, trace)
    payload = json.dumps({"SELECT": "x", "WINDOW": "w"})
    gateway = scripted_gateway([], subproblem=[payload])
    subs = run_subproblem("q", schema_text, gateway, trace, load_default_templates())
    assert "WINDOW" not in subs.clauses
    assert any("WINDOW" in w for w in trace.warnings)


def test_subproblem_empty_object_is_valid(music_schema, trace):
    schema_text = linked_text(music_schema, trace)
    gateway = scripted_gateway([], subproblem=["{}"])
    subs = run_subproblem("q", schema_text, gateway, trace, load_default_templates())
    assert subs.clauses == {}


def test_subproblem_clause_vocabulary_is_closed():
    assert set(CLAUSE_KEYS) == {
        "SELECT", "FROM", "WHERE", "GROUP BY", "JOIN", "DISTINCT",
        "ORDER BY", "HAVING", "EXCEPT", "LIMIT", "UNION", "INTERSECT",
    }


def run_plan(music_schema, trace, responses):
    schema_text = linked_text(music_schema, trace)
    gateway = scripted_gateway([], query_plan=list(responses))
    from nl2sql.agents import SubproblemSet

    return run_query_plan("q", schema_text, SubproblemSet({}), gateway, trace,
                          load_default_templates())


def test_query_plan_four_steps(music_schema, trace):
    plan = run_plan(music_schema, trace, [json.dumps({"steps": [
        "Identify the needed tables",
        "Join them on their key columns",
        "Filter to the asked condition",
        "Aggregate the result",
    ]})])
    assert len(plan.steps) == 4


def test_query_plan_numbered_lines_fallback(music_schema, trace):
    text = "1. Find the singer table\n2. Count its rows"
    plan = run_plan(music_schema, trace, [text])
    assert plan.steps == ["Find the singer table", "Count its rows"]


def test_query_plan_rejects_sql_step_then_accepts_fix(music_schema, trace):
    bad = json.dumps({"steps": ["SELECT name FROM singer"]})
    good = json.dumps({"steps": ["List each singer name from the table"]})
    plan = run_plan(music_schema, trace, [bad, good])
    assert plan.steps == ["List each singer name from the table"]


def test_query_plan_step_with_a_lone_surrogate_needs_no_reask(music_schema, trace):
    plan = run_plan(music_schema, trace, ["1. SELECT '\ud800' as the label\n2. Count rows"])
    assert plan.steps == ["SELECT '\ud800' as the label", "Count rows"]
    assert [stage.role for stage in trace.stages][-1:] == ["query_plan"]
    assert not trace.stages[-1].warnings


def test_query_plan_empty_response_errors(music_schema, trace):
    with pytest.raises(StageError):
        run_plan(music_schema, trace, ["", ""])


def test_run_sql_passthrough(trace):
    gateway = scripted_gateway(["```sql\nSELECT 1;\n```"])
    raw = run_sql("q", "plan", gateway, trace, load_default_templates())
    assert raw == "```sql\nSELECT 1;\n```"  # verbatim, sanitizer's job later


def test_run_sql_whitespace_only_errors(trace):
    gateway = scripted_gateway(["  \n ", " "])
    with pytest.raises(StageError):
        run_sql("q", "plan", gateway, trace, load_default_templates())


def test_correction_plan_parses_codes(music_schema, trace):
    schema_text = linked_text(music_schema, trace)
    response = json.dumps({
        "codes": ["SCH-01"],
        "steps": ["Use the age column, not agee", "Re-run the count"],
        "rationale": "SCH-01 missing columns: agee does not exist",
    })
    gateway = scripted_gateway([], correction_plan=[response])
    plan = run_correction_plan(
        "q", schema_text, "SELECT agee FROM singer", "no such column: agee",
        default_taxonomy(), gateway, trace, load_default_templates(),
    )
    assert [c.code for c in plan.diagnosed_codes] == ["SCH-01"]
    assert len(plan.repair_steps) == 2


def test_correction_plan_unknown_code_is_data(music_schema, trace):
    schema_text = linked_text(music_schema, trace)
    response = "Diagnosis: FAKE-99 and JOIN-01.\n1. Add the missing join"
    gateway = scripted_gateway([], correction_plan=[response])
    plan = run_correction_plan(
        "q", schema_text, "SELECT 1", "rows differ", default_taxonomy(),
        gateway, trace, load_default_templates(),
    )
    assert plan.unknown_codes == ["FAKE-99"]
    assert [c.code for c in plan.diagnosed_codes] == ["JOIN-01"]


def test_correction_plan_requires_nonempty_inputs(music_schema, trace):
    schema_text = linked_text(music_schema, trace)
    gateway = scripted_gateway([])
    with pytest.raises(ValueError):
        run_correction_plan("q", schema_text, "", "feedback", default_taxonomy(),
                            gateway, trace, load_default_templates())


def test_correction_sql_passthrough(music_schema, trace):
    from nl2sql.agents import CorrectionPlan

    schema_text = linked_text(music_schema, trace)
    gateway = scripted_gateway([], correction_sql=["SELECT COUNT(*) FROM singer"])
    raw = run_correction_sql(
        "q", schema_text, CorrectionPlan([], [], ["fix it"]), "SELECT 1",
        gateway, trace, load_default_templates(),
    )
    assert raw == "SELECT COUNT(*) FROM singer"


def test_every_gateway_call_appends_one_stage(music_schema, trace):
    gateway = scripted_gateway([], schema_linking=["junk", LINKING_JSON])
    run_schema_linking("q", music_schema, gateway, trace, load_default_templates())
    assert len(trace.stages) == gateway.backends["test"].calls == 2
