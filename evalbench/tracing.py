"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces each function in ``WRAPS`` under the name its
caller looks it up by (``nl2sql.pipeline.execute`` is the name
``run_pipeline`` calls, ``nl2sql.agents.render_schema_text`` the one the
agents call) and ``Tracer.restore`` puts the originals back. Spans are kept
in memory as tuples (id, name, start, end, parent, thread, sample, error,
attributes) and written out when the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover. Worker threads of ``evaluate``'s pool have no span open
when a sample starts, so their first span takes the open ``evaluate`` span
as parent; ``evaluate``'s self time is then the time no sample was inside
``_run_one`` or ``append_trace``.
"""

import functools
import importlib
import itertools
import json
import threading
import time

ROLES = ("schema_linking", "subproblem", "query_plan", "sql",
         "correction_plan", "correction_sql")

# (module, attribute path under it, span name). The attribute path is the
# name the caller looks the function up by.
WRAPS = (
    ("nl2sql.evalkit", "load_dataset", "evalkit.load_dataset"),
    ("nl2sql.evalkit", "evaluate", "evalkit.evaluate"),
    ("nl2sql.evalkit", "write_report", "evalkit.write_report"),
    ("nl2sql.evalkit", "_run_one", "evalkit.run_one"),
    ("nl2sql.evalkit", "run_pipeline", "pipeline.run_pipeline"),
    ("nl2sql.evalkit", "append_trace", "pipeline.append_trace"),
    ("nl2sql.pipeline", "execute", "execution.execute"),
    ("nl2sql.pipeline", "compare_results", "execution.compare_results"),
    ("nl2sql.pipeline", "sanitize", "execution.sanitize"),
    ("nl2sql.pipeline", "has_top_level_order_by", "execution.has_top_level_order_by"),
    ("nl2sql.pipeline", "default_taxonomy", "taxonomy.default_taxonomy"),
    ("nl2sql.pipeline", "render_schema_text", "schema.render_schema_text"),
    ("nl2sql.agents", "render_schema_text", "schema.render_schema_text"),
    ("nl2sql.agents", "validate_linked_schema", "schema.validate_linked_schema"),
    ("nl2sql.schema", "load_tables_json", "schema.load_tables_json"),
    ("nl2sql.agents", "load_default_templates", "agents.load_default_templates"),
    ("nl2sql.agents", "run_schema_linking", "agents.schema_linking"),
    ("nl2sql.agents", "run_subproblem", "agents.subproblem"),
    ("nl2sql.agents", "run_query_plan", "agents.query_plan"),
    ("nl2sql.agents", "run_sql", "agents.sql"),
    ("nl2sql.agents", "run_correction_plan", "agents.correction_plan"),
    ("nl2sql.agents", "run_correction_sql", "agents.correction_sql"),
    ("nl2sql.taxonomy", "render_summary", "taxonomy.render_summary"),
    ("nl2sql.taxonomy", "parse_codes", "taxonomy.parse_codes"),
    ("nl2sql.gateway", "Gateway.complete_for_role", "gateway.complete_for_role"),
    ("nl2sql.gateway", "cache_key", "gateway.cache_key"),
    ("nl2sql.gateway", "ReplayBackend.complete", "gateway.replay"),
    ("nl2sql.gateway", "RemoteBackend.complete", "gateway.remote"),
    ("sqlite3", "connect", "execution.connect"),
)


def _annotate_call(args, kwargs, result):
    response, _model = result
    return {"role": args[1], "prompt_tokens": response.prompt_tokens}


def _annotate_execute(args, kwargs, result):
    return {"sql": args[1].text, "status": result.status, "rows": len(result.rows)}


def _annotate_pipeline(args, kwargs, result):
    attempts = result.trace.attempts
    return {"rounds_ok": sum(a.ea is True for a in attempts[1:]),
            "repeats": sum(a.repeat_of_earlier for a in attempts)}


ANNOTATE = {
    "gateway.complete_for_role": _annotate_call,
    "execution.execute": _annotate_execute,
    "pipeline.run_pipeline": _annotate_pipeline,
}


def resolve(module_name, path):
    """(owner object, attribute name) for a WRAPS entry; raises if gone."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not callable(getattr(owner, attr)):
        raise TypeError(f"{module_name}.{path} is not callable")
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient = None
        self._saved = []

    def install(self):
        for module_name, path, name in WRAPS:
            owner, attr = resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        annotate = ANNOTATE.get(name)
        local = self._local
        spans = self.spans
        ids = self._ids
        is_sample = name == "evalkit.run_one"
        is_evaluate = name == "evalkit.evaluate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.sample = None
            span_id = next(ids)
            parent = stack[-1] if stack else self._ambient
            if is_sample:
                local.sample = args[0].index
            if is_evaluate:
                self._ambient = span_id
            stack.append(span_id)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                sample = local.sample
                if is_sample:
                    local.sample = None
                if is_evaluate:
                    self._ambient = None
                attrs = annotate(args, kwargs, result) if annotate and error is None else None
                spans.append((span_id, name, start, end, parent,
                              threading.get_ident(), sample, error, attrs))

        return traced

    def write(self, path):
        keys = ("id", "name", "start", "end", "parent", "thread", "sample",
                "error", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), sort_keys=True) + "\n")


# --- per-layer metrics ---------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def _self_times(spans, children):
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted((c[2], c[3]) for c in children.get(s[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[s[0]] = (end - start) - covered
    return out


PER_LAYER = (
    # (name, unit, better)
    # evalkit
    ("evalkit.self_ms_per_sample", "ms/sample", "lower"),
    ("evalkit.write_report_ms", "ms", "lower"),
    ("evalkit.load_dataset_ms", "ms", "lower"),
    # pipeline
    ("pipeline.run_pipeline_ms_p50", "ms", "lower"),
    ("pipeline.run_pipeline_ms_p99", "ms", "lower"),
    ("pipeline.self_ms_per_sample", "ms/sample", "lower"),
    ("pipeline.append_trace_ms_p50", "ms", "lower"),
    ("pipeline.trace_bytes_per_sample", "bytes/sample", "lower"),
    ("pipeline.correction_rounds_per_sample", "rounds/sample", "lower"),
    ("pipeline.correction_yield", "ratio", "higher"),
    ("pipeline.repeat_candidates_per_sample", "count/sample", "lower"),
    # agents
    ("agents.load_default_templates_per_sample", "calls/sample", "lower"),
    ("agents.load_default_templates_ms_per_sample", "ms/sample", "lower"),
    *((f"agents.{role}.self_ms_p50", "ms", "lower") for role in ROLES),
    *((f"agents.{role}.reask_rate", "ratio", "lower") for role in ROLES),
    ("agents.stage_errors_per_sample", "count/sample", "lower"),
    # gateway
    *((f"gateway.{role}.calls_per_sample", "calls/sample", "lower") for role in ROLES),
    *((f"gateway.{role}.prompt_tokens_per_call", "tokens/call", "lower") for role in ROLES),
    ("gateway.wait_ms_p50", "ms", "lower"),
    ("gateway.wait_ms_p99", "ms", "lower"),
    ("gateway.in_flight_mean", "calls", "higher"),
    ("gateway.model_ms_p50", "ms", "lower"),
    ("gateway.duplicate_model_calls", "calls/pass", "lower"),
    ("gateway.replay_write_ms_p50", "ms", "lower"),
    ("gateway.cache_key_ms_p50", "ms", "lower"),
    ("gateway.replay_hit_ratio", "ratio", "higher"),
    ("gateway.replay_read_ms_p50", "ms", "lower"),
    ("model_calls_per_sample", "calls/sample", "lower"),
    # schema
    ("schema.render_schema_text_calls_per_sample", "calls/sample", "lower"),
    ("schema.render_schema_text_ms_per_sample", "ms/sample", "lower"),
    ("schema.validate_linked_schema_ms_p50", "ms", "lower"),
    # taxonomy
    ("taxonomy.default_taxonomy_calls_per_sample", "calls/sample", "lower"),
    ("taxonomy.render_summary_ms_per_sample", "ms/sample", "lower"),
    ("taxonomy.parse_codes_ms_p50", "ms", "lower"),
    # execution
    ("execution.execute_calls_per_sample", "calls/sample", "lower"),
    ("execution.gold_executions_per_sample", "calls/sample", "lower"),
    ("execution.connects_per_execute", "ratio", "lower"),
    ("execution.execute_ms_p50", "ms", "lower"),
    ("execution.execute_ms_p99", "ms", "lower"),
    ("execution.compare_ms_p50", "ms", "lower"),
    ("execution.compare_ms_p99", "ms", "lower"),
    ("execution.timeouts_per_sample", "count/sample", "lower"),
    ("execution.rows_per_execute_max", "rows", "lower"),
    ("execution.sanitize_ms_p50", "ms", "lower"),
    ("execution.sanitize_reject_ratio", "ratio", "lower"),
    # tracing overhead
    ("tracing.untraced_samples_per_s", "1/s", "higher"),
    ("tracing.traced_samples_per_s", "1/s", "higher"),
    ("tracing.overhead_pct", "%", "lower"),
)


def layer_metrics(spans, samples, passes, gold_sqls, untraced_rate, traced_rate):
    """Per-layer metrics of one traced phase.

    ``samples`` counts the samples of the traced passes; ``passes`` is the
    list of their pass records (wall time, trace bytes, model calls,
    duplicate calls); ``gold_sqls`` holds the gold query texts, which no
    candidate repeats verbatim.
    """
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
        children.setdefault(s[4], []).append(s)
    self_time = _self_times(spans, children)
    ms = 1000.0

    def durations(name):
        return [(s[3] - s[2]) * ms for s in by_name.get(name, ())]

    def selfs(name):
        return [self_time[s[0]] * ms for s in by_name.get(name, ())]

    def per_sample(value):
        return value / samples

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["evalkit.self_ms_per_sample"] = per_sample(
        sum(selfs("evalkit.evaluate")) + sum(selfs("evalkit.run_one")))
    m["evalkit.write_report_ms"] = percentile(durations("evalkit.write_report"), 50)
    m["evalkit.load_dataset_ms"] = percentile(durations("evalkit.load_dataset"), 50)

    m["pipeline.run_pipeline_ms_p50"] = percentile(durations("pipeline.run_pipeline"), 50)
    m["pipeline.run_pipeline_ms_p99"] = percentile(durations("pipeline.run_pipeline"), 99)
    m["pipeline.self_ms_per_sample"] = per_sample(sum(selfs("pipeline.run_pipeline")))
    m["pipeline.append_trace_ms_p50"] = percentile(durations("pipeline.append_trace"), 50)
    m["pipeline.trace_bytes_per_sample"] = per_sample(sum(p["trace_bytes"] for p in passes))
    rounds = len(by_name.get("agents.correction_plan", ()))
    pipeline_attrs = [s[8] for s in by_name.get("pipeline.run_pipeline", ()) if s[8]]
    m["pipeline.correction_rounds_per_sample"] = per_sample(rounds)
    m["pipeline.correction_yield"] = ratio(sum(a["rounds_ok"] for a in pipeline_attrs), rounds)
    m["pipeline.repeat_candidates_per_sample"] = per_sample(
        sum(a["repeats"] for a in pipeline_attrs))

    m["agents.load_default_templates_per_sample"] = per_sample(
        len(by_name.get("agents.load_default_templates", ())))
    m["agents.load_default_templates_ms_per_sample"] = per_sample(
        sum(durations("agents.load_default_templates")))
    stage_errors = 0
    for role in ROLES:
        role_spans = by_name.get(f"agents.{role}", ())
        m[f"agents.{role}.self_ms_p50"] = percentile(selfs(f"agents.{role}"), 50)
        reasks = sum(
            sum(c[1] == "gateway.complete_for_role" for c in children.get(s[0], ())) > 1
            for s in role_spans)
        m[f"agents.{role}.reask_rate"] = ratio(reasks, len(role_spans))
        stage_errors += sum(s[7] == "StageError" for s in role_spans)
    m["agents.stage_errors_per_sample"] = per_sample(stage_errors)

    calls = by_name.get("gateway.complete_for_role", ())
    for role in ROLES:
        role_calls = [s for s in calls if s[8] and s[8]["role"] == role]
        m[f"gateway.{role}.calls_per_sample"] = per_sample(len(role_calls))
        m[f"gateway.{role}.prompt_tokens_per_call"] = ratio(
            sum(s[8]["prompt_tokens"] for s in role_calls), len(role_calls))
    waits = []
    for s in calls:
        backend = [c for c in children.get(s[0], ()) if c[1] == "gateway.replay"]
        waits.append((s[3] - s[2] - sum(c[3] - c[2] for c in backend)) * ms)
    m["gateway.wait_ms_p50"] = percentile(waits, 50)
    m["gateway.wait_ms_p99"] = percentile(waits, 99)
    replay = by_name.get("gateway.replay", ())
    wall = sum(p["wall"] for p in passes)
    m["gateway.in_flight_mean"] = ratio(sum(s[3] - s[2] for s in replay), wall)
    m["gateway.model_ms_p50"] = percentile(durations("gateway.remote"), 50)
    m["gateway.duplicate_model_calls"] = ratio(sum(p["duplicates"] for p in passes), len(passes))
    hits, misses = [], []
    for s in replay:
        missed = any(c[1] == "gateway.remote" for c in children.get(s[0], ()))
        (misses if missed else hits).append(self_time[s[0]] * ms)
    m["gateway.replay_write_ms_p50"] = percentile(misses, 50)
    m["gateway.cache_key_ms_p50"] = percentile(durations("gateway.cache_key"), 50)
    m["gateway.replay_hit_ratio"] = ratio(len(hits), len(replay))
    m["gateway.replay_read_ms_p50"] = percentile(hits, 50)
    m["model_calls_per_sample"] = per_sample(sum(p["model_calls"] for p in passes))

    m["schema.render_schema_text_calls_per_sample"] = per_sample(
        len(by_name.get("schema.render_schema_text", ())))
    m["schema.render_schema_text_ms_per_sample"] = per_sample(
        sum(durations("schema.render_schema_text")))
    m["schema.validate_linked_schema_ms_p50"] = percentile(durations("schema.validate_linked_schema"), 50)

    m["taxonomy.default_taxonomy_calls_per_sample"] = per_sample(
        len(by_name.get("taxonomy.default_taxonomy", ())))
    m["taxonomy.render_summary_ms_per_sample"] = per_sample(
        sum(durations("taxonomy.render_summary")))
    m["taxonomy.parse_codes_ms_p50"] = percentile(durations("taxonomy.parse_codes"), 50)

    executes = by_name.get("execution.execute", ())
    m["execution.execute_calls_per_sample"] = per_sample(len(executes))
    m["execution.gold_executions_per_sample"] = per_sample(
        sum(bool(s[8]) and s[8]["sql"] in gold_sqls for s in executes))
    connects = sum(c[1] == "execution.connect" for s in executes for c in children.get(s[0], ()))
    m["execution.connects_per_execute"] = ratio(connects, len(executes))
    m["execution.execute_ms_p50"] = percentile(durations("execution.execute"), 50)
    m["execution.execute_ms_p99"] = percentile(durations("execution.execute"), 99)
    m["execution.compare_ms_p50"] = percentile(durations("execution.compare_results"), 50)
    m["execution.compare_ms_p99"] = percentile(durations("execution.compare_results"), 99)
    m["execution.timeouts_per_sample"] = per_sample(
        sum(bool(s[8]) and s[8]["status"] == "timeout" for s in executes))
    m["execution.rows_per_execute_max"] = max(
        (s[8]["rows"] for s in executes if s[8]), default=0)
    sanitizes = by_name.get("execution.sanitize", ())
    m["execution.sanitize_ms_p50"] = percentile(durations("execution.sanitize"), 50)
    m["execution.sanitize_reject_ratio"] = ratio(
        sum(s[7] == "SanitizeError" for s in sanitizes), len(sanitizes))

    m["tracing.untraced_samples_per_s"] = untraced_rate
    m["tracing.traced_samples_per_s"] = traced_rate
    m["tracing.overhead_pct"] = 100.0 * ratio(untraced_rate - traced_rate, untraced_rate)
    return m
