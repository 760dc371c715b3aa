"""Command-line entry points: one-shot asking, batch evaluation, trace
inspection, taxonomy listing, and cache management.

Configuration precedence: flag > config file > built-in default. Secrets
(API keys) come only from environment variables.

Exit codes: 0 success, 1 usage error, 2 data/load error, 3 run completed
with stage errors present.
"""

import argparse
import contextlib
import json
import math
import os
import sys

import yaml

from . import agents, evalkit
from .execution import connect_readonly
from .gateway import (
    AGENT_ROLES,
    Gateway,
    ModelRoute,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
    read_replay_log,
    replay_log_path,
)
from .jsonl import AppendLog
from .pipeline import (
    TRIGGER_MODES,
    PipelineConfig,
    append_trace,
    load_traces,
    run_pipeline,
)
from .schema import SchemaError, introspect_database, load_tables_json
from .taxonomy import default_taxonomy, render_summary

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_STAGE_ERRORS = 3

DEFAULT_ENDPOINT = "https://api.openai.com"
DEFAULT_MODEL = "gpt-4o-mini"


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def load_config(path) -> dict:
    if not path:
        return {}
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}", EXIT_DATA)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a mapping", EXIT_DATA)
    return data


def _section(config: dict, name) -> dict:
    """The mapping under ``name`` in the config, {} when unset."""
    value = config.get(name) or {}
    if not isinstance(value, dict):
        raise CliError(f"config setting {name} must be a mapping, not {value!r}")
    return value


def _number(minimum, integral=False):
    """A converter to a finite int (``integral``) or float of at least
    ``minimum``; booleans and other types are refused with ValueError."""
    def convert(value):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or (integral and not isinstance(value, int))
                or not math.isfinite(value) or value < minimum):
            kind = "an integer" if integral else "a number"
            raise ValueError(f"must be {kind} of at least {minimum}")
        return value if integral else float(value)
    return convert


def _flag(value):
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _one_of(choices):
    def convert(value):
        if value not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return value
    return convert


def _checked(label, value, convert):
    """``value`` passed through ``convert``; a value it refuses is a usage
    error that names the setting by ``label``."""
    try:
        return convert(value)
    except ValueError as exc:
        raise CliError(f"{label} {exc}, not {value!r}") from exc


def _setting(pipeline_cfg: dict, name, convert, default):
    return _checked(f"config setting pipeline.{name}", pipeline_cfg.get(name, default),
                    convert)


def _build_backend(spec: dict, name="default"):
    if not isinstance(spec, dict):
        raise CliError(f"config setting backends.{name} must be a mapping, not {spec!r}")
    kind = spec.get("type", "remote")
    if kind == "scripted":
        scripts = spec.get("scripts", {})
        if isinstance(scripts, str):
            with open(scripts, encoding="utf-8") as fh:
                scripts = json.load(fh)
        return ScriptedBackend(exact=spec.get("exact", {}), scripts=scripts)
    if kind == "remote":
        return RemoteBackend(
            endpoint=spec.get("endpoint")
            or os.environ.get("NL2SQL_ENDPOINT", DEFAULT_ENDPOINT),
            api_key_env=spec.get("api_key_env", "NL2SQL_API_KEY"),
            timeout=spec.get("timeout", 120.0),
        )
    raise CliError(f"unknown backend type {kind!r}", EXIT_USAGE)


def build_gateway(config: dict, model_flag=None, cache_dir_flag=None,
                  max_in_flight=1) -> Gateway:
    backends = {
        name: _build_backend(spec, name)
        for name, spec in _section(config, "backends").items()
    }
    if not backends:
        backends["default"] = _build_backend({"type": "remote"})

    route_cfg = _section(config, "route")
    if route_cfg:
        routes = {}
        for role, entry in route_cfg.items():
            if role not in AGENT_ROLES:
                raise CliError(f"config setting route.{role} is not an agent role;"
                               f" the roles are {', '.join(AGENT_ROLES)}")
            if not (isinstance(entry, dict) and isinstance(entry.get("backend"), str)
                    and isinstance(entry.get("model"), str)):
                raise CliError(f"config setting route.{role} must give a backend"
                               f" and a model, not {entry!r}")
            if entry["backend"] not in backends:
                raise CliError(f"config setting route.{role} names backend"
                               f" {entry['backend']!r}, which backends does not define")
            routes[role] = (entry["backend"], entry["model"])
        missing = [role for role in AGENT_ROLES if role not in routes]
        if missing:
            raise CliError(f"config setting route maps no backend for: {', '.join(missing)}")
        route = ModelRoute(routes)
    else:
        backend_id = next(iter(backends))
        route = ModelRoute.uniform(backend_id, model_flag or config.get("model", DEFAULT_MODEL))

    cache_dir = cache_dir_flag or config.get("cache_dir")
    if cache_dir:
        backends = {
            name: ReplayBackend(backend, cache_dir)
            for name, backend in backends.items()
        }

    pipeline_cfg = _section(config, "pipeline")
    return Gateway(
        backends=backends,
        route=route,
        temperature=_setting(pipeline_cfg, "temperature", _number(0), 0.0),
        max_output_tokens=_setting(pipeline_cfg, "max_output_tokens",
                                   _number(1, integral=True), 4096),
        max_in_flight=max_in_flight,
    )


def build_pipeline_config(config: dict, args) -> PipelineConfig:
    pipeline_cfg = _section(config, "pipeline")
    overrides = {}
    templates_dir = getattr(args, "templates_dir", None) or config.get("templates_dir")
    if templates_dir:
        overrides["templates"] = agents.load_templates(templates_dir)
    if getattr(args, "max_corrections", None) is not None:
        max_corrections = _checked("--max-corrections", args.max_corrections,
                                   _number(0, integral=True))
    else:
        max_corrections = _setting(pipeline_cfg, "max_correction_attempts",
                                   _number(0, integral=True), 3)
    return PipelineConfig(
        max_correction_attempts=max_corrections,
        skip_query_plan=getattr(args, "no_query_plan", False)
        or _setting(pipeline_cfg, "skip_query_plan", _flag, False),
        skip_correction=getattr(args, "no_correction", False)
        or _setting(pipeline_cfg, "skip_correction", _flag, False),
        correction_trigger=_setting(pipeline_cfg, "correction_trigger",
                                    _one_of(TRIGGER_MODES), "gold_mismatch"),
        timeout=_setting(pipeline_cfg, "timeout", _number(0), 30.0),
        **overrides,
    )


def _resolve_schema_and_db(args, config):
    db_root = args.db_root or config.get("db_root")
    tables = getattr(args, "tables", None) or config.get("tables")
    if args.db_file:
        db_file = args.db_file
    elif db_root and args.db:
        db_file = os.path.join(db_root, args.db, args.db + ".sqlite")
    else:
        raise CliError("provide --db-file, or --db with --db-root", EXIT_USAGE)
    if not os.path.exists(db_file):
        raise CliError(f"database file not found: {db_file}", EXIT_DATA)
    if tables:
        schemas = {s.db_id: s for s in load_tables_json(tables)}
        db_id = args.db or os.path.splitext(os.path.basename(db_file))[0]
        if db_id not in schemas:
            raise CliError(f"db_id {db_id!r} not found in {tables}", EXIT_DATA)
        return schemas[db_id], db_file
    return introspect_database(db_file), db_file


def cmd_ask(args) -> int:
    config = load_config(args.config)
    schema, db_file = _resolve_schema_and_db(args, config)
    gateway = build_gateway(config, model_flag=args.model, cache_dir_flag=args.cache_dir)
    pipeline_config = build_pipeline_config(config, args)
    if not args.gold and pipeline_config.correction_trigger == "gold_mismatch":
        pipeline_config.correction_trigger = "execution_error_only"

    with contextlib.closing(connect_readonly(db_file)) as connection:
        result = run_pipeline(
            args.question, schema, connection, pipeline_config, gateway,
            gold_query=args.gold,
        )
    if args.trace_file:
        with AppendLog(args.trace_file) as log:
            append_trace([result.trace], log)
    if result.trace.status == "stage_error":
        print("stage error: " + "; ".join(result.trace.warnings), file=sys.stderr)
        return EXIT_STAGE_ERRORS
    if result.final_sql is None:
        print("no executable SQL: " + result.trace.attempts[-1].message, file=sys.stderr)
        return EXIT_STAGE_ERRORS
    print(result.final_sql.text)
    print(f"attempts: {len(result.trace.attempts)}", file=sys.stderr)
    if args.gold is not None:
        print(f"execution accuracy: {result.ea}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    config = load_config(args.config)
    questions = args.questions or config.get("questions")
    tables = args.tables or config.get("tables")
    db_root = args.db_root or config.get("db_root")
    if not (questions and tables and db_root):
        raise CliError("eval requires --questions, --tables, and --db-root", EXIT_USAGE)
    try:
        samples, schemas, db_paths = evalkit.load_dataset(
            questions, tables, db_root, offset=args.offset, limit=args.limit
        )
    except (OSError, SchemaError, evalkit.DatasetError) as exc:
        raise CliError(str(exc), EXIT_DATA) from exc

    gateway = build_gateway(config, model_flag=args.model, cache_dir_flag=args.cache_dir,
                            max_in_flight=max(1, args.parallelism))
    pipeline_config = build_pipeline_config(config, args)
    prices = {model: _checked(f"config setting prices.{model}", price, _number(0))
              for model, price in _section(config, "prices").items()}

    report = evalkit.evaluate(
        samples, schemas, db_paths, pipeline_config, gateway,
        parallelism=args.parallelism,
        checkpoint_path=args.checkpoint,
        trace_path=args.trace_file,
        prices=prices,
    )
    paths = evalkit.write_report(report, args.out)
    with open(paths["summary"], encoding="utf-8") as fh:
        print(fh.read(), end="")
    if report.aggregates["stage_error_count"]:
        return EXIT_STAGE_ERRORS
    return EXIT_OK


def cmd_trace(args) -> int:
    if not os.path.exists(args.trace_file):
        raise CliError(f"trace file not found: {args.trace_file}", EXIT_DATA)
    traces = load_traces(args.trace_file)
    selected = [t for t in traces if t["sample_id"] == args.sample] if args.sample else traces
    if args.sample and not selected:
        raise CliError(f"sample {args.sample!r} not in trace file", EXIT_DATA)
    for trace in selected:
        print(f"=== sample {trace['sample_id']} [{trace['status']}] ===")
        for stage in trace["stages"]:
            tokens = stage["prompt_tokens"] + stage["completion_tokens"]
            print(f"--- {stage['role']} ({stage['model_id']}, {tokens} tok) ---")
            if args.verbose:
                print("prompt:")
                print(stage["prompt"])
            print("response:")
            print(stage["response"])
            for warning in stage["warnings"]:
                print(f"  ! {warning}")
        for i, attempt in enumerate(trace["attempts"], 1):
            flags = " repeat" if attempt["repeat_of_earlier"] else ""
            print(f"attempt {i}: [{attempt['status']}{flags}] ea={attempt['ea']}")
            print(f"  {attempt['sql']}")
            if attempt["message"]:
                print(f"  {attempt['message']}")
        for warning in trace["warnings"]:
            print(f"! {warning}")
    return EXIT_OK


def cmd_taxonomy(args) -> int:
    taxonomy = default_taxonomy()
    if args.action == "summary":
        print(render_summary(taxonomy), end="")
        return EXIT_OK
    names = dict(taxonomy.categories)
    for code in taxonomy.codes:
        print("\t".join([code.code, names[code.category], code.title, code.hint]))
    return EXIT_OK


def cmd_cache(args) -> int:
    cache_dir = args.cache_dir
    if not os.path.isdir(cache_dir):
        if args.action == "stats":
            print("cache entries: 0")
            return EXIT_OK
        raise CliError(f"cache directory not found: {cache_dir}", EXIT_DATA)
    path = replay_log_path(cache_dir)
    entries = len(read_replay_log(cache_dir))
    if args.action == "stats":
        size = os.path.getsize(path) if os.path.exists(path) else 0
        print(f"cache entries: {entries}")
        print(f"cache size: {size} bytes")
    elif args.action == "clear":
        if os.path.exists(path):
            os.remove(path)
        print(f"removed {entries} entries")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nl2sql",
        description="Multi-agent text-to-SQL with taxonomy-guided correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--model", help="model id when no route is configured")
        p.add_argument("--cache-dir", help="replay cache directory")
        p.add_argument("--templates-dir", help="prompt template overrides")
        p.add_argument("--no-correction", action="store_true",
                       help="disable the correction loop")
        p.add_argument("--no-query-plan", action="store_true",
                       help="generate SQL directly from subproblems")
        p.add_argument("--max-corrections", type=int, default=None)
        p.add_argument("--trace-file", help="append per-sample traces here")

    ask = sub.add_parser("ask", help="answer one question")
    add_common(ask)
    ask.add_argument("--question", required=True)
    ask.add_argument("--db", help="db_id under --db-root")
    ask.add_argument("--db-file", help="explicit SQLite file path")
    ask.add_argument("--db-root", help="benchmark database directory")
    ask.add_argument("--tables", help="benchmark tables file")
    ask.add_argument("--gold", help="gold SQL for an EA verdict")
    ask.set_defaults(func=cmd_ask)

    ev = sub.add_parser("eval", help="run a benchmark batch")
    add_common(ev)
    ev.add_argument("--questions", help="benchmark questions file")
    ev.add_argument("--tables", help="benchmark tables file")
    ev.add_argument("--db-root", help="benchmark database directory")
    ev.add_argument("--limit", type=int, default=None)
    ev.add_argument("--offset", type=int, default=0)
    ev.add_argument("--parallelism", type=int, default=4)
    ev.add_argument("--checkpoint", help="resumable per-sample row file")
    ev.add_argument("--out", default="eval_out", help="report directory")
    ev.set_defaults(func=cmd_eval)

    tr = sub.add_parser("trace", help="pretty-print recorded traces")
    tr.add_argument("--trace-file", required=True)
    tr.add_argument("--sample", help="only this sample id")
    tr.add_argument("--verbose", action="store_true", help="include prompts")
    tr.set_defaults(func=cmd_trace)

    tax = sub.add_parser("taxonomy", help="print the error-code catalog")
    tax.add_argument("action", nargs="?", default="list",
                     choices=["list", "summary"])
    tax.set_defaults(func=cmd_taxonomy)

    cache = sub.add_parser("cache", help="replay cache management")
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument("--cache-dir", required=True)
    cache.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, SchemaError, evalkit.DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
