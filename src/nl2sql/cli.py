"""Command-line entry points: one-shot asking, batch evaluation, trace
inspection, taxonomy listing, and cache management.

Configuration precedence: flag > config file > built-in default. Secrets
(API keys) come only from environment variables.

Exit codes: 0 success, 1 usage error, 2 data/load error or credentials
missing or rejected, 3 run completed with stage errors present.
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
    AuthError,
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
    gold_sql,
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


def _number(minimum, integral=False, above=False):
    """A check for a finite int (``integral``) or float of at least
    ``minimum``, or above it when ``above``; a boolean is refused."""
    def check(value):
        if (isinstance(value, bool) or not isinstance(value, int if integral else (int, float))
                or not math.isfinite(value) or value < minimum or (above and value == minimum)):
            raise ValueError(f"must be {'an integer' if integral else 'a number'}"
                             f" {'above' if above else 'of at least'} {minimum}")
        return value if integral else float(value)
    return check


def _kind(test, description):
    """A check that passes a value for which ``test`` holds."""
    def check(value):
        if not test(value):
            raise ValueError(f"must be {description}")
        return value
    return check


def _one_of(choices):
    return _kind(lambda value: value in choices, f"one of {', '.join(choices)}")


_boolean = _kind(lambda value: isinstance(value, bool), "true or false")
_text = _kind(lambda value: isinstance(value, str) and value != "", "non-empty text")
_replies = _kind(lambda value: isinstance(value, list)
                 and all(isinstance(reply, str) for reply in value), "a list of text replies")
_SCRIPTS = {role: _replies for role in AGENT_ROLES}
_GATEWAY_SETTINGS = {"temperature": _number(0), "max_output_tokens": _number(1, integral=True)}
_BACKEND_KINDS = {
    "remote": {"endpoint": _text, "api_key_env": _text, "timeout": _number(0, above=True)},
    "scripted": {"scripts": _SCRIPTS},
}

# Every config setting. A key's row is its check (a ValueError says what the
# value must be) or the rows of the section under it; "*" stands for any
# key, and a null section is unset. The builders pass on only the keys that
# are set, so each default lives in the parameter it fills.
SETTINGS = {
    "model": _text, "cache_dir": _text, "templates_dir": _text,
    "db_root": _text, "tables": _text, "questions": _text,
    "backends": {"*": {"type": _one_of(tuple(_BACKEND_KINDS)),
                       **_BACKEND_KINDS["remote"], **_BACKEND_KINDS["scripted"]}},
    "route": {role: {"backend": _text, "model": _text} for role in AGENT_ROLES},
    "pipeline": {**_GATEWAY_SETTINGS, "max_correction_attempts": _number(0, integral=True),
                 "skip_query_plan": _boolean,
                 "correction_trigger": _one_of(TRIGGER_MODES), "timeout": _number(0)},
    "prices": {"*": _number(0)},
}

# The flags that override a setting, with its path in SETTINGS.
FLAG_SETTINGS = {
    "--model": "model", "--cache-dir": "cache_dir", "--templates-dir": "templates_dir",
    "--db-root": "db_root", "--tables": "tables", "--questions": "questions",
    "--max-corrections": "pipeline.max_correction_attempts",  # --no-correction sets it to 0
    "--no-query-plan": "pipeline.skip_query_plan",
}


def _checked(label, value, check):
    """``value`` passed through ``check``; a value it refuses is a usage
    error that names the setting by ``label``."""
    try:
        return check(value)
    except ValueError as exc:
        raise CliError(f"{label} {exc}, not {value!r}") from exc


def _walk(rows, value, path):
    """``value`` as the section at ``path`` ("" for the top level), each key
    checked by its row in ``rows``."""
    if rows is _SCRIPTS and isinstance(value, str):  # scripts may name a JSON file
        try:
            with open(value, encoding="utf-8") as fh:
                value = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise CliError(f"config setting {path} names no readable JSON file: {exc}",
                           EXIT_DATA) from exc
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise CliError(f"config setting {path} must be a mapping, not {value!r}")
    checked = {}
    for key, item in value.items():
        where = f"{path}.{key}" if path else str(key)
        row = rows.get(key, rows.get("*"))
        if row is None:
            raise CliError(f"config setting {where} is unknown; known here: {', '.join(rows)}")
        checked[key] = (_walk(row, item, where) if isinstance(row, dict)
                        else _checked(f"config setting {where}", item, row))
    return checked


def load_config(args) -> dict:
    """The settings of the YAML file ``args.config``, if any, checked against
    SETTINGS, and each flag of FLAG_SETTINGS given laid over them, checked too."""
    settings = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = yaml.safe_load(fh)
        except (OSError, yaml.YAMLError, ValueError, RecursionError) as exc:
            raise CliError(f"config file {args.config} cannot be read:"
                           f" {' '.join(str(exc).split())}", EXIT_DATA) from exc
        if not isinstance(data, (dict, type(None))):
            raise CliError(f"config file {args.config} must hold a mapping", EXIT_DATA)
        settings = _walk(SETTINGS, data, "")
    for flag, path in FLAG_SETTINGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            section, _, key = path.rpartition(".")
            target = settings.setdefault(section, {}) if section else settings
            target[key] = _checked(flag, value, (SETTINGS[section] if section else SETTINGS)[key])
    return settings


def build_gateway(settings: dict, max_in_flight=1) -> Gateway:
    backends = {}
    for name, spec in (settings.get("backends") or {"default": {}}).items():
        options = dict(spec)
        kind = options.pop("type", "remote")
        for key in options:
            if key not in _BACKEND_KINDS[kind]:
                raise CliError(f"config setting backends.{name}.{key} does not apply to a"
                               f" {kind} backend")
        if kind == "remote":
            options.setdefault("endpoint", os.environ.get("NL2SQL_ENDPOINT", DEFAULT_ENDPOINT))
        backends[name] = (RemoteBackend if kind == "remote" else ScriptedBackend)(**options)
        if "cache_dir" in settings:
            backends[name] = ReplayBackend(backends[name], settings["cache_dir"])

    routes = settings.get("route")
    if routes:
        for role, entry in routes.items():
            if entry.get("backend") not in backends or "model" not in entry:
                raise CliError(f"config setting route.{role} must give a model and a backend"
                               f" of {', '.join(backends)}, not {entry!r}")
        missing = [role for role in AGENT_ROLES if role not in routes]
        if missing:
            raise CliError(f"config setting route maps no backend for: {', '.join(missing)}")
        route = ModelRoute({role: (entry["backend"], entry["model"])
                            for role, entry in routes.items()})
    else:
        route = ModelRoute.uniform(next(iter(backends)), settings.get("model", DEFAULT_MODEL))

    pipeline = settings.get("pipeline", {})
    return Gateway(backends=backends, route=route, max_in_flight=max_in_flight,
                   **{key: pipeline[key] for key in _GATEWAY_SETTINGS if key in pipeline})


def build_pipeline_config(settings: dict) -> PipelineConfig:
    options = {key: value for key, value in settings.get("pipeline", {}).items()
               if key not in _GATEWAY_SETTINGS}
    if "templates_dir" in settings:
        try:
            options["templates"] = agents.load_templates(settings["templates_dir"])
        except ValueError as exc:
            raise CliError(str(exc), EXIT_DATA) from exc
    return PipelineConfig(**options)


def _resolve_schema_and_db(args, settings):
    db_root, tables = settings.get("db_root"), settings.get("tables")
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
    if args.gold is not None and not gold_sql(args.gold).text:
        raise CliError(f"--gold is blank, not {args.gold!r}")
    settings = load_config(args)
    schema, db_file = _resolve_schema_and_db(args, settings)
    gateway = build_gateway(settings)
    pipeline_config = build_pipeline_config(settings)

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
    if args.gold is not None:  # no verdict: the gold's warning, the trace's first
        print(result.trace.warnings[0] if result.ea is None
              else f"execution accuracy: {result.ea}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    settings = load_config(args)
    for flag, minimum in (("--limit", 0), ("--offset", 0), ("--parallelism", 1)):
        value = getattr(args, flag[2:])
        if value is not None:
            _checked(flag, value, _number(minimum, integral=True))
    if not all(key in settings for key in ("questions", "tables", "db_root")):
        raise CliError("eval requires --questions, --tables, and --db-root", EXIT_USAGE)
    samples, schemas, db_paths = evalkit.load_dataset(
        settings["questions"], settings["tables"], settings["db_root"],
        offset=args.offset, limit=args.limit
    )
    if not samples:
        limit = "" if args.limit is None else f" --limit {args.limit}"
        raise CliError(f"--offset {args.offset}{limit} selects no question of"
                       f" {settings['questions']}")

    gateway = build_gateway(settings, max_in_flight=args.parallelism)
    pipeline_config = build_pipeline_config(settings)

    report = evalkit.evaluate(
        samples, schemas, db_paths, pipeline_config, gateway,
        parallelism=args.parallelism,
        checkpoint_path=args.checkpoint,
        trace_path=args.trace_file,
        prices=settings.get("prices", {}),
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
        corrections = p.add_mutually_exclusive_group()
        corrections.add_argument("--no-correction", dest="max_corrections", action="store_const",
                                 const=0, help="no correction round (--max-corrections 0)")
        corrections.add_argument("--max-corrections", type=int, default=None)
        p.add_argument("--no-query-plan", action="store_true", default=None,
                       help="generate SQL directly from subproblems")
        p.add_argument("--trace-file", help="append per-sample traces here")
        p.add_argument("--db-root", help="benchmark database directory")
        p.add_argument("--tables", help="benchmark tables file")

    ask = sub.add_parser("ask", help="answer one question")
    add_common(ask)
    ask.add_argument("--question", required=True)
    ask.add_argument("--db", help="db_id under --db-root")
    ask.add_argument("--db-file", help="explicit SQLite file path")
    ask.add_argument("--gold", help="gold SQL for an EA verdict")
    ask.set_defaults(func=cmd_ask)

    ev = sub.add_parser("eval", help="run a benchmark batch")
    add_common(ev)
    ev.add_argument("--questions", help="benchmark questions file")
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
    except (OSError, SchemaError, evalkit.DatasetError, AuthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
