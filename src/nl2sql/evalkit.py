"""Benchmark harness: Spider-format dataset loading, batched pipeline
runs with checkpointing, and execution-accuracy reporting.

Per-sample isolation: one sample's crash is contained and scored false;
long runs never die mid-batch.
"""

import collections
import csv
import io
import json
import logging
import math
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP

from . import jsonl
from .execution import _outside_literals, connect_readonly
from .pipeline import append_trace, gold_sql, run_pipeline

logger = logging.getLogger(__name__)

DEFAULT_PRICE_PER_MTOK = 15.0


class DatasetError(ValueError):
    pass


class MetricsError(ValueError):
    pass


@dataclass
class Sample:
    index: int
    question: str
    gold_query: str
    db_id: str


@dataclass
class SampleRow:
    index: int
    db_id: str
    final_sql: str
    ea: bool
    valid: bool
    attempts: int
    tokens: int
    cost: float
    stage_error: bool
    exact_match: bool  # diagnostic only; never an accuracy claim


@dataclass
class RunReport:
    rows: list  # of SampleRow, sorted by index
    aggregates: dict


def load_dataset(questions_file, tables_file, db_root, offset=0, limit=None):
    """Load samples plus a schema index and database-path index.

    Samples preserve file order; [offset, limit] selects a mini-batch.
    Every sample's db_id must resolve to both a schema and a database file.
    """
    from .schema import load_tables_json

    schemas = {s.db_id: s for s in load_tables_json(tables_file)}
    with open(questions_file, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise DatasetError(f"{questions_file}: expected a top-level array")

    samples = []
    db_paths = {}
    for i, entry in enumerate(entries):
        try:
            sample = Sample(
                index=i,
                question=entry["question"],
                gold_query=entry["query"],
                db_id=entry["db_id"],
            )
        except (KeyError, TypeError) as exc:
            raise DatasetError(f"{questions_file}: malformed entry {i}: {exc}") from exc
        for name in ("question", "query", "db_id"):
            if not isinstance(entry[name], str):
                raise DatasetError(
                    f"{questions_file}: malformed entry {i}: {name!r} is not text"
                )
        samples.append(sample)

    window = samples[offset:offset + limit if limit is not None else None]
    for sample in window:
        if sample.db_id not in schemas:
            raise DatasetError(
                f"sample {sample.index}: db_id {sample.db_id!r} not in tables file"
            )
        if sample.db_id not in db_paths:
            path = os.path.join(str(db_root), sample.db_id, sample.db_id + ".sqlite")
            if not os.path.exists(path):
                raise DatasetError(
                    f"sample {sample.index}: database file missing: {path}"
                )
            db_paths[sample.db_id] = path
    return window, schemas, db_paths


def _round2(numerator, denominator) -> float:
    if denominator == 0:
        return 0.0
    value = Decimal(numerator) * 100 / Decimal(denominator)
    return float(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def compute_metrics(rows) -> dict:
    """Aggregate per-sample rows; percentages to 2 decimal places,
    half-up rounding."""
    if not rows:
        raise MetricsError("no rows to aggregate")
    n = len(rows)
    histogram = {}
    for row in rows:
        histogram[row.attempts] = histogram.get(row.attempts, 0) + 1
    return {
        "samples": n,
        "execution_accuracy": _round2(sum(1 for r in rows if r.ea), n),
        "valid_sql_rate": _round2(sum(1 for r in rows if r.valid), n),
        "exact_match_rate": _round2(sum(1 for r in rows if r.exact_match), n),
        "stage_error_count": sum(1 for r in rows if r.stage_error),
        "mean_attempts": float(
            (Decimal(sum(r.attempts for r in rows)) / Decimal(n)).quantize(
                Decimal("0.01"), rounding=ROUND_HALF_UP
            )
        ),
        "attempts_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "total_tokens": sum(r.tokens for r in rows),
        "total_cost": float(
            Decimal(str(sum(Decimal(str(r.cost)) for r in rows))).quantize(
                Decimal("0.0001"), rounding=ROUND_HALF_UP
            )
        ),
    }


def _normalize_sql(text: str) -> str:
    """Whitespace collapsed and lowercased outside string literals, so
    'Leeds' and 'leeds' stay apart."""
    text = re.sub(r"\s+", " ", text.strip().rstrip(";"))
    parts = []
    end = 0
    for start, run in _outside_literals(text):
        # str.lower on a whole run would lower a final capital sigma
        # differently from the same letter alone
        lowered = run.lower() if run.isascii() else "".join(map(str.lower, run))
        parts += (text[end:start], lowered)
        end = start + len(run)
    parts.append(text[end:])
    return "".join(parts)


def _row_cost(trace, prices: dict) -> float:
    default = prices.get("default", DEFAULT_PRICE_PER_MTOK)
    cost = 0.0
    for stage in trace.stages:
        price = prices.get(stage.model_id, default)
        cost += (stage.prompt_tokens + stage.completion_tokens) * price / 1_000_000
    return cost


def _crash_row(sample) -> SampleRow:
    """Log the exception being handled as the crash of ``sample`` and return
    its row, scored false as a stage error."""
    logger.exception("sample %d crashed", sample.index)
    return SampleRow(
        index=sample.index, db_id=sample.db_id, final_sql="",
        ea=False, valid=False, attempts=0, tokens=0, cost=0.0,
        stage_error=True, exact_match=False,
    )


def _run_one(sample, schema, connection, config, gateway, prices, outcomes,
             gold_norm) -> tuple:
    """(SampleRow, PipelineResult) for one sample; the result is None when
    the sample crashed. ``gold_norm`` is ``_normalize_sql`` of the sample's
    gold query."""
    try:
        result = run_pipeline(
            sample.question, schema, connection, config, gateway,
            gold_query=sample.gold_query, sample_id=str(sample.index),
            outcomes=outcomes,
        )
    except Exception:  # per-sample isolation: score and continue
        return _crash_row(sample), None
    final_sql = result.final_sql.text if result.final_sql else ""
    row = SampleRow(
        index=sample.index,
        db_id=sample.db_id,
        final_sql=final_sql,
        ea=bool(result.ea),
        valid=result.outcome is not None and result.outcome.status == "success",
        attempts=len(result.trace.attempts),
        tokens=result.trace.total_tokens,
        cost=round(_row_cost(result.trace, prices), 8),
        stage_error=result.trace.status == "stage_error",
        exact_match=bool(final_sql) and _normalize_sql(final_sql) == gold_norm,
    )
    return row, result


def _checkpoint_row(data) -> SampleRow:
    """``data`` as a SampleRow; raises TypeError or ValueError when a field
    has the wrong type or the cost is not finite."""
    row = SampleRow(**jsonl.check_fields(data, SampleRow))
    if not math.isfinite(row.cost):
        raise ValueError("checkpoint cost is not finite")
    return row


def _read_checkpoint(path) -> dict:
    """Checkpointed rows by index; for an index recorded twice the last row
    wins. An unreadable line, such as the torn tail a kill mid-write leaves,
    is skipped, so its sample runs again."""
    if not path:
        return {}
    return {row.index: row
            for row in jsonl.read_records(path, _checkpoint_row, "checkpoint")}


class _SplitRuns:
    """Hands out groups to ``workers`` workers: the groups, in database
    order, are split into one contiguous run per worker. Worker i takes its
    groups from the front of run i; when that run is empty it takes them
    from the far end of the longest run left, and keeps to that run until it
    is empty too. So each worker walks through one database at a time."""

    def __init__(self, groups, workers):
        n = len(groups)
        self._runs = [collections.deque(groups[i * n // workers:(i + 1) * n // workers])
                      for i in range(workers)]
        self._from_end = [None] * workers  # the run a worker takes from the far end of
        self._lock = threading.Lock()

    def take(self, worker):
        """The next group for ``worker``; None when none is left."""
        with self._lock:
            if self._runs[worker]:
                return self._runs[worker].popleft()
            run = self._from_end[worker]
            if run is None or not run:
                run = self._from_end[worker] = max(self._runs, key=len)
            return run.pop() if run else None

    def clear(self):
        with self._lock:
            for run in self._runs:
                run.clear()


def evaluate(samples, schemas, db_paths, config, gateway, parallelism=4,
             checkpoint_path=None, trace_path=None, prices=None) -> RunReport:
    """Run the pipeline over a sample batch and report metrics.

    Samples that share a database and gold query exactly as run_pipeline
    executes it (paraphrased questions) form a group, which runs back to
    back, in batch order, on one of the ``parallelism`` workers, and keeps
    one outcome memo (see run_pipeline) from its start to its end: the gold
    query and each distinct candidate that succeeds are executed once per
    group. Groups are put in database order (the order of each database's
    first sample), then in order of their first sample, and that order is
    split into one contiguous run per worker. Worker i starts at the front
    of run i; when its run is empty, it takes groups from the far end of the
    longest run left until that one is empty too. With two workers these
    are the two ends of one list, so a slow group late in the order does
    not run alone at the end of the batch.

    A worker runs its queries on one read-only connection while its next
    group is on the same database, and closes it when it moves to another
    database or runs out of groups, so at most ``parallelism`` connections
    are open. The database files must not change during the run. When a
    database cannot be opened, each sample of the group is logged and
    scored as a crash, and the worker's next group tries again.

    Resumable: rows already in the checkpoint file are not re-run, so an
    interrupted batch picks up where it stopped. When a group ends, its
    trace lines and then its checkpoint rows are written, one write each;
    a group cut off before then runs again in full when the batch resumes.
    The checkpoint and trace files are opened, and created if missing, when
    the run starts, and closed before this returns.
    """
    prices = prices or {}
    done = _read_checkpoint(checkpoint_path)
    by_db = {}
    for sample in samples:
        if sample.index not in done:
            by_db.setdefault(sample.db_id, {}).setdefault(
                gold_sql(sample.gold_query).text, []).append(sample)
    pending = [group for groups in by_db.values() for group in groups.values()]
    workers = max(1, min(parallelism, len(pending)))
    schedule = _SplitRuns(pending, workers)

    checkpoint = jsonl.AppendLog(checkpoint_path) if checkpoint_path else None
    traces = jsonl.AppendLog(trace_path) if trace_path else None

    def log_group(ran):
        """Writes the trace lines and then the checkpoint rows of a group's
        (row, result) pairs, and returns its rows."""
        if traces is not None:
            finished = [result.trace for _, result in ran if result is not None]
            if finished:
                append_trace(finished, traces)
        rows = [row for row, _ in ran]
        if checkpoint is not None:
            checkpoint.extend(vars(row) for row in rows)
        return rows

    def work(worker):
        """Runs ``worker``'s groups until none is left; returns their rows."""
        rows = []
        db_id = connection = None
        try:
            while True:
                group = schedule.take(worker)
                if group is None:
                    return rows
                if group[0].db_id != db_id:
                    if connection is not None:
                        connection.close()
                    db_id = connection = None
                    try:
                        connection = connect_readonly(db_paths[group[0].db_id])
                    except OSError:
                        rows += log_group([(_crash_row(s), None) for s in group])
                        continue
                    db_id = group[0].db_id
                outcomes = {}
                gold_norm = _normalize_sql(group[0].gold_query)
                rows += log_group([
                    _run_one(sample, schemas[db_id], connection, config, gateway,
                             prices, outcomes, gold_norm)
                    for sample in group])
        except BaseException:
            schedule.clear()  # the other workers stop after their current group
            raise
        finally:
            if connection is not None:
                connection.close()

    rows = list(done.values())
    try:
        for log in (checkpoint, traces):
            if log is not None:
                log.open()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(work, i) for i in range(workers)]
            try:
                for future in futures:
                    rows += future.result()
            except BaseException:
                schedule.clear()
                raise
    finally:
        for log in (checkpoint, traces):
            if log is not None:
                log.close()

    wanted = {s.index for s in samples}
    rows = sorted((r for r in rows if r.index in wanted), key=lambda r: r.index)
    return RunReport(rows=rows, aggregates=compute_metrics(rows))


def write_report(report: RunReport, out_dir) -> dict:
    """Emit report.json (full fidelity), per_sample.csv, and summary.txt.

    Deterministic: identical reports produce byte-identical files.
    """
    os.makedirs(str(out_dir), exist_ok=True)
    paths = {
        "json": os.path.join(str(out_dir), "report.json"),
        "csv": os.path.join(str(out_dir), "per_sample.csv"),
        "summary": os.path.join(str(out_dir), "summary.txt"),
    }

    # A lone surrogate, which no encoding can write, goes out as its \uXXXX
    # escape: in report.json that is the JSON escape of the same character.
    with open(paths["json"], "w", encoding="utf-8", errors="backslashreplace") as fh:
        fh.write(json.dumps({"aggregates": report.aggregates,
                             "rows": [vars(r) for r in report.rows]},
                            indent=2, sort_keys=True, ensure_ascii=False) + "\n")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["index", "db_id", "ea", "valid", "attempts", "tokens", "cost",
              "stage_error", "exact_match", "final_sql"]
    writer.writerow(header)
    for r in report.rows:
        writer.writerow([
            r.index, r.db_id, int(r.ea), int(r.valid), r.attempts, r.tokens,
            f"{r.cost:.8f}", int(r.stage_error), int(r.exact_match), r.final_sql,
        ])
    with open(paths["csv"], "w", encoding="utf-8", errors="backslashreplace") as fh:
        fh.write(buf.getvalue())

    agg = report.aggregates
    summary = "\n".join([
        f"samples:             {agg['samples']}",
        f"execution accuracy:  {agg['execution_accuracy']:.2f}%",
        f"valid SQL rate:      {agg['valid_sql_rate']:.2f}%",
        f"exact match rate:    {agg['exact_match_rate']:.2f}%  (diagnostic only)",
        f"stage errors:        {agg['stage_error_count']}",
        f"mean attempts:       {agg['mean_attempts']:.2f}",
        f"total tokens:        {agg['total_tokens']}",
        f"total cost:          ${agg['total_cost']:.4f}",
        "",
    ])
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        fh.write(summary)
    return paths
