#!/usr/bin/env python3
"""Offline evaluation benchmark for nl2sql.

    python3 evalbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the system the way ``nl2sql eval`` does: ``load_dataset`` on a
Spider-layout directory, ``evaluate`` with a checkpoint and a trace file,
then ``write_report``. Inputs come from ``gen.py`` in a child process, so
input generation stays out of this process's memory and set-up time; the
program sees only the generated files. A simulated model (``simmodel.py``)
answers behind ``RemoteBackend`` inside a ``ReplayBackend``, the wiring
``cli.build_gateway`` uses.

Workloads (closed loop: ``evaluate``'s own pool with parallelism and
``max_in_flight`` both 2, the core count of the reference machine):

    replay_warm   re-score of a 40-question batch over a replay cache filled
                  in set-up; no model latency, so every cost is local CPU
    cold_latency  the same batch plus one exact duplicate of its first
                  question, placed next to it (1 of 41 questions), run
                  through an empty replay cache against the model's delay
    exec_heavy    warm replay over databases larger than SQLite's page
                  cache, with ~10^4-row results and cross joins that time out

Set-up (``load_dataset``, building the gateway, one warm-up pass over the
batch with the model's delay off) runs seven times; ``setup_s`` is the
median. The timed phase then repeats whole passes over the batch until
``--seconds`` have passed. A pass is one ``nl2sql eval`` run: its own
gateway over the set-up's cache (cold_latency: over a new empty cache), its
own checkpoint, trace file and report directory. The only clocks are the
pass boundary and the sample boundary: the ``run_pipeline`` name that
``evalkit`` calls. ``samples_per_s`` is the median over the passes of a
pass's samples per second; ``sample_ms_p50`` and ``sample_ms_p99`` are
percentiles over the batch's samples of each sample's median time across
the passes. Medians over passes keep a stall of the shared host in one
pass from moving the figures.

``--trace 1`` spends half the time untraced and half with every layer
wrapped (``tracing.py``), and reports the per-layer metrics instead.

Correctness checks, any of which makes the exit code 1: every row's EA
verdict equals the generator's; no sample crashes; a warm workload makes no
model call; every pass writes a report.json byte-identical to the warm-up
pass's; checkpoint and trace files hold one line per sample; no database
file changes (SHA-256 before and after).

The last line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` (samples that crashed or got an unexpected
verdict) and ``metrics``. ``failed_share`` also counts the scripted stage
errors, 2 of every 40 questions. ``model_calls_per_sample`` is printed in
the table but travels in the JSON with the per-layer metrics, because it is
0 on the warm workloads.
"""

import argparse
import collections
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import simmodel
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PARALLELISM = 2
SETUP_REPEATS = 7
API_KEY_ENV = "EVALBENCH_SIMULATED_KEY"

WORKLOADS = {
    # name: (generator size, cold cache each pass, duplicate head, timeout s)
    "replay_warm": ("small", False, False, 30.0),
    "cold_latency": ("small", True, True, 30.0),
    "exec_heavy": ("large", False, False, 0.5),
}

END_TO_END = (
    ("samples_per_s", "1/s"),
    ("sample_ms_p50", "ms"),
    ("sample_ms_p99", "ms"),
    ("gateway_calls_per_sample", "calls/sample"),
    ("model_calls_per_sample", "calls/sample"),
    ("prompt_tokens_per_sample", "tokens/sample"),
    ("completion_tokens_per_sample", "tokens/sample"),
    ("ea_pct", "%"),
    ("failed_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# model_calls_per_sample is 0 on the warm workloads by design, so the JSON
# result carries it among the per-layer metrics; it is printed here too.
RESULT_END_TO_END = tuple(n for n, _ in END_TO_END if n != "model_calls_per_sample")


class SampleClock:
    """Times each call of the ``run_pipeline`` name that ``evalkit`` calls
    and keeps its stage and token counts."""

    def __init__(self, fn):
        self.fn = fn
        self.active = False
        self.records = []  # (sample id, seconds, stages, prompt tokens, completion tokens)
        self.crashes = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = self.fn(*args, **kwargs)
        except BaseException:
            if self.active:
                with self._lock:
                    self.crashes += 1
            raise
        elapsed = time.perf_counter() - start
        if self.active:
            stages = result.trace.stages
            record = (kwargs.get("sample_id", ""), elapsed, len(stages),
                      sum(s.prompt_tokens for s in stages),
                      sum(s.completion_tokens for s in stages))
            with self._lock:
                self.records.append(record)
        return result


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _line_count(path):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class Bench:
    def __init__(self, workload, data, workspace):
        from nl2sql import evalkit
        from nl2sql.agents import load_default_templates
        from nl2sql.pipeline import PipelineConfig

        _, self.cold, _, timeout = WORKLOADS[workload]
        self.evalkit = evalkit
        self.data = data
        self.workspace = workspace
        with open(os.path.join(data, "bench", "script.json"), encoding="utf-8") as fh:
            script = json.load(fh)
        with open(os.path.join(data, "bench", "expected.json"), encoding="utf-8") as fh:
            self.expected = {row["index"]: row for row in json.load(fh)}
        roles = {t.system_text: role for role, t in load_default_templates().items()}
        self.sim = simmodel.SimulatedModel(script, roles)
        self.config = PipelineConfig(timeout=timeout)
        self.clock = SampleClock(evalkit.run_pipeline)
        evalkit.run_pipeline = self.clock
        self._dirs = 0
        self.problems = []
        self.reference_report = None

    def close(self):
        self.evalkit.run_pipeline = self.clock.fn

    def fresh_dir(self, label):
        self._dirs += 1
        path = os.path.join(self.workspace, f"{label}{self._dirs}")
        os.makedirs(path)
        return path

    def build_gateway(self, cache_dir):
        from nl2sql.gateway import Gateway, ModelRoute, RemoteBackend, ReplayBackend

        remote = RemoteBackend("http://simulated.invalid", api_key_env=API_KEY_ENV,
                               session=self.sim)
        return Gateway(backends={"sim": ReplayBackend(remote, cache_dir)},
                       route=ModelRoute.uniform("sim", "simulated-model"),
                       max_in_flight=PARALLELISM)

    def load(self):
        return self.evalkit.load_dataset(
            os.path.join(self.data, "dev.json"), os.path.join(self.data, "tables.json"),
            os.path.join(self.data, "database"))

    def set_up(self):
        """Load the dataset, build the gateway and run the warm-up pass,
        which fills a replay cache."""
        self.samples, self.schemas, self.db_paths = self.load()
        self.cache_dir = os.path.join(self.fresh_dir("setup"), "cache")
        self.sim.latency = False
        warm_up = self.run_pass(self.build_gateway(self.cache_dir), timed=False)
        if self.reference_report is None:
            self.reference_report = warm_up["report"]

    def run_pass(self, gateway, timed=True):
        """One evaluate + write_report over the batch, as one ``nl2sql eval``
        run with its own gateway; checks its outputs."""
        pass_dir = self.fresh_dir("pass")
        checkpoint = os.path.join(pass_dir, "rows.jsonl")
        traces = os.path.join(pass_dir, "traces.jsonl")
        out = os.path.join(pass_dir, "out")
        self.sim.reset_counts()
        start = time.perf_counter()
        report = self.evalkit.evaluate(
            self.samples, self.schemas, self.db_paths, self.config, gateway,
            parallelism=PARALLELISM, checkpoint_path=checkpoint, trace_path=traces)
        self.evalkit.write_report(report, out)
        wall = time.perf_counter() - start
        with open(os.path.join(out, "report.json"), "rb") as fh:
            report_bytes = fh.read()
        record = {
            "wall": wall, "samples": len(report.rows), "report": report_bytes,
            "unexpected": sum(row.ea != self.expected[row.index]["ea"] for row in report.rows),
            "stage_errors": sum(row.stage_error for row in report.rows),
            "trace_bytes": os.path.getsize(traces),
            "model_calls": self.sim.calls, "duplicates": self.sim.duplicates,
        }
        n = len(self.samples)
        if len(report.rows) != n:
            self.problems.append(f"report has {len(report.rows)} rows for {n} samples")
        for path in (checkpoint, traces):
            lines = _line_count(path)
            if lines != n:
                self.problems.append(f"{os.path.basename(path)} has {lines} lines for {n} samples")
        if self.reference_report is not None and report_bytes != self.reference_report:
            self.problems.append("report.json differs from the warm-up pass")
        if timed and not self.cold and self.sim.calls:
            self.problems.append(f"warm pass made {self.sim.calls} model calls")
        shutil.rmtree(pass_dir)
        if timed:
            del record["report"]  # equal to the reference; keep memory flat
        return record

    def timed_passes(self, seconds):
        """Whole passes until ``seconds`` have passed; at least one."""
        passes = []
        self.sim.latency = self.cold
        self.clock.active = True
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            if self.cold:
                cache_dir = os.path.join(self.fresh_dir("cache"), "cache")
                passes.append(self.run_pass(self.build_gateway(cache_dir)))
                shutil.rmtree(os.path.dirname(cache_dir))
            else:
                passes.append(self.run_pass(self.build_gateway(self.cache_dir)))
        self.clock.active = False
        self.sim.latency = False
        return passes


def sample_times_ms(records):
    """Each sample's median time over the passes, in ms.

    A sample's time in one pass includes whatever the host's scheduler took
    from it then; the median over passes keeps the sample's own cost, so the
    percentiles over samples describe the workload, not one unlucky stall.
    """
    by_sample = collections.defaultdict(list)
    for record in records:
        by_sample[record[0]].append(record[1] * 1000.0)
    return [statistics.median(times) for times in by_sample.values()]


def pass_rate(passes):
    """Samples per second of eval wall time: the median over the passes, so
    a pass the host slowed down does not move it."""
    return statistics.median(p["samples"] / p["wall"] for p in passes)


def end_to_end(bench, passes, records, setup_times):
    samples = sum(p["samples"] for p in passes)
    times_ms = sample_times_ms(records)
    failed = bench.clock.crashes + sum(p["stage_errors"] + p["unexpected"] for p in passes)
    aggregates = json.loads(bench.reference_report)["aggregates"]
    return {
        "samples_per_s": pass_rate(passes),
        "sample_ms_p50": tracing.percentile(times_ms, 50),
        "sample_ms_p99": tracing.percentile(times_ms, 99),
        "gateway_calls_per_sample": sum(r[2] for r in records) / samples,
        "model_calls_per_sample": sum(p["model_calls"] for p in passes) / samples,
        "prompt_tokens_per_sample": sum(r[3] for r in records) / samples,
        "completion_tokens_per_sample": sum(r[4] for r in records) / samples,
        "ea_pct": aggregates["execution_accuracy"],
        "failed_share": failed / samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "nl2sql", "__init__.py")):
        print(f"error: the nl2sql sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import nl2sql

    if os.path.dirname(os.path.abspath(nl2sql.__file__)) != os.path.join(SRC, "nl2sql"):
        print(f"error: imported nl2sql from {nl2sql.__file__}, not {SRC}", file=sys.stderr)
        return 2

    size, _, duplicate_head, _ = WORKLOADS[workload]
    workspace = os.path.join(ROOT, ".evalbench_run", f"{workload}-{seed}-{trace}")
    shutil.rmtree(workspace, ignore_errors=True)
    tmp = os.path.join(workspace, "tmp")
    os.makedirs(tmp)
    for name in ("TMPDIR", "SQLITE_TMPDIR"):  # SQLite's temporary files
        os.environ[name] = tmp
    os.environ[API_KEY_ENV] = "simulated"

    data = os.path.join(workspace, "data")
    command = [sys.executable, os.path.join(HERE, "gen.py"), "--size", size,
               "--seed", str(seed), "--out", data]
    if duplicate_head:
        command.append("--duplicate-head")
    subprocess.run(command, check=True, timeout=170)

    db_files = sorted(
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(os.path.join(data, "database"))
        for name in names)
    hashes = {path: _sha256(path) for path in db_files}

    bench = Bench(workload, data, workspace)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            bench.set_up()
            setup_times.append(time.perf_counter() - start)
        gold_sqls = {s.gold_query.strip().rstrip(";") for s in bench.samples}

        if trace:
            untraced = bench.timed_passes(seconds / 2)
            untraced_rate = pass_rate(untraced)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                for _ in range(SETUP_REPEATS):
                    bench.load()
                passes = bench.timed_passes(seconds / 2)
            finally:
                tracer.restore()
            traced_samples = sum(p["samples"] for p in passes)
            traced_rate = pass_rate(passes)
            values = tracing.layer_metrics(tracer.spans, traced_samples, passes,
                                           gold_sqls, untraced_rate, traced_rate)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            tracer.write(os.path.join(workspace, "spans.jsonl"))
            passes = untraced + passes
        else:
            passes = bench.timed_passes(seconds)
            values = end_to_end(bench, passes, bench.clock.records, setup_times)
            units = dict(END_TO_END)
    finally:
        bench.close()

    problems = list(bench.problems)
    unexpected = sum(p["unexpected"] for p in passes)
    if unexpected:
        problems.append(f"{unexpected} samples got an EA verdict other than expected")
    if bench.clock.crashes:
        problems.append(f"{bench.clock.crashes} samples crashed")
    for path, digest in hashes.items():
        if _sha256(path) != digest:
            problems.append(f"database file changed: {os.path.relpath(path, data)}")

    attempted = sum(p["samples"] for p in passes)
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  "
          f"samples {attempted}  parallelism {PARALLELISM}")
    if not trace:
        print("tokens are estimated from characters (4 per token) by the simulated model")
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:14.4f} {unit}")
    for problem, count in collections.Counter(problems).items():
        print(f"CHECK FAILED: {problem}" + (f" ({count} times)" if count > 1 else ""))
    for name in os.listdir(workspace):
        if name != "spans.jsonl":
            shutil.rmtree(os.path.join(workspace, name))
    if not os.listdir(workspace):
        os.rmdir(workspace)

    keep = RESULT_END_TO_END if not trace else tuple(units)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": unexpected + bench.clock.crashes,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in keep},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="Offline nl2sql evaluation benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
