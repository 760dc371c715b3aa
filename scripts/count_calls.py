#!/usr/bin/env python3
"""Exact work counts of a warm pass: Python and C calls per sample.

    python3 scripts/count_calls.py [--seed 5] [--passes 20] [--checkout DIR]

Generates the benchmark's replay_warm batch (``evalbench/gen.py``, small
size) in a temporary directory and fills a replay cache in one pass through
the simulated model (``evalbench/simmodel.py``), wired as
``evalbench/run.py`` wires it. It then runs ``--passes`` warm passes at
parallelism 1, each one ``nl2sql eval`` run (``evaluate`` with a checkpoint
and a trace file, then ``write_report``) with its own gateway over that
cache, under a ``sys.setprofile``/``threading.setprofile`` hook that counts
the Python calls and the C calls made. It prints both per sample.

Unlike wall time, the counts do not move with the host's load, so they back
a speed claim with numbers two runs reproduce; they are not the claim,
which stays with ``scripts/ab_pairs.py``'s pairs. ``--checkout`` counts the
library of another checkout (a parent commit, say) with this script and
that checkout's ``evalbench/``. The exit code is 1 when a warm pass calls
the model. Uses only the standard library.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
API_KEY_ENV = "EVALBENCH_SIMULATED_KEY"


class CallCounter:
    """A profile hook that counts the Python and the C calls it sees."""

    def __init__(self):
        self.python = 0
        self.c = 0

    def __call__(self, frame, event, arg):
        if event == "call":
            self.python += 1
        elif event == "c_call":
            self.c += 1


def count(checkout, seed, passes):
    """(samples per pass, Python calls per sample, C calls per sample, model
    calls made by the warm passes)."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "evalbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    import gen
    import simmodel
    from nl2sql import evalkit
    from nl2sql.agents import load_default_templates
    from nl2sql.gateway import Gateway, ModelRoute, RemoteBackend, ReplayBackend
    from nl2sql.pipeline import PipelineConfig

    os.environ[API_KEY_ENV] = "simulated"
    workspace = tempfile.mkdtemp(prefix="count_calls_")
    try:
        data = os.path.join(workspace, "data")
        gen.generate("small", seed, data)
        with open(os.path.join(data, "bench", "script.json"), encoding="utf-8") as fh:
            script = json.load(fh)
        roles = {t.system_text: role for role, t in load_default_templates().items()}
        sim = simmodel.SimulatedModel(script, roles)
        samples, schemas, db_paths = evalkit.load_dataset(
            os.path.join(data, "dev.json"), os.path.join(data, "tables.json"),
            os.path.join(data, "database"))
        config = PipelineConfig()
        cache_dir = os.path.join(workspace, "cache")

        def run_pass(label, hook=None):
            gateway = Gateway(
                backends={"sim": ReplayBackend(
                    RemoteBackend("http://simulated.invalid", api_key_env=API_KEY_ENV,
                                  session=sim), cache_dir)},
                route=ModelRoute.uniform("sim", "simulated-model"), max_in_flight=1)
            out = os.path.join(workspace, label)
            if hook is not None:
                threading.setprofile(hook)
                sys.setprofile(hook)
            try:
                report = evalkit.evaluate(
                    samples, schemas, db_paths, config, gateway, parallelism=1,
                    checkpoint_path=os.path.join(out, "rows.jsonl"),
                    trace_path=os.path.join(out, "traces.jsonl"))
                evalkit.write_report(report, os.path.join(out, "report"))
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            shutil.rmtree(out)

        run_pass("fill")  # fills the replay cache
        sim.reset_counts()
        counter = CallCounter()
        for i in range(passes):
            run_pass(f"pass{i}", counter)
        total = passes * len(samples)
        return len(samples), counter.python / total, counter.c / total, sim.calls
    finally:
        shutil.rmtree(workspace, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5, help="gen.py seed (default 5)")
    parser.add_argument("--passes", type=int, default=20, help="warm passes (default 20)")
    parser.add_argument("--checkout", default=ROOT,
                        help="the checkout whose src/ and evalbench/ to count (default: this one)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    checkout = os.path.abspath(args.checkout)
    samples, python_calls, c_calls, model_calls = count(checkout, args.seed, args.passes)
    print(f"checkout {checkout}  seed {args.seed}  {samples} samples  "
          f"{args.passes} warm passes at parallelism 1")
    print(f"python_calls_per_sample {python_calls:.2f}")
    print(f"c_calls_per_sample {c_calls:.2f}")
    if model_calls:
        print(f"error: the warm passes made {model_calls} model calls", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
