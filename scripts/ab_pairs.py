#!/usr/bin/env python3
"""Interleaved parent/change pairs of the offline benchmark.

    python3 scripts/ab_pairs.py --parent REV --seeds 3001-3010 \
        [--workload replay_warm ...] [--seconds 30]

Runs ``evalbench/run.py`` once on the parent and once on the change for
each seed and workload, alternating which side runs first. The change is
this checkout's working tree; the parent is revision REV, checked out into
a temporary ``git worktree`` that is removed afterwards. Runs are refused
when ``evalbench/`` or ``BENCHMARK.json`` differ between the two sides,
since the comparison would then measure the benchmark too.

A run fails when it prints no result or exits non-zero (a failed check);
a failed run gives no metric values. For each workload and end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles over
its runs that did not fail, the pairs the change won (both sides ran and
the change was strictly better), the relative change of the medians, and
whether a gain claim holds: at least 9 of every 10 pairs run won, a median
gap in the metric's better direction larger than the parent's
interquartile range, and no more failed runs on the change than on the
parent.
Quartiles are ``statistics.quantiles`` with its default (exclusive) method.
Uses only the standard library.
"""

import argparse
import contextlib
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9  # at least 9 of every 10 pairs


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(parent, change, better) -> dict:
    """The claim rule over paired runs: ``parent[i]`` and ``change[i]`` come
    from one pair, None where that run failed; ``better`` is "higher" or
    "lower". Each side needs at least two runs that did not fail."""
    sign = 1 if better == "higher" else -1
    wins = sum(p is not None and c is not None and sign * (c - p) > 0
               for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles([p for p in parent if p is not None])
    c_q1, c_median, c_q3 = quartiles([c for c in change if c is not None])
    gap = sign * (c_median - p_median)
    failed = (parent.count(None), change.count(None))
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "failed": failed,
        "relative": (c_median - p_median) / p_median if p_median else 0.0,
        "claim_holds": (wins >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1
                        and failed[1] <= failed[0]),
    }


def parse_seeds(text) -> list:
    """"3001-3003,3010" -> [3001, 3002, 3003, 3010]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def benchmark_differs(parent_dir, change_dir) -> list:
    """Paths under evalbench/ or BENCHMARK.json that differ between the two
    checkouts (byte for byte, caches ignored)."""
    differ = []
    if not filecmp.cmp(os.path.join(parent_dir, "BENCHMARK.json"),
                       os.path.join(change_dir, "BENCHMARK.json"), shallow=False):
        differ.append("BENCHMARK.json")

    def walk(rel):
        cmp = filecmp.dircmp(os.path.join(parent_dir, rel), os.path.join(change_dir, rel),
                             ignore=["__pycache__"])
        differ.extend(os.path.join(rel, name) for name in cmp.left_only + cmp.right_only)
        _, mismatch, errors = filecmp.cmpfiles(cmp.left, cmp.right, cmp.common_files,
                                               shallow=False)
        differ.extend(os.path.join(rel, name) for name in mismatch + errors)
        for sub in cmp.common_dirs:
            walk(os.path.join(rel, sub))

    walk("evalbench")
    return differ


@contextlib.contextmanager
def worktree(revision):
    """A temporary detached ``git worktree`` of ``revision``, removed on exit."""
    path = os.path.join(tempfile.mkdtemp(prefix="ab_pairs_"), "parent")
    subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", path,
                    revision], check=True)
    try:
        yield path
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", path],
                       check=False)
        shutil.rmtree(os.path.dirname(path), ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], check=False)


def run_once(checkout, workload, seed, seconds):
    """Metric values of one benchmark run; None when it failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join("evalbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"  no result (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    if proc.returncode:
        print(f"  exit {proc.returncode}: "
              + "; ".join(line for line in proc.stdout.splitlines()
                          if line.startswith("CHECK FAILED")), file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(parent_dir, change_dir, workloads, seeds, seconds) -> dict:
    """{workload: [(parent metrics, change metrics) per seed]}."""
    sides = {"parent": parent_dir, "change": change_dir}
    results = {}
    for workload in workloads:
        pairs = results[workload] = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                got[side] = run_once(sides[side], workload, seed, seconds)
                rate = ("failed" if got[side] is None
                        else f"samples_per_s {got[side]['samples_per_s']:.1f}")
                print(f"{workload} seed {seed} {side:6s} {rate}", file=sys.stderr, flush=True)
            pairs.append((got["parent"], got["change"]))
    return results


def report(results, metrics) -> None:
    """Prints the per-metric comparison of every workload."""
    for workload, pairs in results.items():
        failed = [sum(run is None for run in side) for side in zip(*pairs)]
        print(f"\n{workload}: {len(pairs)} pairs, failed runs: parent {failed[0]},"
              f" change {failed[1]}")
        if len(pairs) - max(failed) < 2:
            continue
        print(f"  {'metric':30s} {'parent q1/median/q3':>28s} {'change q1/median/q3':>28s}"
              f" {'wins':>6s} {'change':>8s} {'bound':>6s}  claim")
        for metric in metrics:
            name = metric["name"]
            r = compare([None if p is None else p[name] for p, _ in pairs],
                        [None if c is None else c[name] for _, c in pairs], metric["better"])
            worse = -r["relative"] if metric["better"] == "higher" else r["relative"]
            print(f"  {name:30s} {'/'.join(f'{v:.4g}' for v in r['parent']):>28s}"
                  f" {'/'.join(f'{v:.4g}' for v in r['change']):>28s}"
                  f" {r['wins']:>2d}/{r['pairs']:<3d} {r['relative']:+8.2%}"
                  f" {'ok' if worse <= metric['bound'] else 'WORSE':>6s}"
                  f"  {'holds' if r['claim_holds'] else '-'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--seeds", required=True, help='e.g. "3001-3010" or "5,7,9"')
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    with worktree(args.parent) as parent_dir:
        differ = benchmark_differs(parent_dir, ROOT)
        if differ:
            print("refusing to compare: the benchmark differs between the sides: "
                  + ", ".join(differ), file=sys.stderr)
            return 2
        results = run_pairs(parent_dir, ROOT, workloads, seeds, args.seconds)

    report(results, bench["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
