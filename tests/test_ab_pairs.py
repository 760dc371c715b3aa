import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

# parent quartiles (exclusive method): 98.75 / 100.5 / 103.25, IQR 4.5
PARENT = [100, 104, 98, 101, 103, 99, 102, 97, 105, 100]


def test_quartiles_exclusive_method():
    assert ab_pairs.quartiles(PARENT) == (98.75, 100.5, 103.25)


def test_claim_holds_on_nine_wins_and_a_gap_above_the_parent_iqr():
    change = [p + 8 for p in PARENT]
    change[3] = 100  # one lost pair
    result = ab_pairs.compare(PARENT, change, "higher")
    assert result["wins"] == 9
    assert result["change"][1] - result["parent"][1] > 4.5
    assert result["claim_holds"]


def test_claim_fails_on_eight_wins():
    change = [p + 8 for p in PARENT]
    change[3] = change[7] = 90
    result = ab_pairs.compare(PARENT, change, "higher")
    assert result["wins"] == 8 and not result["claim_holds"]


def test_claim_fails_when_the_gap_is_within_the_parent_iqr():
    change = [p + 3 for p in PARENT]  # wins every pair, but by less than 4.5
    result = ab_pairs.compare(PARENT, change, "higher")
    assert result["wins"] == 10 and not result["claim_holds"]


def test_ties_are_not_wins_and_lower_is_better_flips_the_sign():
    assert ab_pairs.compare(PARENT, PARENT, "higher")["wins"] == 0
    faster = [p - 8 for p in PARENT]
    assert ab_pairs.compare(PARENT, faster, "lower")["claim_holds"]
    assert not ab_pairs.compare(PARENT, faster, "higher")["claim_holds"]
    assert ab_pairs.compare(PARENT, faster, "lower")["relative"] == pytest.approx(-8 / 100.5)


def test_a_failed_change_run_loses_its_pair_and_the_claim():
    change = [p + 8 for p in PARENT]
    change[3] = None  # crashed, or exited non-zero on a failed check
    result = ab_pairs.compare(PARENT, change, "higher")
    assert (result["wins"], result["pairs"], result["failed"]) == (9, 10, (0, 1))
    assert not result["claim_holds"]  # 9 of 10 won, but more change runs failed


def test_win_share_counts_every_pair_run():
    parent, change = list(PARENT), [p + 8 for p in PARENT]
    parent[0] = None
    change[1] = None
    result = ab_pairs.compare(parent, change, "higher")
    # 8 of 8 complete pairs won, but only 8 of the 10 pairs run
    assert (result["wins"], result["pairs"], result["failed"]) == (8, 10, (1, 1))
    assert not result["claim_holds"]


def test_a_failed_parent_run_alone_does_not_block_the_claim():
    parent, change = list(PARENT), [p + 8 for p in PARENT]
    parent[3] = None
    result = ab_pairs.compare(parent, change, "higher")
    assert (result["wins"], result["failed"]) == (9, (1, 0))
    assert result["claim_holds"]


_RESULT = '{"metrics": {"samples_per_s": {"value": 5.0}}}'


@pytest.mark.parametrize("script, expected", [
    (f"print({_RESULT!r})\n", {"samples_per_s": 5.0}),
    # a failed check: the result is printed, then the run exits 1
    (f"print('CHECK FAILED: report.json differs')\nprint({_RESULT!r})\nraise SystemExit(1)\n",
     None),
    ("raise SystemExit('crashed')\n", None),
], ids=["result", "failed check", "no result"])
def test_run_once_reads_a_non_zero_exit_or_no_result_as_failed(tmp_path, script, expected):
    (tmp_path / "evalbench").mkdir()
    (tmp_path / "evalbench" / "run.py").write_text(script)
    assert ab_pairs.run_once(str(tmp_path), "replay_warm", 1, 0.1) == expected


def test_parse_seeds():
    assert ab_pairs.parse_seeds("3001-3003,3010") == [3001, 3002, 3003, 3010]


def test_benchmark_differences_are_found(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "evalbench" / "sub").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text("{}")
        (tmp_path / side / "evalbench" / "run.py").write_text("x = 1\n")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert ab_pairs.benchmark_differs(a, b) == []
    (tmp_path / "b" / "evalbench" / "sub" / "gen.py").write_text("")
    (tmp_path / "b" / "evalbench" / "run.py").write_text("x = 2\n")
    (tmp_path / "b" / "BENCHMARK.json").write_text("{ }")
    assert sorted(ab_pairs.benchmark_differs(a, b)) == [
        "BENCHMARK.json", os.path.join("evalbench", "run.py"),
        os.path.join("evalbench", "sub", "gen.py")]
