import os
import subprocess
import sys

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts", "count_calls.py")


def _counts():
    proc = subprocess.run([sys.executable, _SCRIPT, "--passes", "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr  # no warm pass called the model
    counts = dict(line.split() for line in proc.stdout.splitlines()[1:])
    return float(counts["python_calls_per_sample"]), float(counts["c_calls_per_sample"])


def test_two_runs_count_within_a_thousandth_of_each_other():
    first, second = _counts(), _counts()
    for a, b in zip(first, second):
        assert a > 0 and abs(a - b) <= 0.001 * a
