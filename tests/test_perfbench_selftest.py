"""The benchmark's own self-test runs clean against the current program.

``perfbench/selftest.py`` checks, with outputs the program makes, that
every output check of the benchmark accepts a right output and rejects a
wrong one, and that ``BENCHMARK.json`` lists every traced metric; running
it with the tests catches a program change that breaks a benchmark check
before the benchmark runs.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
