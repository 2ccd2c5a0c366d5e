"""The benchmark's own self-test runs clean against the current program.

``perfbench/selftest.py`` checks, with outputs the program makes, that
every output check of the benchmark accepts a right output and rejects a
wrong one, and that ``BENCHMARK.json`` lists every traced metric; running
it with the tests catches a program change that breaks a benchmark check
before the benchmark runs. The benchmark's traced run wraps the program's
functions by name, so a renamed or re-shaped traced function is caught
here too.
"""

import os
import re
import subprocess
import sys

import tensordec.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


_TRACED_OVERCOMPLETE = """
import sys
sys.path[:0] = ["src", "perfbench"]
import tracing
import tensordec as td

tracer = tracing.Tracer()
tracing.install(tracer)
t = td.synthesize(td.smoothed_decomposition((4,) * 5, 8, rho=0.5, seed=0))
plan = td.FlatteningPlan(order=5, groups=((0, 1), (2, 3), (4,)))
td.overcomplete_decompose(t, plan=plan, config=td.JennrichConfig(rank=8, seed=0))
print(tracer.calls["overcomplete.overcomplete_decompose"],
      tracer.calls["overcomplete.unflatten_rank_one"])
"""


def test_traced_overcomplete_call_unflattens_once_per_group():
    # tracing.install patches the package in place, hence a fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_OVERCOMPLETE],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "3"]


def test_every_cli_name_the_benchmark_reads_resolves():
    # The benchmark reaches the program through ``tensordec.cli``; the
    # self-test never calls some of those names, so check them all by text.
    names = set()
    for script in ("workloads.py", "selftest.py"):
        with open(os.path.join(ROOT, "perfbench", script), encoding="utf-8") as f:
            names |= set(re.findall(r"(?<![\w.])cli\.([A-Za-z_]\w*)", f.read()))
    assert "hmm_sample" in names
    assert sorted(n for n in names if not hasattr(tensordec.cli, n)) == []
