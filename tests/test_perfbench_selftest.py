"""The benchmark's own self-test runs clean against the current program.

``perfbench/selftest.py`` checks, with outputs the program makes, that
every output check of the benchmark accepts a right output and rejects a
wrong one, and that ``BENCHMARK.json`` lists every traced metric; running
it with the tests catches a program change that breaks a benchmark check
before the benchmark runs. The benchmark's traced run wraps the program's
functions by name, so a renamed or re-shaped traced function is caught
here too.
"""

import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys

import numpy as np

import tensordec.cli
from tensordec import hmm_random_params, hmm_sample, moment_learners

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


def _tracing_module():
    """``perfbench/tracing.py``, loaded read-only under a private name."""
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # the traced run wraps each (module, function) by name: a renamed or
    # deleted target fails here, not in a traced benchmark run
    missing = [f"{module}.{func}" for module, func in _tracing_module().TARGETS
               if not callable(getattr(importlib.import_module(f"tensordec.{module}"),
                                       func, None))]
    assert missing == []


def test_traced_moment_functions_take_windows_and_context_positionally():
    # the madds hooks read the windows from args[0] and the context from args[1]
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for name in ("hmm_empirical_moments", "hmm_moment_tensor"):
        params = list(inspect.signature(getattr(moment_learners, name)).parameters.values())
        assert [p.name for p in params[:2]] == ["windows", "context"], name
        assert all(p.kind in positional for p in params[:2]), name
    params = list(inspect.signature(moment_learners.gmm_statistic_t3).parameters.values())
    assert params[0].kind in positional


def test_hmm_learn_reaches_the_moments_through_the_module_name(monkeypatch):
    # a wrapper set on the module, as the traced run sets one, must see the call
    seen = []
    original = moment_learners.hmm_empirical_moments

    def spy(*args):
        seen.append(np.shape(args[0]))
        return original(*args)

    monkeypatch.setattr(moment_learners, "hmm_empirical_moments", spy)
    params = hmm_random_params(4, 2, seed=1, noise_scale=0.1)
    windows = hmm_sample(params, 2000, window=3, seed=2)
    moment_learners.hmm_learn(windows, 2, context=1)
    assert seen == [(2000, 3, 4)]
