"""Per-layer tracing for the traced run, done from outside the program.

``install(tracer)`` replaces the layers' public functions with timing
wrappers in every ``tensordec`` module that holds them, so a name imported
into another module is timed wherever it is called from. Each wrapper
records calls, total time and self time (total minus the time of wrapped
calls made beneath it on the same thread). ``layer_metrics`` turns the
records into the per-layer metrics named in BENCHMARK.json.
"""

import functools
import subprocess
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs wrapped in the traced run.
TARGETS = [
    ("jennrich", "jennrich_decompose"),
    ("jennrich", "match_terms"),
    ("matrix_ops", "pseudoinverse"),
    ("matrix_ops", "eig_nonsymmetric"),
    ("matrix_ops", "condition_number"),
    ("tensor_core", "slice_combination"),
    ("tensor_core", "khatri_rao"),
    ("tensor_core", "flatten_to_order3"),
    ("tensor_core", "synthesize"),
    ("overcomplete", "overcomplete_decompose"),
    ("overcomplete", "unflatten_rank_one"),
    ("power_method", "deflate_decompose"),
    ("power_method", "whiten"),
    ("moment_learners", "gmm_sample"),
    ("moment_learners", "hmm_sample"),
    ("moment_learners", "gmm_statistic_t3"),
    ("moment_learners", "hmm_moment_tensor"),
    ("moment_learners", "hmm_empirical_moments"),
    ("moment_learners", "gmm_second_moment"),
    ("moment_learners", "gmm_learn_from_moments"),
    ("moment_learners", "hmm_learn_from_moments"),
    ("moment_learners", "match_columns"),
    ("smoothed_lab", "kr_sigma_experiment"),
    ("smoothed_lab", "projection_experiment"),
]

# Modules whose import self time is reported, and packages whose
# cumulative import time is.
IMPORT_SELF = [
    "tensordec", "tensordec._version", "tensordec.errors", "tensordec.seeding",
    "tensordec.tensor_core", "tensordec.matrix_ops", "tensordec.jennrich",
    "tensordec.overcomplete", "tensordec.power_method", "tensordec.moment_learners",
    "tensordec.smoothed_lab", "tensordec.synthetic", "tensordec.cli",
    "scipy.optimize", "scipy.sparse", "scipy.linalg",
]
IMPORT_CUMULATIVE = ["tensordec", "numpy", "scipy.optimize", "scipy.sparse", "scipy.linalg"]
IMPORT_REPEATS = 3


class Tracer:
    """Thread-safe per-name records of calls, total and self seconds, plus
    named counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, on_result=None):
        """``fn`` timed under ``name``; ``on_result(tracer, args, result,
        error)`` may add counters after each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[name] += 1
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - child
                    if on_result is not None:
                        on_result(self, args, result, error)

        return wrapper

    def add(self, counter, value):
        """Add to a counter; callers from on_result already hold the lock."""
        self.counters[counter] += value

    def reset(self, keep=()):
        """Forget every record except those of the names in ``keep``."""
        with self._lock:
            for table in (self.calls, self.total, self.self_time):
                for name in list(table):
                    if name not in keep:
                        del table[name]
            self.counters.clear()


def _jennrich_draws(tracer, args, result, error):
    if result is not None:
        tracer.add("jennrich.draws_rejected", result[1].retries or 0)
        tracer.add("jennrich.draws_attempted", (result[1].retries or 0) + 1)
    elif error is not None and hasattr(error, "diagnostics"):
        tracer.add("jennrich.draws_attempted", error.diagnostics.get("attempts", 0))
        tracer.add("jennrich.draws_rejected", error.diagnostics.get("attempts", 0))


def _match_size(tracer, args, result, error):
    found = args[0]
    k = found.rank
    entries = int(np.prod(found.shape))
    tracer.add("match_terms.term_pairs", k * k)
    # 2k dense terms held at once, plus one dense difference per pair
    tracer.add("match_terms.dense_bytes", 8 * entries * (2 * k + k * k))


def _sample_count(counter):
    def count(tracer, args, result, error):
        tracer.add(counter, int(args[1]))
    return count


def _t3_madds(tracer, args, result, error):
    n_samples, n = np.shape(args[0])
    # per sample: the outer product x (x) x, then its contraction with x
    tracer.add("gmm_statistic_t3.madds", n_samples * (n * n + n**3))


def _window_dims(windows, context):
    n_samples, _, n = np.shape(windows)
    side = n**context
    return n_samples, side, n


def _moment_madds(n_samples, side, n):
    return n_samples * (side * n + side * n * side)


def _hmm_tensor_madds(tracer, args, result, error):
    context = args[1] if len(args) > 1 else 1
    tracer.add("hmm_moment_tensor.madds", _moment_madds(*_window_dims(args[0], context)))


def _hmm_moments_madds(tracer, args, result, error):
    context = args[1] if len(args) > 1 else 1
    n_samples, side, n = _window_dims(args[0], context)
    # the moment tensor plus the center-future and center-second products
    extra = n_samples * (n * side + n * n)
    tracer.add("hmm_empirical_moments.madds", _moment_madds(n_samples, side, n) + extra)


ON_RESULT = {
    "jennrich_decompose": _jennrich_draws,
    "match_terms": _match_size,
    "gmm_sample": _sample_count("gmm_sample.samples"),
    "hmm_sample": _sample_count("hmm_sample.samples"),
    "gmm_statistic_t3": _t3_madds,
    "hmm_moment_tensor": _hmm_tensor_madds,
    "hmm_empirical_moments": _hmm_moments_madds,
}


def _timed_trials(tracer, experiment):
    """``experiment`` with its ``mapper`` wrapped so that each trial's busy
    time is recorded under ``smoothed_lab.trial``."""
    @functools.wraps(experiment)
    def wrapper(*args, mapper=map, **kwargs):
        def timed(fn, items):
            return mapper(tracer.wrap("smoothed_lab.trial", fn), items)
        return experiment(*args, mapper=timed, **kwargs)
    return wrapper


TIMED_TRIALS = ("kr_sigma_experiment", "projection_experiment")


def install(tracer):
    """Wrap every target, and CpDecomposition construction, in place."""
    package = [m for name, m in list(sys.modules.items())
               if name == "tensordec" or name.startswith("tensordec.")]
    for module, func in TARGETS:
        original = getattr(sys.modules[f"tensordec.{module}"], func)
        wrapped = tracer.wrap(f"{module}.{func}", original, ON_RESULT.get(func))
        if func in TIMED_TRIALS:
            wrapped = _timed_trials(tracer, wrapped)
        for m in package:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
    cls = sys.modules["tensordec.tensor_core"].CpDecomposition
    cls.__init__ = tracer.wrap("tensor_core.CpDecomposition", cls.__init__)


def layer_metrics(tracer, workers):
    """The per-layer metrics, by name, from the tracer's records."""
    t = tracer
    out = {}

    def stat(name, *stats):
        for s in stats:
            table = {"calls": t.calls, "total_s": t.total, "self_s": t.self_time}[s]
            out[f"{name}.{s}"] = table.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    c = t.counters
    stat("jennrich.jennrich_decompose", "calls", "total_s", "self_s")
    out["jennrich.jennrich_decompose.draws_rejected"] = int(c["jennrich.draws_rejected"])
    out["jennrich.jennrich_decompose.draw_accept_ratio"] = ratio(
        c["jennrich.draws_attempted"] - c["jennrich.draws_rejected"],
        c["jennrich.draws_attempted"],
    )
    stat("jennrich.match_terms", "calls", "total_s")
    out["jennrich.match_terms.term_pairs"] = int(c["match_terms.term_pairs"])
    out["jennrich.match_terms.dense_bytes"] = int(c["match_terms.dense_bytes"])
    for f in ("pseudoinverse", "eig_nonsymmetric", "condition_number"):
        stat(f"matrix_ops.{f}", "calls", "total_s")
    for f in ("slice_combination", "khatri_rao", "CpDecomposition", "flatten_to_order3",
              "synthesize"):
        stat(f"tensor_core.{f}", "calls", "total_s")
    stat("overcomplete.overcomplete_decompose", "calls", "self_s")
    stat("overcomplete.unflatten_rank_one", "calls", "total_s")
    stat("power_method.deflate_decompose", "calls", "total_s")
    stat("power_method.whiten", "calls", "total_s")
    for f in ("gmm_sample", "hmm_sample"):
        stat(f"moment_learners.{f}", "total_s")
        out[f"moment_learners.{f}.samples_per_s"] = ratio(
            c[f"{f}.samples"], t.total.get(f"moment_learners.{f}", 0)
        )
    for f in ("gmm_statistic_t3", "hmm_moment_tensor", "hmm_empirical_moments"):
        stat(f"moment_learners.{f}", "total_s")
        out[f"moment_learners.{f}.madds"] = int(c[f"{f}.madds"])
        out[f"moment_learners.{f}.gflop_per_s"] = ratio(
            2e-9 * c[f"{f}.madds"], t.total.get(f"moment_learners.{f}", 0)
        )
    for f in ("gmm_second_moment", "gmm_learn_from_moments", "hmm_learn_from_moments",
              "match_columns"):
        stat(f"moment_learners.{f}", "total_s")
    stat("smoothed_lab.kr_sigma_experiment", "calls", "total_s")
    stat("smoothed_lab.projection_experiment", "calls", "total_s")
    out["smoothed_lab.trial.calls"] = t.calls.get("smoothed_lab.trial", 0)
    busy = t.total.get("smoothed_lab.trial", 0.0)
    out["smoothed_lab.trial.busy_s"] = busy
    experiments = (t.total.get("smoothed_lab.kr_sigma_experiment", 0.0)
                   + t.total.get("smoothed_lab.projection_experiment", 0.0))
    out["smoothed_lab.pool.wait_s"] = experiments - busy / workers if experiments else 0.0
    return out


UNITS = {
    "calls": "count", "count": "count", "draws_rejected": "count",
    "term_pairs": "count", "madds": "count", "dense_bytes": "bytes",
    "draw_accept_ratio": "ratio", "samples_per_s": "1/s", "gflop_per_s": "GFLOP/s",
}


def unit_of(name):
    """Unit of a per-layer metric, from its last name part; seconds if
    not listed."""
    return UNITS.get(name.rsplit(".", 1)[1], "s")


def import_metrics(env, root):
    """Per-module import times from ``python -X importtime``, the median of
    IMPORT_REPEATS fresh interpreters."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tensordec.cli"],
            env=env, cwd=root, capture_output=True, text=True, timeout=120, check=True,
        )
        table = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the header line
            table[fields[2].strip()] = (self_us * 1e-6, cum_us * 1e-6)
        runs.append(table)
    out = {}
    for name in IMPORT_SELF:
        out[f"import.{name}.self_s"] = float(np.median([r.get(name, (0, 0))[0] for r in runs]))
    for name in IMPORT_CUMULATIVE:
        out[f"import.{name}.cumulative_s"] = float(
            np.median([r.get(name, (0, 0))[1] for r in runs])
        )
    return out


def kind_latencies(latencies):
    """Per-kind p50 and p90 latency with the count of calls."""
    out = {}
    for kind, values in latencies.items():
        out[f"kind.{kind}.count"] = len(values)
        out[f"kind.{kind}.p50_s"] = float(np.percentile(values, 50)) if values else 0.0
        out[f"kind.{kind}.p90_s"] = float(np.percentile(values, 90)) if values else 0.0
    return out
