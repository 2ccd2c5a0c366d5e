"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer ones from a run with every layer wrapped.
``setup_s`` is the median over SETUP_PROBES fresh processes, started at
evenly spaced points of the timed phase, of the time from process start
to the first timed operation (interpreter start, the CLI's imports, the
inputs and the warm-up round).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread, set before NumPy loads, so the only parallelism is the
# program's own pool.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env.pop("TENSORDEC_SEED", None)
    return env


def prepare(args):
    """Import the program, build the inputs and run the warm-up round.
    Returns the workload."""
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    earlier = []
    for kind in workload.warmup or workload.kinds:
        try:
            earlier.append(kind.call(earlier, kind.instances[0]))
        except Exception:  # a failing call is counted in the timed phase
            earlier.append(None)
    return workload


def setup_probe(args):
    """Set-up time of one fresh process, in seconds."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe",
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
    # CLOCK_MONOTONIC is shared by every process on the machine
    return float(proc.stdout.strip().splitlines()[-1]) - started


def check_round(workload, r, outputs):
    """Check the outputs of round ``r``. Returns the reason of each failed
    operation, by kind."""
    reasons = {}
    for i, kind in enumerate(workload.kinds):
        inst = kind.instances[r % len(kind.instances)]
        result = outputs[i]
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            try:
                reason = kind.check(result, outputs[:i], inst)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            reasons[kind.name] = reason
    return reasons


def timed_phase(workload, seconds, probe=None):
    """Whole rounds until ``seconds`` of round time have passed.

    Each round is checked, and its outputs dropped, as soon as it ends.
    ``probe()``, when given, runs SETUP_PROBES times at evenly spaced
    points of the phase, the first before the first round. Neither the
    checks nor the probes count in the measured wall and CPU time.
    Returns per-kind latencies, round times, wall and CPU seconds, the
    number of failed operations, the first reason of each kind's
    unexpected failures, and the probes' set-up times.
    """
    round_times, probes = [], []
    latencies = {kind.name: [] for kind in workload.kinds}
    failed, unexpected = 0, {}
    wall = cpu = 0.0
    while True:
        if probe is not None and len(probes) < SETUP_PROBES \
                and wall >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        r = len(round_times)
        outputs = []
        cpu0 = time.process_time()
        r0 = time.perf_counter()
        for kind in workload.kinds:
            inst = kind.instances[r % len(kind.instances)]
            t0 = time.perf_counter()
            try:
                outputs.append(kind.call(outputs, inst))
            except Exception as exc:
                outputs.append(exc)
            latencies[kind.name].append(time.perf_counter() - t0)
        round_times.append(time.perf_counter() - r0)
        cpu += time.process_time() - cpu0
        wall += round_times[-1]
        reasons = check_round(workload, r, outputs)
        del outputs
        failed += len(reasons)
        for kind in workload.kinds:
            reason = reasons.get(kind.name)
            if reason is None:
                continue
            if reason != kind.known_symptom:
                unexpected.setdefault(kind.name, reason)
            elif r == 0:
                print(f"known fault, {kind.name}: {reason}", file=sys.stderr)
        if wall >= seconds:
            break
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return latencies, round_times, wall, cpu, failed, unexpected, probes


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "tensordec")):
        parser.exit(2, f"no program sources at {SRC}\n")
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    if args.probe:
        prepare(args)
        print(repr(time.perf_counter()))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        workload = prepare(args)
        # synthesize is reported for the input building alone
        tracer.reset(keep=("tensor_core.synthesize",))
    else:
        workload = prepare(args)

    probe = None if args.trace else (lambda: setup_probe(args))
    latencies, round_times, wall, cpu, failed, unexpected, probes = timed_phase(
        workload, args.seconds, probe
    )
    rss = peak_rss_mib()
    for kind, reason in unexpected.items():
        print(f"FAILED {kind}: {reason}", file=sys.stderr)
    ops = len(round_times) * len(workload.kinds)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "ops_per_s": (ops / wall, "ops/s"),
            "round_p50_s": (statistics.median(round_times), "s"),
            "cpu_per_op_s": (cpu / ops, "s"),
            "peak_rss_mb": (rss, "MiB"),
        }
    else:
        layers = tracing.layer_metrics(tracer, workloads.WORKERS)
        layers.update(tracing.import_metrics(child_env(), ROOT))
        lat = {name: [] for names in workloads.KIND_NAMES.values() for name in names}
        lat.update(latencies)
        layers.update(tracing.kind_latencies(lat))
        print(f"traced: {ops / wall:.4g} ops/s over {wall:.2f} s", file=sys.stderr)
        metrics = {name: (value, tracing.unit_of(name)) for name, value in layers.items()}

    print(json.dumps({
        "correct": not unexpected,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # One malloc arena. With one per pool thread, peak RSS on learn_lab
    # jumped by 60 MiB steps from run to run, as the threads happened to
    # fill more or fewer arenas. glibc reads this at process start, hence
    # the re-exec; the set-up probes inherit it.
    if os.environ.get("MALLOC_ARENA_MAX") != "1":
        os.environ["MALLOC_ARENA_MAX"] = "1"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
