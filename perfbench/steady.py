"""Steadiness check: run every workload many times in two sets and compare
the spreads and the set medians of the end-to-end metrics with the bounds
in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10]

Set 1 runs every workload ``--runs`` times with seeds 0..runs-1, round
robin over the workloads; after PAUSE_S seconds set 2 does the same with
seeds runs..2*runs-1. For each metric it reports the median and the
quartiles of each set, the spread (third minus first quartile over the
median) and how far set 2's median moved from set 1's in the worse
direction, both held to the metric's bound. The share of failed
operations must be the same in both sets. Raw results go to
perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
PAUSE_S = 60


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - started
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]

    results = {name: [] for name in names}
    for s in range(SETS):
        if s:
            time.sleep(PAUSE_S)
        for i in range(args.runs):
            for name in names:
                r = run_once(spec, name, s * args.runs + i)
                r["set"] = s
                results[name].append(r)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"set {s + 1} {name} seed {s * args.runs + i}: {r['run_s']:.1f} s, "
                      f"{r['failed']}/{r['attempted']} failed, {values}", file=sys.stderr)

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    with open(os.path.join(HERE, "results", f"steady-{stamp}.json"), "w") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    print(f"{'workload':16} {'metric':13} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'worse':>7} {'bound':>6}")
    for name in names:
        runs = results[name]
        shares = [sum(r["failed"] for r in runs if r["set"] == s)
                  / sum(r["attempted"] for r in runs if r["set"] == s) for s in range(SETS)]
        if len(set(shares)) != 1 or not all(r["correct"] for r in runs):
            ok = False
        for metric in spec["end_to_end"]:
            m = metric["name"]
            sets = [summarize([r["metrics"][m]["value"] for r in runs if r["set"] == s])
                    for s in range(SETS)]
            for s, st in enumerate(sets):
                worse = ""
                if s:
                    change = (st["median"] - sets[0]["median"]) / sets[0]["median"]
                    change = change if metric["better"] == "lower" else -change
                    ok &= change <= metric["bound"]
                    worse = f"{change:+7.3f}"
                ok &= st["spread"] <= metric["bound"]
                print(f"{name:16} {m:13} {s + 1:>3} {st['median']:11.5g} {st['q1']:11.5g} "
                      f"{st['q3']:11.5g} {st['spread']:7.3f} {worse:>7} {metric['bound']:6.2f}")
        print(f"{name:16} failed share per set: {', '.join(f'{x:.6f}' for x in shares)}")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
