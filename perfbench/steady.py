#!/usr/bin/env python3
"""Steadiness and repeatability check for the benchmark.

Runs the benchmark command from BENCHMARK.json on each workload with
seeds 1..N for BENCHMARK.json's `run_seconds`, and reports, per
end-to-end metric, the spread between the first and third quartile of
the runs as a share of their median (`statistics.quantiles(values,
n=4)`), next to the metric's bound. With --repeat-trace it also runs
each workload traced twice on seed 1 and reports, per work counter, whether every re-serving of the same
query batch within a run returned the same value
(`counts_repeat_within_run`), and whether the per-query averages of the
count metrics matched between the two runs. The averages can differ
without any counter being nondeterministic: a run serves as many calls
as fit in its time, so two runs average over different numbers of
servings of each batch.

Run from the repository root:

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --workloads mem-point --seeds 5
    python3 perfbench/steady.py --seeds 0 --repeat-trace
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1]), wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--repeat-trace", action="store_true")
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench", "steady.json"))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        entry = report["workloads"].setdefault(w, {})
        runs = []
        for seed in range(1, args.seeds + 1):
            desc, result, wall = run_once(bench, w, seed, 0)
            runs.append(result)
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={wall:.1f}s tail=p{desc.get('call_ms.tail_percentile')} "
                  f"beyond={desc.get('call_ms.tail_calls_beyond')}", flush=True)
            ok &= result["correct"]
        if len(runs) >= 2:
            rows = {}
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in runs]
                med, sp = spread(values)
                rows[name] = {"median": med, "spread": sp, "bound": bound,
                              "values": values}
                flag = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "WIDE")
                print(f"  {name:28s} median {med:14.6g}  spread {sp:7.4f}  "
                      f"bound {bound:5.2f}  {flag}")
            entry["spread"] = rows
            entry["all_correct"] = all(r["correct"] for r in runs)
        if args.repeat_trace:
            a_desc, a, _ = run_once(bench, w, 1, 1)
            b_desc, b, _ = run_once(bench, w, 1, 1)
            counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
            repeat = {n: a["metrics"][n]["value"] == b["metrics"][n]["value"] for n in counts}
            entry["count_averages_match_across_runs"] = repeat
            entry["counts_repeat_within_run"] = [
                a_desc.get("counts_repeat_within_run"), b_desc.get("counts_repeat_within_run")]
            entry["traced_correct"] = a["correct"] and b["correct"]
            ok &= a["correct"] and b["correct"]
            for n in counts:
                print(f"  {n:32s} {a['metrics'][n]['value']:14.6g} "
                      f"{b['metrics'][n]['value']:14.6g}  "
                      f"{'same average' if repeat[n] else 'averages differ'}")
            print(f"  within run: {a_desc.get('counts_repeat_within_run')}")
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"report: {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
