#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver takes it.

Runs the command of BENCHMARK.json ten times per workload, each time with
another seed, and prints for each metric the distance between the first and
third quartile of its ten values as a share of their median, beside the
metric's bound. Run it from the root of the repository:

    python3 benchmark/spread.py [--seeds 1-10] [--workload NAME] [--baseline FILE]

A spread above a third of its bound is marked `!`, above the bound `!!`.
With --baseline it also makes one traced run per workload (first seed) and
writes medians, quartiles and the per-layer values to FILE: that is how
benchmark/BASELINE.json is measured again after the benchmark changes.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="first-last, at least two")
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--baseline", help="write medians, quartiles and a traced run to this JSON file")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    def run(workload, seed, trace):
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: {result}")
        print(f"{workload} seed {seed} trace {trace}: {result['attempted']} attempted",
              file=sys.stderr)
        return {name: m["value"] for name, m in result["metrics"].items()}

    baseline = {
        "what": "first numbers measured with this benchmark; the reference later changes compare to",
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(first, last + 1)),
        "end_to_end": {},
        "per_layer_seed": first,
        "per_layer": {},
    }
    failed = False
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(first, last + 1):
            for name, value in run(workload, seed, 0).items():
                values[name].append(value)
        print(f"{workload}")
        summary = baseline["end_to_end"][workload] = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median if median else float("inf")
            mark = "!!" if spread > m["bound"] else "!" if spread > m["bound"] / 3 else ""
            # setup_s is exempt from the spread rule, only its medians are compared.
            if m["name"] == "setup_s":
                mark = ""
            failed |= mark == "!!"
            print(f"  {m['name']:<18} median {median:>14.4f} {m['unit']:<10} "
                  f"spread {spread:8.4%}  bound {m['bound']:.1%} {mark}")
            summary[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                  "spread": round(spread, 6)}
    if args.baseline:
        for workload in workloads:
            baseline["per_layer"][workload] = run(workload, first, 1)
        baseline["claim"] = None
        with open(args.baseline, "w") as out:
            json.dump(baseline, out, indent=1)
            out.write("\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
