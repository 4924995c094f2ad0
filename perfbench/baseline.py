#!/usr/bin/env python3
"""Measures the benchmark's baseline and writes perfbench/BASELINE.json.

From the checkout root:

    python3 perfbench/baseline.py

For every workload of BENCHMARK.json it makes ten untraced runs on request
seeds 1-10 and reports each end-to-end metric's median, quartiles and
spread (quartile distance over median, as statistics.quantiles gives
them). It then makes one traced run per workload for the per-layer
numbers, and one untraced run on a held-out request seed, checking each
end-to-end metric against its bound. One more run on the held-out request
seed and a second RFIDGen database seed shows how far the metrics move
with the data; the benchmark's database is fixed, so that run is not held
to the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, seed, trace, extra=()):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("%s seed %d trace %d failed (%d):\n%s" % (workload, seed, trace, p.returncode, p.stderr[-4000:]))
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["server_flags"] = next(l.split(":", 1)[1].strip() for l in lines if l.startswith("server flags:"))
    print(workload, seed, trace, json.dumps(res["metrics"]), flush=True)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--held-out-seed", type=int, default=1001)
    ap.add_argument("--held-out-data-seed", type=int, default=7)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    out = {"machine": "%d CPUs, %s" % (os.cpu_count(), go),
           "run_seconds": spec["run_seconds"], "seeds": list(range(1, args.runs + 1)), "server_flags": {},
           "end_to_end": {}, "per_layer": {},
           "held_out": {"seed": args.held_out_seed, "workloads": {}},
           "other_database": {"seed": args.held_out_seed, "data_seed": args.held_out_data_seed, "workloads": {}}}
    for w in spec["workloads"]:
        name = w["name"]
        values = {}
        for seed in out["seeds"]:
            res = run(spec, name, seed, 0)
            out["server_flags"][name] = res["server_flags"]
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        summary = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / med, "bound": m["bound"]}
        out["end_to_end"][name] = summary
        traced = run(spec, name, 1, 1)
        out["per_layer"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
        for key, extra in (("held_out", ()), ("other_database", ("--data-seed", str(args.held_out_data_seed)))):
            held = run(spec, name, args.held_out_seed, 0, extra)
            check = {}
            for m in spec["end_to_end"]:
                value, med = held["metrics"][m["name"]]["value"], summary[m["name"]]["median"]
                worse = (value - med) / med if m["better"] == "lower" else (med - value) / med
                check[m["name"]] = {"value": value, "baseline_median": med, "worse_by": worse,
                                    "within_bound": worse <= m["bound"]}
            out[key]["workloads"][name] = check
    with open(os.path.join(ROOT, "perfbench", "BASELINE.json"), "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
