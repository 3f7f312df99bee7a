"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload sweep_small --seeds 1-10
    python3 perfbench/repeat.py --workload sweep_small --seeds 1-10 --record perfbench/baseline.json
    python3 perfbench/repeat.py --workload sweep_small --seeds 1-2 --trace 1

Runs one process at a time from the repository root, with ``run_seconds``
from BENCHMARK.json.  For each end-to-end metric (per-layer metric with
``--trace 1``) it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median next to the metric's bound, if it has one.  ``--record`` appends
the set (every run's result, the medians and spreads) to the workload's list
in a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="JSON file to store the summary in")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        machine = next(json.loads(line.split(":", 1)[1]) for line in lines
                       if line.startswith("# machine:"))
        runs.append({"seed": seed, **result})
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{n}={result['metrics'][n]['value']:.5g}" for n in bounds),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name]}
        flag = ""
        if bounds[name] is not None and not spread < bounds[name] / 3:
            flag = "  <- above a third of the bound"
        print(f"{name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread if spread is None else round(spread, 4)}  "
              f"bound {bounds[name]}{flag}")

    if args.record:
        doc = {}
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc.setdefault(args.workload, []).append(
            {"run_seconds": bench["run_seconds"], "trace": args.trace,
             "machine": machine, "summary": summary, "runs": runs})
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
