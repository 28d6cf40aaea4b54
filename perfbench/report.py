"""Run several workloads and seeds and print every end-to-end metric by name and unit.

    python3 perfbench/report.py                      # all workloads, seed 1
    python3 perfbench/report.py --workloads train-toy --seeds 1 2 3 4 5

With more than one seed it also prints, per end-to-end metric, the median
and the spread (first-to-third quartile distance over the median, from
``statistics.quantiles(values, n=4)``) against the bound in BENCHMARK.json.
Exits 1 when a run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run as bench


def load_spec() -> dict:
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int, size: str):
    """(contract summary, full worker result) of one run; None if it failed."""
    args = bench.parse_args(["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace), "--size", size])
    result = bench.run(args)
    if result is None:
        return None
    for line in bench.report_lines(args, result)[1:]:
        print(line, flush=True)
    return bench.summary(args, result), result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]],
                        choices=bench.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            print(f"== {workload} seed {seed}", flush=True)
            outcome = run_once(workload, seed, args.seconds, 0, "full")
            if outcome is None or not outcome[0]["correct"]:
                ok = False
                continue
            for name, metric in outcome[0]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        if len(args.seeds) < 2:
            continue
        print(f"== {workload}: spread over {len(args.seeds)} seeds")
        for name, series in values.items():
            if len(series) < 2:
                continue
            share = spread(series)
            bound = bounds[name]
            verdict = "steady" if share < bound / 3 else "within" if share <= bound else "WIDE"
            print(f"{workload:<12} {name:<20} median {statistics.median(series):>12.6g}  "
                  f"spread {share:7.4f}  bound {bound:.2f}  {verdict}  "
                  f"values {' '.join(f'{v:.6g}' for v in series)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
