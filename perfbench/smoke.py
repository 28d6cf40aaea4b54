"""Smoke check of the benchmark at a tiny input size.

    python3 perfbench/smoke.py

Runs every workload at ``--size tiny`` with tracing off and on, and checks:

- every metric named in BENCHMARK.json prints, with the unit it lists there;
- the benchmark's own gates pass (``correct`` true, no failed operation);
- every end-to-end value is a positive finite number;
- per-layer self times, the tracer's graph walk and the remainder outside
  any span add up to the traced wall time;
- counts and the final training loss repeat exactly across two runs at one
  seed;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import report
import run as bench

SEED = 3
SECONDS = 1.0
EXACT_COUNTS = ("model.lstm_step_calls", "model.decode_step_calls",
                "inference.decode_steps_per_sent", "autodiff.graph_nodes",
                "autodiff.graph_bytes")
SELF_TIMES = [name for name, unit in bench.PER_LAYER.items()
              if unit == "ms" and not name.startswith(("trace.", "autodiff.gc_"))]


def main() -> int:
    spec = report.load_spec()
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message, flush=True)
        if not ok:
            problems.append(message)

    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in bench.WORKLOADS:
        runs = {}
        for trace, repeat in ((0, 0), (0, 1), (1, 0), (1, 1)):
            outcome = report.run_once(workload, SEED, SECONDS, trace, "tiny")
            expect(outcome is not None, f"{workload} trace={trace} run {repeat} completes")
            if outcome is None:
                return 1
            runs[trace, repeat] = outcome
        for trace in (0, 1):
            summary, result = runs[trace, 0]
            units = {name: m["unit"] for name, m in summary["metrics"].items()}
            expect(units == declared[trace],
                   f"{workload} trace={trace} prints every declared metric with its unit")
            expect(summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1,
                   f"{workload} trace={trace} gates pass "
                   f"({summary['failed']} of {summary['attempted']} failed)")
        values = {n: m["value"] for n, m in runs[0, 0][0]["metrics"].items()}
        expect(all(math.isfinite(v) and v > 0 for v in values.values()),
               f"{workload} end-to-end values are positive and finite")
        first, second = runs[0, 0][1]["checks"], runs[0, 1][1]["checks"]
        expect(all(first.get(k) == second.get(k) for k in ("final_loss", "setup_loss")),
               f"{workload} training losses repeat exactly across runs")
        layers = runs[1, 0][1]["layers"]
        accounted = (sum(layers[name] for name in SELF_TIMES) + layers["trace.graph_walk_ms"]
                     + layers["trace.remainder_ms"])
        expect(math.isclose(accounted, layers["trace.wall_ms"], rel_tol=1e-6),
               f"{workload} self times + remainder = traced wall "
               f"({accounted:.6f} vs {layers['trace.wall_ms']:.6f} ms)")
        again = runs[1, 1][1]["layers"]
        expect(all(layers[name] == again[name] for name in EXACT_COUNTS),
               f"{workload} counts repeat exactly across runs")

    bare = bench.OUT_DIR.resolve() / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    here = Path(__file__).resolve().parent
    shutil.copy(here.parent / "BENCHMARK.json", bare)
    shutil.copytree(here, bare / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
    command[0] = sys.executable
    alone = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
    expect(alone.returncode != 0 and '"metrics"' not in alone.stdout,
           f"without the program the benchmark fails (exit {alone.returncode})")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
