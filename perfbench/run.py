"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is taken from ``src/`` there.
The measurement runs in a fresh child process (``worker.py``), so the peak
resident memory the child reads from its own ``ru_maxrss`` belongs to this
workload alone.  On decode-beam, whose set-up trains the model, set-up runs
in a child of its own first, so that the measuring child only decodes.  With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-layer metrics.  A provenance line and a readable report
come first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result, and
the spans of a traced run, are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("train-toy", "train-wide", "decode-beam")
#: Time allowed beyond ``--seconds`` for process starts, the set-ups and
#: the gates; a run still going after that is stopped and reported failed.
SETUP_MARGIN_S = 140
OUT_DIR = Path(".perfbench_out")

#: End-to-end metrics and their units.  On the training workloads the
#: "operation" is one training batch and the throughput counts target tokens
#: (EOS included); on decode-beam the operation is one beam-10 sentence and
#: the throughput counts sentences.
END_TO_END = {
    "throughput_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p75": "ms",
    "greedy_sents_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Names the metrics go by in the workload's own terms, for the report.
ALIASES = {
    "train": {"throughput_per_s": "train_tokens_per_s", "op_ms.p50": "train_batch_ms.p50",
              "op_ms.p75": "train_batch_ms.p75"},
    "decode": {"throughput_per_s": "beam_sents_per_s", "op_ms.p50": "beam_sent_ms.p50",
               "op_ms.p75": "beam_sent_ms.p75"},
}

#: Per-layer metrics and their units.  Times are self times per training
#: batch, or per beam sentence on decode-beam; counts are per batch or per
#: sentence likewise, graph sizes per backward pass.
PER_LAYER = {
    "model.lstm_step_ms": "ms",
    "model.attend_ms": "ms",
    "model.decode_step_self_ms": "ms",
    "model.forward_self_ms": "ms",
    "model.encode_ms": "ms",
    "objectives.word_loss_ms": "ms",
    "objectives.bag_loss_ms": "ms",
    "objectives.clip_ms": "ms",
    "objectives.adam_ms": "ms",
    "autodiff.backward_ms": "ms",
    "data.make_batches_ms": "ms",
    "training.loop_self_ms": "ms",
    "inference.beam_search_self_ms": "ms",
    "inference.decode_steps_per_sent": "count",
    "model.lstm_step_calls": "count",
    "model.decode_step_calls": "count",
    "autodiff.graph_nodes": "count",
    "autodiff.graph_bytes": "bytes",
    "autodiff.gc_collected": "count",
    "autodiff.gc_pause_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.untraced_wall_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.graph_walk_ms": "ms",
    "trace.remainder_ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace) -> dict | None:
    """Run one workload in a child process; None if it could not complete."""
    root = Path.cwd()
    if not (root / "src" / "bowseq" / "__init__.py").is_file():
        print(f"error: no src/bowseq under {root}; run from the root of a bowseq checkout",
              file=sys.stderr)
        return None
    OUT_DIR.mkdir(exist_ok=True)
    command = [sys.executable, str(Path(__file__).with_name("worker.py")),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--out-dir", str(OUT_DIR)]
    phases = ("setup", "measure") if args.workload == "decode-beam" else ("all",)
    allowed = args.seconds + SETUP_MARGIN_S
    deadline = time.monotonic() + allowed
    for phase in phases:
        try:
            child = subprocess.run(command + ["--phase", phase], stdout=subprocess.PIPE,
                                   text=True, timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"error: {args.workload} did not finish within {allowed:g} s", file=sys.stderr)
            return None
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: {args.workload} {phase} worker exited with {child.returncode}",
                  file=sys.stderr)
            return None
    result = json.loads(lines[-1])
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def summary(args: argparse.Namespace, result: dict) -> dict:
    """The contract's last-line object."""
    names = PER_LAYER if args.trace else END_TO_END
    values = result["layers"] if args.trace else result["metrics"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }


def report_lines(args: argparse.Namespace, result: dict) -> list[str]:
    kind = "decode" if args.workload == "decode-beam" else "train"
    lines = [f"# provenance {json.dumps(result['provenance'], sort_keys=True)}",
             f"# checks {json.dumps(result['checks'], sort_keys=True)}",
             f"# samples {json.dumps(result['samples'], sort_keys=True)}"]
    names = PER_LAYER if args.trace else END_TO_END
    values = result["layers"] if args.trace else result["metrics"]
    for name, unit in names.items():
        alias = ALIASES[kind].get(name)
        label = f"{name} ({alias})" if alias else name
        lines.append(f"{args.workload:<12} {label:<44} {values[name]:>14.6g} {unit}")
    if not args.trace:
        lines.append(f"# pace {json.dumps(result['pace'], sort_keys=True)}")
        lines.extend(f"{args.workload:<12} {name + ' (wall clock)':<44} {value:>14.6g} "
                     f"{END_TO_END[name]}" for name, value in result["wall"].items())
    lines.append(f"{args.workload:<12} {'failed_ops / ops':<44} "
                 f"{result['failed']:>6d} / {result['attempted']} ops")
    lines.extend(f"FAILED: {note}" for note in result["failures"])
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    if result is None:
        return 1
    for line in report_lines(args, result):
        print(line)
    print(json.dumps(summary(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
