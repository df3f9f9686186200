"""Run one nlie benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One invocation is one workload in one
fresh interpreter, single-threaded.  It sets the workload up (timing the
set-up SETUP_REPEATS times: here and in fresh interpreters), runs whole
passes until --seconds have elapsed, then checks every output outside
the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes; in a traced pass every public layer function records
calls, self time and exact counts, and the run reports the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every check passed, 1 when a check failed, 2 when the checkout has no
nlie sources or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # one in this process, the rest in fresh interpreters
# The tail is the highest of these percentiles with at least TAIL_BEYOND
# samples beyond it (the lowest when none has).  The rungs keep what the
# tail measures fixed within a workload across machine speeds: 150 to
# 260 operations per run on paper-suite and 300 to 500 on probes select
# p90; groebner-bases runs 50 to 100 operations, and both p85 and p90
# fall among its katsura-5 bases.
TAIL_LADDER = (85.0, 90.0, 99.0, 99.9)
TAIL_BEYOND = 10

# Functions the layer table predicts each workload exercises; a traced
# run in which one of them records no call fails.
EXERCISED = {
    "paper-suite": (
        "brackets.JacobianBracket", "brackets.TableBracket", "brackets.poly_det",
        "brackets.verify", "poly.mul", "poly.pow", "poly.partial",
        "quotient.create", "quotient.reduce", "quotient.verify_grading",
        "structures.make", "parser.parse_polynomial", "suite.item", "cli.main"),
    "groebner-bases": (
        "groebner.divide", "groebner.buchberger", "groebner.spoly", "poly.mul"),
    "probes": (
        "brackets.JacobianBracket", "brackets.TableBracket", "brackets.poly_det",
        "groebner.divide", "groebner.buchberger", "groebner.spoly",
        "poly.mul", "poly.pow", "poly.partial",
        "analysis.center_probe", "analysis.rational_nullspace",
        "analysis.kth_root", "analysis.saturate", "analysis.center_membership",
        "quotient.create", "quotient.reduce"),
}

CHILD_SETUP = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "print(workloads.timed_setup(sys.argv[2], int(sys.argv[3]))[0])")


def percentile(sorted_xs: List[float], q: float) -> float:
    """Linearly interpolated q-th percentile of sorted samples."""
    pos = (len(sorted_xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    fitting = [q for q in TAIL_LADDER if n * (1 - q / 100.0) >= TAIL_BEYOND]
    return fitting[-1] if fitting else TAIL_LADDER[0]


def setup_times(name: str, seed: int) -> Tuple[List[float], object]:
    seconds, workload = workloads.timed_setup(name, seed)
    times = [seconds]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, "-c", CHILD_SETUP, str(workloads.BENCH_DIR), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times, workload


def run_passes(workload, seconds: float, traced: bool = False) -> List:
    """Whole passes until `seconds` have elapsed, at least one.

    Untraced passes record only the counts that come free from return
    values.  With traced=True the passes alternate untraced and traced,
    in pairs, so that both kinds see the same drift in machine speed.
    """
    kinds = (False, True) if traced else (False,)
    passes = []
    first_on: Dict[int, object] = {}
    deadline = time.perf_counter() + seconds
    index = 0
    while not passes or time.perf_counter() < deadline:
        for timed in kinds:
            tracer = layers.Tracer(timed=timed)
            gc.collect()
            with tracer.installed():
                p = workload.run_pass(index)
            p.counts = dict(tracer.counts)
            p.extra.update(traced=timed, calls=tracer.calls, self_s=tracer.self_s,
                           digest=p.digest())
            # A pass whose outputs equal those of an earlier pass on the same
            # inputs drops them, so memory does not grow with the pass count.
            first = first_on.setdefault(p.inputs, p)
            if first is not p and first.digest() == p.digest():
                p.extra["repeat"] = True
                for op in p.ops:
                    op.output = None
            passes.append(p)
        index += 1
    return passes


def run_errors(name: str, workload, passes) -> List[str]:
    """Checks on the run as a whole: the workload's own, then repeatability.

    Passes on the same inputs must give the same outputs and the same
    free counts, traced or not; traced passes on the same inputs must
    also agree on calls and counts.  A traced run must record a call for
    every function the layer table says the workload exercises.
    """
    errors = []
    own = workload.check_run(passes)
    if own:
        errors.append(own)
    groups: Dict[int, List] = {}
    for p in passes:
        groups.setdefault(p.inputs, []).append(p)
    for same in groups.values():
        first = same[0]
        if any(p.digest() != first.digest() for p in same):
            errors.append(f"outputs differ between passes on inputs {first.inputs}")
        for key in layers.FREE_COUNT_NAMES:
            if any(p.counts[key] != first.counts[key] for p in same):
                errors.append(f"{key} differs between passes on inputs {first.inputs}: "
                              f"{sorted(set(p.counts[key] for p in same))}")
        traced = [p for p in same if p.extra["traced"]]
        if any(p.extra["calls"] != traced[0].extra["calls"]
               or p.counts != traced[0].counts for p in traced):
            errors.append(f"traced passes on inputs {first.inputs} disagree "
                          "on calls or counts")
    traced = [p for p in passes if p.extra["traced"]]
    for span in EXERCISED[name] if traced else ():
        if traced[0].extra["calls"][span] == 0:
            errors.append(f"{span} recorded no call on {name}")
    return errors


def check(workload, passes, errors: List[str]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, messages) over every operation of every pass.

    A failed run or pass check fails every operation it covers.
    """
    attempted = failed = 0
    messages = [f"run: {e}" for e in errors]
    for i, p in enumerate(passes):
        pass_error = workload.check_pass(p)
        if pass_error:
            messages.append(f"pass {i}: {pass_error}")
        for op in p.ops:
            attempted += 1
            error = op.error or (None if p.extra.get("repeat")
                                 else workload.check_op(op, p.inputs))
            if error:
                messages.append(f"pass {i} {op.label}: {error}")
            if error or pass_error or errors:
                failed += 1
    return attempted, failed, messages


def end_to_end(passes, setups: List[float], peak_rss_mb: float) -> Tuple[Dict, List[str]]:
    latencies = sorted(op.seconds for p in passes for op in p.ops)
    n = len(latencies)
    q = tail_percentile(n)
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "op_p50_ms": (percentile(latencies, 50.0) * 1000.0, "ms"),
        "op_tail_ms": (percentile(latencies, q) * 1000.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    counts = passes[0].counts
    notes = [
        f"op_tail_ms is p{q:g} of {n} operations over {len(passes)} passes",
        f"setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}",
        "free counts per pass: " + ", ".join(
            f"{k}={counts[k]}" for k in layers.FREE_COUNT_NAMES),
    ]
    return metrics, notes


def per_layer(passes) -> Tuple[Dict, List[str]]:
    """Per-pass calls and counts, median self time, from the traced passes."""
    untraced = [p for p in passes if not p.extra["traced"]]
    traced = [p for p in passes if p.extra["traced"]]
    calls, c = traced[0].extra["calls"], traced[0].counts
    metrics: Dict[str, Tuple[float, str]] = {}
    for span in layers.SPANS:
        metrics[f"{span}.calls"] = (calls[span], "count")
        metrics[f"{span}.self_s"] = (
            statistics.median(p.extra["self_s"][span] for p in traced), "s")

    def ratio(num: str, span: str) -> float:
        return c[num] / calls[span] if calls[span] else 0.0

    metrics["brackets.poly_det.zero_ratio"] = (
        ratio("brackets.poly_det.zero", "brackets.poly_det"), "ratio")
    metrics["groebner.divide.zero_ratio"] = (
        ratio("groebner.divide.zero", "groebner.divide"), "ratio")
    for key in layers.COUNT_NAMES:
        if not key.endswith(".zero"):
            metrics[key] = (c[key], "count")
    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    notes = [f"wall_s traced {traced_wall:.4f}, untraced {untraced_wall:.4f}, "
             f"over {len(traced)} pairs of passes"]
    return metrics, notes


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        setups, workload = setup_times(args.workload, args.seed)
    except (workloads.MissingSource, ImportError) as exc:
        print(f"cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2

    passes = run_passes(workload, args.seconds, traced=bool(args.trace))
    # Read before the checks, which import sympy or jsonschema.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = run_errors(args.workload, workload, passes)
    attempted, failed, messages = check(workload, passes, errors)
    if args.trace:
        metrics, notes = per_layer(passes)
    else:
        metrics, notes = end_to_end(passes, setups, peak_rss_mb)
    notes.append(f"failed_ratio {failed / attempted:.6g} "
                 f"({failed} of {attempted} operations)")

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    for note in notes:
        print(note)
    for message in messages:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    correct = not messages
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
