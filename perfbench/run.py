"""surfcoh benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the repository root):
    python3 perfbench/run.py --workload dp-sample --seed 1 --seconds 36 --trace 0

Load is one closed-loop client with a single thread. A run draws its inputs
from the seed as one or more parts (``workloads.make_inputs``) and runs
every part in rounds, one after another, each in a fresh interpreter
(``worker.py``), so every first pass starts cold. Rounds cycle over the
parts until the next cycle would end after ``--seconds``; an untraced run
makes at least ``MIN_CYCLES`` cycles.

Every time is scaled to a host of reference speed by a calibration loop
run every quarter second (``hostclock.py``): other tenants of a shared host
slow the interpreter by up to 2x for seconds to minutes. Rounds of a part
repeat identical work, so each timed segment of a pass (one class, see
``workloads._segments``) is then taken at its median over the rounds (and
over the repeat passes of each round) before summing, which keeps spikes
shorter than a calibration interval out. Latency percentiles are over each
class's fastest cohomology call over the rounds. On toric-scan the 52
slowest calls of one round shared 0 to 8 classes with another round's, so
bursts too short to calibrate, not work, set the p99 of per-class medians:
it spread by 0.13 of its median over ten runs, and by 0.02 with the
fastest calls. Set-up time and peak RSS are medians over rounds.

With ``--trace 1`` every round is a pair, untraced and traced in
alternating order; the traced copies give the per-layer metrics. Every
round of a part must compute the same (h0, h1, h2, chi) for every class as
its first untraced round, whose outputs are checked outside the timed
region. Any failure makes the exit code 1. The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("dp-sample", "toric-scan", "general-deep")
# Medians over rounds need at least two rounds of each part; a dp-sample
# cycle (two parts) takes ~12 s on an idle host and ~25 s on a busy one.
MIN_CYCLES = 2
# A round takes ~1-15 s; a hung one must not keep a run past ~3 minutes.
WORKER_TIMEOUT_S = 60


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_round(workload: str, seed: int, part: int, traced: bool, check: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Set-up is timed with bytecode caches next to the sources, as an installed
    # package has them; the first round in a checkout writes them. Compiling
    # surfcoh on every import instead added ~65% to set-up time on toric-scan.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    flags = [str(part), "1" if traced else "0", "1" if check else "0"]
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), *flags],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"a {workload} round exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def typical(lists) -> list[float]:
    """Per position, the median over equally long lists, one per copy of the work."""
    return [statistics.median(column) for column in zip(*lists)]


def fastest(lists) -> list[float]:
    """Per position, the smallest value over equally long lists, one per round."""
    return [min(column) for column in zip(*lists)]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def _pass_s(parts: list[list[dict]], passes: slice) -> float:
    """Summed typical segments of the given passes of each round, over parts."""
    return sum(
        sum(typical(s for r in rounds for s in r["segments_s"][passes])) for rounds in parts
    )


FIRST, REPEAT = slice(0, 1), slice(1, None)


def end_to_end(parts: list[list[dict]]) -> dict:
    everything = [r for rounds in parts for r in rounds]
    classes = sum(rounds[0]["classes"] for rounds in parts)
    latencies_ms = [
        x * 1e3 for rounds in parts for x in fastest(r["latencies_s"] for r in rounds)
    ]
    return {
        "classes_per_s": (classes / _pass_s(parts, FIRST), "1/s"),
        "repeat_classes_per_s": (classes / _pass_s(parts, REPEAT), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p99_ms": (percentile(latencies_ms, 99), "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in everything), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in everything), "MB"),
    }


COUNTS = (
    "cones.decisions", "lattice.pairings", "transform.is_effective_calls",
    "transform.iterate_calls", "transform.steps", "cohomology.calls",
    "cohomology.certify_calls", "cohomology.rule_kawamata_viehweg",
    "cohomology.rule_demazure", "cohomology.rule_none", "cohomology.unknown",
    "toric.oracle_calls", "toric.points", "catalog.negative_curves",
)
SECONDS = (
    "cones.busy_s", "lattice.pairing_s", "transform.self_s", "cohomology.self_s",
    "cohomology.certify_s", "toric.oracle_s", "catalog.build_s", "cli.scan_s",
)


def per_layer(traced: list[list[dict]], untraced: list[list[dict]]) -> dict:
    """Counts from one traced round per part (rounds of a part repeat identical
    work); times are per-part medians over traced rounds; both summed over parts."""
    counts = [rounds[0]["trace"] for rounds in traced]

    def total(key: str) -> int:
        return sum(c[key] for c in counts)

    def seconds(key: str) -> float:
        return sum(
            statistics.median(r["trace"][key] * r["scale"] for r in rounds) for rounds in traced
        )

    decision_ms = [
        x
        for rounds in traced
        for x in fastest([x * r["scale"] for x in r["trace"]["cones.decision_ms"]] for r in rounds)
    ]
    metrics = {key: (total(key), "count") for key in COUNTS}
    metrics.update({key: (seconds(key), "s") for key in SECONDS})
    metrics["cones.decision_p99_ms"] = (percentile(decision_ms, 99), "ms")
    metrics["cones.distinct_share"] = (total("cones.distinct") / total("cones.decisions"),
                                       "share")
    metrics["transform.effective_share"] = (
        total("transform.effective_true") / total("transform.is_effective_calls"), "share")
    metrics["transform.steps_max"] = (max(c["transform.steps_max"] for c in counts), "count")
    everything = [r for rounds in traced + untraced for r in rounds]
    passes_s = [_pass_s(x, FIRST) + _pass_s(x, REPEAT) for x in (traced, untraced)]
    metrics["harness.trace_overhead_share"] = (passes_s[0] / passes_s[1] - 1, "share")
    metrics["harness.cpu_share"] = (
        sum(r["cpu_s"] for r in everything) / sum(r["wall_s"] for r in everything), "share")
    return metrics


def count_failed(reference: dict, others: list[dict]) -> int:
    """The checked round's failures, plus every class of a round that differs from it."""
    return reference["failed"] + sum(
        r["classes"] for r in others if r["digest"] != reference["digest"]
    )


def measure(args) -> tuple[dict, int, int]:
    """Run cycles of rounds over the parts; return (metrics, attempted, failed)."""
    start = time.perf_counter()
    # parts[i] = (untraced rounds, traced rounds) of part i, indexed by the traced
    # flag; the first round reports how many parts the run has.
    parts = None
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        part = 0
        while parts is None or part < len(parts):
            order = (False, True) if (cycles + part) % 2 == 0 else (True, False)
            for flag in order if args.trace else (False,):
                one = run_round(args.workload, args.seed, part, flag, not flag and cycles == 0)
                if parts is None:
                    parts = [([], []) for _ in range(one["parts"])]
                parts[part][flag].append(one)
            part += 1
        cycles += 1
        now = time.perf_counter()
        enough = cycles >= (1 if args.trace else MIN_CYCLES)
        if enough and now - start + (now - cycle_start) > args.seconds:
            break
    untraced = [u for u, _ in parts]
    traced = [t for _, t in parts]
    everything = [r for rounds in untraced + traced for r in rounds]
    failed = sum(count_failed(u[0], u[1:] + t) for u, t in parts)
    cpu_share = sum(r["cpu_s"] for r in everything) / sum(r["wall_s"] for r in everything)
    classes = sum(rounds[0]["classes"] for rounds in untraced)
    slowdowns = sorted(x for r in everything for x in r["slowdowns"])
    print(f"cycles {cycles} over {len(untraced)} part(s), {classes} classes "
          f"(latency samples, {classes // 100} beyond p99)  rounds {len(everything)}  "
          f"cpu_share {cpu_share:.4f}")
    print(f"host slowdown (calibration / reference): median {statistics.median(slowdowns):.3f}"
          f"  range {slowdowns[0]:.3f}..{slowdowns[-1]:.3f} over {len(slowdowns)} calibrations")
    report_errors(everything)
    if args.trace:
        print_pairings_by_span(traced)
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced)
    return metrics, sum(r["classes"] for r in everything), failed


def print_pairings_by_span(traced: list[list[dict]]) -> None:
    by_span: dict[str, int] = {}
    for rounds in traced:
        for span, calls in rounds[0]["trace"]["lattice.pairings_by_span"].items():
            by_span[span] = by_span.get(span, 0) + calls
    for span, calls in sorted(by_span.items(), key=lambda kv: -kv[1]):
        print(f"  pairings under {span}: {calls}")


def report_errors(rounds: list[dict]) -> None:
    for r in rounds:
        for error in r["errors"]:
            print(error, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "surfcoh")):
        print(f"error: no surfcoh sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed = measure(args)
    except (HarnessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}")
    print(f"attempted {attempted}  failed {failed}  failed_share {failed / attempted:g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
