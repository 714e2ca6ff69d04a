"""Seeded inputs, timed passes and output checks for the three workloads.

A run draws its inputs from ``(workload, seed)`` as one or more parts and
runs each part in several rounds, each in a fresh interpreter (see
``worker.py``): a first pass that starts with every cache in surfcoh empty,
then repeat passes over the same inputs in that process. The library
receives only the generated classes.

- dp-sample: two parts of 1000 dP4..dP8 classes in the acceptance suite's
  proportions, half combinations of 1 to 4 Mori generators with
  coefficients 1 to 3 and half classes drawn from the [-6, 6] box
  (effective or not). The first pass is dominated by the ``Fraction``
  simplex behind effectiveness; the repeat pass by pairings. The slowest
  1% are dP8 Mori combinations, and with one part the p99 latency moved by
  ~15% of its median from seed to seed, and with two parts ~9%.
- toric-scan: ``surfcoh scan --surface dp3`` in process, over the 6^4
  boxes at offsets -5, -4, -3 and -2, one part each, in an order the seed
  rotates. One box alone would not do: from box to box the share of
  effective classes runs from 1% to 57% and the p99 latency by 50%, so a
  seed that picked a single box would set the figures more than the code.
- general-deep: gdp2 classes drawn without replacement from [-9, 9]^3,
  where transforms take up to 9 steps and ``certify_vanishing`` runs the
  nef-and-big shift test rather than a regime shortcut.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import traceback
from types import SimpleNamespace

from surfcoh import (
    DivisorClass,
    ToricSurface,
    del_pezzo_h0,
    is_effective,
    oracle_h0,
    serre_dual,
)

NAMES = ("dp-sample", "toric-scan", "general-deep")

# Classes per dP_k in a dp-sample part: the acceptance sample sizes divided
# by 2.75, 1000 in all, so that ten latency samples per part lie beyond p99.
DP_SAMPLE_COUNTS = {4: 364, 5: 290, 6: 182, 7: 110, 8: 54}
DP_SAMPLE_PARTS = 2
DP_BOX = (-6, 6)
SCAN_WIDTH = 5
SCAN_OFFSETS = (-5, -4, -3, -2)
GENERAL_BOX = (-9, 9)
GENERAL_CLASSES = 4000

# gdp2 (rank 3, with the (-2)-curve E1 - E2) as a toric surface, for checking
# h0 and h2 on general-deep independently of the transform.
GDP2_TORIC = dict(
    name="gdp2",
    rays=((1, 0), (2, 1), (1, 1), (0, 1), (-1, -1)),
    class_map=((1, 0, 0, 1, 1), (-1, 0, 1, -1, 0), (-1, 1, -1, 0, 0)),
    lift_map=((0, 0, 0), (0, 1, 1), (0, 1, 0), (0, 0, 0), (1, 0, 0)),
)

# Repeat passes per round; run.py takes each class's median over them and
# over rounds. dp-sample makes two or three rounds per part, so it needs four
# copies for a steady repeat figure. A toric-scan repeat pass costs ~40% of
# its first pass (the oracle has no cache), and the first-pass latencies
# gain more from the rounds that a second, third and fourth would displace.
REPEAT_PASSES = {"dp-sample": 4, "toric-scan": 1, "general-deep": 4}


def plain_api() -> SimpleNamespace:
    """The untraced entry points users call."""
    return SimpleNamespace(
        cohomology=sys.modules["surfcoh.cohomology"].cohomology,
        main=sys.modules["surfcoh.cli"].main,
    )


def _mori_combination(surface, rng: random.Random, terms: int) -> DivisorClass:
    gens = surface.mori_generators
    d = DivisorClass.zero(surface.rank)
    for _ in range(terms):
        d = d + rng.randint(1, 3) * gens[rng.randrange(len(gens))]
    return d


def _dp_sample_part(surfaces: list, rng: random.Random) -> list:
    items = []
    for surface in surfaces:
        half = DP_SAMPLE_COUNTS[surface.rank - 1] // 2
        seen: set[tuple[int, ...]] = set()
        draws = 0
        for from_box in (False, True):
            target = len(seen) + half
            while len(seen) < target:
                if from_box:
                    d = DivisorClass(rng.randint(*DP_BOX) for _ in range(surface.rank))
                else:
                    # 1 to 4 terms in turn: the term count sets much of a
                    # dP8 class's cost, so drawing it would add seed noise.
                    draws += 1
                    d = _mori_combination(surface, rng, draws % 4 + 1)
                if d.coefficients not in seen:
                    seen.add(d.coefficients)
                    items.append((surface, d))
    rng.shuffle(items)
    return items


def make_inputs(workload: str, surfaces: list, seed: int) -> list:
    """The run's parts: each a list of (surface, class) pairs, or a scan box."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dp-sample":
        return [_dp_sample_part(surfaces, rng) for _ in range(DP_SAMPLE_PARTS)]
    if workload == "toric-scan":
        first = rng.randrange(len(SCAN_OFFSETS))
        offsets = SCAN_OFFSETS[first:] + SCAN_OFFSETS[:first]
        return [(lo, lo + SCAN_WIDTH) for lo in offsets]
    if workload == "general-deep":
        lo, hi = GENERAL_BOX
        box = list(itertools.product(range(lo, hi + 1), repeat=3))
        (surface,) = surfaces
        return [[(surface, DivisorClass(c)) for c in rng.sample(box, GENERAL_CLASSES)]]
    raise ValueError(f"unknown workload {workload!r}")


def _cohomology_pass(api, items, clock) -> dict:
    cohomology = api.cohomology
    marks, ends, results, errors = [], [], [], []
    clock.calibrate()
    start = clock.now()
    for surface, d in items:
        clock.tick()
        t = clock.now()
        marks.append(t)
        try:
            r = cohomology(surface, d)
            out = (r.h0, r.h1, r.h2, r.chi)
        except Exception:  # a failed class is counted, the run goes on
            out = None
            errors.append(traceback.format_exc())
        ends.append(clock.now())
        results.append(out)
    end = clock.now()
    clock.calibrate()
    return {"wall": end - start, "segments": _segments(clock, start, marks, end),
            "latencies": _latencies(clock, marks, ends), "results": results, "errors": errors}


def _scan_pass(api, box: tuple[int, int], clock) -> dict:
    """One in-process ``surfcoh scan`` with each ``cohomology`` call timed.

    The timing hook is the only patch in an untraced run: a clock tick,
    two clock reads and three appends per class, well under 1% of a
    class's cost.
    """
    cli = sys.modules["surfcoh.cli"]
    inner = cli.cohomology
    marks, ends, results = [], [], []

    def timed_cohomology(surface, d, **kwargs):
        clock.tick()
        t = clock.now()
        marks.append(t)
        r = inner(surface, d, **kwargs)
        ends.append(clock.now())
        results.append((r.h0, r.h1, r.h2, r.chi))
        return r

    argv = ["scan", "--surface", "dp3", "--box", f"{box[0]}..{box[1]}", "--format", "json"]
    out = io.StringIO()
    errors = []
    cli.cohomology = timed_cohomology
    try:
        clock.calibrate()
        start = clock.now()
        try:
            with contextlib.redirect_stdout(out):
                code = api.main(argv)
        except Exception:  # counted as a failed round
            code = None
            errors.append(traceback.format_exc())
        end = clock.now()
        clock.calibrate()
    finally:
        cli.cohomology = inner
    payload = json.loads(out.getvalue()) if code is not None and out.getvalue() else {}
    return {"wall": end - start, "segments": _segments(clock, start, marks, end),
            "latencies": _latencies(clock, marks, ends), "results": results, "errors": errors,
            "code": code, "payload": payload}


def _segments(clock, start: float, marks: list[float], end: float) -> list[float]:
    """Pass time split at the start of each class: lead-in, one slot per class,
    tail; each at reference host speed.

    Rounds repeat the same inputs in the same order, so segment i of every
    round is the same work and ``run.py`` can take its median copy.
    """
    points = [start, *marks, end]
    return [clock.scaled(a, b) for a, b in zip(points, points[1:])]


def _latencies(clock, marks: list[float], ends: list[float]) -> list[float]:
    """Each class's cohomology call time at reference host speed."""
    return [clock.scaled(a, b) for a, b in zip(marks, ends)]


def run_passes(workload: str, api, inputs, clock) -> list[dict]:
    """The timed region of a round: the first pass, then the repeat passes,
    timed on ``clock`` (a ``hostclock.HostClock``)."""
    one = _scan_pass if workload == "toric-scan" else _cohomology_pass
    return [one(api, inputs, clock) for _ in range(1 + REPEAT_PASSES[workload])]


def classes_of(workload: str, inputs) -> int:
    if workload == "toric-scan":
        return (inputs[1] - inputs[0] + 1) ** 4
    return len(inputs)


def _outputs(one_pass: dict) -> tuple:
    return one_pass["results"], one_pass.get("code"), one_pass.get("payload")


def digest(passes: list[dict]) -> str:
    """Fingerprint of every pass's (h0, h1, h2, chi) and scan report."""
    return hashlib.sha256(repr([_outputs(p) for p in passes]).encode()).hexdigest()


def _index_identity_holds(r) -> bool:
    h0, h1, h2, chi = r
    return None not in (h0, h1, h2) and h1 >= 0 and h0 - h1 + h2 == chi


def _del_pezzo_h0_or_zero(surface, d) -> int:
    return del_pezzo_h0(surface, d) if is_effective(surface, d) else 0


def count_failures(workload: str, inputs, passes: list[dict]) -> int:
    """Classes whose output is missing or wrong in some pass; outside the timed region."""
    n = classes_of(workload, inputs)
    first, again = passes[0], passes[1]
    if any(_outputs(p) != _outputs(again) for p in passes[2:]):
        return n
    if workload == "toric-scan":
        return _scan_failures(inputs, first, again)
    if workload == "dp-sample":
        def wrong(surface, d, r):
            return not (
                _index_identity_holds(r)
                and r[0] == _del_pezzo_h0_or_zero(surface, d)
                and r[2] == _del_pezzo_h0_or_zero(surface, serre_dual(surface, d))
            )
    else:
        toric = ToricSurface(**GDP2_TORIC)

        def wrong(surface, d, r):
            h0, h1, h2, _ = r
            return (
                (h0 is not None and h0 != oracle_h0(toric, d))
                or (h2 is not None and h2 != oracle_h0(toric, serre_dual(surface, d)))
                or (None not in (h0, h1, h2) and not _index_identity_holds(r))
            )
    if len(first["results"]) != n or len(again["results"]) != n:
        return n
    failed = 0
    for (surface, d), r, r_again in zip(inputs, first["results"], again["results"]):
        try:
            failed += r is None or r != r_again or wrong(surface, d, r)
        except Exception:  # a check that cannot run counts against the class
            failed += 1
    return failed


def _scan_failures(box: tuple[int, int], first: dict, again: dict) -> int:
    """Scan's own mismatch count, plus classes breaking h0 - h1 + h2 = chi."""
    n = classes_of("toric-scan", box)
    for scan in (first, again):
        payload = scan["payload"]
        if (
            scan["code"] not in (0, 1)
            or payload.get("classes") != n
            or scan["code"] != (1 if payload.get("mismatches") else 0)
            or len(scan["results"]) != n
        ):
            return n
    mismatched = {
        tuple(m["class"])
        for scan in (first, again)
        for m in scan["payload"]["mismatch_details"]
    }
    lo, hi = box
    classes = itertools.product(range(lo, hi + 1), repeat=4)
    return sum(
        c in mismatched or r != r_again or not _index_identity_holds(r)
        for c, r, r_again in zip(classes, first["results"], again["results"])
    )
