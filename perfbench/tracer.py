"""Outside-in layer tracing for surfcoh.

The library is not edited. ``LayerTrace.install`` replaces each public
function in the module namespace where its caller looked it up (``from .x
import y`` binds a private copy in every importing module, so each copy is
patched), wraps ``IntersectionForm.pairing`` on the class, and
``uninstall`` puts every original back.

A span is one call across a layer boundary. Each span's duration is added
to its parent's child time, so a layer's self time is its spans' duration
minus the part covered by child spans. Pairings are too many for a span
each (~370k per dp-sample round); their count and time are added to the
enclosing span instead.
"""

from __future__ import annotations

import functools
import sys
import time
from types import SimpleNamespace

_clock = time.perf_counter


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class LayerTrace:
    """Span and counter aggregation for one process; see ``summary``.

    ``clock`` is the benchmark's ``hostclock.HostClock``; the span around
    ``cli.main`` reads it, because the scan pass calibrates inside that call.
    """

    def __init__(self, clock) -> None:
        self._host_clock = clock
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self.spans: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.outer_s: dict[str, float] = {}  # layer -> time in spans not nested in the same layer
        self.pairings: dict[str, list] = {}  # enclosing span -> [calls, seconds]
        self.decision_ms: list[float] = []
        self._distinct: set[tuple[int, tuple[int, ...]]] = set()
        self._cone_index: dict[int, tuple[object, int]] = {}
        self._generator_sets: dict[tuple, int] = {}
        self.effective_true = 0
        self.steps = 0
        self.steps_max = 0
        self.rules: dict[str, int] = {}
        self.unknown = 0
        self.points = 0
        self.negative_curves = 0

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, observe=None, clock=_clock):
        """Return ``fn`` wrapped in a span called ``name``.

        ``observe(args, result, seconds)`` runs after the span closes, so its
        cost is charged to the caller, not to the layer. A span that the
        benchmark may calibrate the host inside takes ``clock=HostClock.now``,
        which stops while it does.
        """
        layer = _layer(name)
        stack = self._stack
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        outer = self.outer_s
        outer.setdefault(layer, 0.0)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    if _layer(parent[0]) != layer:
                        outer[layer] += duration
                else:
                    outer[layer] += duration
            if observe is not None:
                observe(args, result, duration)
            return result

        return functools.update_wrapper(traced, fn)

    def _traced_pairing(self, original):
        stack = self._stack
        pairings = self.pairings

        def pairing(form, d, e):
            start = _clock()
            result = original(form, d, e)
            duration = _clock() - start
            if stack:
                top = stack[-1]
                top[1] += duration
                key = top[0]
            else:
                key = "-"
            tally = pairings.get(key)
            if tally is None:
                tally = pairings[key] = [0, 0.0]
            tally[0] += 1
            tally[1] += duration
            return result

        return functools.update_wrapper(pairing, original)

    # -- observers -----------------------------------------------------------

    def _on_decision(self, args, result, seconds) -> None:
        self.decision_ms.append(seconds * 1e3)
        cone, d = args[0], args[1]
        entry = self._cone_index.get(id(cone))
        if entry is None:
            # Holding the cone keeps its id from being reused by another object.
            index = self._generator_sets.setdefault(cone.generators, len(self._generator_sets))
            entry = self._cone_index[id(cone)] = (cone, index)
        self._distinct.add((entry[1], d.coefficients))

    def _on_effective(self, args, result, seconds) -> None:
        if result:
            self.effective_true += 1

    def _on_transform(self, args, result, seconds) -> None:
        self.steps += result.step_count
        self.steps_max = max(self.steps_max, result.step_count)

    def _on_certificate(self, args, result, seconds) -> None:
        rule = result.rule.value
        self.rules[rule] = self.rules.get(rule, 0) + 1

    def _on_cohomology(self, args, result, seconds) -> None:
        if result.h0 is None or result.h1 is None or result.h2 is None:
            self.unknown += 1

    def _on_oracle(self, args, result, seconds) -> None:
        self.points += result

    def _on_catalog(self, args, result, seconds) -> None:
        nested = self._stack and _layer(self._stack[-1][0]) == "catalog"
        if not nested and hasattr(result, "negative_curves"):
            self.negative_curves += len(result.negative_curves)

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> SimpleNamespace:
        """Patch surfcoh and return traced entry points ``cohomology`` and ``main``.

        ``surfcoh.cli`` must already be imported. ``surfcoh.cohomology`` is
        the function (the package re-exports it over the submodule name), so
        modules are taken from ``sys.modules``.
        """
        if self._patches:
            raise RuntimeError("trace is already installed")
        m = sys.modules
        lattice, cones_mod = m["surfcoh.lattice"], m["surfcoh.cones"]
        catalog, transform = m["surfcoh.catalog"], m["surfcoh.transform"]
        cohomology, toric, cli = m["surfcoh.cohomology"], m["surfcoh.toric"], m["surfcoh.cli"]

        self._patch(
            lattice.IntersectionForm,
            "pairing",
            self._traced_pairing(lattice.IntersectionForm.pairing),
        )
        self._patch(
            transform,
            "cone_contains",
            self.span("cones.cone_contains", cones_mod.cone_contains, self._on_decision),
        )
        is_effective = self.span(
            "transform.is_effective", transform.is_effective, self._on_effective
        )
        is_nef = self.span("transform.is_nef", transform.is_nef)
        iterate = self.span(
            "transform.iterate_to_nef", transform.iterate_to_nef, self._on_transform
        )
        for module in (transform, cohomology, cli):
            self._patch(module, "is_effective", is_effective)
        for module in (transform, cohomology):
            self._patch(module, "is_nef", is_nef)
        for module in (cohomology, cli):
            self._patch(module, "iterate_to_nef", iterate)
        self._patch(
            cohomology,
            "certify_vanishing",
            self.span(
                "cohomology.certify_vanishing",
                cohomology.certify_vanishing,
                self._on_certificate,
            ),
        )
        traced_cohomology = self.span(
            "cohomology.cohomology", cohomology.cohomology, self._on_cohomology
        )
        self._patch(cli, "cohomology", traced_cohomology)
        self._patch(
            cli, "oracle_h0", self.span("toric.oracle_h0", toric.oracle_h0, self._on_oracle)
        )
        for owner, attr in (
            (catalog, "enumerate_minus_one_curves"),
            (catalog, "make_del_pezzo"),
            (catalog, "load_surface"),
            (catalog, "catalog_surface"),
            (toric, "make_del_pezzo"),
            (cli, "catalog_surface"),
            (cli, "load_surface"),
        ):
            original = getattr(owner, attr)
            self._patch(
                owner, attr, self.span(f"catalog.{original.__name__}", original, self._on_catalog)
            )
        main = self.span("cli.main", cli.main, clock=self._host_clock.now)
        return SimpleNamespace(cohomology=traced_cohomology, main=main)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def _self_s(self, layer: str) -> float:
        return sum(s[2] for name, s in self.spans.items() if _layer(name) == layer)

    def _calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def summary(self) -> dict:
        """Raw per-layer totals for one process; ``run.py`` sums them over rounds."""
        return {
            "cones.decisions": self._calls("cones.cone_contains"),
            "cones.distinct": len(self._distinct),
            "cones.busy_s": self.outer_s.get("cones", 0.0),
            "cones.decision_ms": self.decision_ms,
            "lattice.pairings": sum(t[0] for t in self.pairings.values()),
            "lattice.pairing_s": sum(t[1] for t in self.pairings.values()),
            "lattice.pairings_by_span": {k: t[0] for k, t in self.pairings.items()},
            "transform.is_effective_calls": self._calls("transform.is_effective"),
            "transform.effective_true": self.effective_true,
            "transform.iterate_calls": self._calls("transform.iterate_to_nef"),
            "transform.steps": self.steps,
            "transform.steps_max": self.steps_max,
            "transform.self_s": self._self_s("transform"),
            "cohomology.calls": self._calls("cohomology.cohomology"),
            "cohomology.self_s": self._self_s("cohomology"),
            "cohomology.certify_calls": self._calls("cohomology.certify_vanishing"),
            "cohomology.certify_s": self.spans.get("cohomology.certify_vanishing", [0, 0.0])[1],
            "cohomology.rule_kawamata_viehweg": self.rules.get("kawamata_viehweg", 0),
            "cohomology.rule_demazure": self.rules.get("demazure", 0),
            "cohomology.rule_none": self.rules.get("none", 0),
            "cohomology.unknown": self.unknown,
            "toric.oracle_calls": self._calls("toric.oracle_h0"),
            "toric.oracle_s": self.outer_s.get("toric", 0.0),
            "toric.points": self.points,
            "catalog.build_s": self.outer_s.get("catalog", 0.0),
            "catalog.negative_curves": self.negative_curves,
            "cli.scan_s": self._self_s("cli"),
        }
