"""The per-surface integer kernel behind the transform and the nef test.

The reference functions below are the transform as it was written before
the kernel: every intersection through ``intersect``, effectiveness through
a cone built on the spot, the final nef test against every Mori generator.
The library must give the same answers and the same traces on every input.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from conftest import gdp2_surface, sampled_box_classes, sampled_effective_classes
from surfcoh import (
    Cone,
    ConsistencyError,
    DivisorClass,
    NonAbutmentError,
    NotNefError,
    SurfaceSpec,
    certify_vanishing,
    cone_contains,
    fixture_path,
    intersect,
    is_effective,
    is_nef,
    isoparametric_step,
    iterate_to_nef,
    load_surface,
    make_del_pezzo,
    make_hirzebruch,
)
from surfcoh import transform

D = DivisorClass


def reference_is_nef(surface, d) -> bool:
    return all(intersect(surface, d, g) >= 0 for g in surface.mori_generators)


def reference_is_effective(surface, d) -> bool:
    return cone_contains(Cone(surface.effective_generators), d)


def reference_fixed_part(surface, d) -> tuple:
    terms = []
    for curve in surface.negative_curves:
        product = intersect(surface, d, curve)
        if product < 0:
            self_int = intersect(surface, curve, curve)
            terms.append((curve, (-product + (-self_int) - 1) // (-self_int)))
    return tuple(terms)


def reference_iterate(surface, d, max_iterations: int = 1000):
    """(steps as (terms, result) pairs, limit) for an effective class."""
    steps = []
    current = d
    while True:
        terms = reference_fixed_part(surface, current)
        if not terms:
            if not reference_is_nef(surface, current):
                raise ConsistencyError(f"{current} is not nef")
            return steps, current
        if len(steps) >= max_iterations:
            raise NonAbutmentError(f"no limit within {max_iterations} steps")
        for curve, multiplicity in terms:
            current = current - multiplicity * curve
        steps.append((terms, current))


def reference_step(surface, d):
    terms = reference_fixed_part(surface, d)
    result = d
    for curve, multiplicity in terms:
        result = result - multiplicity * curve
    return result, transform.FixedPart(terms)


def _outcome(fn, *args):
    """The value, or the exception type, so that raising paths compare too."""
    try:
        return fn(*args)
    except (ConsistencyError, NonAbutmentError) as exc:
        return type(exc)


def _library_iterate(surface, d):
    trace = iterate_to_nef(surface, d)
    steps = [(step.fixed_part.terms, step.result) for step in trace.steps]
    return steps, trace.limit


def disagreements(surface, d) -> list[str]:
    """Every answer on which the library and the reference differ for d."""
    found = []
    if is_nef(surface, d) != reference_is_nef(surface, d):
        found.append("is_nef")
    effective = reference_is_effective(surface, d)
    if is_effective(surface, d) != effective:
        found.append("is_effective")
    elif effective:
        if isoparametric_step(surface, d) != reference_step(surface, d):
            found.append("isoparametric_step")
        if _outcome(_library_iterate, surface, d) != _outcome(reference_iterate, surface, d):
            found.append("iterate_to_nef")
    return found


BOX_SURFACES = (
    [make_del_pezzo(k) for k in (1, 2, 3)]
    + [make_hirzebruch(n) for n in range(5)]
    + [gdp2_surface()]
)

# Seeded dP4..dP8 classes: Mori combinations and box classes, half each.
SAMPLED = {4: 120, 5: 60, 6: 30, 7: 16, 8: 8}


def sampled_cases():
    for k, count in SAMPLED.items():
        surface = make_del_pezzo(k)
        effective = sampled_effective_classes(surface, count // 2, f"kernel-eff-{k}")
        box = sampled_box_classes(surface.rank, count // 2, f"kernel-box-{k}")
        for d in effective + box:
            yield surface, d


class TestAgainstReference:
    @pytest.mark.parametrize("surface", BOX_SURFACES, ids=lambda s: s.name)
    def test_box(self, surface):
        bad = []
        for coeffs in itertools.product(range(-4, 5), repeat=surface.rank):
            found = disagreements(surface, D(coeffs))
            if found:
                bad.append((coeffs, found))
        assert bad == []

    def test_sampled_del_pezzo(self):
        bad = [(s.name, d) for s, d in sampled_cases() if disagreements(s, d)]
        assert bad == []

    def test_deep_gdp2_traces(self):
        # Multi-step transforms from [-9, 9]^3, where steps reach 9.
        surface = gdp2_surface()
        deepest = 0
        for d in sampled_box_classes(3, 400, "kernel-gdp2", -9, 9):
            assert disagreements(surface, d) == []
            if reference_is_effective(surface, d):
                deepest = max(deepest, len(reference_iterate(surface, d)[0]))
        assert deepest >= 5


class TestMoriGeneratorsBeyondCurves:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hirzebruch_class_negative_only_on_fibre(self, n):
        # D = -C0 meets C0 in n > 0 but the fibre in -1: only the fibre, a
        # Mori generator that is no negative curve, shows that D is not nef.
        surface = make_hirzebruch(n)
        d = D([-1, 0])
        assert intersect(surface, d, surface.negative_curves[0]) >= 0
        assert intersect(surface, d, D([0, 1])) < 0
        assert not is_nef(surface, d)
        assert not reference_is_nef(surface, d)
        with pytest.raises(NotNefError):
            certify_vanishing(surface, d)

    def test_spec_with_omitted_curve_is_caught(self):
        # gdp2 without its (-2)-curve E1 - E2 in the curve list: the curve is
        # still a Mori generator, so the limit check must fail loudly.
        data = json.loads(fixture_path("gdp2").read_text())
        data["negative_curves"].remove([0, 1, -1])
        surface = load_surface(SurfaceSpec.from_dict(data))
        d = D([0, 1, -1])
        assert is_effective(surface, d)
        with pytest.raises(ConsistencyError):
            reference_iterate(surface, d)
        with pytest.raises(ConsistencyError):
            iterate_to_nef(surface, d)


class TestKeptOnSurface:
    def test_replaced_surface_gets_its_own_kernel(self):
        used = make_hirzebruch(3)
        assert iterate_to_nef(used, D([1, 1])).limit == D([0, 1])
        # The same surface with C0 dropped from the curve list: it must not
        # inherit the kernel built for the complete list.
        replaced = dataclasses.replace(used, negative_curves=())
        assert transform._kernel(replaced) is not transform._kernel(used)
        with pytest.raises(ConsistencyError):
            iterate_to_nef(replaced, D([1, 1]))
        assert iterate_to_nef(used, D([1, 1])).limit == D([0, 1])
