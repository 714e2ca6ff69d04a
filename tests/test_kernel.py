"""The per-surface integer kernel behind the transform and the nef test.

The reference functions below are the transform as it was written before
the kernel: every intersection through ``intersect``, effectiveness through
a cone built on the spot, the final nef test against every Mori generator.
The library must give the same answers and the same traces on every input.

On surfaces with more negative curves than coordinates the kernel scans
packed 64-bit fields up to a coefficient limit and vector by vector past
it; ``TestPackedScan`` checks the two scans against each other at and
around that limit.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from fractions import Fraction

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    SAMPLED_DEL_PEZZO,
    del_pezzo_acceptance_sample,
    fan_surface,
    gdp2_surface,
    sampled_box_classes,
    sampled_effective_classes,
    seeded_blow_ups,
)
from surfcoh import (
    Cone,
    ConsistencyError,
    DivisorClass,
    NotEffectiveError,
    NotNefError,
    Regime,
    SurfaceModel,
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
from surfcoh import cones, transform

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


class NoLimitError(RuntimeError):
    """The reference transform passed its step cap."""


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
            raise NoLimitError(f"no limit within {max_iterations} steps")
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
    except (ConsistencyError, NoLimitError) as exc:
        return type(exc)


def _library_iterate(surface, d):
    trace = iterate_to_nef(surface, d)
    steps = [(step.fixed_part.terms, step.result) for step in trace.steps]
    return steps, trace.limit


def disagreements(surface, d, effective=None) -> list[str]:
    """Every answer on which the library and the reference differ for d.

    ``effective`` is the reference's effectiveness of d when the caller
    has already decided it.
    """
    found = []
    if is_nef(surface, d) != reference_is_nef(surface, d):
        found.append("is_nef")
    if effective is None:
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

    @pytest.mark.parametrize("k", sorted(SAMPLED_DEL_PEZZO))
    def test_acceptance_sample_and_its_multiples(self, k):
        # The whole acceptance sample, and each class times 10**20: the
        # first is scanned packed, the second is past the packing limit.
        # Cone membership is invariant under positive scaling, so the
        # reference decides it once per class, on one cone.
        surface = make_del_pezzo(k)
        assert transform._kernel(surface).packed_curves is not None
        cone = Cone(surface.effective_generators)
        mori, box = del_pezzo_acceptance_sample(k)
        bad = []
        for d in mori + box:
            effective = cone_contains(cone, d)
            for scaled in (d, 10**20 * d):
                found = disagreements(surface, scaled, effective)
                if found:
                    bad.append((scaled, found))
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


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


class ZariskiReference:
    """Negative parts of Zariski decompositions on one surface, in Fractions.

    Bauer's algorithm ("A simple proof for the existence of Zariski
    decompositions on surfaces") over the surface's negative curves, with
    their Gram matrix built once: N_1 is supported on the curves that D
    meets negatively, N_(k+1) on those of N_k and the curves that
    D - N_k meets negatively, each N_k the combination with
    (D - N_k)·C = 0 on its support; D - N is nef on every listed curve.
    """

    def __init__(self, surface):
        self.curves = [c.coefficients for c in surface.negative_curves]
        self.duals = [surface.form.dual(c) for c in surface.negative_curves]
        self.gram = [[_dot(u, c) for c in self.curves] for u in self.duals]

    def negative_part(self, d) -> list[Fraction]:
        """N as its coefficient on each listed curve."""
        meets = [_dot(u, d) for u in self.duals]
        n = [Fraction(0)] * len(self.curves)
        support: list[int] = []
        while True:
            # (D - N)·C_i for every curve.
            residue = [
                meets[i] - sum(n[j] * self.gram[j][i] for j in support)
                for i in range(len(self.curves))
            ]
            new = [i for i, r in enumerate(residue) if r < 0]
            if not new:
                return n
            support += new
            solution = _solve(
                [[self.gram[i][j] for j in support] for i in support],
                [meets[i] for i in support],
            )
            for i, x in zip(support, solution):
                n[i] = x

    def strip_one_at_a_time(self, d, rng) -> list[int]:
        """The fixed part, taking one negatively met curve per step in random order."""
        current = list(d)
        total = [0] * len(self.curves)
        while True:
            met = [i for i, u in enumerate(self.duals) if _dot(u, current) < 0]
            if not met:
                return total
            i = rng.choice(met)
            product, minus_square = _dot(self.duals[i], current), -self.gram[i][i]
            multiplicity = -(product // minus_square)
            current = [x - multiplicity * c for x, c in zip(current, self.curves[i])]
            total[i] += multiplicity


def _solve(matrix, rhs) -> list[Fraction]:
    """x with matrix·x = rhs, by Gauss-Jordan elimination over Fractions."""
    n = len(rhs)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def _fixed_part_against_zariski(surface, classes, seed) -> int:
    """Checks F against ceil(N) for every class of ``classes`` with a
    section, F the sum of the fixed parts of its trace; returns the number
    of classes with F > ceil(N)."""
    reference = ZariskiReference(surface)
    index = {c: i for i, c in enumerate(reference.curves)}
    rng = random.Random(seed)
    above = 0
    for d in classes:
        try:
            trace = iterate_to_nef(surface, d)
        except NotEffectiveError:
            continue
        fixed = [0] * len(reference.curves)
        for step in trace.steps:
            for curve, multiplicity in step.fixed_part.terms:
                fixed[index[curve.coefficients]] += multiplicity
        ceiling = [math.ceil(x) for x in reference.negative_part(d.coefficients)]
        assert all(map(operator.ge, fixed, ceiling)), (surface.name, d, fixed, ceiling)
        above += fixed != ceiling
        assert reference.strip_one_at_a_time(d.coefficients, rng) == fixed, (surface.name, d)
    return above


class TestFixedPartAgainstZariski:
    """The total fixed part F of a trace against D = P + N, Zariski's
    decomposition. D - F is nef and F is supported on negative curves, so
    F >= ceil(N) coefficientwise; F is the least such integral divisor, so
    stripping one curve at a time in any order gives the same F."""

    @pytest.mark.parametrize(
        "surface, lo, hi",
        [
            pytest.param(surface, lo, hi, id=surface.name)
            for surface, lo, hi in [(gdp2_surface(), -9, 9)]
            + [(make_hirzebruch(n), -9, 9) for n in (2, 3, 4)]
            + [(make_del_pezzo(3), -5, 3)]
        ],
    )
    def test_catalog_boxes(self, surface, lo, hi):
        classes = [D(c) for c in itertools.product(range(lo, hi + 1), repeat=surface.rank)]
        # On catalog surfaces the strip ends exactly at ceil(N).
        assert _fixed_part_against_zariski(surface, classes, f"zariski:{surface.name}") == 0

    def test_seeded_blow_ups(self):
        above = 0
        for toric, classes in seeded_blow_ups():
            surface = fan_surface(toric, Regime.TORIC_CONVEX_FAN)
            above += _fixed_part_against_zariski(surface, classes, f"zariski:{toric.rays}")
        # D - ceil(N) need not be nef there, so the check is not vacuous.
        assert above > 0


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
        surface = load_surface(data)
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
        replaced = SurfaceModel(
            used.name,
            used.rank,
            used.form,
            used.canonical_class,
            used.chi_structure_sheaf,
            (),
            used.mori_generators,
            used.effective_generators,
            used.regime,
            used.basis_labels,
        )
        assert transform._kernel(replaced) is not transform._kernel(used)
        with pytest.raises(ConsistencyError):
            iterate_to_nef(replaced, D([1, 1]))
        assert iterate_to_nef(used, D([1, 1])).limit == D([0, 1])


def _scans(vectors, minus_squares, rank):
    """Kernel views over the same vectors: (packed, per-vector loop).

    Each view is also a stand-in surface for ``is_nef``, which reads a
    surface's rank, name and kept kernel only.
    """
    curves = tuple(
        (D(v), v, minus_square) for v, minus_square in zip(vectors, minus_squares)
    )
    packed = cones._Packed(vectors, rank)
    views = []
    for name, kept in (("packed", packed), ("loop", None)):
        view = SimpleNamespace(
            rank=rank, name=name, curves=curves, other_mori_duals=(), packed_curves=kept,
        )
        view._kernel = view
        views.append(view)
    return tuple(views)


def _boundary_class(draw, vectors, rank, limit):
    """A class at max|d| = limit - 1, limit or ~10**30."""
    size = draw(st.sampled_from((limit - 1, limit, 10**30 + draw(st.integers(0, 10**6)))))
    sign = draw(st.sampled_from((1, -1)))
    longest = max(vectors, key=lambda v: sum(map(abs, v)), default=(0,) * rank)
    # Signed like the longest vector, the product with it is near ±limit·norm.
    coeffs = [
        sign * size * (1 if x > 0 else -1 if x < 0 else draw(st.sampled_from((1, -1, 0))))
        for x in longest
    ]
    for j in draw(st.lists(st.integers(0, rank - 1), max_size=rank)):
        coeffs[j] = draw(st.integers(-size, size))
    if not any(abs(x) == size for x in coeffs):
        coeffs[0] = size
    return tuple(coeffs)


@st.composite
def _packed_cases(draw):
    """Vector sets with repeats, and classes small, at and past the limit."""
    rank = draw(st.integers(1, 10))
    bound = draw(st.sampled_from((1, 3, 40, 10**6)))
    vector = st.lists(st.integers(-bound, bound), min_size=rank, max_size=rank).map(tuple)
    count = draw(st.sampled_from((0, 1, 2, 5, 40, 300)))
    base = draw(st.lists(vector, min_size=min(count, 1), max_size=max(1, min(count // 2, 30))))
    vectors = tuple(draw(st.sampled_from(base)) for _ in range(count)) if base else ()
    minus_squares = [draw(st.integers(1, 4)) for _ in vectors]
    limit = cones._Packed(vectors, rank).limit
    small = st.lists(st.integers(-6, 6), min_size=rank, max_size=rank).map(tuple)
    classes = [draw(small) for _ in range(3)]
    classes += [_boundary_class(draw, vectors, rank, limit) for _ in range(4)]
    return vectors, minus_squares, rank, classes


class TestPackedScan:
    @given(_packed_cases())
    def test_matches_per_vector_loop(self, case):
        vectors, minus_squares, rank, classes = case
        packed, loop = _scans(vectors, minus_squares, rank)
        limit = packed.packed_curves.limit
        for coeffs in classes:
            within = max(map(abs, coeffs)) < limit
            assert (packed.packed_curves.total(coeffs) is not None) == within
            terms = transform._fixed_part(packed, coeffs)
            assert terms == transform._fixed_part(loop, coeffs)
            nef = not any(sum(map(operator.mul, v, coeffs)) < 0 for v in vectors)
            assert is_nef(packed, D(coeffs)) == is_nef(loop, D(coeffs)) == nef

    def test_fields_at_the_limit_are_exact(self):
        # |D·v| = (limit - 1)·norm, the largest product the fields must hold.
        vectors = ((3, -5), (-3, 5), (1, 1), (0, 0))
        packed, loop = _scans(vectors, (1, 2, 3, 1), 2)
        limit = packed.packed_curves.limit
        assert (limit - 1) * 8 < 2**63 <= limit * 8
        for d in ((limit - 1, -(limit - 1)), (-(limit - 1), limit - 1), (limit, -limit)):
            fields = transform._fixed_part(packed, d)
            assert fields == transform._fixed_part(loop, d)
            assert len(fields) == 1

    @pytest.mark.parametrize("k", range(9))
    def test_del_pezzo_packs_exactly_when_curves_outnumber_coordinates(self, k):
        surface = make_del_pezzo(k)
        kernel = transform._kernel(surface)
        packed = len(surface.negative_curves) > surface.rank
        assert (kernel.packed_curves is not None) == packed

    @pytest.mark.parametrize("surface", [make_del_pezzo(0), make_hirzebruch(0)], ids=["dp0", "f0"])
    @given(data=st.data())
    def test_surfaces_without_negative_curves(self, surface, data):
        kernel = transform._kernel(surface)
        assert kernel.curves == () and kernel.packed_curves is None
        size = data.draw(st.sampled_from((1, 6, 2**62, 10**30)))
        coeffs = tuple(
            data.draw(st.integers(-size, size)) for _ in range(surface.rank)
        )
        assert transform._fixed_part(kernel, coeffs) == []
        assert is_nef(surface, D(coeffs)) == reference_is_nef(surface, D(coeffs))
