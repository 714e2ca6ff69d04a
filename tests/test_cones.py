"""The integer-pivoting simplex behind cone membership, against two references.

``reference_decision`` is the same phase-1 simplex written over
``Fraction``: the same pivot rules (only generator columns enter, by
Dantzig's rule, then Bland's once the objective stalls; ratio ties to an
artificial row, then to the lower basis index), but every entry an exact
rational. The library's fraction-free simplex must reach the same decision
on every input, and every certificate it hands out (a separating vector
for a non-member, a member witness for a member) must be exact.

``dense_phase1`` is the same fraction-free simplex over the whole dense
tableau, which rewrites every generator column on every pivot. The
library's revised simplex must return exactly its separator and witness,
which pins the pivot sequence, with the generators priced packed or one by
one.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import gdp2_surface, sampled_box_classes, sampled_effective_classes
from surfcoh import (
    Cone,
    DivisorClass,
    fixture_path,
    list_fixtures,
    load_surface,
    make_del_pezzo,
    make_hirzebruch,
    read_spec,
)
from surfcoh import cones, transform


def simplex(generators, target) -> bool:
    """Exact feasibility of  sum_i x_i * g_i = target,  x_i >= 0."""
    return cones._phase1(generators, target)[0] is None


def reference_decision(
    generators: tuple[tuple[int, ...], ...],
    target: tuple[int, ...],
    stall_factor: int = 2,
) -> tuple[bool, bool, bool | None]:
    """(feasible, Bland's rule reached, feasible under an early switch) over exact rationals.

    The last entry is the decision of a run that switches to Bland's rule at
    the first stalled pivot, as ``stall_factor=0`` does. Up to that pivot
    such a run makes this run's pivots, so it continues from a copy of the
    tableau there; it is None when no pivot stalls.
    """
    n = len(target)
    m = len(generators)
    if m == 0:
        return all(t == 0 for t in target), False, None

    zero = Fraction(0)
    one = Fraction(1)
    ncols = m + n
    tableau: list[list[Fraction]] = []
    for j in range(n):
        sign = -1 if target[j] < 0 else 1
        row = [Fraction(sign * g[j]) for g in generators]
        row.extend(one if k == j else zero for k in range(n))
        row.append(Fraction(sign * target[j]))
        tableau.append(row)
    basis = [m + j for j in range(n)]

    cost = [zero] * (ncols + 1)
    for q in range(ncols + 1):
        acc = zero
        for j in range(n):
            acc -= tableau[j][q]
        if m <= q < ncols:
            acc += one
        cost[q] = acc

    def pivot_until_optimal(tableau, cost, basis, use_bland):
        """Pivot to optimality; (feasible, Bland reached, early-switch decision)."""
        early_switch = None
        stalled = 0
        stall_limit = stall_factor * (m + n + 5)
        while True:
            entering = -1
            if use_bland:
                for q in range(m):
                    if cost[q] < 0:
                        entering = q
                        break
            else:
                worst = zero
                for q in range(m):
                    if cost[q] < worst:
                        worst = cost[q]
                        entering = q
            if entering < 0:
                return cost[ncols] == 0, use_bland, early_switch
            leaving = -1
            best: Fraction | None = None
            for j in range(n):
                a = tableau[j][entering]
                if a > 0:
                    ratio = tableau[j][ncols] / a
                    if (
                        best is None
                        or ratio < best
                        or ratio == best and _leaves_first(basis[j], basis[leaving], m)
                    ):
                        best = ratio
                        leaving = j
            pivot_row = tableau[leaving]
            pivot = pivot_row[entering]
            for idx in range(ncols + 1):
                pivot_row[idx] /= pivot
            for j in range(n):
                if j == leaving:
                    continue
                row = tableau[j]
                f = row[entering]
                if f:
                    for idx in range(ncols + 1):
                        row[idx] -= f * pivot_row[idx]
            f = cost[entering]
            previous_objective = cost[ncols]
            for idx in range(ncols + 1):
                cost[idx] -= f * pivot_row[idx]
            basis[leaving] = entering
            if not use_bland:
                if cost[ncols] == previous_objective:
                    if early_switch is None:
                        early_switch, _, _ = pivot_until_optimal(
                            [row[:] for row in tableau], cost[:], basis[:], True
                        )
                    stalled += 1
                    if stalled > stall_limit:
                        use_bland = True
                else:
                    stalled = 0

    return pivot_until_optimal(tableau, cost, basis, False)


def _leaves_first(k, other, m) -> bool:
    """On a ratio tie, whether basic column k leaves before basic column other:
    artificial columns (index m and up) first, then the lower index."""
    return (k < m, k) < (other < m, other)


def dense_phase1(generators, target, stall_factor=2, trace=None):
    """(separator, witness) of the phase-1 simplex over the dense tableau.

    The tableau holds every generator column, the artificial columns and the
    right-hand side, all times the basis determinant ``det``, and a pivot
    rewrites all of it by Bareiss's exact division. Only generator columns
    are priced, and a ratio tie goes to an artificial row first. At a
    feasible end, the artificial columns still basic leave by degenerate
    pivots, and a negative pivot row is negated first, so that det stays
    positive. When ``trace`` is a list, each pricing appends (w, Bland's
    rule on, entering column), w the dual vector that the revised simplex
    prices the generators with (w.g is generator g's reduced cost times
    det) and the entering column -1 at the last pricing.
    """
    n = len(target)
    m = len(generators)
    if m == 0:
        return None if all(t == 0 for t in target) else tuple([-t for t in target]), None

    ncols = m + n
    tableau = []
    signs = []
    for j in range(n):
        sign = -1 if target[j] < 0 else 1
        signs.append(sign)
        row = [sign * g[j] for g in generators]
        row.extend(1 if k == j else 0 for k in range(n))
        row.append(sign * target[j])
        tableau.append(row)
    basis = [m + j for j in range(n)]
    cost = [-sum(column) for column in zip(*tableau)]
    for q in range(m, ncols):
        cost[q] += 1
    det = 1

    use_bland = False
    stalled = 0
    stall_limit = stall_factor * (m + n + 5)
    while True:
        entering = -1
        if use_bland:
            for q in range(m):
                if cost[q] < 0:
                    entering = q
                    break
        else:
            worst = min(cost[:m])
            if worst < 0:
                entering = cost.index(worst)
        if trace is not None:
            w = tuple([sign * (cost[m + j] - det) for j, sign in enumerate(signs)])
            trace.append((w, use_bland, entering))
        if entering < 0:
            if cost[ncols]:
                w = tuple([sign * (cost[m + j] - det) for j, sign in enumerate(signs)])
                return w, None
            # End of phase 1: each artificial column still basic leaves on the
            # row's first generator entry of ±det, else its first nonzero
            # one; a row with none means the generators do not span.
            for j, k in enumerate(basis):
                if k < m:
                    continue
                sizes = [abs(x) for x in tableau[j][:m]]
                if det in sizes:
                    q = sizes.index(det)
                elif any(sizes):
                    q = next(q for q, size in enumerate(sizes) if size)
                else:
                    return None, None
                if tableau[j][q] < 0:
                    tableau[j] = [-x for x in tableau[j]]
                pivot_row = tableau[j]
                p = pivot_row[q]
                for i in range(n):
                    f = tableau[i][q]
                    if i != j and (f or p != det):
                        row = tableau[i]
                        tableau[i] = [(x * p - f * y) // det for x, y in zip(row, pivot_row)]
                basis[j] = q
                det = p
            rows = tuple(
                tuple([x * sign for x, sign in zip(row[m:ncols], signs)]) for row in tableau
            )
            return None, (rows, tuple(basis), det)
        leaving = -1
        best_rhs = best_a = 0
        for j in range(n):
            row = tableau[j]
            a = row[entering]
            if a > 0:
                rhs = row[ncols]
                if leaving >= 0:
                    lhs, bound = rhs * best_a, best_rhs * a
                    if lhs > bound or (
                        lhs == bound and not _leaves_first(basis[j], basis[leaving], m)
                    ):
                        continue
                leaving, best_rhs, best_a = j, rhs, a
        pivot_row = tableau[leaving]
        p = best_a
        for j in range(n):
            if j == leaving:
                continue
            row = tableau[j]
            f = row[entering]
            if f:
                tableau[j] = [(x * p - f * y) // det for x, y in zip(row, pivot_row)]
            elif p != det:
                tableau[j] = [x * p // det for x in row]
        f = cost[entering]
        previous_objective = cost[ncols]
        cost = [(x * p - f * y) // det for x, y in zip(cost, pivot_row)]
        basis[leaving] = entering
        if not use_bland:
            if cost[ncols] * det == previous_objective * p:
                stalled += 1
                if stalled > stall_limit:
                    use_bland = True
            else:
                stalled = 0
        det = p


def _key(surface) -> tuple[tuple[int, ...], ...]:
    return tuple(g.coefficients for g in surface.effective_generators)


def box_cases():
    """Every class of the [-4, 4] boxes of dp1..dp3, f0..f4 and gdp2."""
    surfaces = [make_del_pezzo(k) for k in (1, 2, 3)]
    surfaces += [make_hirzebruch(n) for n in range(5)] + [gdp2_surface()]
    for surface in surfaces:
        key = _key(surface)
        for coeffs in itertools.product(range(-4, 5), repeat=surface.rank):
            yield key, coeffs


# Seeded dP4..dP8 classes: Mori combinations and box classes, half each.
SAMPLED = {4: 120, 5: 60, 6: 30, 7: 16, 8: 8}


def sampled_cases():
    for k, count in SAMPLED.items():
        surface = make_del_pezzo(k)
        key = _key(surface)
        effective = sampled_effective_classes(surface, count // 2, f"cones-eff-{k}")
        box = sampled_box_classes(surface.rank, count // 2, f"cones-box-{k}")
        for d in effective + box:
            yield key, d.coefficients


@pytest.fixture(scope="module")
def catalog_cases():
    cases = list(box_cases()) + list(sampled_cases())
    return [(key, target, reference_decision(key, target)) for key, target in cases]


@pytest.fixture
def fresh_memo():
    cones._decision.cache_clear()
    yield
    cones._decision.cache_clear()


class TestAgainstRationalReference:
    def test_catalog_boxes_and_samples(self, catalog_cases):
        disagreements = [
            (key, target)
            for key, target, (expected, _, _) in catalog_cases
            if simplex(key, target) != expected
        ]
        assert len(catalog_cases) > 8000
        assert disagreements == []

    def test_bland_fallback_keeps_decisions(self, catalog_cases, monkeypatch, fresh_memo):
        # With no stall allowance, the first degenerate pivot switches to
        # Bland's rule for good; decisions must not change. Until that pivot
        # the run is the default one, so only cases that stalled can differ.
        monkeypatch.setattr(cones, "_STALL_FACTOR", 0)
        switched = 0
        for key, target, (expected, _, early_switch) in catalog_cases:
            if early_switch is not None:
                switched += 1
                assert early_switch == expected
            assert cones.cone_contains(Cone(key), DivisorClass(target)) == expected
        # The rational reference shares the library's pivot sequence, so
        # this counts the library's switches to Bland's rule too.
        assert switched > 100

    def test_memo_is_bounded(self):
        maxsize = cones._decision.cache_info().maxsize
        assert maxsize is not None
        # Well above the distinct decisions of a repeated scan part, so that
        # a cyclic repeat pass is served from the memo.
        assert maxsize >= 2**14

    def test_equal_cones_share_memo_entries(self, fresh_memo):
        key = _key(make_del_pezzo(4))
        first, second = Cone(key), Cone(key)
        assert first is not second and first == second
        target = DivisorClass((1, 0, 0, 0, 0))
        assert cones.cone_contains(first, target) == cones.cone_contains(second, target)
        info = cones._decision.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_hash_is_that_of_the_generators(self):
        generators = make_del_pezzo(3).effective_generators
        assert hash(Cone(generators)) == hash(tuple(generators))


def separates(generators, target, w) -> bool:
    return all(_dot(w, g) >= 0 for g in generators) and _dot(w, target) < 0


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def exact_witness(generators, witness) -> bool:
    """rows . generators[basis] == det * I, with det > 0."""
    rows, basis, det = witness
    return (
        det > 0
        and len(rows) == len(basis) == len(generators[0])
        and all(
            _dot(row, generators[i]) == (det if j == k else 0)
            for j, row in enumerate(rows)
            for k, i in enumerate(basis)
        )
    )


def proves_member(witness, target) -> bool:
    return all(_dot(row, target) >= 0 for row in witness[0])


def _counting_phase1(monkeypatch) -> list:
    """Patch ``cones._phase1`` to record each target it is called on."""
    calls = []
    inner = cones._phase1

    def counting(generators, target, packed=None):
        calls.append(target)
        return inner(generators, target, packed)

    monkeypatch.setattr(cones, "_phase1", counting)
    return calls


class TestSeparators:
    def test_every_non_member_gets_a_separating_vector(self, catalog_cases):
        for key, target, (expected, _, _) in catalog_cases:
            w, witness = cones._phase1(key, target)
            if expected:
                assert w is None, (key, target)
                if witness is not None:
                    assert exact_witness(key, witness), (key, target, witness)
                    assert proves_member(witness, target), (key, target, witness)
            else:
                assert witness is None, (key, target)
                assert separates(key, target, w), (key, target, w)

    @pytest.mark.parametrize(
        "surface", [make_del_pezzo(3), make_hirzebruch(2), gdp2_surface()], ids=lambda s: s.name
    )
    def test_kept_separators_are_bounded_and_keep_decisions(
        self, surface, fresh_memo, monkeypatch
    ):
        key = _key(surface)
        cone = Cone(key)
        simplex_runs = _counting_phase1(monkeypatch)
        targets = [c for c in itertools.product(range(-4, 5), repeat=surface.rank) if any(c)]
        decisions = [cones.cone_contains(cone, DivisorClass(t)) for t in targets]
        monkeypatch.undo()
        assert decisions == [simplex(key, t) for t in targets]
        decided = dict(zip(targets, decisions))
        members = decisions.count(True)
        non_members = len(targets) - members
        member_runs = sum(decided[t] for t in simplex_runs)
        # Kept separators settle most non-members without the simplex, and
        # kept witnesses most members.
        assert len(simplex_runs) - member_runs < non_members / 4
        assert member_runs < members / 4
        assert 0 < len(cone._separators) <= cones._KEPT
        assert all(all(_dot(w, g) >= 0 for g in key) for w in cone._separators)
        assert 0 < len(cone._witnesses) <= cones._KEPT
        assert all(exact_witness(key, witness) for witness in cone._witnesses)

    def test_empty_cone_separates_every_nonzero_target(self):
        assert cones._phase1((), (0, 0)) == (None, None)
        w, witness = cones._phase1((), (2, -1))
        assert separates((), (2, -1), w) and witness is None


class TestWitnessAtTheEndOfPhase1:
    """Artificial columns still basic at level 0 leave by degenerate pivots."""

    def test_every_catalog_member_run_leaves_a_witness(self, catalog_cases):
        # Every catalog cone spans its space, so no member run ends without one.
        packings = _catalog_packings(catalog_cases)
        members = 0
        for key, target, (expected, _, _) in catalog_cases:
            if not expected:
                continue
            members += 1
            for packed in (packings[key], None):
                w, witness = cones._phase1(key, target, packed)
                assert w is None and witness is not None, (key, target)
                assert exact_witness(key, witness), (key, target, witness)
                assert proves_member(witness, target), (key, target, witness)
        assert members > 2000

    @pytest.mark.parametrize(
        "generators",
        [((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0))],
        ids=["unpacked", "packed"],
    )
    def test_member_of_a_cone_that_does_not_span_leaves_none(self, generators, fresh_memo):
        packed = cones._packed(generators, 3)
        assert (packed is not None) == (len(generators) > 3)
        assert cones._phase1(generators, (1, 1, 0), packed) == (None, None)
        cone = Cone(generators)
        assert cones.cone_contains(cone, DivisorClass((1, 1, 0)))
        assert cone._witnesses == []

    def test_face_member_witness_decides_a_second_face_target(self, fresh_memo, monkeypatch):
        # H - E1 on dP3 lies on a face of the effective cone: its run ends
        # with an artificial column basic at level 0.
        cone = Cone(make_del_pezzo(3).effective_generators)
        calls = _counting_phase1(monkeypatch)
        assert cones.cone_contains(cone, DivisorClass((1, -1, 0, 0)))
        assert len(calls) == 1 and len(cone._witnesses) == 1
        assert cones.cone_contains(cone, DivisorClass((2, -2, 1, 0)))
        assert len(calls) == 1


class TestCheckedCertificates:
    """A certificate from the simplex that fails its exact check is refused."""

    GENERATORS = ((1, 0), (0, 1), (1, 1))

    def _refused(self, monkeypatch, target, result) -> None:
        monkeypatch.setattr(cones, "_phase1", lambda generators, t, packed=None: result)
        cone = Cone(self.GENERATORS)
        with pytest.raises(ArithmeticError):
            cones._decision.__wrapped__(cone, target)
        assert cone._separators == [] and cone._witnesses == []

    def test_separator_orthogonal_to_the_target(self, monkeypatch):
        # w.g >= 0 for every generator, but w.t = 0 does not separate.
        self._refused(monkeypatch, (1, -1), ((1, 1), None))

    @pytest.mark.parametrize("j, k", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_witness_with_one_entry_off_by_one(self, monkeypatch, j, k):
        rows = [[1, 0], [0, 1]]
        rows[j][k] += 1
        witness = (tuple(map(tuple, rows)), (0, 1), 1)
        self._refused(monkeypatch, (1, 1), (None, witness))

    @pytest.mark.parametrize(
        "witness", [(((-1, 0), (0, -1)), (0, 1), -1), (((0, 0), (0, 0)), (0, 1), 0)]
    )
    def test_witness_with_det_not_positive(self, monkeypatch, witness):
        # Each is exact, rows . B == det * I, but det <= 0.
        self._refused(monkeypatch, (1, 1), (None, witness))


def _generator_sets():
    """Small generator lists with repeats, multiples and opposite vectors."""
    coordinate = st.integers(-2, 2)

    @st.composite
    def build(draw):
        rank = draw(st.integers(1, 4))
        vector = st.lists(coordinate, min_size=rank, max_size=rank).filter(any)
        base = draw(st.lists(vector, min_size=1, max_size=5))
        gens = list(base)
        for g in draw(st.lists(st.sampled_from(base), max_size=3)):
            scale = draw(st.sampled_from((1, 2, 3, -1)))
            gens.append([scale * x for x in g])
        gens = draw(st.permutations(gens))
        gens = tuple(tuple(g) for g in gens)
        return gens, draw(_targets(gens))

    return build()


def _targets(generators):
    """Zero-heavy coordinates, or sums of generators (boundary points)."""
    rank = len(generators[0])
    zero_heavy = st.lists(
        st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=rank, max_size=rank
    ).map(tuple)
    sums = st.lists(st.sampled_from(generators), min_size=1, max_size=3).map(
        lambda picked: tuple(sum(col) for col in zip(*picked))
    )
    return st.one_of(zero_heavy, sums)


def _shared_cone_cases():
    """One generator set with several targets, among them repeats, multiples
    and opposites of earlier ones."""

    @st.composite
    def build(draw):
        generators, target = draw(_generator_sets())
        targets = [target] + draw(st.lists(_targets(generators), min_size=1, max_size=6))
        for t in draw(st.lists(st.sampled_from(targets), max_size=4)):
            scale = draw(st.sampled_from((1, 2, -1)))
            targets.append(tuple(scale * x for x in t))
        return generators, draw(st.permutations(targets))

    return build()


class TestDegenerateInputs:
    @given(_generator_sets())
    def test_matches_reference(self, case):
        generators, target = case
        assert simplex(generators, target) == reference_decision(generators, target)[0]

    @given(_generator_sets())
    def test_separating_vector_matches_reference(self, case):
        generators, target = case
        w, witness = cones._phase1(generators, target)
        if reference_decision(generators, target)[0]:
            assert w is None
            if witness is not None:
                assert exact_witness(generators, witness)
                assert proves_member(witness, target)
        else:
            assert separates(generators, target, w) and witness is None

    @given(_shared_cone_cases())
    def test_kept_certificates_keep_decisions(self, case):
        # Decided through one cone without the memo, so that separators and
        # witnesses kept from earlier targets settle later ones.
        generators, targets = case
        cone = Cone(generators)
        for target in targets:
            expected = reference_decision(generators, target)[0]
            assert cones._decision.__wrapped__(cone, target) == expected, target
        assert len(cone._separators) <= cones._KEPT
        assert len(cone._witnesses) <= cones._KEPT
        assert all(exact_witness(generators, witness) for witness in cone._witnesses)

    @given(_generator_sets())
    def test_matches_reference_under_bland(self, case):
        generators, target = case
        expected = reference_decision(generators, target, stall_factor=0)[0]
        original = cones._STALL_FACTOR
        cones._STALL_FACTOR = 0
        try:
            assert simplex(generators, target) == expected
        finally:
            cones._STALL_FACTOR = original

    def test_collinear_and_opposite_generators(self):
        gens = ((1, 0), (2, 0), (-1, 0), (0, 1))
        assert simplex(gens, (0, 0))
        assert simplex(gens, (-3, 5))
        assert not simplex(gens, (0, -1))
        assert simplex(((1, 1), (2, 2)), (3, 3))
        assert not simplex(((1, 1), (2, 2)), (3, 2))


DEFAULT_STALL_FACTOR = cones._STALL_FACTOR


def _catalog_packings(catalog_cases):
    """Each catalog generator list mapped to its cone's packing (None on
    cones with no more generators than coordinates)."""
    return {key: Cone(key)._packed for key, _, _ in catalog_cases}


class TestAgainstDenseTableau:
    """Exactly the dense tableau's separator and witness, so its pivots."""

    @pytest.mark.parametrize("stall_factor", [DEFAULT_STALL_FACTOR, 0])
    def test_catalog_cases(self, catalog_cases, stall_factor, monkeypatch):
        monkeypatch.setattr(cones, "_STALL_FACTOR", stall_factor)
        packings = _catalog_packings(catalog_cases)
        packed_runs = packed_bland_runs = 0
        for key, target, _ in catalog_cases:
            packed = packings[key]
            trace = []
            expected = dense_phase1(key, target, stall_factor, trace)
            assert cones._phase1(key, target, packed) == expected, (key, target)
            assert cones._phase1(key, target) == expected, (key, target)
            # Only generator columns enter, and only the last pricing finds none.
            assert [q for _, _, q in trace[:-1] if not 0 <= q < len(key)] == []
            assert trace[-1][2] == -1
            if packed is not None:
                packed_runs += 1
                packed_bland_runs += trace[-1][1]
                # Every catalog cone's duals fit its packing, so no run
                # checks the limit.
                assert packed.duals_fit
                assert all(max(map(abs, w)) < packed.limit for w, _, _ in trace)
        assert packed_runs > 6000
        if stall_factor == 0:
            # Bland's rule takes over while pricing is packed.
            assert packed_bland_runs > 100

    @pytest.mark.parametrize("stall_factor", [DEFAULT_STALL_FACTOR, 0])
    @given(case=_generator_sets())
    # Under the default stall allowance, the ratio test here twice ties a
    # generator row with an artificial row; each time the artificial row
    # leaves.
    @example(
        case=(((2, 0, -3), (-1, -1, 2), (-2, 1, 1), (0, 0, 2), (-3, 1, 6), (1, 0, -1)), (0, 0, 1))
    )
    @example(
        case=(
            ((-2, -2, 2, -1), (-1, 0, -2, 0), (1, 0, 2, 2), (-2, 2, -2, -1), (0, 1, 0, 0)),
            (1, 2, 2, 2),
        )
    )
    def test_generator_sets(self, case, stall_factor):
        generators, target = case
        packed = cones._Packed(generators, len(target))
        trace = []
        expected = dense_phase1(generators, target, stall_factor, trace)
        original = cones._STALL_FACTOR
        cones._STALL_FACTOR = stall_factor
        try:
            assert cones._phase1(generators, target, packed) == expected
            assert cones._phase1(generators, target) == expected
        finally:
            cones._STALL_FACTOR = original
        if packed.duals_fit:
            assert all(max(map(abs, w)) < packed.limit for w, _, _ in trace)

    def test_ample_class_lps(self, monkeypatch):
        # The LP each kernel solves for its ample class, on every catalog
        # surface and shipped spec file.
        surfaces = [make_del_pezzo(k) for k in range(9)]
        surfaces += [make_hirzebruch(n) for n in range(9)]
        surfaces += [
            load_surface(read_spec(fixture_path(name))) for name in list_fixtures()
        ]
        problems = []
        inner = transform._phase1

        def recording(generators, target, packed=None):
            problems.append((generators, target, packed))
            return inner(generators, target, packed)

        monkeypatch.setattr(transform, "_phase1", recording)
        for surface in surfaces:
            transform._Kernel(surface)
        monkeypatch.undo()
        assert len(problems) == len(surfaces)
        for generators, target, packed in problems:
            expected = dense_phase1(generators, target)
            assert expected[0] is not None
            assert cones._phase1(generators, target, packed) == expected
            assert cones._phase1(generators, target) == expected
            assert (packed is not None) == (len(generators) > len(target))

    def test_pricing_falls_back_past_the_packing_limit(self):
        # Entries near 2**60 leave a packing limit of a few units. The first
        # dual, -sign(target), is within it; later duals (minors of the
        # basis) are not, and those pricings take one dot product per
        # generator.
        rng = random.Random("packing-limit")
        big = 2**60
        entries = (big, big - 1, big + 1, -big, 2, 1, 0, -1)
        mid_run = 0
        for _ in range(600):
            rank = rng.choice((2, 3))
            count = rng.randint(rank + 1, rank + 3)
            generators = tuple(
                tuple(rng.choice(entries) for _ in range(rank)) for _ in range(count)
            )
            if not all(any(g) for g in generators) or all(
                abs(x) < big - 1 for g in generators for x in g
            ):
                continue
            target = tuple(rng.choice((big, -big, 2, 1, 0, -1)) for _ in range(rank))
            packed = cones._Packed(generators, rank)
            assert not packed.duals_fit
            trace = []
            expected = dense_phase1(generators, target, trace=trace)
            assert cones._phase1(generators, target, packed) == expected, (generators, target)
            within = [max(map(abs, w)) < packed.limit for w, _, _ in trace]
            mid_run += within[0] and not all(within)
        assert mid_run > 20


class TestPivotRule:
    """Only generator columns enter, and a ratio tie takes an artificial row out first."""

    def test_ratio_tie_takes_the_artificial_row_out(self):
        # t = g0 on the cone of g0 = (1, 1) and g1 = (2, 1). g1 enters first
        # (reduced cost -3 against -2) out of row 0 at level 1/2. Then g0's
        # column is (1/2, 1/2) against basic values (1/2, 1/2): g1 in row 0
        # and the artificial column of row 1 tie at ratio 1. The artificial
        # row leaves, so g0 takes row 1 and g1 stays basic at level 0, with
        # no exit pivot. Leaving g1 instead (the lower column index) would
        # leave the artificial column basic at level 0.
        generators, target = ((1, 1), (2, 1)), (1, 1)
        witness = (((1, -1), (-1, 2)), (1, 0), 1)
        trace = []
        assert dense_phase1(generators, target, trace=trace) == (None, witness)
        assert [q for _, _, q in trace] == [1, 0, -1]
        packed = cones._Packed(generators, 2)
        assert cones._phase1(generators, target, packed) == (None, witness)
        assert cones._phase1(generators, target) == (None, witness)

    def test_an_artificial_column_that_left_stays_out(self):
        # t = -e3 is outside the cone of g0 = (0, 1, -1) and g1 = (1, 2, 0).
        # g1 enters first, out of row 0, then g0, both at level 0. Then both
        # generators' reduced costs are 0, and the run stops with w =
        # (-2, 1, 1), orthogonal to both, although the artificial column of
        # row 0 now has reduced cost -1. Pricing it too would take one more
        # pivot, to w = (-1, 1, 1).
        generators, target = ((0, 1, -1), (1, 2, 0)), (0, 0, -1)
        separator = (-2, 1, 1)
        trace = []
        assert dense_phase1(generators, target, trace=trace) == (separator, None)
        assert [q for _, _, q in trace] == [1, 0, -1]
        packed = cones._Packed(generators, 3)
        assert cones._phase1(generators, target, packed) == (separator, None)
        assert cones._phase1(generators, target) == (separator, None)

    def test_dp8_run_ends_with_no_artificial_column_basic(self):
        # On the 240-generator dP8 cone this member takes 14 pivots and the
        # final pricing, with no exit pivot. A rule that lets artificial
        # columns enter and gives ratio ties to the lower column index takes
        # 31 pivots and one exit pivot.
        key = _key(make_del_pezzo(8))
        target = (6, -2, -2, -2, -2, -4, -2, 0, -2)
        trace = []
        w, witness = dense_phase1(key, target, trace=trace)
        assert w is None and exact_witness(key, witness) and proves_member(witness, target)
        assert len(trace) == 15 and not any(bland for _, bland, _ in trace)
        # Without a packing, the run iterates the generators once per
        # pricing and once per exit pivot.
        generators = _CountedIterations(key)
        assert cones._phase1(generators, target) == (None, witness)
        assert generators.iterations == 15


# Chvatal's cycling example (Linear Programming, 1983, ch. 3): maximise
# 10x1 - 57x2 - 9x3 - 24x4 subject to 0.5x1 - 5.5x2 - 2.5x3 + 9x4 <= 0,
# 0.5x1 - 1.5x2 - 0.5x3 + x4 <= 0 and x1 <= 1, as a phase-1 LP. Row j of the
# target is constraint j; the first two rows are doubled, so their slacks are
# the generators 2e_1 and 2e_2 (columns 4 and 5) and the artificial columns
# e_1 and e_2 are half of them. Row 4 makes the phase-1 objective, the sum of
# the artificials, equal the example's objective plus a constant: it holds
# minus the cost minus the column's other entries. Column 6 only enters
# first, out of row 5, so that the cycle starts one pivot into the run, and
# column 7 never enters: with it, stall_limit = 2 * (8 + 5 + 5) = 36 is a
# whole number of cycles.
CYCLING_GENERATORS = (
    (1, 1, 1, 7, 0),
    (-11, -3, 0, -43, 0),
    (-5, -1, 0, -3, 0),
    (18, 2, 0, -44, 0),
    (2, 0, 0, -2, 0),
    (0, 2, 0, -2, 0),
    (0, 0, 0, 10, 1),
    (0, 0, 0, -1, 0),
)
CYCLING_TARGET = (0, 0, 1, 1000, 0)


class _CountedIterations(tuple):
    """A generator tuple that counts how often it is iterated.

    ``_phase1`` iterates its generators once per pricing: every Dantzig
    pricing without a packing, and every Bland pricing.
    """

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestStallLimit:
    """Dantzig's rule cycles on this LP; Bland's rule must end the run.

    Every pivot is degenerate until Bland's rule takes over. Dantzig's rule
    brings column 6 in and then enters columns 0, 1, ..., 5 in turn, over
    and over: from the seventh pivot on, the bases repeat every six pivots
    (the first round has the artificial columns of rows 1 and 2 where later
    rounds have columns 4 and 5). Bland's rule enters column 0 where
    Dantzig's enters column 5. Taking over after the 37th pivot (stalled =
    37 > stall_limit), it ends the run in seven pivots; one pivot earlier,
    it would end it in two.
    """

    SEPARATOR = (-2, 16, 0, -2, 20)

    def test_dantzig_cycles_until_the_stall_limit(self):
        trace = []
        assert dense_phase1(CYCLING_GENERATORS, CYCLING_TARGET, trace=trace) == (
            self.SEPARATOR,
            None,
        )
        duals = [w for w, _, _ in trace]
        assert len(set(duals[7:37])) == 6
        assert duals[7:31] == duals[13:37]
        assert [bland for _, bland, _ in trace] == [False] * 37 + [True] * 8

    def test_unpacked_run_switches_after_the_stall_limit(self):
        assert DEFAULT_STALL_FACTOR * (len(CYCLING_GENERATORS) + len(CYCLING_TARGET) + 5) == 36
        generators = _CountedIterations(CYCLING_GENERATORS)
        assert cones._phase1(generators, CYCLING_TARGET) == (self.SEPARATOR, None)
        # 44 pivots and the final pricing.
        assert generators.iterations == 45

    def test_packed_run_switches_after_the_stall_limit(self, fresh_memo):
        generators = _CountedIterations(CYCLING_GENERATORS)
        packed = cones._Packed(CYCLING_GENERATORS, len(CYCLING_TARGET))
        assert cones._phase1(generators, CYCLING_TARGET, packed) == (self.SEPARATOR, None)
        # Dantzig's rule prices packed; Bland's makes 7 pivots and the final pricing.
        assert generators.iterations == 8
        cone = Cone(CYCLING_GENERATORS)
        assert not cones.cone_contains(cone, DivisorClass(CYCLING_TARGET))
        assert cone._separators == [self.SEPARATOR]


class TestPacked:
    def test_columns_are_the_shifted_sums(self):
        # Values that fit a signed 64-bit field are written as fields, and
        # larger ones summed shift by shift; both give the same integers.
        rng = random.Random("packed-columns")
        for bound in (1, 2**31, 2**63 - 1, 2**63, 10**30):
            vectors = [tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(7)]
            vectors.append((-(2**63), 2**63 - 1, 0))
            vectors = tuple(vectors)
            packed = cones._Packed(vectors, 3)
            assert packed.columns == tuple(
                sum(v[j] << (64 * i) for i, v in enumerate(vectors)) for j in range(3)
            )
        assert cones._Packed((), 2).columns == (0, 0)

    def test_unpacked_fields_are_the_biased_products(self):
        # The read path: a total's bytes, unpacked by the packing's layout,
        # are D·v_i + 2^63 for every class D within the limit.
        rng = random.Random("packed-fields")
        for bound in (1, 40, 2**20, 2**40):
            for count in (1, 5, 40):
                rank = rng.randint(1, 6)
                vectors = tuple(
                    tuple(rng.randint(-bound, bound) for _ in range(rank)) for _ in range(count)
                )
                packed = cones._Packed(vectors, rank)
                for _ in range(20):
                    size = rng.choice((6, packed.limit - 1))
                    d = tuple(rng.randint(-size, size) for _ in range(rank))
                    assert _unpacked(packed, d) == tuple(
                        sum(x * y for x, y in zip(d, v)) + 2**63 for v in vectors
                    )
        # Products at ±(2^63 - 1) fill their fields to 2^64 - 1 and 1.
        packed = cones._Packed(((1,), (-1,), (0,)), 1)
        assert packed.limit == 2**63
        assert _unpacked(packed, (2**63 - 1,)) == (2**64 - 1, 1, 2**63)
        assert _unpacked(packed, (-(2**63 - 1),)) == (1, 2**64 - 1, 2**63)

    def test_duals_fit_is_strict(self):
        # limit = ceil(2^63 / 2^63) = 1, and rank 1 leaves bound = 1: equal to
        # limit², which does not fit.
        packed = cones._Packed(((1 << 63,), (1,)), 1)
        assert packed.limit == 1
        assert not packed.duals_fit


def _unpacked(packed, d):
    return packed.fields.unpack(packed.total(d).to_bytes(packed.fields.size, "little"))
