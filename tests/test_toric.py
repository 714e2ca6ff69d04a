"""Toric models, divisor polytopes and the lattice-point counting oracle."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    box_classes,
    check_report,
    fan_form,
    fan_surface,
    ray_classes,
    ray_degrees,
    sampled_box_classes,
    seeded_blow_ups,
)
from surfcoh import toric as toric_module
from surfcoh import transform
from surfcoh import (
    ORACLE_NAMES,
    DivisorClass,
    HalfplaneSet,
    NotEffectiveError,
    Regime,
    RankMismatchError,
    UnboundedPolytopeError,
    UnknownSurfaceError,
    cohomology,
    count_lattice_points,
    euler_characteristic,
    is_effective,
    is_nef,
    iterate_to_nef,
    make_hirzebruch,
    oracle_h0,
    polytope_from_ray_coefficients,
    polytope_of_divisor,
    serre_dual,
    toric_model,
)

D = DivisorClass

MODEL_NAMES = ORACLE_NAMES


def _blown_up(draw, toric, times):
    for _ in range(times):
        toric = toric_module._blow_up(toric, draw(st.integers(0, len(toric.rays) - 1)))
    return toric


@st.composite
def blown_up_planes(draw):
    """The plane blown up 1-4 times at torus-fixed points, so rank <= 5."""
    return _blown_up(draw, toric_module._PLANE, draw(st.integers(1, 4)))


@st.composite
def blown_up_hirzebruch(draw):
    """F_a, a = 0..4, blown up 0-2 times at torus-fixed points, so rank <= 4.

    With the plane's blow-ups these reach every smooth complete toric
    surface of rank <= 4.
    """
    toric = toric_module._hirzebruch_model(draw(st.integers(0, 4)))
    return _blown_up(draw, toric, draw(st.integers(0, 2)))


def reference_count(p: HalfplaneSet) -> int:
    """Point-by-point count over the bounding box of Fraction vertices.

    The oracle's former counter, kept as the reference for its integer
    row-by-row replacement.
    """
    constraints = p.constraints
    if not constraints:
        raise UnboundedPolytopeError("no constraints: the whole plane is feasible")
    normals = [c[0] for c in constraints]
    if not any(vx or vy for vx, vy in normals):
        raise UnboundedPolytopeError("every normal is zero: no direction is bounded")
    for vx, vy in normals:
        for u in ((-vy, vx), (vy, -vx)):
            if u != (0, 0) and all(u[0] * wx + u[1] * wy >= 0 for wx, wy in normals):
                raise UnboundedPolytopeError(
                    f"feasible region is unbounded along direction {u}; "
                    f"the fan is not complete"
                )
    vertices: list[tuple[Fraction, Fraction]] = []
    for i in range(len(constraints)):
        (ax, ay), a_off = constraints[i]
        for j in range(i + 1, len(constraints)):
            (bx, by), b_off = constraints[j]
            det = ax * by - ay * bx
            if det == 0:
                continue
            ux = Fraction(-a_off * by + b_off * ay, det)
            uy = Fraction(-ax * b_off + bx * a_off, det)
            if all(ux * wx + uy * wy >= -off for (wx, wy), off in constraints):
                vertices.append((ux, uy))
    if not vertices:
        return 0
    x_lo = math.ceil(min(v[0] for v in vertices))
    x_hi = math.floor(max(v[0] for v in vertices))
    y_lo = math.ceil(min(v[1] for v in vertices))
    y_hi = math.floor(max(v[1] for v in vertices))
    count = 0
    for x in range(x_lo, x_hi + 1):
        for y in range(y_lo, y_hi + 1):
            if all(x * wx + y * wy >= -off for (wx, wy), off in constraints):
                count += 1
    return count


def count_or_message(count, p: HalfplaneSet):
    try:
        return count(p)
    except UnboundedPolytopeError as exc:
        return str(exc)


halfplane_sets = st.lists(
    st.tuples(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), st.integers(-12, 12)),
    min_size=1,
    max_size=6,
).map(lambda constraints: HalfplaneSet(tuple(constraints)))


class TestModels:
    def test_f2_shape(self):
        toric, surface = toric_model("f2")
        assert len(toric.rays) == 4
        assert surface.name == "f2"

    def test_f0_product_fan(self):
        toric, _ = toric_model("f0")
        assert toric.rays == ((1, 0), (0, 1), (-1, 0), (0, -1))

    def test_dp3_hexagon(self):
        toric, surface = toric_model("dp3")
        assert len(toric.rays) == 6
        assert surface.rank == 4

    def test_unknown_name(self):
        with pytest.raises(UnknownSurfaceError):
            toric_model("dp4")

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_round_trip_identity_on_box(self, name):
        toric, surface = toric_model(name)
        for d in sampled_box_classes(surface.rank, 80, f"roundtrip:{name}", -8, 8):
            lifted = tuple(
                sum(row[k] * d[k] for k in range(toric.rank))
                for row in toric.lift_map
            )
            pushed = tuple(
                sum(toric.class_map[k][r] * lifted[r] for r in range(len(toric.rays)))
                for k in range(toric.rank)
            )
            assert pushed == d.coefficients

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_ray_divisor_classes_pair_correctly(self, name):
        # The toric self-intersection of each boundary divisor, read from
        # adjacent rays, must match the Picard pairing of its class.
        toric, surface = toric_model(name)
        for cls, a in zip(ray_classes(toric), ray_degrees(toric)):
            assert surface.form.pairing(cls, cls) == -a

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_canonical_class_is_minus_the_ray_sum(self, name):
        toric, surface = toric_model(name)
        assert -sum(ray_classes(toric), D.zero(toric.rank)) == surface.canonical_class

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_negative_curves_are_the_rays_of_positive_degree(self, name):
        toric, surface = toric_model(name)
        curves = {c for c, a in zip(ray_classes(toric), ray_degrees(toric)) if a > 0}
        assert curves == set(surface.negative_curves)


class TestPolytopes:
    def test_f2_zero_class_is_origin_only(self):
        toric, _ = toric_model("f2")
        p = polytope_of_divisor(toric, D([0, 0]))
        assert all(offset == 0 for _, offset in p.constraints)
        assert count_lattice_points(p) == 1

    def test_f2_trapezoid(self):
        toric, surface = toric_model("f2")
        d = D([1, 2])
        assert count_lattice_points(polytope_of_divisor(toric, d)) == 4
        assert euler_characteristic(surface, d) == 4

    def test_dp1_conic_pullback_triangle(self):
        toric, _ = toric_model("dp1")
        assert count_lattice_points(polytope_of_divisor(toric, D([2, 0]))) == 6

    def test_dimension_mismatch(self):
        toric, _ = toric_model("f2")
        with pytest.raises(RankMismatchError):
            polytope_of_divisor(toric, D([1, 0, 0]))


class TestCounting:
    def test_infeasible_system(self):
        p = HalfplaneSet((((1, 0), -1), ((-1, 0), -1), ((0, 1), 0), ((0, -1), 0)))
        assert count_lattice_points(p) == 0

    def test_unit_square(self):
        p = HalfplaneSet((((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)))
        assert count_lattice_points(p) == 4

    def test_triangle(self):
        p = HalfplaneSet((((1, 0), 0), ((0, 1), 0), ((-1, -1), 2)))
        assert count_lattice_points(p) == 6

    def test_unbounded_detected(self):
        p = HalfplaneSet((((1, 0), 0), ((0, 1), 0)))
        with pytest.raises(UnboundedPolytopeError):
            count_lattice_points(p)

    def test_no_constraints_rejected(self):
        with pytest.raises(UnboundedPolytopeError):
            count_lattice_points(HalfplaneSet(()))

    @pytest.mark.parametrize(
        "constraints",
        [
            # 0 >= 0 holds on the whole plane.
            (((0, 0), 0),),
            # Infeasible, but no constraint bounds any direction either.
            (((0, 0), 3), ((0, 0), -1)),
        ],
    )
    def test_all_zero_normals_rejected(self, constraints):
        p = HalfplaneSet(constraints)
        for count in (count_lattice_points, reference_count):
            with pytest.raises(UnboundedPolytopeError, match="every normal is zero"):
                count(p)

    @pytest.mark.parametrize(
        "constraints, expected",
        [
            # -3/2 <= x <= -1/3, -5/2 <= y <= -1/2: x = -1, y in {-2, -1}.
            ((((2, 0), 3), ((-3, 0), -1), ((0, 2), 5), ((0, -2), -1)), 2),
            # Triangle x >= -7/2, y >= -5/3, x + y <= -1/2: 4 + 3 + 2 + 1 points.
            ((((2, 0), 7), ((0, 3), 5), ((-2, -2), -1)), 10),
            # The single point (-3, -2).
            ((((1, 0), 3), ((-1, 0), -3), ((0, 1), 2), ((0, -1), -2)), 1),
            # |x| <= 1/2, |y| <= 1/2: only the origin.
            ((((2, 0), 1), ((-2, 0), 1), ((0, 2), 1), ((0, -2), 1)), 1),
            # The segment x + y = -2, -5/2 <= x <= 1/2: x in {-2, -1, 0}.
            ((((1, 1), 2), ((-1, -1), -2), ((2, 0), 5), ((-2, 0), 1)), 3),
            # The vertical segment x = -1, -7/2 <= y <= 3/2.
            ((((1, 0), 1), ((-1, 0), -1), ((0, 2), 7), ((0, -2), 3)), 5),
            # The segment 2y - x = 1, 0 <= x <= 4: rows x = 0, 2, 4 are empty.
            ((((-1, 2), -1), ((1, -2), 1), ((1, 0), 0), ((-1, 0), 4)), 2),
            # 1/3 <= x <= 2/3: no integer column.
            ((((3, 0), -1), ((-3, 0), 2), ((0, 1), 0), ((0, -1), 5)), 0),
            # A zero normal with offset -1 (0 >= 1) empties the unit square.
            ((((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1), ((0, 0), -1)), 0),
        ],
    )
    def test_fractional_and_degenerate_regions(self, constraints, expected):
        p = HalfplaneSet(constraints)
        assert count_lattice_points(p) == expected
        assert reference_count(p) == expected

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_agrees_with_pointwise_reference_on_boxes(self, name):
        toric, surface = toric_model(name)
        bound = 4 if surface.rank == 4 else 6
        for d in box_classes(surface.rank, -bound, bound):
            p = polytope_of_divisor(toric, d)
            assert count_lattice_points(p) == reference_count(p), d

    @settings(max_examples=300)
    @given(halfplane_sets)
    def test_agrees_with_pointwise_reference(self, p):
        assert count_or_message(count_lattice_points, p) == count_or_message(reference_count, p)

    def test_boundedness_memo_holds_one_entry_per_fan(self):
        toric_module._require_bounded.cache_clear()
        toric, surface = toric_model("dp3")
        for d in box_classes(surface.rank, -1, 1):
            oracle_h0(toric, d)
        info = toric_module._require_bounded.cache_info()
        assert info.currsize == 1 and info.maxsize is not None


class TestOracle:
    def test_f2_spot_values(self):
        toric, _ = toric_model("f2")
        assert oracle_h0(toric, D([1, 0])) == 1
        assert oracle_h0(toric, D([1, 1])) == 2

    def test_dp2_line(self):
        toric, _ = toric_model("dp2")
        assert oracle_h0(toric, D([1, 1, 1])) == 3

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_lift_independence(self, name):
        # Shifting the lift by a principal divisor translates the polytope
        # without changing its lattice-point count.
        toric, surface = toric_model(name)
        shifts = ((1, 0), (0, 1), (-2, 3))
        for d in sampled_box_classes(surface.rank, 25, f"lift:{name}", -4, 4):
            base_coeffs = tuple(
                sum(row[k] * d[k] for k in range(toric.rank))
                for row in toric.lift_map
            )
            base = count_lattice_points(
                polytope_from_ray_coefficients(toric, base_coeffs)
            )
            for m in shifts:
                shifted = tuple(
                    c + m[0] * v[0] + m[1] * v[1]
                    for c, v in zip(base_coeffs, toric.rays)
                )
                moved = count_lattice_points(
                    polytope_from_ray_coefficients(toric, shifted)
                )
                assert moved == base

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_demazure_spot_check(self, name):
        # Nef classes on a complete toric surface have no higher cohomology,
        # so the count must equal the Euler characteristic on the nose.
        toric, surface = toric_model(name)
        for d in box_classes(surface.rank, -3, 3):
            if is_nef(surface, d):
                assert oracle_h0(toric, d) == euler_characteristic(surface, d)

    @pytest.mark.parametrize("name", ("f0", "f2", "f4", "dp1", "dp2"))
    def test_pipeline_agreement_small_box(self, name):
        toric, surface = toric_model(name)
        for d in box_classes(surface.rank, -3, 3):
            assert cohomology(surface, d).h0 == oracle_h0(toric, d)


def assert_certified_h0_equals_the_count(toric):
    """Read as a toric surface, Demazure certifies every nef limit. Read as
    `general`, the same lattice data must certify by Kawamata-Viehweg or
    answer unknown; an unknown is never counted as a match. The kernel's
    ample class A meets every ray divisor, and D·A bounds the steps. The
    general report, whose steps are the toric one's, passes check_report."""
    as_toric = fan_surface(toric, Regime.TORIC_CONVEX_FAN)
    as_general = fan_surface(toric, Regime.GENERAL)
    ample = transform._kernel(as_toric).ample_dual
    assert all(sum(map(mul, ample, c.coefficients)) >= 1 for c in ray_classes(toric))
    count = min(200, 9**toric.rank)
    for d in sampled_box_classes(toric.rank, count, f"blow-ups:{toric.rays}", -4, 4):
        expected = oracle_h0(toric, d)
        result = cohomology(as_toric, d)
        assert result.h0 == expected, d
        if result.trace is not None:
            assert result.trace.step_count <= sum(map(mul, ample, d.coefficients)), d
        general = cohomology(as_general, d)
        assert general.h0 is None or general.h0 == expected, d
        check_report(as_general, d, general.to_json())


class TestBlowUpSequences:
    @settings(max_examples=40)
    @given(blown_up_planes())
    def test_certified_h0_equals_the_count(self, toric):
        assert_certified_h0_equals_the_count(toric)

    @settings(max_examples=40)
    @given(blown_up_hirzebruch())
    def test_certified_h0_equals_the_count_from_hirzebruch(self, toric):
        assert_certified_h0_equals_the_count(toric)

    def test_fan_form_of_plane_blow_ups_is_diagonal(self):
        # The basis H, E_1, ..., E_k of total transforms is orthogonal.
        models = [toric for toric, _ in seeded_blow_ups()]
        for steps in itertools.product(range(3), range(4), range(5)):
            models.append(reduce(toric_module._blow_up, steps, toric_module._PLANE))
        for toric in models:
            signs = [1] + [-1] * (toric.rank - 1)
            diagonal = [
                [s if i == j else 0 for j in range(len(signs))] for i, s in enumerate(signs)
            ]
            assert fan_form(toric) == diagonal, toric.rays

    @pytest.mark.parametrize("a", range(5))
    def test_fan_form_of_hirzebruch_matches_the_catalog(self, a):
        # F_a and its blow-ups, in the basis (C0, f, E_1, ...).
        toric = toric_module._hirzebruch_model(a)
        catalog = make_hirzebruch(a)
        surface = fan_surface(toric, Regime.TORIC_CONVEX_FAN)
        assert (surface.form, surface.canonical_class) == (catalog.form, catalog.canonical_class)
        assert surface.negative_curves == catalog.negative_curves
        for i in range(len(toric.rays)):
            blown_up = fan_form(toric_module._blow_up(toric, i))
            assert blown_up == [[-a, 1, 0], [1, 0, 0], [0, 0, -1]]

    def test_transform_longer_than_a_thousand_steps(self):
        # Six blow-ups at torus-fixed points; h0 needs 1,093 transform steps.
        toric = reduce(toric_module._blow_up, (1, 2, 2, 3, 3, 4), toric_module._PLANE)
        surface = fan_surface(toric, Regime.TORIC_CONVEX_FAN)
        d = D([883, 832, 457, 203, -7, -288, -25])
        result = cohomology(surface, d)
        assert result.trace.step_count == 1093
        assert result.h0 == oracle_h0(toric, d) == 391_170

    @pytest.mark.parametrize("regime", [Regime.TORIC_CONVEX_FAN, Regime.GENERAL])
    def test_effective_class_without_a_section(self, regime):
        # The class lies in the effective cone and has D·A = 17, but neither
        # it nor K - D has a lattice point. Its strip needs a step at D·A < 0,
        # which shows that it has no section.
        toric = reduce(toric_module._blow_up, (1, 3, 0, 4, 1, 6), toric_module._PLANE)
        surface = fan_surface(toric, regime)
        d = D([5, -5, 0, 1, -5, -6, 1])
        assert is_effective(surface, d)
        result = cohomology(surface, d)
        assert (result.h0, result.h1, result.h2, result.chi) == (0, 30, 0, -30)
        assert result.h0 == oracle_h0(toric, d)
        assert result.h2 == oracle_h0(toric, serre_dual(surface, d))
        no_section = "class has no section; h0 = 0 unconditionally"
        assert result.certificate.detail == no_section
        # A class outside the effective cone has no section either.
        outside = D([-1, 0, 0, 0, 0, 0, 0])
        assert not is_effective(surface, outside)
        assert cohomology(surface, outside).certificate.detail == no_section

    def test_every_step_keeps_the_count(self):
        # The transform preserves h0 step by step, not only at its limit: on
        # seeded 1- to 6-fold blow-ups, every class of a trace has the input's
        # lattice-point count, and a class whose strip finds no section has
        # none.
        steps = 0
        for toric, classes in seeded_blow_ups():
            surface = fan_surface(toric, Regime.TORIC_CONVEX_FAN)
            for d in classes:
                expected = oracle_h0(toric, d)
                try:
                    trace = iterate_to_nef(surface, d)
                except NotEffectiveError:
                    assert expected == 0, d
                    continue
                for step in trace.steps:
                    assert oracle_h0(toric, step.result) == expected, (d, step.result)
                steps += trace.step_count
        assert steps > 10_000
