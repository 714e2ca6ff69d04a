"""Picard-lattice arithmetic: pairing, Euler characteristic, Serre duality."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import all_catalog_surfaces, dense_dual, gdp2_surface, k3_like_surface
from surfcoh import (
    DivisorClass,
    IntegralityError,
    IntersectionForm,
    RankMismatchError,
    Regime,
    SpecValidationError,
    SurfaceModel,
    euler_characteristic,
    intersect,
    make_del_pezzo,
    make_hirzebruch,
    serre_dual,
)
from surfcoh.lattice import _squares

D = DivisorClass

ALL_SURFACES = all_catalog_surfaces() + [gdp2_surface(), k3_like_surface()]


def coeff_vectors(rank: int, bound: int = 8):
    return st.lists(
        st.integers(-bound, bound), min_size=rank, max_size=rank
    ).map(DivisorClass)


class TestDivisorClass:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            D([1.5, 2])

    def test_immutable(self):
        d = D([1, 2])
        with pytest.raises(AttributeError):
            d.coefficients = (0, 0)

    def test_arithmetic(self):
        assert D([1, 2]) + D([3, -1]) == D([4, 1])
        assert D([1, 2]) - D([3, -1]) == D([-2, 3])
        assert 3 * D([1, -2]) == D([3, -6])
        assert -D([1, -2]) == D([-1, 2])
        assert D.zero(3) == D([0, 0, 0])

    def test_arithmetic_results_match_the_public_constructor(self):
        # Results of arithmetic skip re-validation, so they must come out as
        # the validating constructor would build them.
        for d in (D([1, 2]) + D([3, -1]), D([1, 2]) - D([3, -1]), 3 * D([1, -2]), -D([1, -2])):
            assert type(d.coefficients) is tuple
            assert all(type(c) is int for c in d.coefficients)
            assert d == D(d.coefficients) and hash(d) == hash(D(d.coefficients))
            with pytest.raises(AttributeError):
                d.coefficients = (0, 0)
        with pytest.raises(TypeError):
            1.5 * D([1, 2])

    def test_mixed_rank_rejected(self):
        with pytest.raises(RankMismatchError):
            D([1, 2]) + D([1, 2, 3])

    def test_hashable(self):
        assert len({D([1, 0]), D([1, 0]), D([0, 1])}) == 2


class TestIntersectionForm:
    def test_asymmetric_rejected(self):
        with pytest.raises(SpecValidationError) as err:
            IntersectionForm([[1, 2], [3, 4]])
        assert err.value.field == "intersection_matrix"

    def test_non_square_rejected(self):
        with pytest.raises(SpecValidationError):
            IntersectionForm([[1, 0, 0], [0, 1, 0]])


class TestIntersect:
    def test_dp1_hyperplane_squares(self):
        dp1 = make_del_pezzo(1)
        assert intersect(dp1, D([1, 0]), D([1, 0])) == 1

    def test_dp1_mixed(self):
        dp1 = make_del_pezzo(1)
        assert intersect(dp1, D([2, 1]), D([0, 1])) == -1

    def test_f2_section(self):
        f2 = make_hirzebruch(2)
        assert intersect(f2, D([1, 1]), D([1, 0])) == -1

    def test_rank_mismatch(self):
        dp1 = make_del_pezzo(1)
        with pytest.raises(RankMismatchError):
            intersect(dp1, D([1, 0, 0]), D([1, 0]))

    @pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.name)
    @given(data=st.data())
    def test_symmetry(self, surface, data):
        d = data.draw(coeff_vectors(surface.rank))
        e = data.draw(coeff_vectors(surface.rank))
        assert intersect(surface, d, e) == intersect(surface, e, d)


class TestSquares:
    """``_squares`` checks curve negativity at load; ``form.pairing`` is its reference."""

    def test_off_diagonal_term_on_f5(self):
        # On F_5, (C0 + 2f)^2 = -5 + 2 * 2 * 1 = -1: the off-diagonal entry
        # counts twice, so a curve of this class is negative.
        f5 = make_hirzebruch(5)
        d = D([1, 2])
        assert _squares(f5.form, (d,)) == [f5.form.pairing(d, d)] == [-1]
        surface = SurfaceModel(
            name="f5_with_c0_plus_2f",
            rank=2,
            form=f5.form,
            canonical_class=f5.canonical_class,
            chi_structure_sheaf=1,
            negative_curves=(d,),
            mori_generators=f5.mori_generators,
            effective_generators=f5.effective_generators,
            regime=Regime.GENERAL,
        )
        assert surface.negative_curves == (d,)

    def test_random_symmetric_forms(self):
        rng = random.Random(20261020)
        for _ in range(300):
            n = rng.randint(2, 6)
            matrix = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    matrix[i][j] = matrix[j][i] = rng.randint(-4, 4)
            form = IntersectionForm(matrix)
            classes = []
            while len(classes) < 5:
                v = [rng.randint(-5, 5) for _ in range(n)]
                if sum(1 for x in v if x) >= 2:
                    classes.append(D(v))
            assert _squares(form, classes) == [form.pairing(d, d) for d in classes]


def entries():
    """Small integers, and integers past 2^63 either side."""
    return st.one_of(st.integers(-4, 4), st.integers(-(2**70), 2**70))


@st.composite
def forms_and_classes(draw):
    """A symmetric integer matrix of rank 1-10 with classes of its rank.

    The matrix is zero, diagonal only, diagonal with one entry off it (the
    shape of F_n), or dense, every entry above the diagonal drawn.
    """
    n = draw(st.integers(1, 10))
    shape = draw(st.sampled_from(["zero", "diagonal", "one", "dense"]))
    a = [[0] * n for _ in range(n)]
    if shape != "zero":
        for i in range(n):
            a[i][i] = draw(entries())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if shape == "one" and pairs:
        pairs = [draw(st.sampled_from(pairs))]
    if shape in ("one", "dense"):
        for i, j in pairs:
            a[i][j] = a[j][i] = draw(entries())
    vectors = st.lists(entries(), min_size=n, max_size=n).map(D)
    return a, draw(st.lists(vectors, min_size=2, max_size=4))


_DENSE_PAST_2_63 = (
    [[2**64 + i + j if i != j else -(2**65) for j in range(10)] for i in range(10)],
    [D([(-1) ** k * (2**63 + k) for k in range(10)]), D(range(-5, 5))],
)


class TestSparseProduct:
    """``dual``, ``pairing`` and ``_squares`` sum over the form's nonzero
    entries; the dense product row by row is their reference."""

    @given(forms_and_classes())
    @example(_DENSE_PAST_2_63)
    def test_dual_matches_dense_product(self, case):
        matrix, classes = case
        form = IntersectionForm(matrix)
        for d in classes:
            dual = form.dual(d)
            assert type(dual) is tuple and all(type(x) is int for x in dual)
            assert dual == tuple(dense_dual(matrix, d))

    @given(forms_and_classes())
    @example(_DENSE_PAST_2_63)
    def test_pairing_matches_dense_product(self, case):
        matrix, classes = case
        form = IntersectionForm(matrix)
        for d, e in itertools.product(classes, repeat=2):
            assert form.pairing(d, e) == sum(x * y for x, y in zip(dense_dual(matrix, d), e))

    @given(forms_and_classes())
    @example(_DENSE_PAST_2_63)
    def test_squares_match_dense_product(self, case):
        matrix, classes = case
        expected = [sum(x * y for x, y in zip(dense_dual(matrix, d), d)) for d in classes]
        assert _squares(IntersectionForm(matrix), classes) == expected

    def test_rank_mismatch(self):
        form = IntersectionForm([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        with pytest.raises(RankMismatchError, match="^form has rank 3 but class has rank 2$"):
            form.dual(D([1, 0]))
        message = "^form has rank 3 but classes have ranks 3 and 4$"
        with pytest.raises(RankMismatchError, match=message):
            form.pairing(D([1, 0, 0]), D([1, 0, 0, 0]))

    @pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.name)
    def test_catalog_curve_duals(self, surface):
        matrix = surface.form.matrix
        for c in surface.negative_curves + surface.mori_generators:
            assert surface.form.dual(c) == tuple(dense_dual(matrix, c))


class TestEulerCharacteristic:
    def test_p2_conics(self):
        # Independent count: monomials of degree 2 in 3 variables.
        monomials = list(itertools.combinations_with_replacement(range(3), 2))
        dp0 = make_del_pezzo(0)
        assert euler_characteristic(dp0, D([2])) == len(monomials) == 6

    @pytest.mark.parametrize("surface", all_catalog_surfaces(), ids=lambda s: s.name)
    def test_chi_of_zero_class(self, surface):
        assert euler_characteristic(surface, D.zero(surface.rank)) == 1

    def test_f2_against_lattice_point_count(self):
        from surfcoh import oracle_h0, toric_model

        toric, f2 = toric_model("f2")
        assert f2.canonical_class == D([-2, -4])
        d = D([1, 2])
        assert euler_characteristic(f2, d) == oracle_h0(toric, d) == 4

    def test_odd_pairing_reported(self):
        bad = SurfaceModel(
            name="bad_parity",
            rank=1,
            form=IntersectionForm([[1]]),
            canonical_class=D([0]),
            chi_structure_sheaf=1,
            negative_curves=(),
            mori_generators=(D([1]),),
            effective_generators=(D([1]),),
            regime=Regime.GENERAL,
        )
        with pytest.raises(IntegralityError):
            euler_characteristic(bad, D([1]))

    @pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.name)
    @given(data=st.data())
    def test_riemann_roch_parity(self, surface, data):
        d = data.draw(coeff_vectors(surface.rank))
        assert intersect(surface, d, d - surface.canonical_class) % 2 == 0

    @pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.name)
    @given(data=st.data())
    def test_chi_serre_symmetry(self, surface, data):
        d = data.draw(coeff_vectors(surface.rank))
        assert euler_characteristic(surface, d) == euler_characteristic(
            surface, serre_dual(surface, d)
        )


class TestSerreDual:
    def test_dual_of_zero_is_canonical(self):
        dp1 = make_del_pezzo(1)
        assert serre_dual(dp1, D.zero(2)) == D([-3, 1])

    def test_dual_of_canonical_is_zero(self):
        dp2 = make_del_pezzo(2)
        assert serre_dual(dp2, dp2.canonical_class) == D.zero(3)

    def test_f2_example(self):
        f2 = make_hirzebruch(2)
        assert serre_dual(f2, D([1, 0])) == D([-3, -4])

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            serre_dual(make_del_pezzo(1), D([1]))

    @pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.name)
    @given(data=st.data())
    def test_involution(self, surface, data):
        d = data.draw(coeff_vectors(surface.rank))
        assert serre_dual(surface, serre_dual(surface, d)) == d
