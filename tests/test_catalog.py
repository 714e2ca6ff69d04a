"""Surface constructors, (-1)-curve enumeration, cones and spec-file loading."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fan_surface, gdp2_surface, seeded_blow_ups
from surfcoh import (
    MINUS_ONE_CURVE_COUNTS,
    Cone,
    DivisorClass,
    RankMismatchError,
    Regime,
    SpecValidationError,
    UnknownSurfaceError,
    catalog_surface,
    cone_contains,
    enumerate_minus_one_curves,
    fixture_path,
    intersect,
    list_fixtures,
    load_surface,
    make_del_pezzo,
    make_hirzebruch,
    read_spec,
    signature,
)
from surfcoh.catalog import _check_regime

D = DivisorClass


class TestHirzebruch:
    def test_f2_structure(self):
        f2 = make_hirzebruch(2)
        assert f2.negative_curves == (D([1, 0]),)
        assert f2.canonical_class == D([-2, -4])
        # Adjunction: both basis curves are rational.
        c0, f = D([1, 0]), D([0, 1])
        assert intersect(f2, c0, c0 + f2.canonical_class) == -2
        assert intersect(f2, f, f + f2.canonical_class) == -2

    def test_f0_has_no_negative_curve(self):
        assert make_hirzebruch(0).negative_curves == ()

    def test_f1_section_square(self):
        f1 = make_hirzebruch(1)
        c0 = f1.negative_curves[0]
        assert intersect(f1, c0, c0) == -1

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            make_hirzebruch(-1)

    @pytest.mark.parametrize("n", range(5))
    def test_regime_and_chi(self, n):
        s = make_hirzebruch(n)
        assert s.regime is Regime.TORIC_CONVEX_FAN
        assert s.chi_structure_sheaf == 1
        assert set(s.mori_generators) == {D([1, 0]), D([0, 1])}


class TestMinusOneCurves:
    @pytest.mark.parametrize("k", range(9))
    def test_classical_counts(self, k):
        assert len(enumerate_minus_one_curves(k)) == MINUS_ONE_CURVE_COUNTS[k]

    def test_dp2_exact_set(self):
        got = set(enumerate_minus_one_curves(2))
        assert got == {D([0, 1, 0]), D([0, 0, 1]), D([1, -1, -1])}

    def test_dp0_empty(self):
        assert enumerate_minus_one_curves(0) == ()

    @pytest.mark.parametrize("k", range(9))
    def test_square_and_degree(self, k):
        surface = make_del_pezzo(k)
        for c in enumerate_minus_one_curves(k):
            assert intersect(surface, c, c) == -1
            assert intersect(surface, c, surface.canonical_class) == -1

    @pytest.mark.parametrize("k", range(2, 9))
    def test_distinct_classes_meet_non_negatively(self, k):
        surface = make_del_pezzo(k)
        curves = enumerate_minus_one_curves(k)
        for i, a in enumerate(curves):
            for b in curves[i + 1 :]:
                assert intersect(surface, a, b) >= 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_minus_one_curves(9)


def reference_minus_one_curves(k):
    """The full-box sweep: a in [0, 6] and every b in [-1, 3]^k, pruned only
    by the partial sums, with no use of the symmetry in the b_i."""
    found = []
    for a in range(0, 7):
        target_sum = 3 * a - 1
        target_sq = a * a + 1

        def descend(i, acc_sum, acc_sq, prefix):
            remaining = k - i
            if acc_sq > target_sq:
                return
            if acc_sum + 3 * remaining < target_sum or acc_sum - remaining > target_sum:
                return
            if acc_sq + 9 * remaining < target_sq:
                return
            if i == k:
                if acc_sum == target_sum and acc_sq == target_sq:
                    found.append((a,) + tuple(-b for b in prefix))
                return
            for b in range(-1, 4):
                descend(i + 1, acc_sum + b, acc_sq + b * b, prefix + (b,))

        descend(0, 0, 0, ())
    return tuple(D(v) for v in sorted(found))


class TestMinusOneSearch:
    @pytest.mark.parametrize("k", range(9))
    def test_matches_full_box_sweep(self, k):
        assert enumerate_minus_one_curves(k) == reference_minus_one_curves(k)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_closed_under_permuting_exceptional_classes(self, k):
        # Adjacent transpositions of E_1..E_k generate every permutation.
        curves = set(enumerate_minus_one_curves(k))
        for c in curves:
            a, *b = c.coefficients
            for i in range(k - 1):
                swapped = b[:i] + [b[i + 1], b[i]] + b[i + 2 :]
                assert D([a, *swapped]) in curves


class _Int(int):
    """An int subclass, such as an IntEnum member."""


class _Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestIntegerIndex:
    def test_bool_del_pezzo_rejected(self):
        with pytest.raises(TypeError, match="del Pezzo index"):
            make_del_pezzo(True)

    def test_float_del_pezzo_rejected_after_cached_integer(self):
        # An int subclass is cached under a key that True and 1.0 compare
        # equal to; its surface must not answer them.
        assert make_del_pezzo(1).name == make_del_pezzo(_Int(1)).name == "dp1"
        for k in (True, 1.0):
            with pytest.raises(TypeError, match="del Pezzo index"):
                make_del_pezzo(k)

    def test_float_enumeration_rejected(self):
        assert len(enumerate_minus_one_curves(_Int(8))) == 240
        with pytest.raises(TypeError, match="del Pezzo index"):
            enumerate_minus_one_curves(8.0)

    def test_bool_hirzebruch_rejected(self):
        for n in (True, 2.0):
            with pytest.raises(TypeError, match="Hirzebruch degree"):
                make_hirzebruch(n)

    def test_index_protocol_accepted(self):
        assert make_del_pezzo(_Index(3)).name == "dp3"
        assert enumerate_minus_one_curves(_Index(2)) == enumerate_minus_one_curves(2)
        assert make_hirzebruch(_Index(2)).name == "f2"


class TestDelPezzo:
    def test_dp1_curves_and_mori(self):
        dp1 = make_del_pezzo(1)
        assert dp1.negative_curves == (D([0, 1]),)
        assert set(dp1.mori_generators) == {D([0, 1]), D([1, -1])}

    def test_dp0_mori(self):
        assert make_del_pezzo(0).mori_generators == (D([1]),)

    def test_dp3_six_curves(self):
        assert len(make_del_pezzo(3).negative_curves) == 6

    def test_dp6_twenty_seven_lines(self):
        assert len(make_del_pezzo(6).negative_curves) == 27

    def test_dp9_rejected(self):
        with pytest.raises(ValueError):
            make_del_pezzo(9)

    @pytest.mark.parametrize("k", range(9))
    def test_anticanonical_nef_and_big(self, k):
        s = make_del_pezzo(k)
        minus_k = -s.canonical_class
        assert all(intersect(s, minus_k, c) >= 0 for c in s.mori_generators)
        assert intersect(s, minus_k, minus_k) > 0

    @pytest.mark.parametrize("n", range(5))
    def test_hirzebruch_anticanonical_nef_iff_low_degree(self, n):
        # -K.C0 = 2 - n, so the anticanonical class stops being nef at n = 3;
        # F_3 and F_4 rely on their toric structure, not on -K positivity.
        s = make_hirzebruch(n)
        minus_k = -s.canonical_class
        nef = all(intersect(s, minus_k, c) >= 0 for c in s.mori_generators)
        assert nef == (n <= 2)


class TestConeMembership:
    def test_dp1_hyperplane_inside(self):
        cone = Cone(make_del_pezzo(1).effective_generators)
        assert cone_contains(cone, D([1, 0]))

    def test_dp1_outside(self):
        cone = Cone(make_del_pezzo(1).effective_generators)
        assert not cone_contains(cone, D([1, -2]))

    def test_zero_always_inside(self):
        assert cone_contains(Cone([]), D([0, 0]))
        assert cone_contains(Cone(make_del_pezzo(2).effective_generators), D.zero(3))

    def test_empty_cone_excludes_nonzero(self):
        assert not cone_contains(Cone([]), D([1, 0]))

    def test_dimension_mismatch(self):
        cone = Cone(make_del_pezzo(1).effective_generators)
        with pytest.raises(RankMismatchError):
            cone_contains(cone, D([1, 0, 0]))

    @given(
        a1=st.integers(0, 5),
        b1=st.integers(0, 5),
        a2=st.integers(0, 5),
        b2=st.integers(0, 5),
    )
    def test_monotone_under_addition(self, a1, b1, a2, b2):
        cone = Cone(make_del_pezzo(1).effective_generators)
        d1 = a1 * D([0, 1]) + b1 * D([1, -1])
        d2 = a2 * D([0, 1]) + b2 * D([1, -1])
        assert cone_contains(cone, d1)
        assert cone_contains(cone, d2)
        assert cone_contains(cone, d1 + d2)

    @given(st.lists(st.integers(-6, 6), min_size=9, max_size=9))
    def test_dp8_membership_consistent_with_generators(self, coeffs):
        # A class certified inside must stay inside after adding a generator.
        dp8 = make_del_pezzo(8)
        cone = Cone(dp8.effective_generators)
        d = D(coeffs)
        if cone_contains(cone, d):
            assert cone_contains(cone, d + dp8.effective_generators[0])


class TestLoadSurface:
    def gdp2_dict(self):
        return json.loads(fixture_path("gdp2").read_text())

    def test_gdp2_fixture(self):
        s = gdp2_surface()
        assert s.rank == 3
        assert len(s.negative_curves) == 3
        assert s.regime is Regime.GENERAL
        sq = [intersect(s, c, c) for c in s.negative_curves]
        assert sorted(sq) == [-2, -1, -1]

    def test_asymmetric_matrix_named(self):
        data = self.gdp2_dict()
        data["intersection_matrix"][0][1] = 5
        with pytest.raises(SpecValidationError) as err:
            load_surface(data)
        assert err.value.field == "intersection_matrix"

    def test_non_negative_curve_named(self):
        data = self.gdp2_dict()
        data["negative_curves"].append([1, 0, 0])
        with pytest.raises(SpecValidationError) as err:
            load_surface(data)
        assert err.value.field == "negative_curves"

    def test_malformed_json_raises_a_decode_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": ', encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            read_spec(path)

    def test_missing_field_named(self):
        data = self.gdp2_dict()
        del data["canonical_class"]
        with pytest.raises(SpecValidationError) as err:
            load_surface(data)
        assert err.value.field == "canonical_class"

    def test_stray_field_rejected(self):
        data = self.gdp2_dict()
        data["extra"] = 1
        with pytest.raises(SpecValidationError):
            load_surface(data)

    def test_wrong_vector_length_named(self):
        data = self.gdp2_dict()
        data["mori_generators"][0] = [1, 0]
        with pytest.raises(SpecValidationError) as err:
            load_surface(data)
        assert err.value.field == "mori_generators"

    def test_parity_violation_named(self):
        data = self.gdp2_dict()
        data["canonical_class"] = [-2, 1, 1]
        with pytest.raises(SpecValidationError) as err:
            load_surface(data)
        assert err.value.field == "canonical_class"

    def test_bad_regime_named(self):
        data = self.gdp2_dict()
        data["regime"] = "banana"
        with pytest.raises(SpecValidationError) as err:
            load_surface(data)
        assert err.value.field == "regime"

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"rank": None}, "rank: expected an integer, got None"),
            ({"rank": True}, "rank: expected an integer, got True"),
            ({"chi_structure_sheaf": 1.0}, "chi_structure_sheaf: expected an integer, got 1.0"),
            ({"canonical_class": 3}, "canonical_class: expected a list of integers"),
            ({"canonical_class": [-3, False]}, "canonical_class: expected an integer, got False"),
            ({"intersection_matrix": [1]}, "intersection_matrix: expected a list of integers"),
            ({"negative_curves": None}, "negative_curves: expected a list of integer vectors"),
            ({"mori_generators": [[0, 0, "1"]]}, "mori_generators: expected an integer, got '1'"),
            (
                {"effective_generators": [[0, 0, 0]]},
                "effective_generators: cone generators must be nonzero",
            ),
            ({"rank": 2}, "intersection_matrix: matrix is 3x3 but rank is 2"),
        ],
    )
    def test_one_fault_message(self, fault, message):
        # Each fault is reported with the field it names and a fixed message.
        data = self.gdp2_dict()
        data.update(fault)
        with pytest.raises(SpecValidationError) as err:
            load_surface(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("field", ["name", "regime"])
    @pytest.mark.parametrize("value", [None, 3, [1]], ids=["null", "number", "list"])
    def test_name_and_regime_must_be_strings(self, field, value):
        data = self.gdp2_dict()
        data[field] = value
        with pytest.raises(SpecValidationError) as err:
            load_surface(data)
        assert err.value.field == field
        assert str(err.value) == f"{field}: expected a string, got {value!r}"

    def test_float_vector_rejected(self):
        data = self.gdp2_dict()
        data["canonical_class"] = [-3.0, 1, 1]
        with pytest.raises(SpecValidationError):
            load_surface(data)

    def test_strict_accepts_gdp2(self):
        s = load_surface(self.gdp2_dict())
        assert s.name == "gdp2"

    def test_strict_rejects_wrong_signature(self):
        data = {
            "name": "fake",
            "rank": 3,
            "intersection_matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
            "canonical_class": [1, 1, 1],
            "chi_structure_sheaf": 1,
            "negative_curves": [],
            "mori_generators": [[1, 0, 0]],
            "effective_generators": [[1, 0, 0]],
            "regime": "general",
        }
        with pytest.raises(SpecValidationError) as err:
            load_surface(data)
        assert err.value.field == "intersection_matrix"

    @pytest.mark.parametrize(
        "matrix",
        [[[-1, 0], [0, -1]], [[1, 0], [0, 0]]],
        ids=["negative", "degenerate"],
    )
    def test_non_hodge_signature_rejected(self, matrix):
        data = {
            "name": "fake",
            "rank": 2,
            "intersection_matrix": matrix,
            "canonical_class": [1, 1],
            "chi_structure_sheaf": 1,
            "negative_curves": [],
            "mori_generators": [[1, 0]],
            "effective_generators": [[1, 0]],
            "regime": "general",
        }
        with pytest.raises(SpecValidationError, match="signature") as err:
            load_surface(data)
        assert err.value.field == "intersection_matrix"


def regime_spec(regime, matrix, canonical, chi=1, mori=None, effective=None):
    """A spec with no negative curves that passes every check before the regime's."""
    unit = [[int(i == j) for j in range(len(matrix))] for i in range(len(matrix))]
    return {
        "name": "regime",
        "rank": len(matrix),
        "intersection_matrix": matrix,
        "canonical_class": canonical,
        "chi_structure_sheaf": chi,
        "negative_curves": [],
        "mori_generators": mori or unit,
        "effective_generators": effective or mori or unit,
        "regime": regime,
    }


_K3_FORM = [[0, 1], [1, 0]]
_PLANE_BLOWN_UP_9 = [[int(i == j) * (1 if i == 0 else -1) for j in range(10)] for i in range(10)]


class TestRegimeChecks:
    """load_surface checks what the lattice can show of the claimed regime."""

    @pytest.mark.parametrize(
        "spec, message",
        [
            # The K3 slice (chi(O) = 2, K = 0) under a rational label.
            (
                regime_spec("del_pezzo", _K3_FORM, [0, 0], chi=2),
                "del_pezzo needs -K.g >= 1 for every Mori generator g, but -K.[1, 0] = 0",
            ),
            (
                regime_spec("toric_convex_fan", _K3_FORM, [0, 0], chi=2),
                "toric_convex_fan needs chi(O) = 1, got 2",
            ),
            # The plane blown up at nine points: -K meets H positively, but
            # K^2 = 0.
            (
                regime_spec("del_pezzo", _PLANE_BLOWN_UP_9, [-3] + [1] * 9, mori=[[1] + [0] * 9]),
                "del_pezzo needs K^2 > 0, got 0",
            ),
            (
                regime_spec("del_pezzo", [[1]], [-3], chi=2),
                "del_pezzo needs chi(O) = 1, got 2",
            ),
            (
                regime_spec("del_pezzo", [[1]], [-1]),
                "del_pezzo needs K^2 = 10 - rank = 9 (Noether's formula), got 1",
            ),
            (
                regime_spec("toric_convex_fan", [[1]], [-1]),
                "toric_convex_fan needs K^2 = 10 - rank = 9 (Noether's formula), got 1",
            ),
            # F1's lattice with an effective cone that leaves out -K = 2C0 + 3f.
            (
                regime_spec(
                    "toric_convex_fan", [[-1, 1], [1, 0]], [-2, -3], effective=[[1, 0], [1, 1]]
                ),
                "toric_convex_fan needs -K = [2, 3] in the effective cone",
            ),
            (
                regime_spec("trivial_canonical", _K3_FORM, [2, 0], chi=2),
                "trivial_canonical needs K = 0, got [2, 0]",
            ),
        ],
        ids=[
            "k3-as-del-pezzo",
            "k3-as-toric",
            "del-pezzo-k-square",
            "del-pezzo-chi",
            "del-pezzo-noether",
            "toric-noether",
            "toric-anticanonical",
            "trivial-canonical",
        ],
    )
    def test_claim_that_the_lattice_refutes(self, spec, message):
        with pytest.raises(SpecValidationError) as err:
            load_surface(spec)
        assert err.value.field == "regime"
        assert str(err.value) == f"regime: {message}"

    def test_k3_slice_under_its_own_label(self):
        surface = load_surface(regime_spec("trivial_canonical", _K3_FORM, [0, 0], chi=2))
        assert surface.regime is Regime.TRIVIAL_CANONICAL

    @pytest.mark.parametrize(
        "surface",
        [make_del_pezzo(k) for k in range(9)]
        + [make_hirzebruch(n) for n in range(5)]
        + [catalog_surface("gdp2")]
        + [load_surface(read_spec(fixture_path(name))) for name in ("f2", "gdp2")],
        ids=[f"dp{k}" for k in range(9)] + [f"f{n}" for n in range(5)]
        + ["gdp2", "f2.json", "gdp2.json"],
    )
    def test_catalog_surfaces_pass(self, surface):
        # The builders do not go through load_surface, so run its check here.
        _check_regime(surface)

    def test_seeded_blow_ups_pass_as_toric(self):
        for toric, _ in seeded_blow_ups():
            _check_regime(fan_surface(toric, Regime.TORIC_CONVEX_FAN))


def surface_fields(surface):
    return (
        surface.form,
        surface.canonical_class,
        surface.chi_structure_sheaf,
        surface.negative_curves,
        surface.mori_generators,
        surface.effective_generators,
        surface.regime,
    )


def round_trip(surface):
    """The surface's spec, through JSON and back to a loaded model."""
    spec = {
        "name": surface.name,
        "rank": surface.rank,
        "intersection_matrix": [list(row) for row in surface.form.matrix],
        "canonical_class": list(surface.canonical_class),
        "chi_structure_sheaf": surface.chi_structure_sheaf,
        "negative_curves": [list(c) for c in surface.negative_curves],
        "mori_generators": [list(g) for g in surface.mori_generators],
        "effective_generators": [list(g) for g in surface.effective_generators],
        "regime": surface.regime.value,
    }
    return load_surface(json.loads(json.dumps(spec)))


class TestFixtures:
    def test_shipped_list(self):
        assert set(list_fixtures()) == {"f2", "gdp2"}

    # The catalog builds dp0..dp8 and fN itself; the spec format must carry
    # each of them unchanged.
    @pytest.mark.parametrize("k", range(9))
    def test_dp_fixture_matches_constructor(self, k):
        built = make_del_pezzo(k)
        assert surface_fields(round_trip(built)) == surface_fields(built)

    @pytest.mark.parametrize("n", range(5))
    def test_f_fixture_matches_constructor(self, n):
        built = make_hirzebruch(n)
        assert surface_fields(round_trip(built)) == surface_fields(built)

    def test_shipped_f2_matches_constructor(self):
        loaded = load_surface(read_spec(fixture_path("f2")))
        assert surface_fields(loaded) == surface_fields(make_hirzebruch(2))

    def test_shipped_gdp2_matches_builtin(self):
        # Loading runs the parity and Hodge-index checks that the built-in
        # skips; equality carries them over to it.
        assert catalog_surface("gdp2") == load_surface(read_spec(fixture_path("gdp2")))

    def test_builtin_gdp2_is_cached(self):
        assert catalog_surface("gdp2") is catalog_surface(" GDP2 ")

    def test_unknown_fixture(self):
        with pytest.raises(UnknownSurfaceError):
            fixture_path("dp11")


class TestCatalogLookup:
    def test_names_resolve(self):
        assert catalog_surface("dp3").name == "dp3"
        assert catalog_surface("F2").name == "f2"
        assert catalog_surface("f7").rank == 2
        assert catalog_surface("gdp2").name == "gdp2"

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(UnknownSurfaceError) as err:
            catalog_surface("dp12")
        assert "dp0..dp8" in str(err.value)


def reference_signature(matrix):
    """Inertia by congruent diagonalization over ``Fraction``: true Schur complements."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    pos = neg = null = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                partner = next((k for k in range(i + 1, n) if a[i][k] != 0), None)
                if partner is None:
                    null += 1
                    continue
                for k in range(n):
                    a[i][k] += a[partner][k]
                for row in a:
                    row[i] += row[partner]
        pivot = a[i][i]
        for j in range(i + 1, n):
            if a[j][i] != 0:
                factor = a[j][i] / pivot
                for k in range(n):
                    a[j][k] -= factor * a[i][k]
                for k in range(n):
                    a[k][j] -= factor * a[k][i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
    return pos, neg, null


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of rank 1-9, with the degenerate shapes that
    exercise the zero-pivot steps: zero diagonals, repeated and scaled rows."""
    n = draw(st.integers(1, 9))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(st.integers(-4, 4))
    if draw(st.booleans()):
        for i in range(n):
            a[i][i] = 0
    index = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=3)):
        # Row and column dst become copies of row and column src.
        row = list(a[src])
        row[dst] = a[src][src]
        for k in range(n):
            a[dst][k] = a[k][dst] = row[k]
    for i, c in draw(st.lists(st.tuples(index, st.integers(-3, 3)), max_size=3)):
        for k in range(n):
            a[i][k] *= c
        for k in range(n):
            a[k][i] *= c
    return a


class TestSignature:
    @settings(max_examples=300)
    @given(symmetric_matrices())
    def test_matches_rational_reference(self, matrix):
        assert signature(matrix) == reference_signature(matrix)

    def test_lorentzian(self):
        assert signature([[1, 0], [0, -1]]) == (1, 1, 0)

    def test_hyperbolic_plane(self):
        assert signature([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_degenerate(self):
        assert signature([[1, 2, 0], [2, 4, 0], [0, 0, -1]]) == (1, 1, 1)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1, 0], [0, -1]],
            [[0, 1], [1, 0]],
            [[1, 2, 0], [2, 4, 0], [0, 0, -1]],
            [[-2, 1, 0], [1, -2, 1], [0, 1, 3]],
            [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
            [[0, 2, 0], [2, 0, 0], [0, 0, 0]],
        ],
    )
    def test_hand_cases_match_reference(self, matrix):
        assert signature(matrix) == reference_signature(matrix)

    @pytest.mark.parametrize("k", range(9))
    def test_del_pezzo_matrices_are_lorentzian(self, k):
        s = make_del_pezzo(k)
        assert signature(s.form.matrix) == (1, k, 0)

    @pytest.mark.parametrize("n", range(5))
    def test_hirzebruch_matrices_are_lorentzian(self, n):
        s = make_hirzebruch(n)
        assert signature(s.form.matrix) == (1, 1, 0)
