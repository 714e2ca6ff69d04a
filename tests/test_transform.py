"""Transform steps, iteration to the nef cone, and the abutment properties."""

from __future__ import annotations

import pytest

from conftest import (
    box_classes,
    gdp2_surface,
    k3_like_surface,
    sampled_effective_classes,
)
from surfcoh import (
    ConsistencyError,
    DivisorClass,
    IntersectionForm,
    NotEffectiveError,
    Regime,
    SurfaceModel,
    cohomology,
    intersect,
    is_effective,
    is_nef,
    isoparametric_step,
    iterate_to_nef,
    make_del_pezzo,
    make_hirzebruch,
)

D = DivisorClass


class TestIsNef:
    def test_f2_fiber(self):
        assert is_nef(make_hirzebruch(2), D([0, 1]))

    def test_f2_section(self):
        assert not is_nef(make_hirzebruch(2), D([1, 0]))

    def test_dp3_anticanonical(self):
        dp3 = make_del_pezzo(3)
        minus_k = -dp3.canonical_class
        assert minus_k == D([3, -1, -1, -1])
        assert is_nef(dp3, minus_k)
        # it meets every line once
        for c in dp3.negative_curves:
            assert intersect(dp3, minus_k, c) == 1


class TestIsEffective:
    def test_dp1_examples(self):
        dp1 = make_del_pezzo(1)
        assert is_effective(dp1, D([2, 1]))
        assert not is_effective(dp1, D([1, -2]))
        assert is_effective(dp1, D.zero(2))

    def test_gdp2_zero(self):
        assert is_effective(gdp2_surface(), D.zero(3))

    def test_kept_cone_leaves_surface_identity(self):
        # The surface's kernel (effective cone, curve and Mori data) is kept
        # on it after first use; the surface must still equal, hash and
        # print like one never queried.
        used, fresh = make_hirzebruch(3), make_hirzebruch(3)
        assert is_effective(used, D([1, 1]))
        assert iterate_to_nef(used, D([1, 1])).limit == D([0, 1])
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)


class TestStep:
    def test_dp1_removes_exceptional_curve(self):
        dp1 = make_del_pezzo(1)
        result, fixed = isoparametric_step(dp1, D([2, 1]))
        assert result == D([2, 0])
        assert fixed.terms == ((D([0, 1]), 1),)

    def test_nef_class_is_fixed_point(self):
        f2 = make_hirzebruch(2)
        result, fixed = isoparametric_step(f2, D([1, 2]))
        assert result == D([1, 2])
        assert fixed.is_empty

    def test_f2_ceiling_multiplicity(self):
        f2 = make_hirzebruch(2)
        result, fixed = isoparametric_step(f2, D([1, 1]))
        assert result == D([0, 1])
        assert fixed.terms == ((D([1, 0]), 1),)

    def test_non_effective_rejected(self):
        with pytest.raises(NotEffectiveError):
            isoparametric_step(make_del_pezzo(1), D([1, -2]))


def two_curve_surface(matrix) -> SurfaceModel:
    """Rank 2 with negative curves e1 and e2, and e1 - e2 effective both ways."""
    e1, e2 = D([1, 0]), D([0, 1])
    return SurfaceModel(
        name="two-curve",
        rank=2,
        form=IntersectionForm(matrix),
        canonical_class=D([0, 0]),
        chi_structure_sheaf=1,
        negative_curves=(e1, e2),
        mori_generators=(e1, e2),
        effective_generators=(e1, e2, e1 - e2, e2 - e1),
        regime=Regime.GENERAL,
    )


class TestIterate:
    def test_dp1_one_step(self):
        trace = iterate_to_nef(make_del_pezzo(1), D([2, 1]))
        assert trace.limit == D([2, 0])
        assert trace.step_count == 1

    def test_f2_nef_input_zero_steps(self):
        trace = iterate_to_nef(make_hirzebruch(2), D([1, 2]))
        assert trace.limit == D([1, 2])
        assert trace.step_count == 0

    def test_gdp2_four_step_trace(self):
        trace = iterate_to_nef(gdp2_surface(), D([2, 2, 0]))
        assert trace.step_count == 4
        assert trace.limit == D([2, 0, 0])
        curves = [step.fixed_part.terms for step in trace.steps]
        assert curves == [
            ((D([0, 1, -1]), 1),),
            ((D([0, 0, 1]), 1),),
            ((D([0, 1, -1]), 1),),
            ((D([0, 0, 1]), 1),),
        ]
        assert [step.result for step in trace.steps] == [
            D([2, 1, 1]),
            D([2, 1, 0]),
            D([2, 0, 1]),
            D([2, 0, 0]),
        ]

    def test_step_below_the_ample_degree_shows_no_section(self):
        # Curves of square -3 meeting in 6; A = e1 + e2 meets both in 3. One
        # step takes (5, -2) at D·A = 9 to (-4, -2) at D·A = -18, which still
        # needs a step, so (5, -2) has no section.
        surface = two_curve_surface([[-3, 6], [6, -3]])
        assert isoparametric_step(surface, D([5, -2]))[0] == D([-4, -2])
        with pytest.raises(NotEffectiveError) as err:
            iterate_to_nef(surface, D([5, -2]))
        assert "reached [-4, -2]" in str(err.value)
        # D² = -207 is odd, so `cohomology` raises for (5, -2) before its h0
        # branch. (6, -2) strips to the same class, and has chi = -131.
        result = cohomology(surface, D([6, -2]))
        assert (result.h0, result.h1, result.h2, result.chi) == (0, 131, 0, -131)
        assert result.trace is None

    def test_no_ample_class(self):
        # e1·e2 = 1 = -e1² makes the two curves opposite: no class meets both
        # positively, so a needed step raises and a nef class needs none.
        surface = two_curve_surface([[-1, 1], [1, -1]])
        with pytest.raises(ConsistencyError):
            iterate_to_nef(surface, D([6, 1]))
        trace = iterate_to_nef(surface, D([1, 1]))
        assert trace.step_count == 0
        assert trace.limit == D([1, 1])

    def test_non_effective_rejected(self):
        with pytest.raises(NotEffectiveError):
            iterate_to_nef(make_del_pezzo(1), D([1, -2]))

    def test_non_effective_message(self):
        with pytest.raises(NotEffectiveError) as err:
            iterate_to_nef(make_del_pezzo(1), D([1, -2]))
        assert type(err.value) is NotEffectiveError
        assert err.value.args == (
            "class [1, -2] is not effective on 'dp1', so it has no section",
        )

    def test_incomplete_curve_list_detected(self):
        # A negative class is reachable but listed nowhere, so the empty
        # fixed part contradicts nefness of the limit.
        liar = SurfaceModel(
            name="liar",
            rank=1,
            form=IntersectionForm([[-2]]),
            canonical_class=D([0]),
            chi_structure_sheaf=1,
            negative_curves=(),
            mori_generators=(D([1]),),
            effective_generators=(D([1]),),
            regime=Regime.GENERAL,
        )
        with pytest.raises(ConsistencyError):
            iterate_to_nef(liar, D([2]))

    def test_deterministic_traces(self):
        surface = gdp2_surface()
        first = iterate_to_nef(surface, D([2, 2, 0]))
        second = iterate_to_nef(surface, D([2, 2, 0]))
        assert first == second

    def test_trace_json_shape(self):
        trace = iterate_to_nef(gdp2_surface(), D([2, 2, 0]))
        data = trace.to_json()
        assert data["input"] == [2, 2, 0]
        assert data["limit"] == [2, 0, 0]
        assert data["step_count"] == 4
        assert data["steps"][0]["fixed_part"] == [
            {"curve": [0, 1, -1], "multiplicity": 1}
        ]


def _effective_box(surface, lo=-5, hi=5):
    for d in box_classes(surface.rank, lo, hi):
        if is_effective(surface, d):
            yield d


SMALL = [make_del_pezzo(k) for k in range(3)] + [
    make_hirzebruch(n) for n in range(5)
] + [gdp2_surface()]


class TestAbutmentProperties:
    @pytest.mark.parametrize("surface", SMALL, ids=lambda s: s.name)
    def test_limits_are_nef_fixed_points(self, surface):
        for d in _effective_box(surface, -4, 4):
            trace = iterate_to_nef(surface, d)
            assert is_nef(surface, trace.limit)
            result, fixed = isoparametric_step(surface, trace.limit)
            assert result == trace.limit and fixed.is_empty

    @pytest.mark.parametrize("surface", SMALL, ids=lambda s: s.name)
    def test_intermediate_classes_stay_effective(self, surface):
        for d in _effective_box(surface, -3, 3):
            for step in iterate_to_nef(surface, d).steps:
                assert is_effective(surface, step.result)

    @pytest.mark.parametrize(
        "surface",
        [make_del_pezzo(k) for k in range(3)]
        + [make_hirzebruch(0), make_hirzebruch(1)],
        ids=lambda s: s.name,
    )
    def test_one_step_without_deep_curves(self, surface):
        for d in _effective_box(surface, -4, 4):
            assert iterate_to_nef(surface, d).step_count <= 1

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_one_step_on_higher_del_pezzo_samples(self, k):
        surface = make_del_pezzo(k)
        for d in sampled_effective_classes(surface, 120, f"one-step:{k}"):
            assert iterate_to_nef(surface, d).step_count <= 1

    def test_gdp2_requires_multiple_steps(self):
        assert iterate_to_nef(gdp2_surface(), D([2, 2, 0])).step_count >= 2

    def test_nef_classes_untouched_on_k3_slice(self):
        surface = k3_like_surface()
        for d in _effective_box(surface, -4, 4):
            trace = iterate_to_nef(surface, d)
            assert trace.step_count == 0 and trace.limit == d


class TestPairwiseBounds:
    @pytest.mark.parametrize("surface", SMALL, ids=lambda s: s.name)
    def test_lemma_bound_over_met_pairs(self, surface):
        for d in _effective_box(surface, -4, 4):
            met = [
                c
                for c in surface.negative_curves
                if intersect(surface, d, c) < 0
            ]
            for i, a in enumerate(met):
                for b in met[i + 1 :]:
                    bound = max(
                        -intersect(surface, a, a), -intersect(surface, b, b)
                    )
                    assert intersect(surface, a, b) < bound

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_del_pezzo_met_sets_are_orthonormal(self, k):
        surface = make_del_pezzo(k)
        classes = (
            list(_effective_box(surface, -4, 4))
            if k <= 3
            else sampled_effective_classes(surface, 120, f"ortho:{k}")
        )
        for d in classes:
            met = [
                c
                for c in surface.negative_curves
                if intersect(surface, d, c) < 0
            ]
            for i, a in enumerate(met):
                assert intersect(surface, a, a) == -1
                for b in met[i + 1 :]:
                    assert intersect(surface, a, b) == 0
