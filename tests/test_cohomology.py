"""Certificates, the full h0/h1/h2 pipeline, and both closed forms."""

from __future__ import annotations

import itertools

import pytest

from conftest import (
    SAMPLED_DEL_PEZZO,
    box_classes,
    check_report,
    del_pezzo_acceptance_sample,
    gdp2_surface,
    k3_like_surface,
    sampled_effective_classes,
)
from surfcoh import (
    CertificateRule,
    ConsistencyError,
    DivisorClass,
    IntersectionForm,
    NotEffectiveError,
    NotNefError,
    Regime,
    SurfaceModel,
    VanishingCertificate,
    certify_vanishing,
    cohomology,
    del_pezzo_h0,
    euler_characteristic,
    hirzebruch_h0,
    is_effective,
    is_nef,
    iterate_to_nef,
    make_del_pezzo,
    make_hirzebruch,
    oracle_h0,
    serre_dual,
    toric_model,
)
from surfcoh import transform

D = DivisorClass


class TestCertifyVanishing:
    def test_del_pezzo_always_certified(self):
        cert = certify_vanishing(make_del_pezzo(1), D([2, 0]))
        assert cert.certified
        assert cert.rule is CertificateRule.KAWAMATA_VIEHWEG

    def test_toric_uses_demazure(self):
        cert = certify_vanishing(make_hirzebruch(2), D([0, 1]))
        assert cert.rule is CertificateRule.DEMAZURE

    def test_trivial_canonical_square_zero_uncertified(self):
        surface = k3_like_surface()
        d = D([1, 0])
        assert is_nef(surface, d)
        cert = certify_vanishing(surface, d)
        assert not cert.certified
        assert cert.rule is CertificateRule.NONE
        assert cert.status == "uncertified"

    def test_trivial_canonical_positive_square_certified(self):
        cert = certify_vanishing(k3_like_surface(), D([1, 1]))
        assert cert.certified

    def test_general_regime_kawamata_viehweg(self):
        cert = certify_vanishing(gdp2_surface(), D([2, 0, 0]))
        assert cert.rule is CertificateRule.KAWAMATA_VIEHWEG

    def test_non_nef_rejected(self):
        with pytest.raises(NotNefError):
            certify_vanishing(make_hirzebruch(2), D([1, 0]))

    def test_json_keys(self):
        cert = certify_vanishing(make_del_pezzo(2), D.zero(3))
        data = cert.to_json()
        assert set(data) == {"status", "rule", "detail"}
        assert data["status"] == "certified"

    @pytest.mark.parametrize(
        "surface, limit, rule, detail",
        [
            (
                make_hirzebruch(2),
                D([0, 1]),
                CertificateRule.DEMAZURE,
                "complete toric fan: higher cohomology of any nef class vanishes",
            ),
            (
                make_del_pezzo(3),
                D([3, -1, -1, -1]),
                CertificateRule.KAWAMATA_VIEHWEG,
                "del Pezzo surface: the shifted class d - K is automatically nef and big",
            ),
        ],
        ids=["demazure", "del_pezzo"],
    )
    def test_regime_certificates_are_the_records_they_replace(
        self, surface, limit, rule, detail
    ):
        # The regime shortcuts return one shared record per regime; it must
        # equal, hash and serialise as the record that was built per call.
        built = VanishingCertificate(rule, detail)
        cert = certify_vanishing(surface, limit)
        assert cert == built and hash(cert) == hash(built)
        assert cert.to_json() == built.to_json() == {
            "status": "certified",
            "rule": rule.value,
            "detail": detail,
        }
        assert certify_vanishing(surface, D.zero(surface.rank)) is cert


class TestCohomology:
    def test_dp1_conic_pullback(self):
        result = cohomology(make_del_pezzo(1), D([2, 1]))
        assert (result.h0, result.h1, result.h2, result.chi) == (6, 0, 0, 6)
        assert result.certificate.rule is CertificateRule.KAWAMATA_VIEHWEG
        assert result.trace is not None and result.trace.limit == D([2, 0])

    def test_f2_negative_section_has_h1(self):
        result = cohomology(make_hirzebruch(2), D([1, 0]))
        assert (result.h0, result.h1, result.h2, result.chi) == (1, 1, 0, 0)
        toric, _ = toric_model("f2")
        assert oracle_h0(toric, D([1, 0])) == 1

    @pytest.mark.parametrize(
        "surface",
        [make_del_pezzo(k) for k in range(4)] + [make_hirzebruch(n) for n in range(5)],
        ids=lambda s: s.name,
    )
    def test_zero_class(self, surface):
        result = cohomology(surface, D.zero(surface.rank))
        assert (result.h0, result.h1, result.h2, result.chi) == (1, 0, 0, 1)
        assert result.trace is not None and result.trace.step_count == 0

    def test_non_effective_class_h0_zero(self):
        result = cohomology(make_del_pezzo(1), D([1, -2]))
        assert result.h0 == 0
        assert result.trace is None
        assert not result.certificate.certified

    def test_uncertified_square_zero_on_k3_slice(self):
        result = cohomology(k3_like_surface(), D([1, 0]))
        assert result.h0 is None
        assert result.h1 is None
        assert result.h2 == 0
        assert result.chi == 2
        assert result.trace is not None

    def test_consistency_error_on_phantom_curve(self):
        # An honest dP1 lattice with a phantom negative class listed as a
        # curve: the transform overshoots and h1 would come out negative.
        phantom = SurfaceModel(
            name="phantom",
            rank=2,
            form=IntersectionForm([[1, 0], [0, -1]]),
            canonical_class=D([-3, 1]),
            chi_structure_sheaf=1,
            negative_curves=(D([1, -2]),),
            mori_generators=(D([0, 1]), D([1, -1])),
            effective_generators=(D([0, 1]), D([1, -1])),
            regime=Regime.GENERAL,
        )
        with pytest.raises(ConsistencyError):
            cohomology(phantom, D([3, -2]))

    def test_one_effectiveness_decision_per_branch(self, monkeypatch):
        decided = []
        original = transform.cone_contains

        def counted(cone, d):
            decided.append(d)
            return original(cone, d)

        monkeypatch.setattr(transform, "cone_contains", counted)
        surface = gdp2_surface()
        classes = list(box_classes(3, -3, 3))
        for d in classes:
            cohomology(surface, d)
        assert len(decided) == 2 * len(classes)

    def test_json_shape(self):
        data = cohomology(make_del_pezzo(1), D([2, 1])).to_json()
        assert set(data) == {"h0", "h1", "h2", "chi", "certificate", "trace"}
        assert data["trace"]["limit"] == [2, 0]

    def test_summary_line(self):
        line = cohomology(make_del_pezzo(1), D([2, 1])).summary_line()
        assert line == "h0=6 h1=0 h2=0 chi=6, certificate kawamata_viehweg"


class TestDelPezzoClosedForm:
    def test_dp2_line_through_both_points(self):
        assert del_pezzo_h0(make_del_pezzo(2), D([1, 1, 1])) == 3

    def test_dp1_conic_pullback(self):
        assert del_pezzo_h0(make_del_pezzo(1), D([2, 1])) == 6

    def test_dp3_anticanonical(self):
        dp3 = make_del_pezzo(3)
        assert del_pezzo_h0(dp3, -dp3.canonical_class) == 7

    def test_wrong_regime_rejected(self):
        with pytest.raises(ValueError):
            del_pezzo_h0(make_hirzebruch(2), D([1, 1]))

    def test_non_effective_rejected(self):
        with pytest.raises(NotEffectiveError):
            del_pezzo_h0(make_del_pezzo(1), D([1, -2]))

    @pytest.mark.parametrize("k", range(4))
    def test_agrees_with_pipeline_small_box(self, k):
        surface = make_del_pezzo(k)
        for d in box_classes(surface.rank, -4, 4):
            if is_effective(surface, d):
                assert del_pezzo_h0(surface, d) == cohomology(surface, d).h0


class TestHirzebruchClosedForm:
    def test_f2_section_plus_fiber(self):
        assert hirzebruch_h0(make_hirzebruch(2), D([1, 1])) == 2

    def test_f2_nef_class_needs_no_correction(self):
        f2 = make_hirzebruch(2)
        toric, _ = toric_model("f2")
        d = D([1, 2])
        assert hirzebruch_h0(f2, d) == oracle_h0(toric, d) == 4

    def test_f0_bidegree_count(self):
        f0 = make_hirzebruch(0)
        for a, b in itertools.product(range(4), repeat=2):
            monomials = (a + 1) * (b + 1)
            assert hirzebruch_h0(f0, D([a, b])) == monomials

    def test_wrong_surface_rejected(self):
        with pytest.raises(ValueError):
            hirzebruch_h0(make_del_pezzo(1), D([1, 1]))
        with pytest.raises(ValueError):
            hirzebruch_h0(gdp2_surface(), D([1, 1, 0]))

    def test_non_effective_rejected(self):
        with pytest.raises(NotEffectiveError):
            hirzebruch_h0(make_hirzebruch(2), D([-1, 0]))

    @pytest.mark.parametrize("n", range(5))
    def test_agrees_with_pipeline_small_box(self, n):
        surface = make_hirzebruch(n)
        for d in box_classes(surface.rank, -4, 4):
            if is_effective(surface, d):
                assert hirzebruch_h0(surface, d) == cohomology(surface, d).h0


class TestPipelineIdentities:
    SURFACES = [make_del_pezzo(k) for k in range(3)] + [
        make_hirzebruch(n) for n in range(3)
    ]

    @pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.name)
    def test_index_identity_and_duality(self, surface):
        for d in box_classes(surface.rank, -4, 4):
            result = cohomology(surface, d)
            dual = cohomology(surface, serre_dual(surface, d))
            assert result.h2 == dual.h0
            if None not in (result.h0, result.h1, result.h2):
                assert result.h0 - result.h1 + result.h2 == result.chi
                assert result.h1 >= 0

    @pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.name)
    def test_non_effective_classes_have_no_sections(self, surface):
        for d in box_classes(surface.rank, -4, 4):
            if not is_effective(surface, d):
                assert cohomology(surface, d).h0 == 0

    def test_transform_preserves_oracle_count(self):
        # The oracle knows nothing about the transform: counting sections
        # before and after must agree for arbitrary effective classes.
        for name in ("f0", "f1", "f2", "f3", "f4", "dp1", "dp2", "dp3"):
            toric, surface = toric_model(name)
            for d in box_classes(surface.rank, -3, 3):
                if is_effective(surface, d):
                    limit = iterate_to_nef(surface, d).limit
                    assert oracle_h0(toric, d) == oracle_h0(toric, limit)

    @pytest.mark.parametrize("k", [5, 8])
    def test_sampled_high_rank_del_pezzo(self, k):
        surface = make_del_pezzo(k)
        for d in sampled_effective_classes(surface, 60, f"coh:{k}"):
            result = cohomology(surface, d)
            assert result.h0 == del_pezzo_h0(surface, d)
            assert result.h0 == euler_characteristic(surface, iterate_to_nef(surface, d).limit)
            assert result.h1 is not None and result.h1 >= 0


class TestReportChecker:
    """check_report against the acceptance samples, gdp2 and tampered payloads."""

    @pytest.mark.parametrize("k", sorted(SAMPLED_DEL_PEZZO))
    def test_del_pezzo_acceptance_samples(self, k):
        surface = make_del_pezzo(k)
        effective, box = del_pezzo_acceptance_sample(k)
        for d in effective + box:
            check_report(surface, d, cohomology(surface, d).to_json())

    def test_gdp2_box(self):
        surface = gdp2_surface()
        rules = set()
        for d in box_classes(3, -4, 4):
            payload = cohomology(surface, d).to_json()
            check_report(surface, d, payload)
            rules.add(payload["certificate"]["rule"])
        assert rules == {"kawamata_viehweg", "none"}

    @pytest.mark.parametrize(
        "tamper",
        [
            pytest.param(lambda p: p.update(h0=p["h0"] + 1), id="h0"),
            pytest.param(lambda p: p.update(h1=p["h1"] + 1), id="h1"),
            pytest.param(lambda p: p.update(chi=p["chi"] - 1), id="chi"),
            pytest.param(
                lambda p: p["trace"]["steps"][0]["fixed_part"][0].update(multiplicity=2),
                id="multiplicity",
            ),
            pytest.param(lambda p: p["trace"]["steps"].reverse(), id="step-order"),
            pytest.param(lambda p: p["trace"].update(limit=[2, 1, 0]), id="limit"),
            pytest.param(
                lambda p: p["certificate"].update(rule="none", status="uncertified"), id="rule"
            ),
            pytest.param(
                lambda p: p["certificate"].update(detail="d - K is nef with (d - K)^2 = 5 > 0"),
                id="square",
            ),
        ],
    )
    def test_tampered_payload_fails(self, tamper):
        # gdp2 (2, 2, 0) takes four steps to (2, 0, 0) under Kawamata-Viehweg.
        surface, d = gdp2_surface(), D([2, 2, 0])
        payload = cohomology(surface, d).to_json()
        check_report(surface, d, payload)
        tamper(payload)
        with pytest.raises(AssertionError):
            check_report(surface, d, payload)
