"""Cremona reduction: an h0 oracle for dP1..dP8 independent of the pipeline.

For points in general position, h0 of D = dH - sum m_i E_i follows from
classical Cremona reduction (Nagata, "On rational surfaces II", 1960;
Harbourne, "Complete linear systems on rational surfaces", 1985), with no
negative curves, cones or intersection pairing:

- a negative m_i makes E_i a fixed component, so it is set to 0;
- if d < 0 there are no sections;
- with m_1 >= m_2 >= m_3 the three largest, e = m_1 + m_2 + m_3 - d > 0
  calls for the quadratic transform centred at those points, which keeps
  h0 and maps (d, m_1, m_2, m_3) to (d - e, m_1 - e, m_2 - e, m_3 - e);
- at standard form (e <= 0) the class is nef, and with at most eight
  general points a nef class has h0 equal to the plane-curve index
  C(d + 2, 2) - sum C(m_i + 1, 2).

``cremona_h0`` reads the coefficients in the basis H, E_1, ..., E_k of
``make_del_pezzo`` and uses nothing from ``lattice``, ``cones`` or
``transform``. It does not apply to gdp2, whose points are infinitely near.
"""

from __future__ import annotations

import itertools

import pytest

from conftest import SAMPLED_DEL_PEZZO, del_pezzo_acceptance_sample
from surfcoh import DivisorClass, NotEffectiveError, cohomology, del_pezzo_h0, make_del_pezzo


def cremona_h0(coefficients: tuple[int, ...]) -> int:
    """h0 of d H + sum a_i E_i on P2 blown up at k <= 8 general points."""
    d = coefficients[0]
    m = [-a for a in coefficients[1:]] + [0, 0, 0]
    while True:
        m = sorted((max(x, 0) for x in m), reverse=True)
        if d < 0:
            return 0
        e = m[0] + m[1] + m[2] - d
        if e <= 0:
            return (d + 2) * (d + 1) // 2 - sum(x * (x + 1) // 2 for x in m)
        d -= e
        m[0] -= e
        m[1] -= e
        m[2] -= e


class TestReduction:
    def test_plane_and_classical_values(self):
        assert cremona_h0((0,)) == 1
        assert cremona_h0((-1,)) == 0
        assert cremona_h0((3,)) == 10
        # dP1: E1 is a fixed component of 2H + E1.
        assert cremona_h0((2, 1)) == 6
        # Lines through two points, and the (-1)-curve H - E1 - E2 itself.
        assert cremona_h0((1, -1, -1)) == 1
        # Conics through five points: one; the quadratic transform takes
        # 2H - E1 - ... - E5 to a line through two points.
        assert cremona_h0((2, -1, -1, -1, -1, -1)) == 1
        # -K on dP_k: h0 = 10 - k.
        for k in range(1, 9):
            assert cremona_h0((3,) + (-1,) * k) == 10 - k
        # Cubics double at one point and through six more: a (-1)-curve on
        # dP8; through all seven more they square to -2 and do not exist.
        assert cremona_h0((3, -2) + (-1,) * 6 + (0,)) == 1
        assert cremona_h0((3, -2) + (-1,) * 7) == 0
        # A line through three general points does not exist.
        assert cremona_h0((1, -1, -1, -1)) == 0


@pytest.mark.parametrize("k", sorted(SAMPLED_DEL_PEZZO))
class TestAcceptanceSamples:
    def test_pipeline_h0(self, k):
        surface = make_del_pezzo(k)
        mori, box = del_pezzo_acceptance_sample(k)
        mismatches = [
            d for d in mori + box if cohomology(surface, d).h0 != cremona_h0(d.coefficients)
        ]
        assert mismatches == []

    def test_del_pezzo_h0(self, k):
        # h0 > 0 exactly on effective classes, where the closed form applies.
        surface = make_del_pezzo(k)
        mori, box = del_pezzo_acceptance_sample(k)
        for d in mori + box:
            expected = cremona_h0(d.coefficients)
            if expected:
                assert del_pezzo_h0(surface, d) == expected, d
            else:
                with pytest.raises(NotEffectiveError):
                    del_pezzo_h0(surface, d)


def test_dp4_box():
    surface = make_del_pezzo(4)
    mismatches = [
        coeffs
        for coeffs in itertools.product(range(-3, 4), repeat=surface.rank)
        if cohomology(surface, DivisorClass(coeffs)).h0 != cremona_h0(coeffs)
    ]
    assert mismatches == []
