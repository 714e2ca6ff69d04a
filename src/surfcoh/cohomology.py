"""Cohomology dimensions from the nef-limit index under vanishing certificates.

h0 of an effective class equals the Euler characteristic of its nef
transform limit whenever a vanishing certificate covers that limit; h2
comes from the same machinery applied to K - D, and h1 closes the Euler
characteristic identity. Classes whose limit cannot be certified are
reported unknown rather than silently assigned the index value.
"""

from __future__ import annotations

from enum import Enum

from . import catalog
from .errors import ConsistencyError, NotEffectiveError, NotNefError
from .lattice import (
    DivisorClass,
    Regime,
    SurfaceModel,
    _Frozen,
    euler_characteristic,
    intersect,
    serre_dual,
)
from .transform import TransformTrace, is_effective, is_nef, iterate_to_nef


class CertificateRule(Enum):
    KAWAMATA_VIEHWEG = "kawamata_viehweg"
    DEMAZURE = "demazure"
    NONE = "none"


class VanishingCertificate(_Frozen):
    """How the vanishing of higher cohomology was (or was not) justified."""

    __match_args__ = ("rule", "detail")

    rule: CertificateRule
    detail: str

    def __init__(self, rule: CertificateRule, detail: str):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "detail", detail)

    @property
    def certified(self) -> bool:
        return self.rule is not CertificateRule.NONE

    @property
    def status(self) -> str:
        return "certified" if self.certified else "uncertified"

    def to_json(self) -> dict:
        return {"status": self.status, "rule": self.rule.value, "detail": self.detail}


class CohomologyResult(_Frozen):
    """h0, h1, h2 and chi for one divisor class.

    Fields are None when the pipeline could not certify the value; chi is
    always known. The attached trace is the transform history of the input
    class when it was effective.
    """

    __match_args__ = ("h0", "h1", "h2", "chi", "certificate", "trace")

    h0: int | None
    h1: int | None
    h2: int | None
    chi: int
    certificate: VanishingCertificate
    trace: TransformTrace | None

    def __init__(
        self,
        h0: int | None,
        h1: int | None,
        h2: int | None,
        chi: int,
        certificate: VanishingCertificate,
        trace: TransformTrace | None = None,
    ):
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "trace", trace)

    def to_json(self) -> dict:
        return {
            "h0": self.h0,
            "h1": self.h1,
            "h2": self.h2,
            "chi": self.chi,
            "certificate": self.certificate.to_json(),
            "trace": self.trace.to_json() if self.trace is not None else None,
        }

    def summary_line(self) -> str:
        def fmt(v: int | None) -> str:
            return "unknown" if v is None else str(v)

        return (
            f"h0={fmt(self.h0)} h1={fmt(self.h1)} h2={fmt(self.h2)} "
            f"chi={self.chi}, certificate {self.certificate.rule.value}"
        )


# The certificates that do not depend on the class, built once.
_DEMAZURE = VanishingCertificate(
    CertificateRule.DEMAZURE,
    "complete toric fan: higher cohomology of any nef class vanishes",
)
_DEL_PEZZO = VanishingCertificate(
    CertificateRule.KAWAMATA_VIEHWEG,
    "del Pezzo surface: the shifted class d - K is automatically nef and big",
)
_NOT_EFFECTIVE = VanishingCertificate(
    CertificateRule.NONE, "class has no section; h0 = 0 unconditionally"
)


def certify_vanishing(surface: SurfaceModel, d_nef: DivisorClass) -> VanishingCertificate:
    """Vanishing certificate for the higher cohomology of a nef class.

    Toric surfaces with complete fans and del Pezzo surfaces are certified
    outright, on the strength of the surface's regime, which
    ``load_surface`` checks against the lattice data of a spec; otherwise
    the shifted class d - K must be nef and big (Kawamata-Viehweg). A
    shifted class that is ample in the Nakai-Moishezon sense is nef and
    big, so needs no separate rule.
    """
    if not is_nef(surface, d_nef):
        raise NotNefError(f"class {d_nef} is not nef on {surface.name!r}")
    if surface.regime is Regime.TORIC_CONVEX_FAN:
        return _DEMAZURE
    if surface.regime is Regime.DEL_PEZZO:
        return _DEL_PEZZO
    shifted = d_nef - surface.canonical_class
    shifted_sq = intersect(surface, shifted, shifted)
    if is_nef(surface, shifted) and shifted_sq > 0:
        return VanishingCertificate(
            CertificateRule.KAWAMATA_VIEHWEG,
            f"d - K is nef with (d - K)^2 = {shifted_sq} > 0",
        )
    return VanishingCertificate(
        CertificateRule.NONE,
        "d - K is not nef and big; no vanishing certificate applies",
    )


def _h0_branch(
    surface: SurfaceModel, d: DivisorClass
) -> tuple[int | None, TransformTrace | None, VanishingCertificate]:
    # iterate_to_nef decides effectiveness itself; one decision per branch.
    try:
        trace = iterate_to_nef(surface, d)
    except NotEffectiveError:
        return 0, None, _NOT_EFFECTIVE
    certificate = certify_vanishing(surface, trace.limit)
    if not certificate.certified:
        return None, trace, certificate
    h0 = euler_characteristic(surface, trace.limit)
    if h0 < 0:
        raise ConsistencyError(
            f"index of nef limit {trace.limit} is {h0} < 0 on {surface.name!r}; "
            f"surface data is inconsistent"
        )
    return h0, trace, certificate


def cohomology(surface: SurfaceModel, d: DivisorClass) -> CohomologyResult:
    """Full cohomology of O(d): h0 via the nef limit, h2 via K - d, h1 by chi.

    A class without a section gets h0 = 0: outside the effective cone
    without running the transform, inside it when its transform needs a
    step at a class that meets an ample class negatively. h1 is only
    reported when both h0 and h2 are certified; a negative h1 would
    contradict the index identity and raises instead.
    """
    chi = euler_characteristic(surface, d)
    h0, trace, certificate = _h0_branch(surface, d)
    h2, _, _ = _h0_branch(surface, serre_dual(surface, d))
    h1: int | None = None
    if h0 is not None and h2 is not None:
        h1 = h0 + h2 - chi
        if h1 < 0:
            raise ConsistencyError(
                f"h0 + h2 - chi = {h0} + {h2} - {chi} < 0 for {d} on "
                f"{surface.name!r}; surface data is inconsistent"
            )
    return CohomologyResult(h0=h0, h1=h1, h2=h2, chi=chi, certificate=certificate, trace=trace)


def del_pezzo_h0(surface: SurfaceModel, d: DivisorClass) -> int:
    """Closed form on del Pezzo surfaces: chi of d + sum (d.C) C over curves met negatively.

    Every negative curve has square -1, so the correction equals a single
    transform step and the result is already nef.
    """
    if surface.regime is not Regime.DEL_PEZZO:
        raise ValueError(f"surface {surface.name!r} is not in the del Pezzo regime")
    if not is_effective(surface, d):
        raise NotEffectiveError(f"class {d} is not effective on {surface.name!r}")
    shifted = d
    for curve in surface.negative_curves:
        product = intersect(surface, d, curve)
        if product < 0:
            shifted = shifted + product * curve
    return euler_characteristic(surface, shifted)


def hirzebruch_h0(surface: SurfaceModel, d: DivisorClass) -> int:
    """Closed form on F_n: chi of d corrected along the unique negative curve.

    For n = 0 there is no negative curve and h0 = chi(d) outright. The
    correction multiplicity is ceil((-d.C0) / n) when d.C0 < 0, zero
    otherwise (the Heaviside factor with theta(0) = 0).
    """
    n = catalog.hirzebruch_degree(surface)
    if n is None:
        raise ValueError(f"surface {surface.name!r} is not a Hirzebruch model")
    if not is_effective(surface, d):
        raise NotEffectiveError(f"class {d} is not effective on {surface.name!r}")
    if n == 0:
        return euler_characteristic(surface, d)
    c0 = surface.negative_curves[0]
    product = intersect(surface, d, c0)
    if product < 0:
        multiplicity = (-product + n - 1) // n
        d = d - multiplicity * c0
    return euler_characteristic(surface, d)
