"""Shared surfaces, class samplers and hypothesis settings for the test suite."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from operator import mul

from hypothesis import HealthCheck, settings

from surfcoh import (
    DivisorClass,
    IntersectionForm,
    Regime,
    SurfaceModel,
    fixture_path,
    load_surface,
    make_del_pezzo,
    make_hirzebruch,
    read_spec,
)
from surfcoh import toric as toric_module

settings.register_profile(
    "surfcoh",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("surfcoh")

DEL_PEZZO_RANGE = range(9)
HIRZEBRUCH_RANGE = range(5)


@lru_cache(maxsize=None)
def gdp2_surface() -> SurfaceModel:
    return load_surface(read_spec(fixture_path("gdp2")))


@lru_cache(maxsize=None)
def k3_like_surface() -> SurfaceModel:
    """Rank-2 hyperbolic slice of a K3 lattice: trivial canonical class, chi(O) = 2."""
    d1, d2 = DivisorClass([1, 0]), DivisorClass([0, 1])
    return SurfaceModel(
        name="k3_slice",
        rank=2,
        form=IntersectionForm([[0, 1], [1, 0]]),
        canonical_class=DivisorClass.zero(2),
        chi_structure_sheaf=2,
        negative_curves=(),
        mori_generators=(d1, d2),
        effective_generators=(d1, d2),
        regime=Regime.TRIVIAL_CANONICAL,
    )


def all_catalog_surfaces() -> list[SurfaceModel]:
    return [make_del_pezzo(k) for k in DEL_PEZZO_RANGE] + [
        make_hirzebruch(n) for n in HIRZEBRUCH_RANGE
    ]


def small_rank_surfaces() -> list[SurfaceModel]:
    """Surfaces whose [-6, 6] coefficient box is exhaustively sweepable."""
    return [make_del_pezzo(k) for k in range(4)] + [
        make_hirzebruch(n) for n in HIRZEBRUCH_RANGE
    ] + [gdp2_surface()]


# Deterministic sample sizes for surfaces whose boxes are astronomically large.
SAMPLED_DEL_PEZZO = {4: 1000, 5: 800, 6: 500, 7: 300, 8: 150}


def del_pezzo_acceptance_sample(k: int) -> tuple[list[DivisorClass], list[DivisorClass]]:
    """The seeded acceptance sample of dP_k, k in SAMPLED_DEL_PEZZO: Mori
    combinations (effective by construction) and 400 classes of the
    [-6, 6] box (effective or not)."""
    surface = make_del_pezzo(k)
    return (
        sampled_effective_classes(surface, SAMPLED_DEL_PEZZO[k], f"acceptance:{k}"),
        sampled_box_classes(surface.rank, 400, f"acceptance-box:{k}"),
    )


def box_classes(rank: int, lo: int = -6, hi: int = 6):
    for coeffs in itertools.product(range(lo, hi + 1), repeat=rank):
        yield DivisorClass(coeffs)


def sampled_box_classes(rank: int, count: int, seed: str, lo: int = -6, hi: int = 6):
    """count distinct seeded classes of the box [lo, hi]^rank."""
    if count > (hi - lo + 1) ** rank:
        raise ValueError(f"the box [{lo}, {hi}]^{rank} holds fewer than {count} classes")
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    out: list[DivisorClass] = []
    while len(out) < count:
        coeffs = tuple(rng.randint(lo, hi) for _ in range(rank))
        if coeffs not in seen:
            seen.add(coeffs)
            out.append(DivisorClass(coeffs))
    return out


# Draws allowed per class asked of sampled_effective_classes, whose span of
# distinct combinations is not known in advance.
_DRAWS_PER_CLASS = 100


def sampled_effective_classes(surface: SurfaceModel, count: int, seed: str):
    """Random non-negative combinations of Mori generators; effective by construction.

    Raises ValueError when _DRAWS_PER_CLASS * count draws do not give count
    distinct classes.
    """
    rng = random.Random(seed)
    gens = surface.mori_generators
    seen: set[tuple[int, ...]] = set()
    out: list[DivisorClass] = []
    for _ in range(_DRAWS_PER_CLASS * count):
        if len(out) == count:
            break
        d = DivisorClass.zero(surface.rank)
        for _ in range(rng.randint(1, 4)):
            d = d + rng.randint(0, 3) * gens[rng.randrange(len(gens))]
        if d.coefficients not in seen:
            seen.add(d.coefficients)
            out.append(d)
    if len(out) < count:
        raise ValueError(
            f"{_DRAWS_PER_CLASS * count} draws gave only {len(out)} of {count} "
            f"distinct classes on {surface.name!r}"
        )
    return out


def ray_classes(toric) -> list[DivisorClass]:
    """The Picard class of each ray divisor D_i, the columns of class_map."""
    return [DivisorClass(column) for column in zip(*toric.class_map)]


def ray_degrees(toric) -> list[int]:
    """a_i with v_(i-1) + v_(i+1) = a_i v_i for each ray; D_i^2 = -a_i."""
    rays = toric.rays
    degrees = []
    for i, (vx, vy) in enumerate(rays):
        (bx, by), (ax, ay) = rays[i - 1], rays[(i + 1) % len(rays)]
        a = (bx + ax) // vx if vx else (by + ay) // vy
        assert (bx + ax, by + ay) == (a * vx, a * vy), (toric.name, i)
        degrees.append(a)
    return degrees


def fan_form(toric) -> list[list[int]]:
    """The intersection form in the basis of class_map, read off the fan.

    Ray divisors meet as G: D_i^2 = -a_i, D_i.D_j = 1 for adjacent rays and
    0 otherwise. Principal divisors meet every class in 0, so the lift L
    (lift_map) of the basis pairs as L^T G L.
    """
    n = len(toric.rays)
    g = [[0] * n for _ in range(n)]
    for i, a in enumerate(ray_degrees(toric)):
        g[i][i] = -a
        g[i][(i + 1) % n] = g[(i + 1) % n][i] = 1
    lift = toric.lift_map
    rank = toric.rank
    return [
        [
            sum(lift[r][k] * g[r][s] * lift[s][l] for r in range(n) for s in range(n))
            for l in range(rank)
        ]
        for k in range(rank)
    ]


def fan_surface(toric, regime: Regime) -> SurfaceModel:
    """The Picard model a smooth complete toric surface reads off its fan.

    The basis is that of class_map, and the form is ``fan_form``. K = -sum
    D_i; the negative curves are the D_i with a_i > 0 (every negative curve
    of a toric surface is torus-invariant), and the D_i generate both the
    Mori cone and the effective cone.
    """
    classes = ray_classes(toric)
    return SurfaceModel(
        name=toric.name,
        rank=toric.rank,
        form=IntersectionForm(fan_form(toric)),
        canonical_class=-sum(classes, DivisorClass.zero(toric.rank)),
        chi_structure_sheaf=1,
        negative_curves=tuple(c for c, a in zip(classes, ray_degrees(toric)) if a > 0),
        mori_generators=tuple(classes),
        effective_generators=tuple(classes),
        regime=regime,
    )


def seeded_blow_ups():
    """(toric, classes) for 60 seeded 1- to 6-fold blow-ups of the plane at
    torus-fixed points, each with up to 200 seeded classes of [-6, 6]^rank."""
    rng = random.Random("blow-up steps")
    for k in range(60):
        toric = toric_module._PLANE
        for _ in range(k % 6 + 1):
            toric = toric_module._blow_up(toric, rng.randrange(len(toric.rays)))
        count = min(200, 13**toric.rank)
        yield toric, sampled_box_classes(toric.rank, count, f"steps:{k}:{toric.rays}")


def corrupt_f2_spec(tmp_path):
    """F2 fixture with lattice data transcribed from the wrong surface.

    The file is internally consistent (it is a genuine surface), so the
    pipeline runs without tripping its own sanity checks; only comparison
    against the true lattice-point counts can expose the mistake.
    """
    import json

    data = json.loads(fixture_path("f2").read_text())
    data["intersection_matrix"] = [[-4, 1], [1, 0]]
    data["canonical_class"] = [-2, -6]
    data["name"] = "f2_corrupt"
    path = tmp_path / "f2_corrupt.json"
    path.write_text(json.dumps(data))
    return path


_NO_SECTION = {
    "status": "uncertified",
    "rule": "none",
    "detail": "class has no section; h0 = 0 unconditionally",
}


def dense_dual(matrix, v) -> list[int]:
    """M·v as the dense product, row by row: the reference for the sparse
    ``IntersectionForm.dual``, which sums over the nonzero entries only."""
    return [sum(map(mul, row, v)) for row in matrix]


@lru_cache(maxsize=None)
def _report_duals(surface: SurfaceModel):
    """(C, M.C, -C^2) per negative curve, and M.g for every curve and Mori generator."""
    matrix = surface.form.matrix
    curves = []
    for c in surface.negative_curves:
        c_dual = dense_dual(matrix, c)
        curves.append((list(c), c_dual, -sum(map(mul, c, c_dual))))
    mori = [dense_dual(matrix, g) for g in surface.mori_generators]
    return curves, [g for _, g, _ in curves] + mori


def check_report(surface: SurfaceModel, d: DivisorClass, payload: dict) -> None:
    """Check a `cohomology` JSON payload for d against the surface data alone.

    Pairings come from the form's matrix; nothing of the transform or the
    certificates is called. Each step's fixed part must be the negative
    curves that meet the class negatively, in curve order, each with
    multiplicity ceil(-D.C / -C^2), and the limit L must be nef against the
    curves and the Mori generators. The rule must fit the regime: Demazure
    on a toric surface, Kawamata-Viehweg on a del Pezzo surface, and
    elsewhere Kawamata-Viehweg exactly when L - K is nef with
    (L - K)^2 > 0, the square that its detail prints. h0 is chi(L) when
    certified and null when not; with no trace, h0 = 0 and the detail says
    there is no section. h1 = h0 + h2 - chi when all three are known, else
    null.
    """
    matrix = surface.form.matrix
    curves, nef_duals = _report_duals(surface)
    k = list(surface.canonical_class)

    def dot(u, dual_v):
        return sum(map(mul, u, dual_v))

    def nef(v):
        return all(dot(v, g) >= 0 for g in nef_duals)

    def minus_k(v):
        return [a - b for a, b in zip(v, k)]

    def chi_of(v):
        return surface.chi_structure_sheaf + dot(v, dense_dual(matrix, minus_k(v))) // 2

    chi = chi_of(list(d))
    h0, h1, h2 = payload["h0"], payload["h1"], payload["h2"]
    certificate, trace = payload["certificate"], payload["trace"]
    assert payload["chi"] == chi
    if trace is None:
        assert h0 == 0 and certificate == _NO_SECTION
    else:
        assert trace["input"] == list(d)
        current = list(d)
        for step in trace["steps"]:
            expected = [
                {"curve": curve, "multiplicity": -(dot(current, curve_dual) // minus_square)}
                for curve, curve_dual, minus_square in curves
                if dot(current, curve_dual) < 0
            ]
            assert expected and step["fixed_part"] == expected
            for term in expected:
                current = [a - term["multiplicity"] * c for a, c in zip(current, term["curve"])]
            assert step["result"] == current
        assert trace["limit"] == current and trace["step_count"] == len(trace["steps"])
        assert nef(current)
        rule = certificate["rule"]
        if surface.regime is Regime.TORIC_CONVEX_FAN:
            assert rule == "demazure"
        elif surface.regime is Regime.DEL_PEZZO:
            assert rule == "kawamata_viehweg"
        else:
            shifted = minus_k(current)
            square = dot(shifted, dense_dual(matrix, shifted))
            if rule == "kawamata_viehweg":
                assert nef(shifted) and square > 0
                assert certificate["detail"] == f"d - K is nef with (d - K)^2 = {square} > 0"
            else:
                assert rule == "none" and not (nef(shifted) and square > 0)
        certified = rule != "none"
        assert certificate["status"] == ("certified" if certified else "uncertified")
        assert h0 == (chi_of(current) if certified else None)
    if None in (h0, h2):
        assert h1 is None
    else:
        assert h1 == h0 + h2 - chi
