"""Shared surfaces, class samplers and hypothesis settings for the test suite."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from hypothesis import HealthCheck, settings

from surfcoh import (
    DivisorClass,
    IntersectionForm,
    Regime,
    SurfaceModel,
    SurfaceSpec,
    fixture_path,
    load_surface,
    make_del_pezzo,
    make_hirzebruch,
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
    return load_surface(SurfaceSpec.from_file(fixture_path("gdp2")))


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


def fan_surface(toric, regime: Regime) -> SurfaceModel:
    """The Picard model a blow-up of the plane reads off its fan.

    The basis is H and the total transforms E_1, ..., E_k, so the form is
    diag(1, -1, ..., -1). K = -sum D_i; the negative curves are the D_i with
    a_i > 0 (every negative curve of a toric surface is torus-invariant), and
    the D_i generate both the Mori cone and the effective cone.
    """
    rank = toric.rank
    classes = ray_classes(toric)
    return SurfaceModel(
        name=toric.name,
        rank=rank,
        form=IntersectionForm(
            [[(1 if i == 0 else -1) if i == j else 0 for j in range(rank)] for i in range(rank)]
        ),
        canonical_class=-sum(classes, DivisorClass.zero(rank)),
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
