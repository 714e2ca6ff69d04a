"""Independent section-counting oracle for the shipped toric models.

Counts lattice points of divisor polytopes directly, which gives the
dimension of the space of sections of any torus-invariant divisor on a
complete toric surface, nef or not. The count runs in exact integers, row
by row over the x-range that eliminating y leaves. It shares nothing with the
pairing, cone, transform and index machinery, so agreement between the two
is a genuine differential test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from operator import add, mul

from .catalog import catalog_surface, make_del_pezzo
from .errors import RankMismatchError, UnboundedPolytopeError, UnknownSurfaceError
from .lattice import DivisorClass, SurfaceModel


@dataclass(frozen=True)
class HalfplaneSet:
    """Constraints <u, normal> >= -offset, one per (normal, offset) pair."""

    constraints: tuple[tuple[tuple[int, int], int], ...]


@dataclass(frozen=True)
class ToricSurface:
    """Complete smooth fan paired with a Picard-coordinate dictionary.

    ``class_map`` (rank x nrays) sends ray-divisor coefficient vectors to
    Picard classes of the paired surface; ``lift_map`` (nrays x rank) is a
    chosen right inverse. The lift is only defined up to principal
    divisors, which translate the polytope without changing its count.
    """

    name: str
    rays: tuple[tuple[int, int], ...]
    class_map: tuple[tuple[int, ...], ...]
    lift_map: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rays = self.rays
        if len(rays) < 3:
            raise ValueError("a complete fan needs at least three rays")
        for v in rays:
            if math.gcd(v[0], v[1]) != 1:
                raise ValueError(f"ray {v} is not primitive")
        for i, v in enumerate(rays):
            w = rays[(i + 1) % len(rays)]
            det = v[0] * w[1] - v[1] * w[0]
            if det != 1:
                raise ValueError(
                    f"rays {v}, {w} span a cone of determinant {det}; the fan "
                    f"must be smooth, complete and ordered counterclockwise"
                )
        rank = len(self.class_map)
        for k in range(rank):
            for l in range(rank):
                acc = sum(
                    self.class_map[k][r] * self.lift_map[r][l]
                    for r in range(len(rays))
                )
                if acc != (1 if k == l else 0):
                    raise ValueError("class_map o lift_map is not the identity")

    @property
    def rank(self) -> int:
        return len(self.class_map)


def _hirzebruch_model(n: int) -> ToricSurface:
    return ToricSurface(
        name=f"f{n}",
        rays=((1, 0), (0, 1), (-1, n), (0, -1)),
        # Ray divisors in the (C0, f) basis: f, C0, f, C0 + n f.
        class_map=((0, 1, 0, 1), (1, 0, 1, n)),
        lift_map=((0, 1), (1, 0), (0, 0), (0, 0)),
    )


# The plane: three rays, each of class H, and H lifts to the first.
_PLANE = ToricSurface(
    name="p2",
    rays=((1, 0), (0, 1), (-1, -1)),
    class_map=((1, 1, 1),),
    lift_map=((1,), (0,), (0,)),
)

# Blow-up sequences of the plane, one position per step, in the basis
# (H, E_1, ..., E_k) of the paired catalog surface.
_BLOW_UPS = {"dp1": (2,), "dp2": (1, 3), "dp3": (1, 3, 0), "gdp2": (0, 0)}

ORACLE_NAMES = ("f0", "f1", "f2", "f3", "f4") + tuple(_BLOW_UPS)


def _blow_up(t: ToricSurface, i: int) -> ToricSurface:
    """Blow up the torus-fixed point between ray i and the next one, wrapping.

    The ray v_i + v_{i+1} goes in after ray i and the basis gains E: the new
    ray's class is E, rays i and i+1 lose E, and E lifts to the new ray. Each
    old basis vector's lift puts the sum of its coefficients on rays i and
    i+1 on the new ray, so class_map o lift_map stays the identity.
    """
    j = (i + 1) % len(t.rays)
    (vx, vy), (wx, wy) = t.rays[i], t.rays[j]

    def insert(row: tuple, value) -> tuple:
        return row[: i + 1] + (value,) + row[i + 1 :]

    exceptional = tuple(-1 if r in (i, j) else 0 for r in range(len(t.rays)))
    return ToricSurface(
        name=t.name,
        rays=insert(t.rays, (vx + wx, vy + wy)),
        class_map=tuple(insert(row, 0) for row in t.class_map)
        + (insert(exceptional, 1),),
        lift_map=insert(
            tuple(row + (0,) for row in t.lift_map),
            tuple(map(add, t.lift_map[i], t.lift_map[j])) + (1,),
        ),
    )


def toric_model(name: str) -> tuple[ToricSurface, SurfaceModel]:
    """Fan and paired Picard model for one of the supported catalog names."""
    key = name.strip().lower()
    if key not in ORACLE_NAMES:
        raise UnknownSurfaceError(
            f"no toric model named {name!r}; available: {', '.join(ORACLE_NAMES)}"
        )
    if key in _BLOW_UPS:
        toric = replace(reduce(_blow_up, _BLOW_UPS[key], _PLANE), name=key)
    else:
        toric = _hirzebruch_model(int(key[1]))
    # perfbench/tracer.py patches make_del_pezzo in this module.
    surface = make_del_pezzo(int(key[2])) if key.startswith("dp") else catalog_surface(key)
    return toric, surface


def polytope_from_ray_coefficients(
    t: ToricSurface, coefficients: tuple[int, ...]
) -> HalfplaneSet:
    if len(coefficients) != len(t.rays):
        raise RankMismatchError(
            f"{len(coefficients)} coefficients for {len(t.rays)} rays"
        )
    return HalfplaneSet(tuple(zip(t.rays, coefficients)))


def polytope_of_divisor(t: ToricSurface, d: DivisorClass) -> HalfplaneSet:
    """Section polytope of the lift of d to ray coordinates."""
    coeffs = d.coefficients
    if len(coeffs) != t.rank:
        raise RankMismatchError(
            f"class {d} has length {len(coeffs)} but the model has rank {t.rank}"
        )
    return polytope_from_ray_coefficients(
        t, tuple([sum(map(mul, row, coeffs)) for row in t.lift_map])
    )


@lru_cache(maxsize=32)
def _require_bounded(normals: tuple[tuple[int, int], ...]) -> None:
    """Raise UnboundedPolytopeError if some direction meets every normal non-negatively.

    Whether the region is bounded depends on the normals alone, which one
    fan shares across all its divisors, so the memo holds one entry per fan.
    """
    if not any(vx or vy for vx, vy in normals):
        raise UnboundedPolytopeError("every normal is zero: no direction is bounded")
    for vx, vy in normals:
        for u in ((-vy, vx), (vy, -vx)):
            if u != (0, 0) and all(u[0] * wx + u[1] * wy >= 0 for wx, wy in normals):
                raise UnboundedPolytopeError(
                    f"feasible region is unbounded along direction {u}; "
                    f"the fan is not complete"
                )


def count_lattice_points(p: HalfplaneSet) -> int:
    """Exact number of integer points satisfying every halfplane constraint.

    Eliminating y (Fourier-Motzkin) gives the range of integer x: each
    constraint without y bounds x directly, and each pair of a constraint
    bounding y from below and one bounding it from above bounds x through
    their meeting. For each x in that range the constraints with a positive
    y-coefficient bound y from below and those with a negative one from
    above, and the row adds the integers between the two bounds. The work
    grows with the width of the region, not with its area.
    """
    constraints = p.constraints
    if not constraints:
        raise UnboundedPolytopeError("no constraints: the whole plane is feasible")
    _require_bounded(tuple((wx, wy) for (wx, wy), _ in constraints))
    # y >= -(off + x*wx) / wy where wy > 0 and y <= (off + x*wx) / -wy where
    # wy < 0; the upper list stores -wy.
    lower = [(wx, wy, off) for (wx, wy), off in constraints if wy > 0]
    upper = [(wx, -wy, off) for (wx, wy), off in constraints if wy < 0]
    # Constraints a*x >= -b on x alone. Elimination gives the exact projection
    # of the region, and of its recession cone, on the x-axis; the boundedness
    # test found that cone to be the origin, so bounds of both signs exist.
    columns = [(wx, off) for (wx, wy), off in constraints if wy == 0]
    columns += [
        (ly * ux + uy * lx, ly * uo + uy * lo)
        for lx, ly, lo in lower
        for ux, uy, uo in upper
    ]
    if any(a == 0 and b < 0 for a, b in columns):
        return 0
    x_lo = max(-(b // a) for a, b in columns if a > 0)
    x_hi = min(b // -a for a, b in columns if a < 0)
    count = 0
    for x in range(x_lo, x_hi + 1):
        y_lo = max(-((off + x * wx) // wy) for wx, wy, off in lower)
        y_hi = min((off + x * wx) // wy for wx, wy, off in upper)
        if y_hi >= y_lo:
            count += y_hi - y_lo + 1
    return count


def oracle_h0(t: ToricSurface, d: DivisorClass) -> int:
    """Sections of O(d) on the toric model, by direct lattice-point count."""
    return count_lattice_points(polytope_of_divisor(t, d))
