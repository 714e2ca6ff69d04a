"""Exact integer arithmetic on the Picard lattice of a projective surface.

Divisor classes are integer coefficient vectors in a basis fixed by the
owning surface; the intersection form, canonical class and cone data live
on the surface. Everything is immutable, every operation is a pure
function, and all arithmetic is arbitrary-precision integer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import IntegralityError, RankMismatchError, SpecValidationError


class Regime(Enum):
    """Which family of vanishing certificates applies to a surface."""

    DEL_PEZZO = "del_pezzo"
    TORIC_CONVEX_FAN = "toric_convex_fan"
    TRIVIAL_CANONICAL = "trivial_canonical"
    GENERAL = "general"


class DivisorClass:
    """Integer coefficient vector representing a divisor class.

    Coefficients are exact integers; floats are rejected at construction.
    Instances are immutable and hashable.
    """

    __slots__ = ("coefficients",)

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]):
        coeffs = tuple(operator.index(c) for c in coefficients)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def _of_ints(cls, coefficients: tuple[int, ...]) -> "DivisorClass":
        """Wrap a tuple already known to hold ints, skipping validation."""
        d = object.__new__(cls)
        object.__setattr__(d, "coefficients", coefficients)
        return d

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DivisorClass is immutable")

    @classmethod
    def zero(cls, rank: int) -> "DivisorClass":
        return cls((0,) * rank)

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    @property
    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coefficients)

    def __getitem__(self, i: int) -> int:
        return self.coefficients[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DivisorClass):
            return self.coefficients == other.coefficients
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def _binop(self, other: "DivisorClass", op) -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if len(other) != len(self):
            raise RankMismatchError(
                f"cannot combine classes of rank {len(self)} and {len(other)}"
            )
        return DivisorClass._of_ints(tuple(map(op, self.coefficients, other.coefficients)))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._binop(other, operator.add)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._binop(other, operator.sub)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass._of_ints(tuple([-c for c in self.coefficients]))

    def __mul__(self, k: int) -> "DivisorClass":
        k = operator.index(k)
        return DivisorClass._of_ints(tuple([k * c for c in self.coefficients]))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DivisorClass({list(self.coefficients)})"

    def __str__(self) -> str:
        return str(list(self.coefficients))


class IntersectionForm:
    """Symmetric integer pairing matrix on the Picard lattice."""

    __slots__ = ("matrix",)

    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, matrix: Iterable[Iterable[int]]):
        rows = tuple(tuple(operator.index(x) for x in row) for row in matrix)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise SpecValidationError("intersection_matrix", "matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise SpecValidationError(
                        "intersection_matrix",
                        f"matrix is not symmetric at ({i}, {j})",
                    )
        object.__setattr__(self, "matrix", rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntersectionForm is immutable")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def pairing(self, d: DivisorClass, e: DivisorClass) -> int:
        n = self.rank
        if len(d) != n or len(e) != n:
            raise RankMismatchError(
                f"form has rank {n} but classes have ranks {len(d)} and {len(e)}"
            )
        return sum(map(operator.mul, self.dual(d), e.coefficients))

    def dual(self, d: DivisorClass) -> tuple[int, ...]:
        """The vector M·d, so that d.e = sum(M·d[i] * e[i]) for every class e.

        Computing it once turns each further intersection with d into a
        rank-length dot product instead of a rank x rank sum.
        """
        if len(d) != self.rank:
            raise RankMismatchError(f"form has rank {self.rank} but class has rank {len(d)}")
        coeffs = d.coefficients
        return tuple([sum(map(operator.mul, row, coeffs)) for row in self.matrix])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntersectionForm):
            return self.matrix == other.matrix
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"IntersectionForm({[list(r) for r in self.matrix]})"


@dataclass(frozen=True)
class SurfaceModel:
    """Picard-lattice description of a smooth projective surface.

    ``negative_curves`` lists the classes of irreducible curves with
    negative self-intersection; for catalog surfaces the list is complete,
    for user-supplied surfaces both completeness and irreducibility are
    trusted as given. ``mori_generators`` generate the cone of curves and
    ``effective_generators`` the effective cone, again trusted for custom
    input.
    """

    name: str
    rank: int
    form: IntersectionForm
    canonical_class: DivisorClass
    chi_structure_sheaf: int
    negative_curves: tuple[DivisorClass, ...]
    mori_generators: tuple[DivisorClass, ...]
    effective_generators: tuple[DivisorClass, ...]
    regime: Regime
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rank", operator.index(self.rank))
        object.__setattr__(self, "chi_structure_sheaf", operator.index(self.chi_structure_sheaf))
        object.__setattr__(self, "negative_curves", tuple(self.negative_curves))
        object.__setattr__(self, "mori_generators", tuple(self.mori_generators))
        object.__setattr__(self, "effective_generators", tuple(self.effective_generators))
        if self.rank <= 0:
            raise SpecValidationError("rank", "rank must be a positive integer")
        if self.form.rank != self.rank:
            raise SpecValidationError(
                "intersection_matrix",
                f"matrix is {self.form.rank}x{self.form.rank} but rank is {self.rank}",
            )
        if len(self.canonical_class) != self.rank:
            raise SpecValidationError(
                "canonical_class",
                f"length {len(self.canonical_class)} does not match rank {self.rank}",
            )
        for field_name, vectors in (
            ("negative_curves", self.negative_curves),
            ("mori_generators", self.mori_generators),
            ("effective_generators", self.effective_generators),
        ):
            for v in vectors:
                if len(v) != self.rank:
                    raise SpecValidationError(
                        field_name,
                        f"vector {v} has length {len(v)}, expected {self.rank}",
                    )
        for curve in self.negative_curves:
            if self.form.pairing(curve, curve) >= 0:
                raise SpecValidationError(
                    "negative_curves",
                    f"curve {curve} has self-intersection "
                    f"{self.form.pairing(curve, curve)} >= 0",
                )
        for field_name, vectors in (
            ("mori_generators", self.mori_generators),
            ("effective_generators", self.effective_generators),
        ):
            for v in vectors:
                if v.is_zero:
                    raise SpecValidationError(field_name, "cone generators must be nonzero")
        if not self.basis_labels:
            object.__setattr__(
                self, "basis_labels", tuple(f"e{i + 1}" for i in range(self.rank))
            )
        elif len(self.basis_labels) != self.rank:
            raise SpecValidationError(
                "basis_labels",
                f"{len(self.basis_labels)} labels for rank {self.rank}",
            )


def _require_rank(surface: SurfaceModel, d: DivisorClass) -> None:
    if len(d.coefficients) != surface.rank:
        raise RankMismatchError(
            f"class {d} has length {len(d)} but surface {surface.name!r} "
            f"has rank {surface.rank}"
        )


def intersect(surface: SurfaceModel, d: DivisorClass, e: DivisorClass) -> int:
    """Intersection number of two divisor classes."""
    _require_rank(surface, d)
    _require_rank(surface, e)
    return surface.form.pairing(d, e)


def euler_characteristic(surface: SurfaceModel, d: DivisorClass) -> int:
    """Euler characteristic chi(O(d)) = chi(O) + d.(d - K) / 2.

    The product d.(d - K) must be even on any genuine surface; an odd
    value signals inconsistent lattice data and raises IntegralityError.
    """
    _require_rank(surface, d)
    product = surface.form.pairing(d, d - surface.canonical_class)
    if product % 2:
        raise IntegralityError(
            f"d.(d - K) = {product} is odd for d = {d} on {surface.name!r}"
        )
    return surface.chi_structure_sheaf + product // 2


def serre_dual(surface: SurfaceModel, d: DivisorClass) -> DivisorClass:
    """The class K - d pairing with d under Serre duality."""
    _require_rank(surface, d)
    return surface.canonical_class - d
