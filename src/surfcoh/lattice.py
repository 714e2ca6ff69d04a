"""Exact integer arithmetic on the Picard lattice of a projective surface.

Divisor classes are integer coefficient vectors in a basis fixed by the
owning surface; the intersection form, canonical class and cone data live
on the surface. Everything is immutable, every operation is a pure
function, and all arithmetic is arbitrary-precision integer.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from enum import Enum

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

    def __reduce__(self):
        return (DivisorClass, (self.coefficients,))

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


class _Frozen:
    """Base of the immutable records: equality, hash and repr over the fields.

    A record names its fields, in order, in ``__match_args__`` and sets each
    once in ``__init__`` through ``object.__setattr__``. Instances keep a
    ``__dict__``, so a record can hold private per-instance caches that
    equality, hashing and repr ignore.
    """

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields())
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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

    def __reduce__(self):
        return (IntersectionForm, (self.matrix,))

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


class SurfaceModel(_Frozen):
    """Picard-lattice description of a smooth projective surface.

    ``negative_curves`` lists the classes of irreducible curves with
    negative self-intersection; for catalog surfaces the list is complete,
    for user-supplied surfaces both completeness and irreducibility are
    trusted as given. ``mori_generators`` generate the cone of curves and
    ``effective_generators`` the effective cone, again trusted for custom
    input.
    """

    __match_args__ = (
        "name",
        "rank",
        "form",
        "canonical_class",
        "chi_structure_sheaf",
        "negative_curves",
        "mori_generators",
        "effective_generators",
        "regime",
        "basis_labels",
    )

    name: str
    rank: int
    form: IntersectionForm
    canonical_class: DivisorClass
    chi_structure_sheaf: int
    negative_curves: tuple[DivisorClass, ...]
    mori_generators: tuple[DivisorClass, ...]
    effective_generators: tuple[DivisorClass, ...]
    regime: Regime
    basis_labels: tuple[str, ...]

    def __init__(
        self,
        name: str,
        rank: int,
        form: IntersectionForm,
        canonical_class: DivisorClass,
        chi_structure_sheaf: int,
        negative_curves: Iterable[DivisorClass],
        mori_generators: Iterable[DivisorClass],
        effective_generators: Iterable[DivisorClass],
        regime: Regime,
        basis_labels: tuple[str, ...] = (),
    ):
        rank = operator.index(rank)
        chi_structure_sheaf = operator.index(chi_structure_sheaf)
        negative_curves = tuple(negative_curves)
        mori_generators = tuple(mori_generators)
        effective_generators = tuple(effective_generators)
        if rank <= 0:
            raise SpecValidationError("rank", "rank must be a positive integer")
        if form.rank != rank:
            raise SpecValidationError(
                "intersection_matrix",
                f"matrix is {form.rank}x{form.rank} but rank is {rank}",
            )
        if len(canonical_class) != rank:
            raise SpecValidationError(
                "canonical_class",
                f"length {len(canonical_class)} does not match rank {rank}",
            )
        for field_name, vectors in (
            ("negative_curves", negative_curves),
            ("mori_generators", mori_generators),
            ("effective_generators", effective_generators),
        ):
            for v in vectors:
                if len(v) != rank:
                    raise SpecValidationError(
                        field_name,
                        f"vector {v} has length {len(v)}, expected {rank}",
                    )
        for curve in negative_curves:
            if form.pairing(curve, curve) >= 0:
                raise SpecValidationError(
                    "negative_curves",
                    f"curve {curve} has self-intersection "
                    f"{form.pairing(curve, curve)} >= 0",
                )
        for field_name, vectors in (
            ("mori_generators", mori_generators),
            ("effective_generators", effective_generators),
        ):
            for v in vectors:
                if v.is_zero:
                    raise SpecValidationError(field_name, "cone generators must be nonzero")
        if not basis_labels:
            basis_labels = tuple(f"e{i + 1}" for i in range(rank))
        elif len(basis_labels) != rank:
            raise SpecValidationError(
                "basis_labels",
                f"{len(basis_labels)} labels for rank {rank}",
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "canonical_class", canonical_class)
        object.__setattr__(self, "chi_structure_sheaf", chi_structure_sheaf)
        object.__setattr__(self, "negative_curves", negative_curves)
        object.__setattr__(self, "mori_generators", mori_generators)
        object.__setattr__(self, "effective_generators", effective_generators)
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "basis_labels", basis_labels)


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
