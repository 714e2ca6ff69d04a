"""Builders for the shipped surface families and spec-file loading.

Catalog surfaces are Hirzebruch surfaces F_n and del Pezzo surfaces dP_k
for k = 0..8; arbitrary surfaces can be described by a JSON spec file with
the SurfaceSpec fields as keys. Effectiveness data for custom surfaces is
taken on trust: the library cannot verify irreducibility or completeness
of a user-supplied curve list from lattice data alone.
"""

from __future__ import annotations

import json
import operator
import re
from collections.abc import Iterable, Iterator
from functools import lru_cache
from pathlib import Path

from .errors import SpecValidationError, UnknownSurfaceError
from .lattice import DivisorClass, IntersectionForm, Regime, SurfaceModel, _Frozen

_SPEC_FIELDS = (
    "name",
    "rank",
    "intersection_matrix",
    "canonical_class",
    "chi_structure_sheaf",
    "negative_curves",
    "mori_generators",
    "effective_generators",
    "regime",
)

# Classical numbers of (-1)-classes on dP_k, used to pin enumeration completeness.
MINUS_ONE_CURVE_COUNTS = (0, 1, 3, 6, 10, 16, 27, 56, 240)


class SurfaceSpec(_Frozen):
    """Serializable description of a surface, mirroring the JSON schema."""

    __match_args__ = _SPEC_FIELDS

    name: str
    rank: int
    intersection_matrix: tuple[tuple[int, ...], ...]
    canonical_class: tuple[int, ...]
    chi_structure_sheaf: int
    negative_curves: tuple[tuple[int, ...], ...]
    mori_generators: tuple[tuple[int, ...], ...]
    effective_generators: tuple[tuple[int, ...], ...]
    regime: str

    def __init__(
        self,
        name: str,
        rank: int,
        intersection_matrix: tuple[tuple[int, ...], ...],
        canonical_class: tuple[int, ...],
        chi_structure_sheaf: int,
        negative_curves: tuple[tuple[int, ...], ...],
        mori_generators: tuple[tuple[int, ...], ...],
        effective_generators: tuple[tuple[int, ...], ...],
        regime: str,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "intersection_matrix", intersection_matrix)
        object.__setattr__(self, "canonical_class", canonical_class)
        object.__setattr__(self, "chi_structure_sheaf", chi_structure_sheaf)
        object.__setattr__(self, "negative_curves", negative_curves)
        object.__setattr__(self, "mori_generators", mori_generators)
        object.__setattr__(self, "effective_generators", effective_generators)
        object.__setattr__(self, "regime", regime)

    @classmethod
    def from_dict(cls, data: dict) -> "SurfaceSpec":
        missing = [k for k in _SPEC_FIELDS if k not in data]
        if missing:
            raise SpecValidationError(missing[0], "required field is missing")
        stray = [k for k in data if k not in _SPEC_FIELDS]
        if stray:
            raise SpecValidationError(stray[0], "unknown field in surface spec")
        return cls(
            name=str(data["name"]),
            rank=data["rank"],
            intersection_matrix=_int_matrix(data["intersection_matrix"], "intersection_matrix"),
            canonical_class=_int_vector(data["canonical_class"], "canonical_class"),
            chi_structure_sheaf=_int_scalar(data["chi_structure_sheaf"], "chi_structure_sheaf"),
            negative_curves=_int_matrix(data["negative_curves"], "negative_curves"),
            mori_generators=_int_matrix(data["mori_generators"], "mori_generators"),
            effective_generators=_int_matrix(data["effective_generators"], "effective_generators"),
            regime=str(data["regime"]),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "SurfaceSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise SpecValidationError("document", f"spec file is not UTF-8: {exc}") from None
        if not isinstance(data, dict):
            raise SpecValidationError("document", "spec file must hold a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "intersection_matrix": [list(r) for r in self.intersection_matrix],
            "canonical_class": list(self.canonical_class),
            "chi_structure_sheaf": self.chi_structure_sheaf,
            "negative_curves": [list(v) for v in self.negative_curves],
            "mori_generators": [list(v) for v in self.mori_generators],
            "effective_generators": [list(v) for v in self.effective_generators],
            "regime": self.regime,
        }


def _int_scalar(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(field, f"expected an integer, got {value!r}")
    return value

def _int_vector(value, field: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise SpecValidationError(field, "expected a list of integers")
    return tuple(_int_scalar(x, field) for x in value)

def _int_matrix(value, field: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, (list, tuple)):
        raise SpecValidationError(field, "expected a list of integer vectors")
    return tuple(_int_vector(row, field) for row in value)


def _integer(value, what: str) -> int:
    """value as an int; bool and non-integral numbers raise TypeError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def load_surface(spec: SurfaceSpec) -> SurfaceModel:
    """Validate a SurfaceSpec and build the corresponding SurfaceModel.

    The model checks symmetry of the pairing, lengths of all vectors and
    negativity of every listed curve; this adds evenness of d.(d - K) on
    the lattice basis, which forces it on the whole lattice and so on every
    listed vector, and the Hodge index theorem: the pairing must have
    signature (1, rank - 1).
    """
    try:
        regime = Regime(spec.regime)
    except ValueError:
        valid = ", ".join(r.value for r in Regime)
        raise SpecValidationError("regime", f"{spec.regime!r} is not one of: {valid}") from None
    surface = SurfaceModel(
        name=spec.name,
        rank=_int_scalar(spec.rank, "rank"),
        form=IntersectionForm(spec.intersection_matrix),
        canonical_class=DivisorClass(spec.canonical_class),
        chi_structure_sheaf=spec.chi_structure_sheaf,
        negative_curves=tuple(DivisorClass(v) for v in spec.negative_curves),
        mori_generators=tuple(DivisorClass(v) for v in spec.mori_generators),
        effective_generators=tuple(DivisorClass(v) for v in spec.effective_generators),
        regime=regime,
    )
    rank, form, canonical = surface.rank, surface.form, surface.canonical_class
    # Parity of d.(d-K) is additive mod 2, so checking basis vectors covers the lattice.
    for i in range(rank):
        basis_vec = DivisorClass(1 if j == i else 0 for j in range(rank))
        parity = form.pairing(basis_vec, basis_vec - canonical)
        if parity % 2:
            raise SpecValidationError(
                "canonical_class",
                f"d.(d - K) is odd on basis vector {i}; lattice data is inconsistent",
            )
    pos, neg, null = signature(form.matrix)
    if (pos, neg, null) != (1, rank - 1, 0):
        raise SpecValidationError(
            "intersection_matrix",
            f"signature ({pos}, {neg}) with {null} null directions; "
            f"a surface lattice must have signature (1, {rank - 1})",
        )
    return surface


def signature(matrix: Iterable[Iterable[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric integer matrix.

    Congruent diagonalization in exact integers; Sylvester's law makes the
    diagonal signs basis-independent. Eliminating pivot p replaces the
    trailing block by p times its Schur complement, which keeps it integral
    and flips the signs of the later pivots exactly when p < 0.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    pos = neg = null = 0
    flipped = False
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
                # Both diagonal entries vanish: a[i][partner] != 0 gives 2*a[i][partner].
                for k in range(n):
                    a[i][k] += a[partner][k]
                for row in a:
                    row[i] += row[partner]
        pivot = a[i][i]
        if (pivot > 0) != flipped:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] = pivot * a[j][k] - a[j][i] * a[i][k]
        flipped ^= pivot < 0
    return pos, neg, null


def make_hirzebruch(n: int) -> SurfaceModel:
    """Hirzebruch surface F_n in the basis (C0, f) with C0^2 = -n."""
    n = _integer(n, "Hirzebruch degree")
    if n < 0:
        raise ValueError(f"Hirzebruch degree must be non-negative, got {n}")
    c0 = DivisorClass([1, 0])
    f = DivisorClass([0, 1])
    return SurfaceModel(
        name=f"f{n}",
        rank=2,
        form=IntersectionForm([[-n, 1], [1, 0]]),
        canonical_class=DivisorClass([-2, -(n + 2)]),
        chi_structure_sheaf=1,
        negative_curves=(c0,) if n > 0 else (),
        mori_generators=(c0, f),
        effective_generators=(c0, f),
        regime=Regime.TORIC_CONVEX_FAN,
        basis_labels=("C0", "f"),
    )


# Both dP caches are typed: an untyped cache keys an int subclass (an IntEnum
# member, say) by a value that True and 1.0 compare equal to, so they would
# get its cached result without reaching the index check.
@lru_cache(maxsize=None, typed=True)
def enumerate_minus_one_curves(k: int) -> tuple[DivisorClass, ...]:
    """All classes a*H - sum(b_i * E_i) on dP_k with square -1 and K-degree -1.

    Exhaustive search over a in [0, 6], b_i in [-1, 3]; the classical
    classification guarantees every (-1)-class lies in this box, and the
    completeness of the sweep is pinned by the known counts in tests. Both
    conditions, sum(b) = 3a - 1 and sum(b^2) = a^2 + 1, are symmetric in the
    b_i, so the search runs over non-increasing b only and then takes every
    distinct ordering of each hit.
    """
    k = _del_pezzo_index(k)
    found: list[tuple[int, ...]] = []
    for a in range(0, 7):
        target_sum = 3 * a - 1  # from D.K = -1
        target_sq = a * a + 1   # from D.D = -1

        def descend(i: int, acc_sum: int, acc_sq: int, prefix: tuple[int, ...], top: int):
            remaining = k - i
            if acc_sq > target_sq:
                return
            if acc_sum + 3 * remaining < target_sum or acc_sum - remaining > target_sum:
                return
            if acc_sq + 9 * remaining < target_sq:
                return
            if i == k:
                if acc_sum == target_sum and acc_sq == target_sq:
                    found.extend((a,) + tuple(-b for b in order) for order in _orderings(prefix))
                return
            for b in range(-1, top + 1):
                descend(i + 1, acc_sum + b, acc_sq + b * b, prefix + (b,), b)

        descend(0, 0, 0, (), 3)
    return tuple(DivisorClass(v) for v in sorted(found))


def _orderings(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every distinct ordering of values, each once."""
    if not values:
        yield ()
        return
    for first in set(values):
        rest = list(values)
        rest.remove(first)
        for tail in _orderings(tuple(rest)):
            yield (first,) + tail


def _del_pezzo_index(k) -> int:
    k = _integer(k, "del Pezzo index")
    if not 0 <= k <= 8:
        raise ValueError(f"del Pezzo index must be between 0 and 8, got {k}")
    return k


@lru_cache(maxsize=None, typed=True)
def make_del_pezzo(k: int) -> SurfaceModel:
    """del Pezzo surface dP_k in the basis (H, E_1, ..., E_k)."""
    k = _del_pezzo_index(k)
    rank = k + 1
    matrix = [[0] * rank for _ in range(rank)]
    matrix[0][0] = 1
    for i in range(1, rank):
        matrix[i][i] = -1
    canonical = DivisorClass([-3] + [1] * k)
    curves = enumerate_minus_one_curves(k)
    if k == 0:
        mori: tuple[DivisorClass, ...] = (DivisorClass([1]),)
    elif k == 1:
        mori = (DivisorClass([0, 1]), DivisorClass([1, -1]))
    else:
        mori = curves
    return SurfaceModel(
        name=f"dp{k}",
        rank=rank,
        form=IntersectionForm(matrix),
        canonical_class=canonical,
        chi_structure_sheaf=1,
        negative_curves=curves,
        mori_generators=mori,
        effective_generators=mori,
        regime=Regime.DEL_PEZZO,
        basis_labels=("H",) + tuple(f"E{i}" for i in range(1, rank)),
    )


def hirzebruch_degree(surface: SurfaceModel) -> int | None:
    """The n for which the surface matches F_n structurally, else None."""
    if surface.rank != 2:
        return None
    n = -surface.form.matrix[0][0]
    if n < 0:
        return None
    reference = make_hirzebruch(n)
    same = (
        surface.form == reference.form
        and surface.canonical_class == reference.canonical_class
        and surface.chi_structure_sheaf == reference.chi_structure_sheaf
        and surface.negative_curves == reference.negative_curves
        and set(surface.mori_generators) == set(reference.mori_generators)
        and set(surface.effective_generators) == set(reference.effective_generators)
        and surface.regime == reference.regime
    )
    return n if same else None


_DATA_DIR = Path(__file__).parent / "data"


def fixture_path(name: str) -> Path:
    """Filesystem path of a shipped surface spec file, e.g. 'gdp2'."""
    filename = name if name.endswith(".json") else f"{name}.json"
    path = _DATA_DIR / filename
    if not path.exists():
        raise UnknownSurfaceError(f"no shipped fixture named {name!r}")
    return path


def list_fixtures() -> list[str]:
    return sorted(p.stem for p in _DATA_DIR.glob("*.json"))


_DP_NAME = re.compile(r"^dp([0-8])$")
_F_NAME = re.compile(r"^f(\d+)$")


def catalog_surface(name: str) -> SurfaceModel:
    """Resolve a catalog name (dp0..dp8, fN, gdp2) to a SurfaceModel."""
    key = name.strip().lower()
    match = _DP_NAME.match(key)
    if match:
        return make_del_pezzo(int(match.group(1)))
    match = _F_NAME.match(key)
    if match:
        return make_hirzebruch(int(match.group(1)))
    if key == "gdp2":
        return load_surface(SurfaceSpec.from_file(fixture_path("gdp2")))
    raise UnknownSurfaceError(
        f"unknown surface {name!r}; valid catalog names are dp0..dp8, "
        f"f0, f1, ... (any fN), and gdp2, or pass a spec-file path"
    )
