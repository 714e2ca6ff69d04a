"""Builders for the shipped surface families and spec-file loading.

Catalog surfaces are Hirzebruch surfaces F_n, del Pezzo surfaces dP_k
for k = 0..8 and the generalized del Pezzo surface gdp2, all built in
code; arbitrary surfaces can be described by a JSON spec file that
read_spec reads and load_surface builds. Effectiveness data for custom
surfaces is taken on trust: the library cannot verify irreducibility or
completeness of a user-supplied curve list from lattice data alone.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from pathlib import Path

from .cones import Cone, cone_contains
from .errors import SpecValidationError, UnknownSurfaceError
from .lattice import DivisorClass, IntersectionForm, Regime, SurfaceModel

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


def _int_scalar(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(field, f"expected an integer, got {value!r}")
    return operator.index(value)

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


def read_spec(path: str | Path) -> dict:
    """The JSON object of a surface spec file, for ``load_surface``.

    A file that is not UTF-8, or that holds JSON other than an object,
    raises SpecValidationError on the field ``document``; a file that is not
    JSON raises json.JSONDecodeError.
    """
    import json  # here, not at module level: a catalog surface never reads JSON

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise SpecValidationError("document", f"spec file is not UTF-8: {exc}") from None
    if not isinstance(data, dict):
        raise SpecValidationError("document", "spec file must hold a JSON object")
    return data


def load_surface(spec: Mapping) -> SurfaceModel:
    """Validate a surface spec and build the corresponding SurfaceModel.

    spec maps exactly the keys of ``_SPEC_FIELDS`` to JSON values, as
    ``read_spec`` returns them; a fault raises SpecValidationError naming
    its field. Name and regime must be strings, every other entry an
    integer (not bool) or a list of them.

    The model checks symmetry of the pairing, lengths of all vectors and
    negativity of every listed curve; this adds evenness of d.(d - K) on
    the whole lattice, and so on every listed vector, read off the
    diagonal: mod 2, d.(d - K) is sum_i d_i (M_ii - (M.K)_i), so each
    M_ii - (M.K)_i must be even. It also checks the Hodge index theorem:
    the pairing must have signature (1, rank - 1), and last what the
    lattice data can show of the regime (``_check_regime``).
    """
    missing = [k for k in _SPEC_FIELDS if k not in spec]
    if missing:
        raise SpecValidationError(missing[0], "required field is missing")
    stray = [k for k in spec if k not in _SPEC_FIELDS]
    if stray:
        raise SpecValidationError(stray[0], "unknown field in surface spec")
    for key in ("name", "regime"):
        if not isinstance(spec[key], str):
            raise SpecValidationError(key, f"expected a string, got {spec[key]!r}")
    matrix = _int_matrix(spec["intersection_matrix"], "intersection_matrix")
    canonical = DivisorClass._of_ints(_int_vector(spec["canonical_class"], "canonical_class"))
    chi = _int_scalar(spec["chi_structure_sheaf"], "chi_structure_sheaf")
    curves, mori, effective = [
        tuple(map(DivisorClass._of_ints, _int_matrix(spec[key], key)))
        for key in ("negative_curves", "mori_generators", "effective_generators")
    ]
    try:
        regime = Regime(spec["regime"])
    except ValueError:
        valid = ", ".join(r.value for r in Regime)
        raise SpecValidationError("regime", f"{spec['regime']!r} is not one of: {valid}") from None
    surface = SurfaceModel(
        name=spec["name"],
        rank=_int_scalar(spec["rank"], "rank"),
        form=IntersectionForm(matrix),
        canonical_class=canonical,
        chi_structure_sheaf=chi,
        negative_curves=curves,
        mori_generators=mori,
        effective_generators=effective,
        regime=regime,
    )
    rank, form = surface.rank, surface.form
    for i, (row, k_dual) in enumerate(zip(form.matrix, form.dual(surface.canonical_class))):
        if (row[i] - k_dual) % 2:
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
    _check_regime(surface)
    return surface


def _check_regime(surface: SurfaceModel) -> None:
    """Check what the lattice data can show of the regime a surface claims.

    ``certify_vanishing`` certifies every nef class of a del Pezzo or toric
    surface on the strength of its regime alone. The checks are exact, and
    necessary only:

    - del_pezzo: -K is ample by Kleiman's criterion on the Mori cone, so
      -K.g >= 1 for every Mori generator g, and K^2 > 0.
    - del_pezzo and toric_convex_fan: chi(O) = 1 and K^2 = 10 - rank
      (Noether's formula for a rational surface, with e = rank + 2).
    - toric_convex_fan: -K, the sum of the boundary divisors, lies in the
      effective cone.
    - trivial_canonical: K = 0.

    A failure raises SpecValidationError on the field ``regime``.
    """
    regime = surface.regime
    canonical = surface.canonical_class
    if regime is Regime.GENERAL:
        return
    if regime is Regime.TRIVIAL_CANONICAL:
        if not canonical.is_zero:
            raise SpecValidationError("regime", f"trivial_canonical needs K = 0, got {canonical}")
        return
    k_dual = surface.form.dual(canonical)
    k_square = sum(map(operator.mul, k_dual, canonical.coefficients))
    if regime is Regime.DEL_PEZZO:
        for g in surface.mori_generators:
            product = -sum(map(operator.mul, k_dual, g.coefficients))
            if product < 1:
                raise SpecValidationError(
                    "regime",
                    f"del_pezzo needs -K.g >= 1 for every Mori generator g, "
                    f"but -K.{g} = {product}",
                )
        if k_square <= 0:
            raise SpecValidationError("regime", f"del_pezzo needs K^2 > 0, got {k_square}")
    if surface.chi_structure_sheaf != 1:
        raise SpecValidationError(
            "regime", f"{regime.value} needs chi(O) = 1, got {surface.chi_structure_sheaf}"
        )
    if k_square != 10 - surface.rank:
        raise SpecValidationError(
            "regime",
            f"{regime.value} needs K^2 = 10 - rank = {10 - surface.rank} "
            f"(Noether's formula), got {k_square}",
        )
    if regime is Regime.TORIC_CONVEX_FAN and not cone_contains(
        Cone(surface.effective_generators), -canonical
    ):
        raise SpecValidationError(
            "regime", f"toric_convex_fan needs -K = {-canonical} in the effective cone"
        )


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


# The seven types (a; b_1 >= b_2 >= ...) of (-1)-classes a*H - sum(b_i * E_i)
# on dP_k, zero multiplicities left out (Manin, Cubic Forms, Ch. IV): every
# solution of sum(b) = 3a - 1 and sum(b^2) = a^2 + 1 with at most 8 b_i.
_MINUS_ONE_TYPES = (
    (0, (-1,)),
    (1, (1, 1)),
    (2, (1,) * 5),
    (3, (2,) + (1,) * 6),
    (4, (2,) * 3 + (1,) * 5),
    (5, (2,) * 6 + (1,) * 2),
    (6, (3,) + (2,) * 7),
)


# Both dP caches are typed: an untyped cache keys an int subclass (an IntEnum
# member, say) by a value that True and 1.0 compare equal to, so they would
# get its cached result without reaching the index check.
@lru_cache(maxsize=None, typed=True)
def enumerate_minus_one_curves(k: int) -> tuple[DivisorClass, ...]:
    """All classes a*H - sum(b_i * E_i) on dP_k with square -1 and K-degree -1.

    Every such class is a distinct ordering of one of the seven classical
    types in ``_MINUS_ONE_TYPES`` that has at most k multiplicities, padded
    with zeros to k entries. The list is in increasing order: the types by
    a, and each type's orderings lexicographically. The tests pin it against
    an exhaustive sweep of a in [0, 6], b_i in [-1, 3] and against the known
    counts.
    """
    k = _del_pezzo_index(k)
    return tuple(
        DivisorClass._of_ints((a,) + order)
        for a, b in _MINUS_ONE_TYPES
        if len(b) <= k
        for order in _orderings(tuple(-x for x in b) + (0,) * (k - len(b)))
    )


def _orderings(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every distinct ordering of values, each once, in increasing order.

    Starting from the sorted ordering, each step goes to the lexicographic
    successor (Knuth, TAOCP 7.2.1.2, Algorithm L), so every distinct ordering
    comes exactly once however many values are equal.
    """
    order = sorted(values)
    last = len(order) - 1
    while True:
        yield tuple(order)
        i = last - 1
        while i >= 0 and order[i] >= order[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while order[j] <= order[i]:
            j -= 1
        order[i], order[j] = order[j], order[i]
        order[i + 1 :] = order[:i:-1]


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


@lru_cache(maxsize=None)
def _make_gdp2() -> SurfaceModel:
    """gdp2: the plane blown up at a point and then at a point of E_1.

    Basis (H, E_1, E_2), printed with the default labels e1..e3. The
    irreducible negative curves are the (-2)-curve E_1 - E_2, the
    (-1)-curve E_2 and the line H - E_1 - E_2 through the first point in
    the direction of the second; they generate the Mori and effective
    cones. ``data/gdp2.json`` is the same surface as a spec file, and the
    tests pin the two equal.
    """
    curves = (DivisorClass([0, 1, -1]), DivisorClass([0, 0, 1]), DivisorClass([1, -1, -1]))
    return SurfaceModel(
        name="gdp2",
        rank=3,
        form=IntersectionForm([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
        canonical_class=DivisorClass([-3, 1, 1]),
        chi_structure_sheaf=1,
        negative_curves=curves,
        mori_generators=curves,
        effective_generators=curves,
        regime=Regime.GENERAL,
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
    """Resolve a catalog name (dp0..dp8, fN, gdp2) to a SurfaceModel.

    dp0..dp8 and gdp2 are cached: each of these names resolves to the same
    object every time.
    """
    key = name.strip().lower()
    match = _DP_NAME.match(key)
    if match:
        return make_del_pezzo(int(match.group(1)))
    match = _F_NAME.match(key)
    if match:
        return make_hirzebruch(int(match.group(1)))
    if key == "gdp2":
        return _make_gdp2()
    raise UnknownSurfaceError(
        f"unknown surface {name!r}; valid catalog names are dp0..dp8, "
        f"f0, f1, ... (any fN), and gdp2, or pass a spec-file path"
    )
