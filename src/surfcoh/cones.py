"""Rational polyhedral cones with exact membership testing.

Membership in the non-negative span of a generator list is decided by an
exact phase-1 simplex with integer-preserving (fraction-free) pivoting:
the tableau holds integers over one common denominator, and every pivot
divides exactly, so answers on the cone boundary are exact without any
rational arithmetic. Problem sizes here are tiny (rank <= 9, at most a
few hundred generators), which keeps the dense tableau cheap.

A target outside the cone leaves the simplex with a separating vector w:
w.g >= 0 for every generator g and w.target < 0. A target inside it whose
final basis consists of generators leaves a member witness: the rows of W
with W.B = det * I, B the basis generators, so that W.t >= 0 in every row
writes t as a non-negative combination of B. Each cone keeps the last few
of each; one of them settles most later targets with a few dot products.
A target on a lower-dimensional face can end with an artificial column
still basic; that run yields no witness.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Iterable

from .errors import RankMismatchError
from .lattice import DivisorClass

# (rows, basis, det): rows[j] . generators[basis[k]] == det if j == k else 0.
_Witness = tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]


class Cone:
    """V-representation of a rational polyhedral cone.

    ``_coefficients`` holds the generators' coefficient vectors for the
    simplex, and ``_hash`` the hash of the generators; both are built once
    here because every membership test keys its memo on the cone.
    ``_separators`` holds up to ``_KEPT`` separating vectors found by
    earlier decisions, newest first, and ``_witnesses`` up to ``_KEPT``
    member witnesses ``(rows, basis, det)``: the rows of det times the
    inverse of the basis generators ``generators[basis[j]]``, each checked
    exactly before it is kept. These lists are the mutable part of a cone
    and take no part in equality or hashing; threads that race on them can
    drop or repeat an entry, but every entry stays a valid certificate.
    """

    __slots__ = ("generators", "_coefficients", "_hash", "_separators", "_witnesses")

    generators: tuple[DivisorClass, ...]
    _coefficients: tuple[tuple[int, ...], ...]
    _hash: int
    _separators: list[tuple[int, ...]]
    _witnesses: list[_Witness]

    def __init__(self, generators: Iterable[DivisorClass]):
        gens = tuple(
            g if isinstance(g, DivisorClass) else DivisorClass(g) for g in generators
        )
        if gens:
            n = len(gens[0])
            for g in gens:
                if len(g) != n:
                    raise RankMismatchError("cone generators have mixed lengths")
                if g.is_zero:
                    raise ValueError("cone generators must be nonzero")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_coefficients", tuple(g.coefficients for g in gens))
        object.__setattr__(self, "_hash", hash(gens))
        object.__setattr__(self, "_separators", [])
        object.__setattr__(self, "_witnesses", [])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Cone is immutable")

    @property
    def ambient_rank(self) -> int | None:
        return len(self.generators[0]) if self.generators else None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cone):
            return self.generators == other.generators
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Cone({list(self.generators)})"


def cone_contains(cone: Cone, d: DivisorClass) -> bool:
    """True iff d is a non-negative rational combination of the generators."""
    if cone.generators and cone.ambient_rank != len(d):
        raise RankMismatchError(
            f"cone lives in rank {cone.ambient_rank} but class has length {len(d)}"
        )
    if d.is_zero:
        return True
    return _decision(cone, d.coefficients)


# Entries kept by the decision memo. Bounded, so that a long scan does not
# grow one entry per class without limit; large enough that a repeat pass
# over a workload's distinct decisions (a few thousand) stays in the memo.
_MEMO_SIZE = 2**15

# Separating vectors, and member witnesses, kept per cone. Few are needed:
# over the dp3 scan boxes -5..0 to -2..3, four separators found by the
# simplex settled all other non-members; over the dp3 box [-4, 4]^4, four
# witnesses settled all members but the 56 whose runs left none.
_KEPT = 8

# Dantzig's rule is allowed _STALL_FACTOR * (m + n + 5) consecutive pivots
# that leave the objective unchanged before Bland's rule takes over.
_STALL_FACTOR = 2


@lru_cache(maxsize=_MEMO_SIZE)
def _decision(cone: Cone, target: tuple[int, ...]) -> bool:
    """The memoised decision for one cone and target.

    The key is the cone itself: its hash is kept, and a lookup from the
    same cone object compares it by identity, so only the target is hashed.
    Equal cones built separately compare equal and share entries.
    A miss tries the cone's separating vectors, then its member witnesses,
    before the simplex.
    """
    separators = cone._separators
    for w in separators:
        if sum(map(mul, w, target)) < 0:
            return False
    witnesses = cone._witnesses
    for rows, _, _ in witnesses:
        for row in rows:
            if sum(map(mul, row, target)) < 0:
                break
        else:
            return True
    generators = cone._coefficients
    w, witness = _phase1(generators, target)
    if w is None:
        if witness is not None:
            rows, basis, det = witness
            if det <= 0 or any(
                sum(map(mul, row, generators[i])) != (det if j == k else 0)
                for j, row in enumerate(rows)
                for k, i in enumerate(basis)
            ):
                raise ArithmeticError("phase-1 basis inverse is not exact; tableau corrupt")
            witnesses.insert(0, witness)
            del witnesses[_KEPT:]
        return True
    if sum(map(mul, w, target)) >= 0 or any(
        sum(map(mul, w, g)) < 0 for g in generators
    ):
        raise ArithmeticError("phase-1 dual does not separate; tableau corrupt")
    separators.insert(0, w)
    del separators[_KEPT:]
    return False


def _phase1(
    generators: tuple[tuple[int, ...], ...], target: tuple[int, ...]
) -> tuple[tuple[int, ...] | None, _Witness | None]:
    """(separator, witness) for  sum_i x_i * g_i = target,  x_i >= 0.

    Without a solution x >= 0 the separator is a vector w with w.g_i >= 0
    for every i and w.target < 0, and the witness None. With one, the
    separator is None, and the witness is ``(rows, basis, det)`` when the
    final basis consists of generators, else None.

    Phase-1 simplex: minimise the sum of one artificial variable per
    coordinate; feasible iff the optimum is zero. Pivots follow Dantzig's
    rule for speed, falling back to Bland's rule permanently once the
    objective stalls, which rules out cycling; ratio ties go to the lower
    basis index.

    The tableau and cost row are integers scaled by one common positive
    denominator ``det``, the determinant of the current basis (the last
    pivot). A pivot on ``p`` keeps the pivot row and turns every entry
    ``x`` of another row into ``(x * p - f * y) // det``, with ``f`` the
    row's entry in the entering column and ``y`` the pivot row's entry in
    the column of ``x``; the division is exact (Bareiss). Scaled values are
    compared by cross-multiplication, so the pivots are those of the same
    simplex over exact rationals.

    At an optimum above zero the phase-1 dual y separates: the cost entry
    of artificial column j is det * (1 - y_j), so y can be read off it, and
    w_j = -sign_j * det * y_j undoes the sign flip of row j.

    At an optimum of zero whose basis holds no artificial column, the
    artificial columns hold det times the inverse of the sign-flipped basis
    matrix. Multiplying artificial column j by sign_j undoes the flip, which
    leaves rows W with W.B = det * I: row j gives det * x of the generator
    basic in row j, for this target and any other.
    """
    n = len(target)
    m = len(generators)
    if m == 0:
        return None if all(t == 0 for t in target) else tuple([-t for t in target]), None

    ncols = m + n
    tableau: list[list[int]] = []
    signs: list[int] = []
    for j in range(n):
        sign = -1 if target[j] < 0 else 1
        signs.append(sign)
        row = [sign * g[j] for g in generators]
        row.extend(1 if k == j else 0 for k in range(n))
        row.append(sign * target[j])
        tableau.append(row)
    basis = [m + j for j in range(n)]

    # Reduced costs for minimising the artificial sum; artificials start basic.
    # cost[ncols] tracks minus the current objective value, times det.
    cost = [-sum(column) for column in zip(*tableau)]
    for q in range(m, ncols):
        cost[q] += 1
    det = 1

    use_bland = False
    stalled = 0
    stall_limit = _STALL_FACTOR * (m + n + 5)
    while True:
        entering = -1
        if use_bland:
            for q in range(ncols):
                if cost[q] < 0:
                    entering = q
                    break
        else:
            worst = min(cost[:ncols])
            if worst < 0:
                entering = cost.index(worst)
        if entering < 0:
            if cost[ncols]:
                w = tuple([sign * (cost[m + j] - det) for j, sign in enumerate(signs)])
                return w, None
            if max(basis) >= m:
                return None, None
            rows = tuple(
                tuple([x * sign for x, sign in zip(row[m:ncols], signs)]) for row in tableau
            )
            return None, (rows, tuple(basis), det)
        # Ratio test on rhs / a, compared as rhs * best_a against best_rhs * a.
        leaving = -1
        best_rhs = best_a = 0
        for j in range(n):
            row = tableau[j]
            a = row[entering]
            if a > 0:
                rhs = row[ncols]
                if leaving >= 0:
                    lhs, bound = rhs * best_a, best_rhs * a
                    if lhs > bound or (lhs == bound and basis[j] > basis[leaving]):
                        continue
                leaving, best_rhs, best_a = j, rhs, a
        if leaving < 0:
            raise ArithmeticError("phase-1 simplex unbounded; tableau corrupt")
        pivot_row = tableau[leaving]
        p = best_a
        for j in range(n):
            if j == leaving:
                continue
            row = tableau[j]
            f = row[entering]
            if f:
                tableau[j] = [(x * p - f * y) // det for x, y in zip(row, pivot_row)]
            elif p != det:
                tableau[j] = [x * p // det for x in row]
        f = cost[entering]
        previous_objective = cost[ncols]
        cost = [(x * p - f * y) // det for x, y in zip(cost, pivot_row)]
        basis[leaving] = entering
        if not use_bland:
            # Same objective value: cost[ncols] / p == previous_objective / det.
            if cost[ncols] * det == previous_objective * p:
                stalled += 1
                if stalled > stall_limit:
                    use_bland = True
            else:
                stalled = 0
        det = p
