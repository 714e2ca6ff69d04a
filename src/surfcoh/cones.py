"""Rational polyhedral cones with exact membership testing.

Membership in the non-negative span of a generator list is decided by an
exact phase-1 simplex in revised form with integer-preserving
(fraction-free) pivoting. A run keeps only det times the inverse of the
basis matrix, the basic solution and the dual vector, all integers over one
common denominator det, and every pivot divides exactly (Bareiss), so
answers on the cone boundary are exact without any rational arithmetic.
Only generators enter the basis: an artificial column that leaves never
comes back, and a tie in the ratio test takes an artificial column out
first. A generator's reduced cost is computed only when the pivot rule
needs it. Dantzig's rule needs all of them: on a cone with more generators
than coordinates they come from one product with the cone's packed
generators (``_Packed``: one little-endian 64-bit field per generator, read
back with one ``struct`` unpack); on smaller cones, and past the packing's
exactness limit, from one dot product per generator.
Bland's rule, once it takes over, stops at the first generator that
improves.

A target outside the cone leaves the simplex with a separating vector w:
w.g >= 0 for every generator g and w.target < 0. A target inside it leaves
a member witness: the rows of W with W.B = det * I, B the basis
generators, so that W.t >= 0 in every row writes t as a non-negative
combination of B. Each cone keeps the last few of each; one of them
settles most later targets with a few dot products. A target on a
lower-dimensional face can end with an artificial column still basic at
level 0; a degenerate pivot takes each such column out, so every member
run on a cone whose generators span the space leaves a witness.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from functools import lru_cache
from operator import mul

from .errors import RankMismatchError
from .lattice import DivisorClass

# (rows, basis, det): rows[j] . generators[basis[k]] == det if j == k else 0.
_Witness = tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]

# Each packed vector owns one 64-bit field of an arbitrary-precision integer.
_FIELD_BITS = 64
_HALF = 1 << (_FIELD_BITS - 1)
_FIELD_MASK = (1 << _FIELD_BITS) - 1


class _Packed:
    """Vectors v_0 .. v_{n-1} of one rank, packed for a simultaneous scan.

    ``columns[j]`` is sum_i v_i[j]·2^(64 i), so for a vector D the integer
    ``bias + sum_j D[j]·columns[j]`` is sum_i (D·v_i + 2^63)·2^(64 i), with
    ``bias`` = sum_i 2^63·2^(64 i). While every |D·v_i| < 2^63 those terms
    are exactly its 64-bit fields, and field i has its top bit clear exactly
    when D·v_i < 0. That holds whenever max|D[j]| < ``limit`` =
    ceil(2^63 / max_i ||v_i||_1), or 2^63 when every v_i is 0; ``total``
    returns None beyond it.

    ``fields`` is the ``struct`` layout of those fields, little-endian
    unsigned 64-bit, one per vector: ``fields.unpack`` of a total's
    ``fields.size`` little-endian bytes gives every D·v_i + 2^63.

    ``duals_fit`` is True when every dual vector of a phase-1 run over these
    vectors as generators is within the limit. Such a dual is a sum of at
    most ``rank`` rows of det times a basis inverse, whose entries are
    (rank - 1)-minors of the basis matrix; by Hadamard's inequality, each is
    at most the product of the rank - 1 largest Euclidean norms of the
    vectors (each taken as at least 1).
    """

    __slots__ = ("columns", "bias", "limit", "fields", "duals_fit")

    columns: tuple[int, ...]
    bias: int
    limit: int
    fields: struct.Struct
    duals_fit: bool

    def __init__(self, vectors: tuple[tuple[int, ...], ...], rank: int):
        self.fields = struct.Struct(f"<{len(vectors)}Q")
        self.bias = int.from_bytes(self.fields.pack(*[_HALF] * len(vectors)), "little")
        self.columns = tuple(self._column([v[j] for v in vectors]) for j in range(rank))
        norm = max([sum(map(abs, v)) for v in vectors], default=0) or 1
        self.limit = -(-_HALF // norm)
        # rank² · (product of the rank - 1 largest squared norms) < limit².
        squares = sorted([max(sum(map(mul, v, v)), 1) for v in vectors])
        bound = rank * rank
        for square in squares[len(squares) - rank + 1 :]:
            bound *= square
        self.duals_fit = bound < self.limit * self.limit

    def _column(self, values: list[int]) -> int:
        """sum_i values[i]·2^(64 i), written as little-endian signed 64-bit fields.

        Read back as one unsigned integer, each negative field carries
        2^64 too much, which its sign bit, shifted up one place, removes.
        Values past 64 bits are summed shift by shift instead.
        """
        try:
            buffer = struct.pack(f"<{len(values)}q", *values)
        except struct.error:
            return sum(x << (_FIELD_BITS * i) for i, x in enumerate(values))
        unsigned = int.from_bytes(buffer, "little")
        return unsigned - ((unsigned & self.bias) << 1)

    def total(self, coeffs: tuple[int, ...]) -> int | None:
        """bias + sum_j coeffs[j]·columns[j], or None past the exactness limit."""
        limit = self.limit
        if max(coeffs) >= limit or -min(coeffs) >= limit:
            return None
        return sum(map(mul, coeffs, self.columns), self.bias)


def _packed(vectors: tuple[tuple[int, ...], ...], rank: int) -> _Packed | None:
    # Up to rank vectors the per-vector loop is as fast as packing or faster.
    return _Packed(vectors, rank) if len(vectors) > rank else None


class Cone:
    """V-representation of a rational polyhedral cone.

    ``_coefficients`` holds the generators' coefficient vectors for the
    simplex, ``_packed`` the same vectors packed one 64-bit field each (see
    ``_Packed``), or None when there are no more generators than
    coordinates, and ``_hash`` the hash of the generators; all are built
    once here because every membership test keys its memo on the cone and
    every simplex run prices the generators through the packing.
    ``_separators`` holds up to ``_KEPT`` separating vectors found by
    earlier decisions, newest first, and ``_witnesses`` up to ``_KEPT``
    member witnesses ``(rows, basis, det)``: the rows of det times the
    inverse of the basis generators ``generators[basis[j]]``, each checked
    exactly before it is kept. These lists are the mutable part of a cone
    and take no part in equality or hashing; threads that race on them can
    drop or repeat an entry, but every entry stays a valid certificate.
    """

    __slots__ = (
        "generators",
        "_coefficients",
        "_packed",
        "_hash",
        "_separators",
        "_witnesses",
    )

    generators: tuple[DivisorClass, ...]
    _coefficients: tuple[tuple[int, ...], ...]
    _packed: _Packed | None
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
        coefficients = tuple(g.coefficients for g in gens)
        object.__setattr__(self, "_coefficients", coefficients)
        object.__setattr__(
            self, "_packed", _packed(coefficients, len(gens[0])) if gens else None
        )
        object.__setattr__(self, "_hash", hash(gens))
        object.__setattr__(self, "_separators", [])
        object.__setattr__(self, "_witnesses", [])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Cone is immutable")

    def __reduce__(self):
        return (Cone, (self.generators,))

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
    """True iff d is a non-negative rational combination of the generators.

    This is membership in the rational cone: for an effective cone, a
    member has a multiple with a section but may have no section itself.
    """
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
# over the dp3 box [-4, 4]^4 the simplex ran for 5 of the 4,671 non-members
# and 7 of the 1,889 members, and the certificates those runs left settled
# all the others.
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
    w, witness = _phase1(generators, target, cone._packed)
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
    generators: tuple[tuple[int, ...], ...],
    target: tuple[int, ...],
    packed: _Packed | None = None,
) -> tuple[tuple[int, ...] | None, _Witness | None]:
    """(separator, witness) for  sum_i x_i * g_i = target,  x_i >= 0.

    Without a solution x >= 0 the separator is a vector w with w.g_i >= 0
    for every i and w.target < 0, and the witness None. With one, the
    separator is None, and the witness is ``(rows, basis, det)`` when the
    generators span the space, else None. ``packed``, the
    generators packed by ``_Packed``, lets Dantzig's rule price them all
    with one product; without it each is priced by a dot product. Either
    way the pivots, and so the result, are the same.

    Phase-1 simplex: minimise the sum of one artificial variable per
    coordinate; feasible iff the optimum is zero. Row j is multiplied by
    sign_j, the sign of target[j] (+1 for 0), so that the basic solution
    starts non-negative. Only generator columns are priced, so an artificial
    column never enters and stays at 0 once it has left. The entering
    generator follows Dantzig's rule for speed, first index on ties, falling
    back to Bland's rule permanently once the objective stalls. A ratio-test
    tie goes to a row whose basic column is artificial, then to the lower
    basis index, under either rule: Bland's rule with the artificial columns
    ordered first, which rules out cycling.

    The run is the revised simplex over integers scaled by one common
    positive denominator ``det``, the determinant of the current basis (the
    last pivot). ``rows[j]`` holds row j of det times the basis inverse with
    column k multiplied by sign_k, which folds the sign flips in, followed
    by det times the basic value of row j. Then rows[j].g is row j of the
    column of generator g, and artificial column k is sign_k times
    column k of the inverse. A pivot on ``p`` keeps the pivot row and turns
    every entry ``x`` of another row into ``(x * p - f * y) // det``, with
    ``f`` the row's entry in the entering column and ``y`` the pivot row's
    entry in the column of ``x``; the division is exact (Bareiss). Scaled
    values are compared by cross-multiplication, so the pivots are those of
    the same simplex over exact rationals.

    ``cost`` holds w = -det * y, y the phase-1 dual with the sign flips
    undone, followed by minus det times the objective value; it is updated
    by the same pivot. Generator g's reduced cost, times det, is w.g. At an
    optimum above zero, w separates: w.g >= 0 for every generator, and
    w.target is minus det times the objective. At an optimum of zero, each
    artificial column still basic is at level 0 and leaves by a degenerate
    pivot on a generator entry of its row, the first of ±det if any, so that
    rows with a zero in the entering column stay as they are; a row with no
    nonzero generator entry means that the generators do not span the
    space. Then the inverse rows are W with W.B = det * I: row j gives
    det * x of the generator basic in row j, for this target and any other.
    """
    n = len(target)
    m = len(generators)
    if m == 0:
        return None if all(t == 0 for t in target) else tuple([-t for t in target]), None

    signs = [-1 if t < 0 else 1 for t in target]
    rows = [[0] * n + [t if t > 0 else -t] for t in target]
    for j in range(n):
        rows[j][j] = signs[j]
    basis = list(range(m, m + n))
    cost = [-sign for sign in signs]
    cost.append(-sum(map(abs, target)))
    det = 1
    if packed is not None:
        columns, bias, limit, fields = packed.columns, packed.bias, packed.limit, packed.fields
        duals_fit = packed.duals_fit

    use_bland = False
    stalled = 0
    stall_limit = _STALL_FACTOR * (m + n + 5)
    while True:
        entering = -1
        if use_bland:
            for q, g in enumerate(generators):
                f = sum(map(mul, cost, g))
                if f < 0:
                    entering = q
                    break
        else:
            # Every generator's reduced cost at once, as the fields of one
            # packed total, while w is within the packing's limit.
            if packed is not None and (
                duals_fit or max(cost[:n]) < limit and -min(cost[:n]) < limit
            ):
                total = sum(map(mul, cost, columns), bias)
                costs = fields.unpack(total.to_bytes(fields.size, "little"))
                f = min(costs)
                if f < _HALF:
                    entering = costs.index(f)
                f -= _HALF
            else:
                costs = [sum(map(mul, cost, g)) for g in generators]
                f = min(costs)
                if f < 0:
                    entering = costs.index(f)
        if entering < 0:
            if cost[n]:
                return tuple(cost[:n]), None
            # Degenerate pivots out of the artificial columns need no basic values.
            rows = [row[:n] for row in rows]
            for j, k in enumerate(basis):
                if k < m:
                    continue
                row = rows[j]
                if packed is not None and max(row) < limit and -min(row) < limit:
                    total = sum(map(mul, row, columns), bias)
                    entries = fields.unpack(total.to_bytes(fields.size, "little"))
                    zero = _HALF
                else:
                    entries = [sum(map(mul, row, g)) for g in generators]
                    zero = 0
                hits = [entries.index(x) for x in (zero + det, zero - det) if x in entries]
                if hits:
                    entering = min(hits)
                elif entries.count(zero) < m:
                    entering = next(q for q, x in enumerate(entries) if x != zero)
                else:
                    return None, None
                g = generators[entering]
                column = [sum(map(mul, r, g)) for r in rows]
                p = column[j]
                if p < 0:
                    # As the pivot on p with every row negated: det stays positive.
                    rows[j] = row = [-y for y in row]
                    p = -p
                for i, a in enumerate(column):
                    if i != j and (a or p != det):
                        rows[i] = [(x * p - a * y) // det for x, y in zip(rows[i], row)]
                basis[j] = entering
                det = p
            return None, (tuple(map(tuple, rows)), tuple(basis), det)
        g = generators[entering]
        column = [sum(map(mul, row, g)) for row in rows]
        # Ratio test on rhs / a, compared as rhs * best_a against best_rhs * a;
        # ties go to an artificial row, then to the lower basis index.
        leaving = -1
        best_rhs = best_a = 0
        for j, a in enumerate(column):
            if a > 0:
                rhs = rows[j][n]
                if leaving >= 0:
                    lhs, bound = rhs * best_a, best_rhs * a
                    if lhs > bound or lhs == bound and (
                        (basis[j] < m, basis[j]) > (basis[leaving] < m, basis[leaving])
                    ):
                        continue
                leaving, best_rhs, best_a = j, rhs, a
        if leaving < 0:
            raise ArithmeticError("phase-1 simplex unbounded; tableau corrupt")
        pivot_row = rows[leaving]
        p = best_a
        previous_objective = cost[n]
        if p == det:
            # (x * det - a * y) // det, with a * y a multiple of det.
            for j, a in enumerate(column):
                if a and j != leaving:
                    rows[j] = [x - a * y // det for x, y in zip(rows[j], pivot_row)]
            cost = [x - f * y // det for x, y in zip(cost, pivot_row)]
        else:
            for j, a in enumerate(column):
                if j == leaving:
                    continue
                if a:
                    rows[j] = [(x * p - a * y) // det for x, y in zip(rows[j], pivot_row)]
                else:
                    rows[j] = [x * p // det for x in rows[j]]
            cost = [(x * p - f * y) // det for x, y in zip(cost, pivot_row)]
        basis[leaving] = entering
        if not use_bland:
            # Same objective value: cost[n] / p == previous_objective / det.
            if cost[n] * det == previous_objective * p:
                stalled += 1
                if stalled > stall_limit:
                    use_bland = True
            else:
                stalled = 0
        det = p
