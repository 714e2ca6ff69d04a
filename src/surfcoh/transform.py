"""Fixed-part removal transform driving effective classes into the nef cone.

One step scans the surface's negative curves for those meeting the class
negatively and subtracts each with multiplicity ceil((-C.D) / (-C.C)).
Iterating from a class with a section terminates on a nef class; the full
step-by-step history is kept as a TransformTrace.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .cones import (
    _FIELD_BITS,
    _FIELD_MASK,
    _HALF,
    Cone,
    _packed,
    _Packed,
    _phase1,
    cone_contains,
)
from .errors import ConsistencyError, NotEffectiveError
from .lattice import DivisorClass, SurfaceModel, _Frozen, _require_rank


class FixedPart(_Frozen):
    """Curves removed in one transform step, with their multiplicities."""

    __match_args__ = ("terms",)

    terms: tuple[tuple[DivisorClass, int], ...]

    def __init__(self, terms: tuple[tuple[DivisorClass, int], ...]):
        terms = tuple((c, int(m)) for c, m in terms)
        for curve, multiplicity in terms:
            if multiplicity < 1:
                raise ValueError(f"multiplicity {multiplicity} < 1 for curve {curve}")
        object.__setattr__(self, "terms", terms)

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def to_json(self) -> list[dict]:
        return [
            {"curve": list(curve), "multiplicity": multiplicity}
            for curve, multiplicity in self.terms
        ]


class TransformStep(_Frozen):
    __match_args__ = ("fixed_part", "result")

    fixed_part: FixedPart
    result: DivisorClass

    def __init__(self, fixed_part: FixedPart, result: DivisorClass):
        object.__setattr__(self, "fixed_part", fixed_part)
        object.__setattr__(self, "result", result)

    def to_json(self) -> dict:
        return {"fixed_part": self.fixed_part.to_json(), "result": list(self.result)}


class TransformTrace(_Frozen):
    """Ordered record of transform steps from an input class to its nef limit."""

    __match_args__ = ("input", "steps", "limit")

    input: DivisorClass
    steps: tuple[TransformStep, ...]
    limit: DivisorClass

    def __init__(self, input: DivisorClass, steps: tuple[TransformStep, ...], limit: DivisorClass):
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "limit", limit)

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "input": list(self.input),
            "steps": [step.to_json() for step in self.steps],
            "limit": list(self.limit),
            "step_count": self.step_count,
        }

    def format_steps(self) -> list[str]:
        lines = []
        for k, step in enumerate(self.steps, start=1):
            removed = " ".join(
                f"- {multiplicity} × {list(curve)}"
                for curve, multiplicity in step.fixed_part.terms
            )
            lines.append(f"step {k}: {removed} → {list(step.result)}")
        return lines


class _Kernel:
    """One surface's intersection data as integer tuples.

    ``curves`` holds each negative curve as (class, M·C, -C²), so that D·C is
    one rank-length dot product of D's coefficients with M·C.
    ``other_mori_duals`` holds M·g for the Mori generators that are not
    negative curves: once no negative curve meets D negatively, only these
    can still show that D is not nef.

    ``packed_curves`` holds the M·C packed one 64-bit field per curve,
    field i at bits [64 i, 64 i + 64) of one integer per coordinate (see
    ``cones._Packed``), so that one integer product gives every D·C + 2^63
    at once. The fields are exact while max|D[j]| < 2^63 / max ||M·C||_1; a
    class at or past that limit is scanned curve by curve, and so is every
    class on a surface with no more curves than its rank (F_n, dP1, dP2,
    gdp2), which keeps None there.

    ``ample_dual`` is M·A for an integral class A with A·x >= 1 on every
    Mori generator and negative curve x, so ample by Kleiman's criterion,
    or None when these lie in no open half-space. It comes from one phase-1
    run, which prices its generators packed when they outnumber its
    coordinates.
    """

    __slots__ = (
        "curves",
        "other_mori_duals",
        "packed_curves",
        "cone",
        "ample_dual",
    )

    curves: tuple[tuple[DivisorClass, tuple[int, ...], int], ...]
    other_mori_duals: tuple[tuple[int, ...], ...]
    packed_curves: _Packed | None
    cone: Cone
    ample_dual: tuple[int, ...] | None

    def __init__(self, surface: SurfaceModel):
        # One M·c per distinct class, since on dP_k (k >= 2) the Mori
        # generators are the negative curves. Keyed on coefficient tuples,
        # whose comparisons stay in C when hashes collide (hash(-1) ==
        # hash(-2) in CPython, so many (-1)-curves of dP8 share a hash).
        duals: dict[tuple[int, ...], tuple[int, ...]] = {}
        for c in surface.negative_curves + surface.mori_generators:
            if c.coefficients not in duals:
                duals[c.coefficients] = surface.form.dual(c)
        self.curves = tuple(
            (c, duals[c.coefficients], -sum(map(mul, duals[c.coefficients], c.coefficients)))
            for c in surface.negative_curves
        )
        listed = {c.coefficients for c in surface.negative_curves}
        self.other_mori_duals = tuple(
            duals[g.coefficients]
            for g in surface.mori_generators
            if g.coefficients not in listed
        )
        self.packed_curves = _packed(tuple(dual for _, dual, _ in self.curves), surface.rank)
        self.cone = Cone(surface.effective_generators)
        # A separator w of (0, ..., 0, -1) from the duals extended by -1 has
        # w[:-1]·(M·x) >= w[-1] >= 1 for every x.
        extended = tuple(x + (-1,) for x in duals.values())
        w, _ = _phase1(
            extended, (0,) * surface.rank + (-1,), _packed(extended, surface.rank + 1)
        )
        self.ample_dual = None
        if w is not None:
            divisor = gcd(*w[:-1]) or 1
            ample = tuple([a // divisor for a in w[:-1]])
            if any(sum(map(mul, ample, x)) < 1 for x in duals.values()):
                raise ArithmeticError("phase-1 dual is not an ample class; tableau corrupt")
            self.ample_dual = surface.form.dual(DivisorClass._of_ints(ample))


def _kernel(surface: SurfaceModel) -> _Kernel:
    """The surface's kernel, built on its first query and kept on the surface.

    It is stored as a plain instance attribute, not one of the surface's
    fields, so that a lookup does not hash the whole surface, and equality,
    hashing and repr of the surface are unaffected. Building it twice, say
    from two threads at once, builds equal data, so the race is harmless.
    """
    kernel = surface.__dict__.get("_kernel")
    if kernel is None:
        kernel = _Kernel(surface)
        object.__setattr__(surface, "_kernel", kernel)
    return kernel


def is_nef(surface: SurfaceModel, d: DivisorClass) -> bool:
    """Non-negative against every negative curve and every other Mori generator.

    The curves are scanned as one transform step scans them (``_fixed_part``),
    the other Mori generators one by one.
    """
    _require_rank(surface, d)
    kernel = _kernel(surface)
    coeffs = d.coefficients
    return not _fixed_part(kernel, coeffs) and all(
        sum(map(mul, g, coeffs)) >= 0 for g in kernel.other_mori_duals
    )


def is_effective(surface: SurfaceModel, d: DivisorClass) -> bool:
    """Membership of d in the surface's effective cone; zero counts.

    The cone is the rational cone spanned by the effective generators. A
    class in it need not have a section: some multiple of it does, but the
    class itself can have h0 = 0.
    """
    _require_rank(surface, d)
    return cone_contains(_kernel(surface).cone, d)


def _fixed_part(kernel: _Kernel, coeffs: tuple[int, ...]) -> list[tuple[DivisorClass, int]]:
    """The negative curves meeting coeffs negatively, with their multiplicities.

    With the curve duals packed (more curves than coordinates) and
    max|coeffs[j]| < 2^63 / max ||M·C||_1, one packed total holds every
    D·C + 2^63, field i in bits [64 i, 64 i + 64), and only the fields with
    their top bit clear (D·C < 0) are read, by shifts and masks, and listed
    in curve order. Otherwise each curve is paired with coeffs in turn. Both
    give the same list.
    """
    packed = kernel.packed_curves
    if packed is not None:
        total = packed.total(coeffs)
        if total is not None:
            negative = (total & packed.bias) ^ packed.bias
            curves = kernel.curves
            terms = []
            # From the highest flag down: its bit is 64 i + 63 for field i.
            while negative:
                start = negative.bit_length() - _FIELD_BITS
                curve, _, minus_square = curves[start // _FIELD_BITS]
                product = ((total >> start) & _FIELD_MASK) - _HALF
                terms.append((curve, -(product // minus_square)))
                negative ^= _HALF << start
            terms.reverse()
            return terms
    terms = []
    for curve, curve_dual, minus_square in kernel.curves:
        product = sum(map(mul, curve_dual, coeffs))
        if product < 0:
            # ceil(-product / -C²), both positive
            terms.append((curve, -(product // minus_square)))
    return terms


def _subtract(
    coeffs: tuple[int, ...], terms: list[tuple[DivisorClass, int]]
) -> tuple[int, ...]:
    for curve, multiplicity in terms:
        coeffs = tuple([x - multiplicity * c for x, c in zip(coeffs, curve.coefficients)])
    return coeffs


def isoparametric_step(
    surface: SurfaceModel, d: DivisorClass
) -> tuple[DivisorClass, FixedPart]:
    """One transform step: subtract all negatively-met negative curves.

    The input must be effective; on a nef input the step is the identity
    with an empty fixed part.
    """
    if not is_effective(surface, d):
        raise NotEffectiveError(
            f"class {d} is not effective on {surface.name!r}; the transform is undefined"
        )
    terms = _fixed_part(_kernel(surface), d.coefficients)
    return DivisorClass._of_ints(_subtract(d.coefficients, terms)), FixedPart(tuple(terms))


def iterate_to_nef(surface: SurfaceModel, d: DivisorClass) -> TransformTrace:
    """Iterate the step until the fixed part is empty; the limit is nef.

    The negatively-met curve set is recomputed from the current class each
    round, since it changes between steps. NotEffectiveError means that d
    has no section: either d is outside the effective cone, or a step is
    needed at a class with D·A < 0 for the kernel's ample class A. A class
    with a section keeps one at every step, since each stripped curve is a
    fixed component, so D·A >= 0 throughout. Each step lowers D·A by at
    least 1, so the loop ends within D·A + 1 steps. A step on a surface
    without an ample class raises ConsistencyError.
    """
    if not is_effective(surface, d):
        raise NotEffectiveError(
            f"class {d} is not effective on {surface.name!r}, so it has no section"
        )
    kernel = _kernel(surface)
    steps: list[TransformStep] = []
    current = d
    coeffs = d.coefficients
    ample = kernel.ample_dual
    while True:
        terms = _fixed_part(kernel, coeffs)
        if not terms:
            # Every negative curve meets the class non-negatively already.
            if any(sum(map(mul, g, coeffs)) < 0 for g in kernel.other_mori_duals):
                raise ConsistencyError(
                    f"no negative curve meets {current} negatively on "
                    f"{surface.name!r}, yet the class is not nef; the "
                    f"negative curve list is incomplete"
                )
            return TransformTrace(input=d, steps=tuple(steps), limit=current)
        if ample is None:
            raise ConsistencyError(
                f"the Mori generators and negative curves of {surface.name!r} lie in "
                f"no open half-space, so no class is ample; the transform of {d} "
                f"cannot be bounded"
            )
        if sum(map(mul, ample, coeffs)) < 0:
            raise NotEffectiveError(
                f"class {d} has no section on {surface.name!r}: its transform "
                f"reached {current}, which meets an ample class negatively"
            )
        coeffs = _subtract(coeffs, terms)
        current = DivisorClass._of_ints(coeffs)
        steps.append(TransformStep(fixed_part=FixedPart(tuple(terms)), result=current))
