"""Fixed-part removal transform driving effective classes into the nef cone.

One step scans the surface's negative curves for those meeting the class
negatively and subtracts each with multiplicity ceil((-C.D) / (-C.C)).
Iterating from an effective class terminates on a nef class; the full
step-by-step history is kept as a TransformTrace.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .cones import Cone, cone_contains
from .errors import ConsistencyError, NonAbutmentError, NotEffectiveError
from .lattice import DivisorClass, SurfaceModel, _require_rank, intersect

DEFAULT_MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class FixedPart:
    """Curves removed in one transform step, with their multiplicities."""

    terms: tuple[tuple[DivisorClass, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((c, int(m)) for c, m in self.terms))
        for curve, multiplicity in self.terms:
            if multiplicity < 1:
                raise ValueError(f"multiplicity {multiplicity} < 1 for curve {curve}")

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def total(self, rank: int) -> DivisorClass:
        acc = DivisorClass.zero(rank)
        for curve, multiplicity in self.terms:
            acc = acc + multiplicity * curve
        return acc

    def to_json(self) -> list[dict]:
        return [
            {"curve": list(curve), "multiplicity": multiplicity}
            for curve, multiplicity in self.terms
        ]


@dataclass(frozen=True)
class TransformStep:
    fixed_part: FixedPart
    result: DivisorClass

    def to_json(self) -> dict:
        return {"fixed_part": self.fixed_part.to_json(), "result": list(self.result)}


@dataclass(frozen=True)
class TransformTrace:
    """Ordered record of transform steps from an input class to its nef limit."""

    input: DivisorClass
    steps: tuple[TransformStep, ...]
    limit: DivisorClass

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


def _effective_cone(surface: SurfaceModel) -> Cone:
    """The surface's effective cone, built on first use and kept on the surface.

    It is stored as a plain instance attribute, not a dataclass field, so
    that a lookup does not hash the whole surface, and equality, hashing
    and repr of the surface are unaffected.
    """
    cone = surface.__dict__.get("_effective_cone")
    if cone is None:
        cone = Cone(surface.effective_generators)
        object.__setattr__(surface, "_effective_cone", cone)
    return cone


def is_nef(surface: SurfaceModel, d: DivisorClass) -> bool:
    """Non-negative against every Mori generator."""
    _require_rank(surface, d)
    dual = surface.form.dual(d)
    return all(sum(map(mul, dual, g.coefficients)) >= 0 for g in surface.mori_generators)


def is_effective(surface: SurfaceModel, d: DivisorClass) -> bool:
    """Membership of d in the surface's effective cone; zero counts."""
    _require_rank(surface, d)
    return cone_contains(_effective_cone(surface), d)


def _fixed_part(surface: SurfaceModel, d: DivisorClass) -> FixedPart:
    dual = surface.form.dual(d)
    terms = []
    for curve in surface.negative_curves:
        product = sum(map(mul, dual, curve.coefficients))
        if product < 0:
            self_int = intersect(surface, curve, curve)
            # ceil(a / b) for positive integers a = -product, b = -self_int
            multiplicity = (-product + (-self_int) - 1) // (-self_int)
            terms.append((curve, multiplicity))
    return FixedPart(tuple(terms))


def _apply_step(surface: SurfaceModel, d: DivisorClass) -> tuple[DivisorClass, FixedPart]:
    fixed = _fixed_part(surface, d)
    result = d
    for curve, multiplicity in fixed.terms:
        result = result - multiplicity * curve
    return result, fixed


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
    return _apply_step(surface, d)


def iterate_to_nef(
    surface: SurfaceModel,
    d: DivisorClass,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> TransformTrace:
    """Iterate the step until the fixed part is empty; the limit is nef.

    The negatively-met curve set is recomputed from the current class each
    round, since it changes between steps. The iteration cap guards
    against malformed surface data; genuine inputs abut within a few steps.
    """
    if not is_effective(surface, d):
        raise NotEffectiveError(
            f"class {d} is not effective on {surface.name!r}; iteration may not terminate"
        )
    steps: list[TransformStep] = []
    current = d
    while True:
        result, fixed = _apply_step(surface, current)
        if fixed.is_empty:
            if not is_nef(surface, current):
                raise ConsistencyError(
                    f"no negative curve meets {current} negatively on "
                    f"{surface.name!r}, yet the class is not nef; the "
                    f"negative curve list is incomplete"
                )
            return TransformTrace(input=d, steps=tuple(steps), limit=current)
        if len(steps) >= max_iterations:
            raise NonAbutmentError(
                f"no nef limit within {max_iterations} steps starting from {d} "
                f"on {surface.name!r}; surface data is likely inconsistent"
            )
        steps.append(TransformStep(fixed_part=fixed, result=result))
        current = result
