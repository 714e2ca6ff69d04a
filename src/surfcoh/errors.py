"""Exception types shared by the lattice, cone, transform and toric layers."""


class RankMismatchError(ValueError):
    """Vectors of different Picard rank were mixed in one operation."""


class IntegralityError(ValueError):
    """An intersection number that must be even came out odd; the surface data is inconsistent."""


class SpecValidationError(ValueError):
    """A surface description violates one of its structural invariants.

    ``field`` names the offending entry of the surface spec.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class NotEffectiveError(ValueError):
    """The class has no section, so the operation does not apply.

    Raised for a class outside the effective cone, and by the transform for
    a class inside it whose strip shows that it has none.
    """


class NotNefError(ValueError):
    """The operation is only defined for nef divisor classes."""


class ConsistencyError(RuntimeError):
    """Computed cohomology data contradicts itself; the surface data is suspect."""


class UnboundedPolytopeError(ValueError):
    """The halfplane system has an unbounded feasible region (fan is not complete)."""


class UnknownSurfaceError(ValueError):
    """The requested name is not in the catalog."""
