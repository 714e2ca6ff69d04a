"""Exact line bundle cohomology on smooth projective surfaces.

The library works entirely in the Picard lattice with exact integer
arithmetic: effective divisor classes are driven into the nef cone by
repeatedly stripping negatively-met negative curves, and the zeroth
cohomology is read off as a topological index wherever a vanishing
certificate covers the nef limit. A lattice-point counting oracle for the
shipped toric models provides an independent cross-check.
"""

__version__ = "0.1.0"

from .catalog import (
    MINUS_ONE_CURVE_COUNTS,
    catalog_surface,
    enumerate_minus_one_curves,
    fixture_path,
    hirzebruch_degree,
    list_fixtures,
    load_surface,
    make_del_pezzo,
    make_hirzebruch,
    read_spec,
    signature,
)
from .cohomology import (
    CertificateRule,
    CohomologyResult,
    VanishingCertificate,
    certify_vanishing,
    cohomology,
    del_pezzo_h0,
    hirzebruch_h0,
)
from .cones import Cone, cone_contains
from .errors import (
    ConsistencyError,
    IntegralityError,
    NotEffectiveError,
    NotNefError,
    RankMismatchError,
    SpecValidationError,
    UnboundedPolytopeError,
    UnknownSurfaceError,
)
from .lattice import (
    DivisorClass,
    IntersectionForm,
    Regime,
    SurfaceModel,
    euler_characteristic,
    intersect,
    serre_dual,
)
from .toric import (
    ORACLE_NAMES,
    HalfplaneSet,
    ToricSurface,
    count_lattice_points,
    oracle_h0,
    polytope_from_ray_coefficients,
    polytope_of_divisor,
    toric_model,
)
from .transform import (
    FixedPart,
    TransformStep,
    TransformTrace,
    is_effective,
    is_nef,
    isoparametric_step,
    iterate_to_nef,
)

__all__ = [
    "__version__",
    "CertificateRule",
    "CohomologyResult",
    "Cone",
    "ConsistencyError",
    "DivisorClass",
    "FixedPart",
    "HalfplaneSet",
    "IntegralityError",
    "IntersectionForm",
    "MINUS_ONE_CURVE_COUNTS",
    "NotEffectiveError",
    "NotNefError",
    "ORACLE_NAMES",
    "RankMismatchError",
    "Regime",
    "SpecValidationError",
    "SurfaceModel",
    "ToricSurface",
    "TransformStep",
    "TransformTrace",
    "UnboundedPolytopeError",
    "UnknownSurfaceError",
    "VanishingCertificate",
    "catalog_surface",
    "certify_vanishing",
    "cohomology",
    "cone_contains",
    "count_lattice_points",
    "del_pezzo_h0",
    "enumerate_minus_one_curves",
    "euler_characteristic",
    "fixture_path",
    "hirzebruch_degree",
    "hirzebruch_h0",
    "intersect",
    "is_effective",
    "is_nef",
    "isoparametric_step",
    "iterate_to_nef",
    "list_fixtures",
    "load_surface",
    "make_del_pezzo",
    "make_hirzebruch",
    "oracle_h0",
    "polytope_from_ray_coefficients",
    "polytope_of_divisor",
    "read_spec",
    "serre_dual",
    "signature",
    "toric_model",
]
