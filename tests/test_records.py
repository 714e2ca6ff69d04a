"""The immutable records: construction, equality, hash, repr, copying, imports.

The nine public records are plain classes over one private base, not
dataclasses, so that ``import surfcoh.cli`` loads neither ``dataclasses``
nor ``inspect``. These tests pin the behaviour the records had as frozen
dataclasses: the constructor signature and its defaults, the validation
errors, field-tuple hashing, the exact repr, immutability, pickling and
deep copies, and ``__match_args__``.
"""

from __future__ import annotations

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from surfcoh import (
    CertificateRule,
    CohomologyResult,
    DivisorClass,
    FixedPart,
    HalfplaneSet,
    IntersectionForm,
    Regime,
    SpecValidationError,
    SurfaceModel,
    SurfaceSpec,
    ToricSurface,
    TransformStep,
    TransformTrace,
    VanishingCertificate,
    make_hirzebruch,
)
from surfcoh import transform

D = DivisorClass
SRC = Path(__file__).resolve().parents[1] / "src"

_F1_ARGS = (
    "f1",
    2,
    IntersectionForm([[-1, 1], [1, 0]]),
    D([-2, -3]),
    1,
    (D([1, 0]),),
    (D([1, 0]), D([0, 1])),
    (D([1, 0]), D([0, 1])),
    Regime.TORIC_CONVEX_FAN,
)
_FIXED = FixedPart(((D([1, 0]), 2),))
_STEP = TransformStep(_FIXED, D([0, 1]))
_TRACE = TransformTrace(D([2, 1]), (_STEP,), D([0, 1]))
_CERT = VanishingCertificate(CertificateRule.KAWAMATA_VIEHWEG, "D - K is nef and big")

# (type, field names, field values in order, repr as the frozen dataclasses
# printed it). Every value is already in its stored form, so the values are
# the field tuple.
RECORDS = [
    (
        SurfaceModel,
        (
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
        ),
        _F1_ARGS + (("C0", "f"),),
        "SurfaceModel(name='f1', rank=2, form=IntersectionForm([[-1, 1], [1, 0]]), "
        "canonical_class=DivisorClass([-2, -3]), chi_structure_sheaf=1, "
        "negative_curves=(DivisorClass([1, 0]),), "
        "mori_generators=(DivisorClass([1, 0]), DivisorClass([0, 1])), "
        "effective_generators=(DivisorClass([1, 0]), DivisorClass([0, 1])), "
        "regime=<Regime.TORIC_CONVEX_FAN: 'toric_convex_fan'>, basis_labels=('C0', 'f'))",
    ),
    (
        SurfaceSpec,
        (
            "name",
            "rank",
            "intersection_matrix",
            "canonical_class",
            "chi_structure_sheaf",
            "negative_curves",
            "mori_generators",
            "effective_generators",
            "regime",
        ),
        (
            "f1",
            2,
            ((-1, 1), (1, 0)),
            (-2, -3),
            1,
            ((1, 0),),
            ((1, 0), (0, 1)),
            ((1, 0), (0, 1)),
            "toric_convex_fan",
        ),
        "SurfaceSpec(name='f1', rank=2, intersection_matrix=((-1, 1), (1, 0)), "
        "canonical_class=(-2, -3), chi_structure_sheaf=1, negative_curves=((1, 0),), "
        "mori_generators=((1, 0), (0, 1)), effective_generators=((1, 0), (0, 1)), "
        "regime='toric_convex_fan')",
    ),
    (
        FixedPart,
        ("terms",),
        (((D([1, 0]), 2),),),
        "FixedPart(terms=((DivisorClass([1, 0]), 2),))",
    ),
    (
        TransformStep,
        ("fixed_part", "result"),
        (_FIXED, D([0, 1])),
        "TransformStep(fixed_part=FixedPart(terms=((DivisorClass([1, 0]), 2),)), "
        "result=DivisorClass([0, 1]))",
    ),
    (
        TransformTrace,
        ("input", "steps", "limit"),
        (D([2, 1]), (_STEP,), D([0, 1])),
        "TransformTrace(input=DivisorClass([2, 1]), steps=(TransformStep(fixed_part="
        "FixedPart(terms=((DivisorClass([1, 0]), 2),)), result=DivisorClass([0, 1])),), "
        "limit=DivisorClass([0, 1]))",
    ),
    (
        VanishingCertificate,
        ("rule", "detail"),
        (CertificateRule.KAWAMATA_VIEHWEG, "D - K is nef and big"),
        "VanishingCertificate(rule=<CertificateRule.KAWAMATA_VIEHWEG: 'kawamata_viehweg'>, "
        "detail='D - K is nef and big')",
    ),
    (
        CohomologyResult,
        ("h0", "h1", "h2", "chi", "certificate", "trace"),
        (2, 0, 0, 2, _CERT, _TRACE),
        "CohomologyResult(h0=2, h1=0, h2=0, chi=2, certificate=VanishingCertificate("
        "rule=<CertificateRule.KAWAMATA_VIEHWEG: 'kawamata_viehweg'>, "
        "detail='D - K is nef and big'), trace=TransformTrace(input=DivisorClass([2, 1]), "
        "steps=(TransformStep(fixed_part=FixedPart(terms=((DivisorClass([1, 0]), 2),)), "
        "result=DivisorClass([0, 1])),), limit=DivisorClass([0, 1])))",
    ),
    (
        HalfplaneSet,
        ("constraints",),
        ((((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)),),
        "HalfplaneSet(constraints=(((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)))",
    ),
    (
        ToricSurface,
        ("name", "rays", "class_map", "lift_map"),
        ("p2", ((1, 0), (0, 1), (-1, -1)), ((1, 1, 1),), ((1,), (0,), (0,))),
        "ToricSurface(name='p2', rays=((1, 0), (0, 1), (-1, -1)), class_map=((1, 1, 1),), "
        "lift_map=((1,), (0,), (0,)))",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, values, expected_repr", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_semantics(cls, fields, values, expected_repr):
    x = cls(*values)
    assert cls.__match_args__ == fields
    assert tuple(getattr(x, name) for name in fields) == values
    assert cls(**dict(zip(fields, values))) == x
    assert hash(x) == hash(values)
    assert repr(x) == expected_repr
    # A record equals only a record of its own type, never its field tuple.
    assert x != values
    assert x != object()

    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, fields[0])
    assert getattr(x, fields[0]) == values[0]

    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(twin) is cls
        assert twin == x
        assert hash(twin) == hash(x)
        assert repr(twin) == expected_repr


def test_defaults():
    assert CohomologyResult(2, 0, 0, 2, _CERT).trace is None
    assert SurfaceModel(*_F1_ARGS).basis_labels == ("e1", "e2")
    assert SurfaceModel(*_F1_ARGS, basis_labels=()).basis_labels == ("e1", "e2")


def test_construction_normalises():
    name, rank, form, canonical, chi, curves, mori, effective, regime = _F1_ARGS
    surface = SurfaceModel(name, rank, form, canonical, chi, list(curves), iter(mori),
                           list(effective), regime)
    assert surface == SurfaceModel(*_F1_ARGS)
    assert FixedPart([(D([1, 0]), True)]).terms == ((D([1, 0]), 1),)


def _surface(**changes):
    kwargs = dict(zip(SurfaceModel.__match_args__, _F1_ARGS))
    kwargs.update(changes)
    return lambda: SurfaceModel(**kwargs)


def _fan(rays=((1, 0), (0, 1), (-1, -1)), class_map=((1, 1, 1),), lift_map=((1,), (0,), (0,))):
    return lambda: ToricSurface("p2", rays, class_map, lift_map)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: FixedPart(((D([1, 0]), 0),)), ValueError,
         "multiplicity 0 < 1 for curve [1, 0]"),
        (_surface(rank=0, form=IntersectionForm([])), SpecValidationError,
         "rank: rank must be a positive integer"),
        (_surface(rank=3), SpecValidationError,
         "intersection_matrix: matrix is 2x2 but rank is 3"),
        (_surface(canonical_class=D([-2])), SpecValidationError,
         "canonical_class: length 1 does not match rank 2"),
        (_surface(mori_generators=(D([1, 0, 0]),)), SpecValidationError,
         "mori_generators: vector [1, 0, 0] has length 3, expected 2"),
        (_surface(negative_curves=(D([0, 1]),)), SpecValidationError,
         "negative_curves: curve [0, 1] has self-intersection 0 >= 0"),
        (_surface(effective_generators=(D([0, 0]),)), SpecValidationError,
         "effective_generators: cone generators must be nonzero"),
        (_surface(basis_labels=("H",)), SpecValidationError,
         "basis_labels: 1 labels for rank 2"),
        (_fan(rays=((1, 0), (0, 1))), ValueError,
         "a complete fan needs at least three rays"),
        (_fan(rays=((2, 0), (0, 1), (-1, -1))), ValueError,
         "ray (2, 0) is not primitive"),
        (_fan(rays=((1, 0), (-1, -1), (0, 1))), ValueError,
         "rays (1, 0), (-1, -1) span a cone of determinant -1; the fan must be smooth, "
         "complete and ordered counterclockwise"),
        (_fan(lift_map=((0,), (0,), (0,))), ValueError,
         "class_map o lift_map is not the identity"),
    ],
)
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_surface_equality_ignores_its_kernel():
    built, fresh = make_hirzebruch(2), make_hirzebruch(2)
    assert built is not fresh
    before = (hash(built), repr(built))
    transform._kernel(built)
    assert "_kernel" in vars(built) and "_kernel" not in vars(fresh)
    assert built == fresh and fresh == built
    assert (hash(built), repr(built)) == before == (hash(fresh), repr(fresh))
    for twin in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert twin == fresh
        assert hash(twin) == hash(fresh)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps the imports of site's .pth files out of sys.modules.
    code = (
        "import sys, surfcoh.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == ""


def test_library_imports_neither_dataclasses_nor_typing():
    offenders = {}
    for path in sorted((SRC / "surfcoh").glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        found = imported & {"dataclasses", "typing"}
        if found:
            offenders[path.name] = sorted(found)
    assert offenders == {}
