"""The package's records: immutable, hashable, equal field by field, and,
where a record checks or normalises its fields, refusing and coercing
at construction.

Records are NamedTuples, so two hazards are pinned here as well: a
record equals the plain tuple of its fields, and ``_make``/``_replace``
would skip a record's checks, so no source file calls them.
"""

import pathlib
import re

import pytest

from hodgekit import classifier, cmtools, consequences, core, realizability, rootsys
from hodgekit.classifier import Candidate, ClassificationOutcome, SubfieldDescriptor
from hodgekit.cmtools import (
    CMType,
    GaloisModel,
    ScanEntry,
    ScanReport,
    abelian_model,
    compose,
    cyclic_model,
)
from hodgekit.classifier import exclude_sl2_product
from hodgekit.cli import _cycles
from hodgekit.consequences import AbelianProfile, HodgeStatus
from hodgekit.core import EndomorphismDescriptor, GroupExpr, HodgeProfile, Violation
from hodgekit.intlinalg import integer_rank, smith_normal_form
from hodgekit.realizability import (
    EVEN,
    EVEN_CASES,
    ODD,
    ODD_CASES,
    ExceptionalCase,
    ExceptionalMatch,
    RealizabilityVerdict,
)
from hodgekit.rootsys import Weight

RATIONAL = EndomorphismDescriptor("I", 1)
IV_ENDO = EndomorphismDescriptor("IV", 2, 1, 1, cm_traces=((1, 3),))
SP6 = GroupExpr("Sp", param=3)
Z6 = cyclic_model(6)
SHIFT = Z6.generators[0]
Z4_CONJ = (2, 3, 0, 1)


class _Int(int):
    """An int subclass, which the package's integer rule refuses."""

# (class, the fields of one instance, a field, and another value for it)
RECORDS = [
    (Violation, dict(code="n_positive", message="n must be >= 1"), "code", "weight_positive"),
    (EndomorphismDescriptor, IV_ENDO._asdict(), "disc_one", True),
    (HodgeProfile, dict(weight=1, n=4, endo=IV_ENDO), "weight", 3),
    (GroupExpr, dict(family="Sp", param=3), "param", 2),
    (SubfieldDescriptor, dict(deg_E=2, balanced=True), "galois_L", True),
    (Candidate, dict(group=SP6), "occurs", classifier.OCCURS_POSSIBLE),
    (
        ClassificationOutcome,
        dict(status="determined", candidates=(Candidate(SP6),), applied_rule="n=prime"),
        "notes",
        ("a note",),
    ),
    (ExceptionalCase, ODD_CASES[0]._asdict(), "index", 2),
    (ExceptionalMatch, dict(case=ODD_CASES[0]), "conditional", True),
    (RealizabilityVerdict, dict(realizable=True), "realizable", None),
    (AbelianProfile, dict(dim=6, endo=RATIONAL), "dim", 10),
    (
        HodgeStatus,
        dict(zip(HodgeStatus._fields, (True, consequences.PROVEN, True, "r"))),
        "ghc_reduction",
        False,
    ),
    (GaloisModel, Z6._asdict(), "generators", (SHIFT, compose(SHIFT, SHIFT))),
    (CMType, dict(theta=frozenset({0, 1, 2})), "theta", frozenset({0, 1, 5})),
    (
        ScanEntry,
        dict(zip(ScanEntry._fields, ((0, 1, 2), 4, 3, True, None, None))),
        "primitive",
        False,
    ),
    (ScanReport, dict(degree=6, p=3, bound=5, entries=()), "bound", None),
    (Weight, dict(coords=(0, 1, 0)), "coords", (1, 0, 0)),
]


def test_every_record_class_is_pinned():
    modules = (core, classifier, realizability, consequences, cmtools, rootsys)
    found = {
        obj
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and issubclass(obj, tuple)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }
    assert found == {cls for cls, *_ in RECORDS}
    assert len(found) == 17


@pytest.mark.parametrize(
    "cls, fields, name, other", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS]
)
def test_record_semantics(cls, fields, name, other):
    record = cls(**fields)
    twin = cls(**fields)
    assert record == twin and hash(record) == hash(twin)
    assert record != cls(**{**fields, name: other})
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert repr(record).startswith(f"{cls.__name__}({cls._fields[0]}=")
    # only the records that keep a computed value carry an instance dict:
    # two cached_property records, and AbelianProfile's classify verdict
    assert hasattr(record, "__dict__") == (cls in (AbelianProfile, GaloisModel, Weight))
    # the NamedTuple caveat: a record equals the plain tuple of its fields
    assert record == tuple(getattr(record, field) for field in cls._fields)


def _non_central_model():
    gens = (_cycles("(0 1 2)(3 4 5)", 6, "--group"),)
    return GaloisModel(gens, _cycles("(0 1)(2 4)(3 5)", 6, "--iota"), 6)


@pytest.mark.parametrize(
    "build, complaint",
    [
        (lambda: GroupExpr("nope", param=1), "unknown group family"),
        (lambda: GroupExpr("Sp"), "needs a positive param"),
        (lambda: GroupExpr("Sp", param=0), "needs a positive param"),
        (lambda: GroupExpr("U(B)", param=2, base_degree=0), "base_degree"),
        (lambda: GroupExpr("SU(2^k)", 3, rep=core.REP_EXTERIOR), "rep_param"),
        (lambda: GroupExpr("SU(2^k)", 3, rep=core.REP_EXTERIOR, rep_param=0), "rep_param"),
        (_non_central_model, "conjugation must be central"),
        (lambda: AbelianProfile(dim=8, endo=RATIONAL), "2p with p an odd prime"),
        (lambda: AbelianProfile(dim=4, endo=RATIONAL), "2p with p an odd prime"),
        (lambda: CMType([0.5, 1, 2]), "CM type entry must be an integer, got 0.5"),
        (lambda: CMType([2, 0, True]), "CM type entry must be an integer, got True"),
        (lambda: CMType([2.7, "3", True]), "CM type entry must be an integer, got 2.7"),
        (lambda: CMType(["3", 1, 2]), "CM type entry must be an integer, got '3'"),
        # a repeated entry is refused, not read as the set of the entries
        (lambda: CMType([0, 0, 1, 2]), "repeated embedding 0"),
        (lambda: CMType([1, 2, 0, 2, 1]), "repeated embedding 2"),
        # numbers are refused, not coerced, by int() or otherwise
        (
            lambda: EndomorphismDescriptor("IV", 4, 2, 1, cm_traces=[[1, 3], [True, 3.0]]),
            "cm_traces must be an integer, got True",
        ),
        (
            lambda: EndomorphismDescriptor("IV", 2, 1, 1, cm_traces=[(2.7, "3")]),
            "cm_traces must be an integer, got 2.7",
        ),
        # named by the refused input, which keeps the ids short and distinct
        pytest.param(
            lambda: Weight([1, False, 2.0]),
            "weight coordinate must be an integer, got False",
            id="<lambda>-weight coordinate False is not an int",
        ),
        pytest.param(
            lambda: Weight([1, 0, 2.0]),
            "weight coordinate must be an integer, got 2.0",
            id="<lambda>-weight coordinate 2.0 is not an int",
        ),
        pytest.param(
            lambda: Weight(["1"]),
            "weight coordinate must be an integer, got '1'",
            id="<lambda>-weight coordinate '1' is not an int",
        ),
        # a model's generators and conj are permutations of 0..size-1
        (
            lambda: GaloisModel([(1, 1, 3, 3)], Z4_CONJ, 4),
            "(1, 1, 3, 3) is not a permutation of 0..3",
        ),
        (
            lambda: GaloisModel([(1, 2, 3, 0), (1, 1, 3, 3)], Z4_CONJ, 4),
            "(1, 1, 3, 3) is not a permutation of 0..3",
        ),
        (
            lambda: GaloisModel([(1, 2, 3, 9)], Z4_CONJ, 4),
            "(1, 2, 3, 9) is not a permutation of 0..3",
        ),
        (
            lambda: GaloisModel([(1.0, 2, 3, 0)], Z4_CONJ, 4),
            "(1.0, 2, 3, 0) is not a permutation of 0..3",
        ),
        (
            lambda: GaloisModel([(1, 2, 3, 0)], (2, 3, False, True), 4),
            "(2, 3, False, True) is not a permutation of 0..3",
        ),
        (
            lambda: GaloisModel([(1, 0)], Z4_CONJ, 4),
            "(1, 0) is not a permutation of 0..3",
        ),
        # the records refuse what the JSON readers refuse, in the same order
        (lambda: SubfieldDescriptor(2.0, "yes"), "balanced must be a boolean, got 'yes'"),
        (lambda: SubfieldDescriptor(2, True, "no"), "galois_L must be a boolean, got 'no'"),
        (lambda: SubfieldDescriptor(2.0, True), "deg_E must be an integer, got 2.0"),
        (lambda: SubfieldDescriptor(True, False), "deg_E must be an integer, got True"),
        (
            lambda: EndomorphismDescriptor("IV", 2, 1, 1, cm_traces=[(1, 3)], disc_one="yes"),
            "disc_one must be a boolean",
        ),
        (lambda: EndomorphismDescriptor("I", 1, disc_one=0), "disc_one must be a boolean"),
        # numbers handed to the Python API are not coerced either
        (lambda: integer_rank([[0.5, 1.9]]), "matrix entry must be an integer, got 0.5"),
        (lambda: integer_rank([[1, 0], [0, True]]), "matrix entry must be an integer, got True"),
        (lambda: smith_normal_form([[2.9]]), "matrix entry must be an integer, got 2.9"),
        (lambda: abelian_model([2.7, 4]), "cyclic factor must be an integer, got 2.7"),
        (lambda: abelian_model([4, True]), "cyclic factor must be an integer, got True"),
        (
            lambda: exclude_sl2_product([("SL", 2.7), ("SO", 6)]),
            "factor size must be an integer, got 2.7",
        ),
        (
            lambda: exclude_sl2_product([("SL", 2), ("Sp", True)]),
            "factor size must be an integer, got True",
        ),
        # the constructors that used to coerce a number or fail on it with a
        # TypeError refuse it by name, by numth's one integer rule
        (lambda: GroupExpr("Sp", param=2.5), "param must be an integer, got 2.5"),
        (lambda: GroupExpr("Sp", param=True), "param must be an integer, got True"),
        # a number that normalization drops is checked before it is dropped
        (lambda: GroupExpr("SO(7)", param=1.5), "param must be an integer, got 1.5"),
        (lambda: GroupExpr("SL(2)xSO(4)", param="2"), "param must be an integer, got '2'"),
        (lambda: GroupExpr("Sp", 2, rep_param=2.5), "rep_param must be an integer, got 2.5"),
        (lambda: GroupExpr("U_L", 2, rep_param=True), "rep_param must be an integer, got True"),
        (
            lambda: GroupExpr("U(B)", param=2, base_degree=1.0),
            "base_degree must be an integer, got 1.0",
        ),
        (
            lambda: GroupExpr("SU(2^k)", 3, rep=core.REP_EXTERIOR, rep_param=2.0),
            "rep_param must be an integer, got 2.0",
        ),
        (lambda: rootsys.RootSystem("A", True), "rank must be an integer, got True"),
        (lambda: rootsys.RootSystem("A", 3.0), "rank must be an integer, got 3.0"),
        # the shared systems are cached by type too: 2.0 is not answered as 2
        (
            lambda: [rootsys.root_system("B", r) for r in (2, 2.0)],
            "rank must be an integer, got 2.0",
        ),
        (
            lambda: rootsys.fundamental_weight(rootsys.RootSystem("A", 2), 1.0),
            "index must be an integer, got 1.0",
        ),
        (
            lambda: rootsys.admissible_factors(6.0, rootsys.ORTHOGONAL),
            "dim must be an integer, got 6.0",
        ),
        (
            lambda: rootsys.admissible_factors(6, rootsys.ORTHOGONAL, 16.0),
            "max_rank must be an integer, got 16.0",
        ),
        (lambda: cmtools.dihedral_model(4.0), "n must be an integer, got 4.0"),
        (lambda: GaloisModel([(1, 2, 3, 0)], Z4_CONJ, 4.0), "size must be an integer, got 4.0"),
        (lambda: _cycles("(0 1)", 2.0, "--iota"), "size must be an integer, got 2.0"),
        (lambda: AbelianProfile(dim=True, endo=RATIONAL), "dim must be an integer, got True"),
        # an int subclass is not an int either
        (lambda: Weight([_Int(1)]), "weight coordinate must be an integer, got 1"),
    ],
)
def test_validated_records_refuse(build, complaint):
    with pytest.raises(ValueError, match=re.escape(complaint)):
        build()


def _canonical(value):
    """Value and type, all the way down, so that 1 and 1.0 or "1" differ."""
    if isinstance(value, (tuple, frozenset)):
        return type(value), sorted(map(_canonical, value), key=repr)
    return type(value), value


@pytest.mark.parametrize(
    "record, name, expected",
    [
        (GroupExpr("SO(7)", param=5), "param", None),
        (GroupExpr("SL(2)xSO(4)", param=2), "param", None),
        (GroupExpr("U_L", param=2, rep=core.REP_STANDARD), "rep", core.REP_NONE),
        (GroupExpr("SU_{L/E}", param=2, rep=core.REP_SPIN), "rep", core.REP_NONE),
        (GroupExpr("Sp", param=2, rep_param=4), "rep_param", None),
        (GroupExpr("SU(2^k)", 3, rep=core.REP_EXTERIOR, rep_param=4), "rep_param", 4),
        (
            EndomorphismDescriptor("IV", 4, 2, 1, cm_traces=[[1, 3], [3, 1]]),
            "cm_traces",
            ((1, 3), (3, 1)),
        ),
        (CMType([2, 0, 1]), "theta", frozenset({0, 1, 2})),
        (Weight([1, 0, 2]), "coords", (1, 0, 2)),
        (AbelianProfile(dim=6, endo=RATIONAL, subfields=[]), "subfields", ()),
        (GaloisModel([list(SHIFT)], list(Z6.conj), 6), "generators", (SHIFT,)),
    ],
)
def test_validated_records_normalise(record, name, expected):
    assert _canonical(getattr(record, name)) == _canonical(expected)


def test_catalog_predicates_stay_out_of_the_cases():
    assert ExceptionalCase._fields == ("parity", "index", "description")
    for parity, cases in ((ODD, ODD_CASES), (EVEN, EVEN_CASES)):
        checks = [
            pair for pairs in realizability._CHECKS[parity].values() for pair in pairs
        ]
        # every case sits under exactly one Albert type, and keeps its index
        by_index = sorted((case for case, _ in checks), key=lambda case: case.index)
        assert tuple(by_index) == cases
        assert all(callable(match) for _, match in checks)
    # the Type IV entries both parities share are distinct cases
    assert ODD_CASES[2].description == EVEN_CASES[2].description
    assert ODD_CASES[2] != EVEN_CASES[2]


def test_no_source_file_builds_a_record_around_its_checks():
    src = pathlib.Path(core.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert not re.search(r"\._(make|replace)\b", path.read_text()), path.name
