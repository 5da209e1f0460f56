"""The value-class contract: fields, construction, equality, hash, repr, frozenness.

Every frozen value class of the package is listed once in ``RECORDS`` with
small valid field values and a second set of values that differs in a
compared field.  The tests below check what callers rely on: keyword and
positional construction with a ``TypeError`` for a bad argument list,
validation in ``__post_init__``, equality only within one class, a hash equal
to the hash of the tuple of compared fields, the ``Name(field=value, ...)``
repr over every field, and no assignment or deletion after construction.
"""

import _blake2
import hashlib
import importlib
import subprocess
import sys

import pytest

from twinwidth.errors import DomainError
from twinwidth.fologic import (
    And, Atom, Eq, Exists, FalseF, Forall, Implies, Interpretation, Not, Or, Structure, TrueF
)
from twinwidth.graphs import ContractionStep, Graph
from twinwidth.ilrep import INTERVAL, OVERLAP, ChordDiagram, IlMatrix, IntervalLikeRep
from twinwidth.obstruction import (
    CirclePermWitness, ExposerInstance, ExposureWitness, PermSubmatrixWitness, PlantedInstance
)
from twinwidth.perturb import (
    CircleGadget, HomogeneousSet, IntervalGadget, LexPowerOrders, RobustnessReport, _KindNames
)
from twinwidth.solver import SolveResult
from twinwidth.trimatrix import Division, MatrixSolveResult, MixedMinorWitness, TriMatrix

_G = Graph(("a", "b"), (0b10, 0b01))
_STEP = ContractionStep("a", "b", "ab")
_M = TriMatrix(("r",), ("c",), (b"\x01",))
_DIV = Division((("r",),), (("c",),))
_REP = IntervalLikeRep(("x", "y"), frozenset({("x", "y")}), INTERVAL)
_SUB = PermSubmatrixWitness(("r1", "r2"), ("c1", "c2"), (2, 1))
_ORD = LexPowerOrders((0, 1), (1, 0), 2)
_P = Atom("P", ("x",))

# class -> (field names in order, uncompared field names, values, values differing in a compared field)
RECORDS = {
    Graph: (("names", "rows"), (), (_G.names, _G.rows), (_G.names, (0, 0))),
    ContractionStep: (("u", "v", "merged"), (), ("a", "b", "ab"), ("a", "b", "ba")),
    SolveResult: (
        ("value", "optimal", "sequence", "nodes_explored"),
        (),
        (1, True, (_STEP,), 3),
        (1, False, (_STEP,), 3),
    ),
    TriMatrix: (("row_keys", "col_keys", "rows"), (), (("r",), ("c",), (b"\x01",)), (("r",), ("c",), (b"\x00",))),
    Division: (("row_blocks", "col_blocks"), (), ((("r",),), (("c",),)), ((("r",),), (("c", "d"),))),
    MixedMinorWitness: (
        ("division", "zone_rows", "zone_cols"),
        (),
        (_DIV, {(0, 0): ("r", "s")}, {(0, 0): ("c", "d")}),
        (_DIV, {(0, 0): ("s", "r")}, {(0, 0): ("c", "d")}),
    ),
    MatrixSolveResult: (
        ("value", "optimal", "sequence", "nodes_explored"),
        (),
        (0, True, (("row", "a", "b"),), 2),
        (0, True, (("col", "a", "b"),), 2),
    ),
    IntervalLikeRep: (
        ("ends", "pairs", "kind"),
        (),
        (_REP.ends, _REP.pairs, INTERVAL),
        (_REP.ends, _REP.pairs, OVERLAP),
    ),
    ChordDiagram: (("sequence",), (), (("a", "b", "a", "b"),), (("a", "a", "b", "b"),)),
    IlMatrix: (
        ("matrix", "rep", "row_pairs"),
        ("row_pairs",),
        (_M, _REP, {"r": ("x", "y")}),
        (TriMatrix(("r",), ("c",), (b"\x00",)), _REP, {"r": ("x", "y")}),
    ),
    PermSubmatrixWitness: (
        ("row_keys", "col_keys", "perm"),
        (),
        (("r1", "r2"), ("c1", "c2"), (2, 1)),
        (("r2", "r1"), ("c1", "c2"), (2, 1)),
    ),
    CirclePermWitness: (("vertices", "perm", "submatrix"), (), (("a", "b"), (2, 1), _SUB), (("b", "a"), (2, 1), _SUB)),
    ExposureWitness: (
        ("graph", "core", "side1", "side2", "perm"),
        (),
        (_G, ("a",), ("b",), ("c",), (1,)),
        (_G, ("a",), ("c",), ("b",), (1,)),
    ),
    ExposerInstance: (
        ("graph", "core", "side1", "side2", "perm", "intervals"),
        (),
        (_G, ("a",), ("b",), ("c",), (1,), (("a", 1, 2),)),
        (_G, ("a",), ("b",), ("c",), (1,), (("a", 1, 3),)),
    ),
    PlantedInstance: (("rep", "minor", "order"), (), (_REP, _DIV, 3), (_REP, _DIV, 5)),
    TrueF: ((), (), (), None),
    FalseF: ((), (), (), None),
    Atom: (("rel", "args"), (), ("E", ("x", "y")), ("E", ("y", "x"))),
    Eq: (("left", "right"), (), ("x", "y"), ("y", "x")),
    Not: (("body",), (), (TrueF(),), (FalseF(),)),
    And: (("parts",), (), ((TrueF(), FalseF()),), ((FalseF(),),)),
    Or: (("parts",), (), ((TrueF(), FalseF()),), ((FalseF(),),)),
    Implies: (("left", "right"), (), (TrueF(), FalseF()), (FalseF(), TrueF())),
    Exists: (("var", "body"), (), ("x", _P), ("y", _P)),
    Forall: (("var", "body"), (), ("x", _P), ("y", _P)),
    Structure: (
        ("domain", "relations", "marks"),
        (),
        (("a", "b"), {"edge": (0b10, 0)}, {"red": 0b01}),
        (("a", "b"), {"edge": (0b10, 0)}, {}),
    ),
    Interpretation: (
        ("domain_var", "domain_formula", "relations"),
        (),
        ("x", TrueF(), {"edge": (("x", "y"), Atom("E", ("x", "y")))}),
        ("x", FalseF(), {"edge": (("x", "y"), Atom("E", ("x", "y")))}),
    ),
    LexPowerOrders: (("base", "base_second", "exponent"), (), ((0, 1), (1, 0), 2), ((0, 1), (1, 0), 3)),
    HomogeneousSet: (
        ("position", "prefix", "suffixes", "elements"),
        ("suffixes", "elements"),
        (1, (0,), {2: {0: 1}}, frozenset({(0, 0)})),
        (2, (0,), {2: {0: 1}}, frozenset({(0, 0)})),
    ),
    CircleGadget: (("orders", "word", "pi", "r"), (), (_ORD, (2, 1), (2, 1), 1), (_ORD, (2, 1), (2, 1), 2)),
    _KindNames: (("size",), (), (3,), (4,)),
    IntervalGadget: (("orders", "pi", "r", "u_power", "z_power"), (), (_ORD, (2, 1), 1, 2, 2), (_ORD, (2, 1), 1, 2, 3)),
    RobustnessReport: (
        ("case", "params", "mode", "scripts_tested", "failures"),
        (),
        ("circle", {"n": 1}, "exhaustive", 3, []),
        ("circle", {"n": 1}, "exhaustive", 4, []),
    ),
}

CLASSES = list(RECORDS)
# the modules that define value classes; bench/spans.py wraps functions in each
SPAN_HOMES = ("fologic", "graphs", "ilrep", "obstruction", "perturb", "solver", "trimatrix")
records = pytest.mark.parametrize("cls", CLASSES, ids=[c.__qualname__ for c in CLASSES])


def make(cls):
    return cls(*RECORDS[cls][2])


def compared(cls, x) -> tuple:
    names, uncompared = RECORDS[cls][:2]
    return tuple(getattr(x, n) for n in names if n not in uncompared)


def test_every_frozen_class_is_listed():
    frozen = {
        c
        for home in SPAN_HOMES
        for c in vars(importlib.import_module(f"twinwidth.{home}")).values()
        if isinstance(c, type) and "__setattr__" in vars(c)
    }
    assert frozen == set(CLASSES) and len(CLASSES) == 33


@records
def test_positional_and_keyword_construction_agree(cls):
    names, _, values, _ = RECORDS[cls]
    x = make(cls)
    assert all(getattr(x, n) is v for n, v in zip(names, values))
    assert cls(**dict(zip(names, values))) == x
    if names:
        assert cls(values[0], **dict(zip(names[1:], values[1:]))) == x


@records
def test_bad_argument_lists_raise_type_error(cls):
    names, _, values, _ = RECORDS[cls]
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)
    if names:
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})


@records
def test_equality_within_the_class_only(cls):
    other = RECORDS[cls][3]
    x = make(cls)
    assert x == make(cls) and not x != make(cls)
    if other is not None:
        assert x != cls(*other) and not x == cls(*other)
    assert x.__eq__(object()) is NotImplemented
    assert x != compared(cls, x)


@records
def test_hash_is_hash_of_compared_fields(cls):
    x = make(cls)
    try:
        expected = hash(compared(cls, x))
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected == hash(make(cls))


@records
def test_repr_lists_every_field(cls):
    names, _, values, _ = RECORDS[cls]
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(make(cls)) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize(
    "x, text",
    [
        (TrueF(), "TrueF()"),
        (ContractionStep("a", "a", "aa"), "ContractionStep(u='a', v='a', merged='aa')"),
        (Not(Exists("x", Eq("x", "x"))), "Not(body=Exists(var='x', body=Eq(left='x', right='x')))"),
        (_KindNames(3), "_KindNames(size=3)"),
        (
            IlMatrix(_M, IntervalLikeRep(("x",), frozenset({("x", "x")}), OVERLAP), {"r": ("x", "x")}),
            "IlMatrix(matrix=TriMatrix(row_keys=('r',), col_keys=('c',), rows=(b'\\x01',)), "
            "rep=IntervalLikeRep(ends=('x',), pairs=frozenset({('x', 'x')}), kind='overlap'), "
            "row_pairs={'r': ('x', 'x')})",
        ),
        (
            HomogeneousSet(1, (0,), {2: {0: 1}}, frozenset({(0, 0)})),
            "HomogeneousSet(position=1, prefix=(0,), suffixes={2: {0: 1}}, elements=frozenset({(0, 0)}))",
        ),
    ],
    ids=["no-fields", "strings", "nested", "private", "uncompared-field", "two-uncompared"],
)
def test_repr_text(x, text):
    assert repr(x) == text


@records
def test_no_assignment_or_deletion(cls):
    names = RECORDS[cls][0]
    x = make(cls)
    with pytest.raises(AttributeError):
        x.no_such_field = 1
    with pytest.raises(AttributeError):
        del x.no_such_field
    if names:
        with pytest.raises(AttributeError):
            setattr(x, names[0], None)
        with pytest.raises(AttributeError):
            delattr(x, names[0])
        assert getattr(x, names[0]) is RECORDS[cls][2][0]


def test_uncompared_fields_ignored_by_eq_and_hash():
    a = IlMatrix(_M, _REP, {"r": ("x", "y")})
    b = IlMatrix(_M, _REP, {})
    assert a == b and hash(a) == hash(b) == hash((_M, _REP))
    h = HomogeneousSet(1, (0,), {2: {0: 1}}, frozenset({(0, 0)}))
    k = HomogeneousSet(1, (0,), {}, frozenset())
    assert h == k and hash(h) == hash(k) == hash((1, (0,)))


@pytest.mark.parametrize(
    "cls, values",
    [
        (Graph, (("a",), (0b1,))),
        (TriMatrix, (("r", "r"), ("c",), (b"\x01", b"\x01"))),
        (Division, (((),), (("c",),))),
        (IntervalLikeRep, (("x",), frozenset(), "bogus")),
        (ChordDiagram, (("a",),)),
        (Structure, (("a", "a"), {}, {})),
        (LexPowerOrders, ((0,), (1,), 1)),
    ],
    ids=lambda v: v.__qualname__ if isinstance(v, type) else None,
)
def test_post_init_validation_raises_domain_error(cls, values):
    with pytest.raises(DomainError):
        cls(*values)


@pytest.mark.parametrize(
    "a, b",
    [
        (Exists("x", _P), Forall("x", _P)),
        (And((TrueF(),)), Or((TrueF(),))),
        (TrueF(), FalseF()),
        (SolveResult(0, True, (), 1), MatrixSolveResult(0, True, (), 1)),
    ],
    ids=["Exists-Forall", "And-Or", "TrueF-FalseF", "SolveResult-MatrixSolveResult"],
)
def test_classes_with_the_same_fields_differ(a, b):
    assert a != b and b != a
    assert len({a, b}) == 2


def cli_import_modules() -> set[str]:
    """The modules of a fresh interpreter that imported the CLI; pytest itself has imported many more here."""
    code = "import sys, twinwidth.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_cli_import_skips_dataclasses_and_inspect():
    modules = cli_import_modules()
    assert not {"dataclasses", "inspect"} & modules
    assert {f"twinwidth.{home}" for home in SPAN_HOMES} <= modules


def test_cli_import_skips_openssl():
    # perturb's blake2b is hashlib's own, taken from _blake2 without the OpenSSL module _hashlib
    assert hashlib.blake2b is _blake2.blake2b
    modules = cli_import_modules()
    assert not {"hashlib", "_hashlib"} & modules
    assert {f"twinwidth.{home}" for home in SPAN_HOMES} <= modules
