"""First-order formulas over finite binary structures, by brute force.

Formulas are plain syntax trees.  A structure holds a finite domain, each
named binary relation as one bitmask row per element and each named unary
mark as one bitmask; ``graph_structure`` passes a graph's rows through.
Each ``evaluate`` call compiles its sentence once into nested closures over
element indices that read those rows and masks, plus a relation's column
masks once a sweep reads one; every atom's relation, mark and arity is
checked before anything is evaluated.  A quantifier whose body holds no
quantifier decides by one sweep: the body yields the bitmask of the elements
that satisfy it, and its lowest set bit is the first element that decides.
Other quantifiers expand over the domain with short-circuiting.  The budget
counts quantifier instantiations, one per element a quantifier binds up to
the first that decides, and a sweep charges exactly the instantiations that
expanding would make.  Subformula truth is memoized per assignment of its
free variables, but only where a later visit could hit the entry, so values
and budget use are those of memoizing every subformula.

Interpretations act on formulas, not on structures: ``rewrite`` translates a
graph formula onto a representation matrix structure (domain rows and
columns, relations A1/A2 marking the 1- and 2-entries) so that both
evaluations agree; ``interpretation_for`` builds the interval and the
overlap interpretation, which differ by one conjunct.  The text syntax is a
small S-expression grammar, e.g. ``(exists x (exists y (edge x y)))``.

Each formula rule is stated once: ``_children`` lists a node's children,
``_with_children`` rebuilds a connective or quantifier over new ones, and
``_HEADS`` names its S-expression head for both the parser and the printer.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache, cached_property, reduce
from operator import and_, attrgetter, itemgetter, or_
from typing import Iterable, Sequence

from .errors import BudgetExceeded, DomainError, FormatError
from .graphs import Graph, permutation_from_orders
from .ilrep import INTERVAL, OVERLAP, IlMatrix, IntervalLikeRep, build_ilmatrix, condense, decode
from .records import record

DEFAULT_EVAL_BUDGET = 10_000_000
# Parsing, rewriting, compiling and evaluating recurse on nesting.  On the
# pipeline a quantifier takes two levels of the rewritten formula and three
# frames to compile or evaluate, so a formula at the limit needs about 800
# frames, under Python's default recursion limit of 1000.
MAX_FORMULA_DEPTH = 256


# ---------------------------------------------------------------------------
# syntax


class Formula:
    @cached_property
    def free_vars(self) -> frozenset[str]:
        # Settle the uncached nodes below deepest first, from an explicit stack:
        # each is then computed from cached children, so depth costs no recursion.
        stack = [c for c in _children(self) if "free_vars" not in vars(c)]
        while stack:
            pending = [c for c in _children(stack[-1]) if "free_vars" not in vars(c)]
            if pending:
                stack.extend(pending)
            else:
                stack.pop().free_vars
        inner = frozenset().union(*map(attrgetter("free_vars"), _children(self)))
        return inner - {self.var} if isinstance(self, (Exists, Forall)) else inner

    @cached_property
    def _free_sorted(self) -> tuple[str, ...]:
        return tuple(sorted(self.free_vars))


@record
class TrueF(Formula):
    pass


@record
class FalseF(Formula):
    pass


@record
class Atom(Formula):
    rel: str
    args: tuple[str, ...]

    @cached_property
    def free_vars(self):
        return frozenset(self.args)


@record
class Eq(Formula):
    left: str
    right: str

    @cached_property
    def free_vars(self):
        return frozenset((self.left, self.right))


@record
class Not(Formula):
    body: Formula


@record
class And(Formula):
    parts: tuple[Formula, ...]


@record
class Or(Formula):
    parts: tuple[Formula, ...]


@record
class Implies(Formula):
    left: Formula
    right: Formula


@record
class Exists(Formula):
    var: str
    body: Formula


@record
class Forall(Formula):
    var: str
    body: Formula


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or)):
        return f.parts
    if isinstance(f, Implies):
        return (f.left, f.right)
    if isinstance(f, (Not, Exists, Forall)):
        return (f.body,)
    if isinstance(f, (TrueF, FalseF, Atom, Eq)):
        return ()
    raise DomainError(f"unknown formula node {f!r}")


def _with_children(f: Formula, kids: list[Formula]) -> Formula:
    """The connective or quantifier ``f`` over new children, in ``_children`` order; a leaf as it is."""
    if isinstance(f, (And, Or)):
        return type(f)(tuple(kids))
    if isinstance(f, (Not, Implies)):
        return type(f)(*kids)
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, *kids)
    return f


# The S-expression head of each connective and quantifier; the parser also reads ``->`` as ``imp``.
_HEADS = {Not: "not", And: "and", Or: "or", Implies: "imp", Exists: "exists", Forall: "forall"}
_CLASSES = {head: cls for cls, head in _HEADS.items()} | {"->": Implies}
_ARITY = {Not: (1, "one argument"), Implies: (2, "two arguments")}


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list[str], pos: int, depth: int = 0):
    if pos >= len(tokens):
        raise FormatError("unexpected end of formula")
    tok = tokens[pos]
    if tok == ")":
        raise FormatError("unexpected ')'")
    if tok != "(":
        return tok, pos + 1
    if depth >= MAX_FORMULA_DEPTH:
        raise FormatError(f"formula nests deeper than {MAX_FORMULA_DEPTH} parentheses")
    items = []
    pos += 1
    while pos < len(tokens) and tokens[pos] != ")":
        item, pos = _read(tokens, pos, depth + 1)
        items.append(item)
    if pos >= len(tokens):
        raise FormatError("missing ')'")
    return items, pos + 1


def _build(expr) -> Formula:
    if isinstance(expr, str):
        if expr == "true":
            return TrueF()
        if expr == "false":
            return FalseF()
        raise FormatError(f"bare symbol {expr!r} is not a formula")
    if not expr or not isinstance(expr[0], str):
        raise FormatError(f"bad form: {expr!r}")
    head, rest = expr[0], expr[1:]
    cls = _CLASSES.get(head)
    if cls in (Exists, Forall):
        if len(rest) != 2 or not isinstance(rest[0], str):
            raise FormatError(f"{head} needs a variable and a body")
        return cls(rest[0], _build(rest[1]))
    if cls in (And, Or):
        return cls(tuple(map(_build, rest)))
    if cls is not None:
        arity, words = _ARITY[cls]
        if len(rest) != arity:
            raise FormatError(f"{_HEADS[cls]} takes {words}")
        return cls(*map(_build, rest))
    if head == "=":
        if len(rest) != 2 or not all(isinstance(a, str) for a in rest):
            raise FormatError("= takes two variables")
        return Eq(rest[0], rest[1])
    if not all(isinstance(a, str) for a in rest):
        raise FormatError(f"relation arguments must be variables: {expr!r}")
    return Atom(head, tuple(rest))


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    expr, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise FormatError("trailing input after the formula")
    return _build(expr)


def formula_to_text(f: Formula) -> str:
    kids = _children(f)  # first, so an unknown node is a DomainError
    if isinstance(f, (TrueF, FalseF)):
        return "true" if isinstance(f, TrueF) else "false"
    if isinstance(f, Atom):
        return f"({f.rel} {' '.join(f.args)})"
    if isinstance(f, Eq):
        return f"(= {f.left} {f.right})"
    head = f"{_HEADS[type(f)]} {f.var}" if isinstance(f, (Exists, Forall)) else _HEADS[type(f)]
    return f"({head} {' '.join(map(formula_to_text, kids))})"


def quantifier_depth(f: Formula) -> int:
    return isinstance(f, (Exists, Forall)) + max(map(quantifier_depth, _children(f)), default=0)


# ---------------------------------------------------------------------------
# structures


@record
class Structure:
    """A finite domain with binary relations and unary marks, all as bitmasks over domain positions.

    Bit j of ``relations[name][i]`` is set iff (domain[i], domain[j]) is in
    the relation, and bit i of ``marks[name]`` iff domain[i] carries the mark.
    """

    domain: tuple[str, ...]
    relations: dict[str, tuple[int, ...]]
    marks: dict[str, int]

    def __post_init__(self) -> None:
        size, limit = len(self.domain), 1 << len(self.domain)
        if len(set(self.domain)) != size:
            raise DomainError("duplicate domain elements")
        for name, rows in self.relations.items():
            if len(rows) != size:
                raise DomainError(f"relation {name!r} has {len(rows)} rows for {size} elements")
            if not all(0 <= row < limit for row in rows):
                raise DomainError(f"relation {name!r} leaves the domain")
        for name, mask in self.marks.items():
            if not 0 <= mask < limit:
                raise DomainError(f"mark {name!r} leaves the domain")


def graph_structure(g: Graph, marks: dict[str, Iterable[str]] | None = None) -> Structure:
    # a vertex outside g sets bit D, so Structure rejects its mark as leaving the domain
    mk = {name: sum(1 << g.index.get(v, len(g.names)) for v in set(vs)) for name, vs in (marks or {}).items()}
    return Structure(g.names, {"edge": g.rows}, mk)


# byte -> b"1" where a cell holds 1 (A1) or 2 (A2), else b"0"
_DIGITS = {rel: bytes(48 + (cell == value) for cell in range(256)) for rel, value in (("A1", 1), ("A2", 2))}


def matrix_structure(m: IlMatrix) -> Structure:
    """The domain is the row keys, then the column keys; A1 and A2 hold the 1- and 2-entries.

    ``build_ilmatrix`` never gives a row and a column one key: pair names end
    in ``)``, and end names are letters or end in a digit.
    """
    mat = m.matrix
    shift = len(mat.row_keys)
    blank = (0,) * len(mat.col_keys)
    # reversed digits read in base 2 put column j at bit j (a leading 0 reads an empty row), then at bit R + j
    rels = {
        rel: tuple(int(b"0" + row.translate(digits)[::-1], 2) << shift for row in mat.rows) + blank
        for rel, digits in _DIGITS.items()
    }
    return Structure(mat.row_keys + mat.col_keys, rels, {})


# ---------------------------------------------------------------------------
# evaluation


def evaluate(st: Structure, f: Formula, budget: int = DEFAULT_EVAL_BUDGET) -> bool:
    """Truth of a closed formula by exhaustive quantifier expansion."""
    return bool(_compile(st, f, budget)())


def _compile(st: Structure, sentence: Formula, budget: int):
    """Compile a sentence into a closure that returns its truth on st.

    Elements are 0..D-1 and every binding is a slot of one shared ``env``
    list.  Atoms read the structure's rows and marks as they are; a sweep
    builds a relation's column masks the first time it reads one.

    A quantifier whose body holds no quantifier decides by one sweep: the body
    compiles to a closure that returns, under ``env``, the bitmask of the
    elements for which it holds, and the lowest set bit of that mask (of its
    complement, for ``forall``) is the first element that decides.  The
    quantifier charges that element's position + 1, or D when none decides:
    the instantiations that expanding it element by element would make.

    A memo entry is keyed by the node and the values of its sorted free
    variables, and is kept only where a later visit could hit it.  A leaf is
    recomputed, and so is a unique node (neither it nor an ancestor occurs
    twice in the tree) in two cases: its free variables are every visible
    binding, none shadowed; or its key slots are those of its nearest
    memoized ancestor, that ancestor is a connective and only connectives
    lie between the two, so the ancestor evaluates it at most once per miss.
    A quantifier evaluates its body once per element, so the second case
    starts afresh inside every body.
    """
    if sentence.free_vars:
        raise DomainError(f"formula has free variables: {sorted(sentence.free_vars)}")
    span = range(len(st.domain))
    full = (1 << len(span)) - 1
    env: list[int] = []
    tables: dict[int, dict] = {}
    bits: dict[tuple[str, int], object] = {}
    columns: dict[str, list[int]] = {}  # per relation, once a sweep reads an atom R(v x) with v swept
    order: list[Formula] = []
    stack = [sentence]
    while stack:  # list occurrences and check every atom against st before any evaluation
        f = stack.pop()
        order.append(f)
        stack.extend(_children(f))
        if isinstance(f, Atom) and (f.rel, len(f.args)) not in bits:
            if len(f.args) == 1:
                if f.rel not in st.marks:
                    raise DomainError(f"unknown mark {f.rel!r}")
                bits[f.rel, 1] = st.marks[f.rel]
            elif len(f.args) == 2:
                if f.rel not in st.relations:
                    raise DomainError(f"unknown relation {f.rel!r}")
                rows = st.relations[f.rel]
                bits[f.rel, 2] = rows, sum(1 << i for i in span if rows[i] >> i & 1)
            else:
                raise DomainError(f"relation {f.rel!r} has unsupported arity {len(f.args)}")
    seen = Counter(map(id, order))
    quantified = set()  # ids of the nodes with a quantifier at or below them; children come first
    for f in reversed(order):
        if isinstance(f, (Exists, Forall)) or any(id(c) in quantified for c in _children(f)):
            quantified.add(id(f))

    # A quantifier keeps its own memo instead of sitting under ``memoized``, so
    # a chain of them costs one frame per level, not two.
    def quantifier(body, s: int, exists: bool, swept: bool, table: dict | None, key_of):
        def run():
            nonlocal budget
            if table is not None:
                key = key_of(env)
                hit = table.get(key)
                if hit is not None:
                    return hit
            if swept:
                deciding = body() if exists else full ^ body()
                count = (deciding & -deciding).bit_length() or len(span)
                if count > budget and count:
                    raise BudgetExceeded("evaluation budget exhausted")
                budget -= count
                value = bool(deciding) == exists
            else:
                value = not exists
                for el in span:
                    budget -= 1
                    if budget < 0:
                        raise BudgetExceeded("evaluation budget exhausted")
                    env[s] = el
                    if body():
                        if exists:
                            value = True
                            break
                    elif not exists:
                        value = False
                        break
            if table is not None:
                table[key] = value
            return value

        return run

    def memoized(raw, table: dict, key_of):
        def run():
            key = key_of(env)
            hit = table.get(key)
            if hit is None:
                hit = table[key] = raw()
            return hit

        return run

    def sweep(f: Formula, scope: dict[str, int], s: int):
        """The mask of the elements for which quantifier-free f holds with slot s bound to them."""
        if isinstance(f, (Not, And, Or, Implies)):
            parts = [sweep(p, scope, s) for p in _children(f)]
            if isinstance(f, Not):
                (body,) = parts
                return lambda: full ^ body()
            if isinstance(f, Implies):
                left, right = parts
                return lambda: (full ^ left()) | right()
            conj = isinstance(f, And)
            if len(parts) == 2:
                a, b = parts
                return (lambda: a() & b()) if conj else (lambda: a() | b())
            op, unit = (and_, full) if conj else (or_, 0)
            return lambda: reduce(op, [p() for p in parts], unit)
        if isinstance(f, Atom) and s in (at := [scope[v] for v in f.args]):
            if len(at) == 1:
                m = bits[f.rel, 1]
                return lambda: m
            (a, b), (rows, diag) = at, bits[f.rel, 2]
            if a == b:
                return lambda: diag
            if a != s:
                return lambda: rows[env[a]]
            if f.rel not in columns:
                # row i as D binary digits puts bit j at character D-1-j, so zip reads the columns last first
                digits = [format(row, f"0{len(span)}b") for row in rows]
                columns[f.rel] = [int("".join(col)[::-1], 2) for col in zip(*digits)][::-1]
            cols = columns[f.rel]
            return lambda: cols[env[b]]
        if isinstance(f, Eq) and s in (at := [scope[f.left], scope[f.right]]):
            a, b = at
            if a == b:
                return lambda: full
            other = b if a == s else a
            return lambda: 1 << env[other]
        truth = build(f, scope, (), True, None)  # a leaf without s holds for all elements or none
        return lambda: full if truth() else 0

    def build(f: Formula, scope: dict[str, int], path: tuple[str, ...], unique: bool, above):
        """``above``: key slots of the nearest memoized ancestor when it and all nodes between are connectives, else None."""
        if isinstance(f, (TrueF, FalseF)):
            value = isinstance(f, TrueF)
            return lambda: value
        if isinstance(f, Eq):
            a, b = scope[f.left], scope[f.right]
            return lambda: env[a] == env[b]
        if isinstance(f, Atom):
            a = scope[f.args[0]]
            if len(f.args) == 1:
                m = bits[f.rel, 1]
                return lambda: m >> env[a] & 1
            rows, b = bits[f.rel, 2][0], scope[f.args[1]]
            return lambda: rows[env[a]] >> env[b] & 1
        unique = unique and seen[id(f)] == 1
        slots = tuple(scope[v] for v in f._free_sorted)
        table = key_of = None
        if not (unique and (slots == above or len(set(path)) == len(path) == len(slots))):
            table = tables.setdefault(id(f), {})
            key_of = itemgetter(*slots) if slots else lambda env: ()
            above = slots
        if isinstance(f, (Exists, Forall)):
            s = len(path)
            if s == len(env):
                env.append(0)
            inner, swept = {**scope, f.var: s}, id(f.body) not in quantified
            body = sweep(f.body, inner, s) if swept else build(f.body, inner, path + (f.var,), unique, None)
            return quantifier(body, s, isinstance(f, Exists), swept, table, key_of)
        parts = [build(p, scope, path, unique, above) for p in _children(f)]
        if isinstance(f, Not):
            (body,) = parts
            raw = lambda: not body()
        elif isinstance(f, Implies):
            left, right = parts
            raw = lambda: not left() or right()
        else:
            raw = _junction(parts, isinstance(f, And))
        return raw if table is None else memoized(raw, table, key_of)

    return build(sentence, {}, (), True, None)


def _junction(parts: list, conj: bool):
    """Short-circuit And (conj) or Or over compiled parts; two parts are unrolled."""
    if len(parts) == 2:
        a, b = parts
        return (lambda: a() and b()) if conj else (lambda: a() or b())

    def run():
        for p in parts:
            if (not p()) is conj:  # a false part decides an And, a true part an Or
                return not conj
        return conj

    return run


# ---------------------------------------------------------------------------
# interpretations


@record
class Interpretation:
    """Domain formula plus one defining formula per output relation."""

    domain_var: str
    domain_formula: Formula
    relations: dict[str, tuple[tuple[str, ...], Formula]]


def _subst(f: Formula, mapping: dict[str, str], fresh: itertools.count) -> Formula:
    """Rename via mapping; bound variables are freshened to avoid capture."""
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(mapping.get(a, a) for a in f.args))
    if isinstance(f, Eq):
        return Eq(mapping.get(f.left, f.left), mapping.get(f.right, f.right))
    if isinstance(f, (Exists, Forall)):
        new = f"_q{next(fresh)}"
        return type(f)(new, _subst(f.body, {**mapping, f.var: new}, fresh))
    return _with_children(f, [_subst(c, mapping, fresh) for c in _children(f)])


def _core_formula(x: str, y: str) -> Formula:
    # first end of x before first end of y, and y starting inside x
    return And(
        (
            Forall("c", Or((Not(Atom("A2", (x, "c"))), Atom("A2", (y, "c"))))),
            Forall("c", Implies(Atom("A1", (x, "c")), Not(Atom("A2", (y, "c"))))),
        )
    )


def _second_end_before(x: str, y: str) -> Formula:
    # the 1-column of x is at most the 1-column of y, read off the 2-prefixes
    return Forall(
        "c",
        Implies(
            Atom("A1", (x, "c")),
            Forall(
                "d",
                Implies(
                    Atom("A1", (y, "d")),
                    Forall("rr", Implies(Atom("A2", ("rr", "d")), Atom("A2", ("rr", "c")))),
                ),
            ),
        ),
    )


def interpretation_for(kind: str) -> Interpretation:
    """The graph decoded from a ``kind`` representation, read off its representation matrix.

    The domain is the rows with a 1-entry.  Two rows are adjacent when the
    second starts inside the first; for overlap, it also ends after the first.
    """
    if kind not in (INTERVAL, OVERLAP):
        raise DomainError(f"unknown kind {kind!r}")

    def before(x: str, y: str) -> Formula:
        core = _core_formula(x, y)
        return core if kind == INTERVAL else And((core, _second_end_before(x, y)))

    edge = And((Not(Eq("x", "y")), Or((before("x", "y"), before("y", "x")))))
    return Interpretation("x", Exists("c", Atom("A1", ("x", "c"))), {"edge": (("x", "y"), edge)})


def rewrite(iota: Interpretation, f: Formula, fresh: itertools.count | None = None) -> Formula:
    """Translate a formula over the output signature into the source one.

    Quantifiers are relativized to the interpreted domain and relation atoms
    are replaced by their defining formulas, so evaluating the result on the
    source structure agrees with evaluating f on the interpreted structure.
    """
    fresh = fresh if fresh is not None else itertools.count()
    if isinstance(f, Atom):
        if f.rel not in iota.relations:
            raise DomainError(f"relation {f.rel!r} is not defined by the interpretation")
        params, body = iota.relations[f.rel]
        if len(params) != len(f.args):
            raise DomainError(f"arity mismatch for {f.rel!r}")
        return _subst(body, dict(zip(params, f.args)), fresh)
    if isinstance(f, (Exists, Forall)):
        guard = _subst(iota.domain_formula, {iota.domain_var: f.var}, fresh)
        body = rewrite(iota, f.body, fresh)
        return Exists(f.var, And((guard, body))) if isinstance(f, Exists) else Forall(f.var, Implies(guard, body))
    return _with_children(f, [rewrite(iota, c, fresh) for c in _children(f)])


# ---------------------------------------------------------------------------
# marked-order transduction


def _leq_formula(mark: str, x: str, y: str) -> Formula:
    return Forall(
        "z",
        Implies(
            Atom(mark, ("z",)),
            Implies(Atom("edge", (x, "z")), Atom("edge", (y, "z"))),
        ),
    )


@cache  # criterion 6 calls transduce_permutation once per exposer, and every call reuses the same two trees
def _linear_order_formula(mark_domain: str, mark: str) -> Formula:
    def guarded(vars_: Sequence[str], body: Formula) -> Formula:
        out = body
        for v in reversed(vars_):
            out = Forall(v, Implies(Atom(mark_domain, (v,)), out))
        return out

    leq = lambda a, b: _leq_formula(mark, a, b)
    total = guarded(("x", "y"), Or((leq("x", "y"), leq("y", "x"))))
    antisym = guarded(("x", "y"), Implies(And((leq("x", "y"), leq("y", "x"))), Eq("x", "y")))
    transitive = guarded(
        ("x", "y", "z2"),
        Implies(And((leq("x", "y"), leq("y", "z2"))), leq("x", "z2")),
    )
    return And((total, antisym, transitive))


def transduce_permutation(
    g: Graph,
    core: Iterable[str],
    side1: Iterable[str],
    side2: Iterable[str],
) -> tuple[int, ...] | None:
    """Read a permutation off three vertex marks, or None.

    The i-th order compares marked core vertices by inclusion of their
    neighbourhoods into side i.  If both comparisons are linear orders on the
    core, the permutation carrying one order to the other is returned.
    """
    core, side1, side2 = frozenset(core), frozenset(side1), frozenset(side2)
    if core & side1 or core & side2 or side1 & side2:
        raise DomainError("marks must be disjoint")
    st = graph_structure(g, {"m": core, "m1": side1, "m2": side2})
    for mark in ("m1", "m2"):
        if not evaluate(st, _linear_order_formula("m", mark)):
            return None
    # inclusion is a linear order on the core, so the set sizes grow strictly along it
    first = sorted(core, key=lambda v: len(g.neighbors(v) & side1))
    second = sorted(core, key=lambda v: len(g.neighbors(v) & side2))
    return permutation_from_orders(first, second)


# ---------------------------------------------------------------------------
# the model-checking pipeline


def modelcheck_pipeline(rep: IntervalLikeRep, f: Formula, budget: int = DEFAULT_EVAL_BUDGET) -> bool:
    """Condense, build the representation matrix, rewrite, evaluate there."""
    condensed = condense(rep)
    ilm = build_ilmatrix(condensed)
    rewritten = rewrite(interpretation_for(rep.kind), f)
    return evaluate(matrix_structure(ilm), rewritten, budget)


def modelcheck_direct(rep: IntervalLikeRep, f: Formula, budget: int = DEFAULT_EVAL_BUDGET) -> bool:
    """Oracle path: evaluate on the decoded graph itself."""
    return evaluate(graph_structure(decode(rep)), f, budget)

