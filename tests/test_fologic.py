import itertools
import json
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from twinwidth import fologic
from twinwidth.cli import run
from twinwidth.errors import BudgetExceeded, DomainError, FormatError
from twinwidth.fologic import (
    MAX_FORMULA_DEPTH,
    And,
    Atom,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Implies,
    Interpretation,
    Not,
    Or,
    Structure,
    TrueF,
    _children,
    evaluate,
    formula_to_text,
    graph_structure,
    interpretation_for,
    matrix_structure,
    modelcheck_direct,
    modelcheck_pipeline,
    parse_formula,
    quantifier_depth,
    rewrite,
    transduce_permutation,
    transduction_image,
)
from twinwidth.graphs import Graph
from twinwidth.ilrep import (
    INTERVAL,
    OVERLAP,
    ChordDiagram,
    build_ilmatrix,
    condense,
    decode,
    intervals_from_text,
    rep_from_chords,
    rep_from_intervals,
)
from twinwidth.obstruction import generate_exposer
from conftest import (
    DATA,
    ReferenceEvaluator,
    complete_graph,
    naive_truth,
    nested_sentence,
    path_graph,
    reference_matrix_structure,
    relation_pairs,
    seeded_intervals_text,
    structure_from_pairs,
)

SOME_EDGE = parse_formula("(exists x (exists y (edge x y)))")


def random_formula(rng, vars_avail, depth, budget):
    if budget[0] <= 0:
        if vars_avail:
            return Atom("edge", (rng.choice(vars_avail), rng.choice(vars_avail)))
        return TrueF()
    budget[0] -= 1
    kinds = ["edge", "eq", "not", "and", "or", "imp"]
    if depth > 0:
        kinds += ["exists", "forall"] * 2
    k = rng.choice(kinds)
    if k in ("exists", "forall"):
        v = f"q{budget[0]}"
        body = random_formula(rng, vars_avail + [v], depth - 1, budget)
        return Exists(v, body) if k == "exists" else Forall(v, body)
    if not vars_avail and k in ("edge", "eq"):
        return TrueF()
    if k == "edge":
        return Atom("edge", (rng.choice(vars_avail), rng.choice(vars_avail)))
    if k == "eq":
        return Eq(rng.choice(vars_avail), rng.choice(vars_avail))
    if k == "not":
        return Not(random_formula(rng, vars_avail, depth, budget))
    if k == "imp":
        return Implies(
            random_formula(rng, vars_avail, depth, budget),
            random_formula(rng, vars_avail, depth, budget),
        )
    parts = (
        random_formula(rng, vars_avail, depth, budget),
        random_formula(rng, vars_avail, depth, budget),
    )
    return And(parts) if k == "and" else Or(parts)


def random_sentence(rng, depth, size, free=()):
    """A sentence over edge, marks p/q, =, true, not/and/or/imp and quantifiers.

    Variables come from a pool of three names, so quantifiers often shadow one
    another, and an earlier subformula object is sometimes reused, so one
    object can occur at several sites of the tree.  With ``free`` given, the
    result is a formula over those free variables instead of a sentence.
    """
    pool = []
    left = [size]

    def gen(bound, depth):
        reusable = [f for f in pool if f.free_vars <= bound]
        if reusable and rng.random() < 0.15:
            return rng.choice(reusable)
        kinds = ["true", "edge", "edge", "mark", "eq"]
        if left[0] > 0:
            kinds += ["not", "and", "or", "imp"] + ["exists", "forall"] * 3 * (depth > 0)
        k = rng.choice(kinds)
        var = lambda: rng.choice(sorted(bound))
        if k in ("true", "false"):
            f = TrueF() if k == "true" else FalseF()
        elif k == "edge":
            f = Atom("edge", (var(), var()))
        elif k == "mark":
            f = Atom(rng.choice("pq"), (var(),))
        elif k == "eq":
            f = Eq(var(), var())
        else:
            left[0] -= 1
            if k == "not":
                f = Not(gen(bound, depth))
            elif k == "imp":
                f = Implies(gen(bound, depth), gen(bound, depth))
            elif k in ("and", "or"):
                parts = tuple(gen(bound, depth) for _ in range(rng.randint(0, 3)))
                f = And(parts) if k == "and" else Or(parts)
            else:
                f = quantified(k, bound, depth)
        pool.append(f)
        return f

    def quantified(k, bound, depth):
        v = rng.choice("xyz")
        return (Exists if k == "exists" else Forall)(v, gen(bound | {v}, depth - 1))

    if free:
        return gen(frozenset(free), depth)
    return quantified(rng.choice(("exists", "forall")), frozenset(), depth)


def random_marked_structure(rng):
    vs = "abcde"[: rng.randint(1, 5)]
    g = Graph.build(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5])
    return graph_structure(g, {m: [v for v in vs if rng.random() < 0.5] for m in "pq"})


SHADOWED = "(forall x (exists x (edge x x)))"


def shared_sentence():
    """(forall x (and P (or P true))) with one object P at both sites."""
    p = parse_formula("(exists y (edge x y))")
    return Forall("x", And((p, Or((p, TrueF())))))


def test_evaluate_matches_naive_oracle():
    rng = random.Random(22)
    for _ in range(400):
        st = random_marked_structure(rng)
        f = random_sentence(rng, 4, 16)
        assert evaluate(st, f) == naive_truth(st, f), formula_to_text(f)
    for g in (path_graph("abc"), complete_graph("abcd"), Graph.build("ab", [])):
        st = graph_structure(g)
        for f in (parse_formula(SHADOWED), shared_sentence()):
            assert evaluate(st, f) == naive_truth(st, f)


def random_relation_structure(rng, size):
    """``size`` elements, an ``edge`` relation with loops and one-way pairs, and marks p and q."""
    dom = tuple("abcde"[:size])
    edge = [pair for pair in itertools.product(dom, repeat=2) if rng.random() < 0.4]
    return structure_from_pairs(dom, {"edge": edge}, {m: [a for a in dom if rng.random() < 0.5] for m in "pq"})


def sweep_shapes(f):
    """Which ``SWEEP_SHAPES`` f shows: leaves and connectives in quantifier-free quantifier bodies,
    quantifiers that shadow a bound variable, and node objects that occur twice."""
    shapes, ids = set(), []

    def body_shapes(g, v):
        if isinstance(g, Eq) and v in (g.left, g.right):
            shapes.add("(= v v)" if g.left == g.right else "(= v x)")
        elif isinstance(g, Atom) and v in g.args:
            if len(g.args) == 1:
                shapes.add("mark on v")
            else:
                shapes.add({(True, True): "R(v v)", (True, False): "R(v x)", (False, True): "R(x v)"}[
                    (g.args[0] == v, g.args[1] == v)])
        elif isinstance(g, Atom) and len(g.args) == 1:
            shapes.add("mark on x")
        elif isinstance(g, (And, Or)) and len(g.parts) != 2:
            shapes.add("n-ary and/or")
        elif isinstance(g, Implies):
            shapes.add("imp")
        for c in _children(g):
            body_shapes(c, v)

    def walk(g, bound):
        ids.append(id(g))
        if isinstance(g, (Exists, Forall)):
            if g.var in bound:
                shapes.add("shadowed")
            if quantifier_depth(g.body) == 0:
                body_shapes(g.body, g.var)
            bound = bound | {g.var}
        for c in _children(g):
            walk(c, bound)

    walk(f, frozenset())
    if len(set(ids)) < len(ids):
        shapes.add("shared node")
    return shapes


SWEEP_SHAPES = {
    "(= v v)", "(= v x)", "R(v v)", "R(v x)", "R(x v)", "mark on v", "mark on x",
    "n-ary and/or", "imp", "shadowed", "shared node",
}


def test_evaluate_and_interpret_budget_match_reference():
    # The reference memoizes every non-leaf node and charges one per element a
    # quantifier binds, so its count is the exact budget: N passes, N - 1 raises.
    rng = random.Random(2323)
    shapes, sizes = set(), set()
    for i in range(360):
        st = random_relation_structure(rng, i % 6)
        ref = ReferenceEvaluator(st)
        if i % 4:
            f = random_sentence(rng, rng.randint(1, 4), 16)
        else:  # a guarded pair of free formulas; in half of them the guard's object recurs under the inner quantifier
            dom = random_sentence(rng, 2, 8, free=("x",))
            rel = random_sentence(rng, 2, 8, free=("x", "y"))
            f = Forall("x", Implies(dom, Exists("y", And((dom, rel)) if i % 8 else rel)))
        shapes |= sweep_shapes(f)
        want, run = ref.truth(f, {}), partial(evaluate, st, f)
        sizes.add(len(st.domain))
        assert run(budget=ref.used) == want, i
        if ref.used:
            with pytest.raises(BudgetExceeded):
                run(budget=ref.used - 1)
        else:
            assert run(budget=-1) == want
    assert shapes == SWEEP_SHAPES and sizes == set(range(6))


EMPTY = Structure((), {"edge": ()}, {"p": 0})


@pytest.mark.parametrize("budget", [-1, 0])
def test_empty_domain_spends_no_budget(budget):
    # no quantifier binds an element, so not even a negative budget runs out
    for text, want in (
        ("(exists x (edge x x))", False),
        ("(forall x (p x))", True),
        ("(not (exists x (= x x)))", True),
        ("(forall x (exists y (edge x y)))", True),
        ("(exists x (forall y (edge x y)))", False),
    ):
        assert evaluate(EMPTY, parse_formula(text), budget=budget) is want


def test_quantifier_free_body_at_the_nesting_limit():
    # all the nesting lies in the innermost quantifier's body, which compiles to one mask closure per node
    wrappers = ("(not {})", "(imp (edge x y) {})", "(and (p x) (p y) {})", "(or (= x y) {})")
    chain = "(edge y x)"
    for k in range(MAX_FORMULA_DEPTH - 3):
        chain = wrappers[k % 4].format(chain)
    st = graph_structure(path_graph("abc"), {"p": "ab"})
    sentences = (nested_sentence(MAX_FORMULA_DEPTH), f"(exists x (forall y {chain}))", f"(forall x (exists y {chain}))")
    for text in sentences:
        f = parse_formula(text)
        assert quantifier_depth(f) == 2
        assert evaluate(st, f) == naive_truth(st, f)


FO_FORMULAS = {
    "c4free": "(not (exists a (exists b (exists c (exists d (and (edge a b) (edge b c) (edge c d) (edge d a)"
    " (not (edge a c)) (not (edge b d)) (not (= a c)) (not (= b d))))))))",
    "dominating": (DATA / "dominating.fo").read_text(),
}


def _budget_cases():
    """Case name -> callable(budget) whose evaluation budget use is pinned."""
    cases = {}
    for model in ("demo6", "abovecap13", "p3slack"):
        rep = rep_from_intervals(intervals_from_text((DATA / f"{model}.ivl").read_text()), INTERVAL)
        for name, text in FO_FORMULAS.items():
            cases[f"{model}-{name}-pipeline"] = partial(modelcheck_pipeline, rep, parse_formula(text))
            cases[f"{model}-{name}-direct"] = partial(modelcheck_direct, rep, parse_formula(text))
    for name, g in (("path", path_graph("abc")), ("complete", complete_graph("abcd"))):
        cases[f"shadowed-{name}"] = partial(evaluate, graph_structure(g), parse_formula(SHADOWED))
        cases[f"shared-{name}"] = partial(evaluate, graph_structure(g), shared_sentence())
    rng = random.Random(23)
    for i in range(60):
        cases[f"random-{i}"] = partial(evaluate, random_marked_structure(rng), random_sentence(rng, 4, 16))
    return cases


BUDGET_CASES = _budget_cases()


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_budget_use_golden(case):
    # N is the exact number of quantifier instantiations: N suffices, N - 1 does not
    golden = json.loads((DATA / "golden" / "fo-budget.json").read_text())
    assert golden.keys() == BUDGET_CASES.keys()
    run = BUDGET_CASES[case]
    n = golden[case]["budget"]
    assert run(budget=n) is golden[case]["value"]
    if n:
        with pytest.raises(BudgetExceeded):
            run(budget=n - 1)


@pytest.mark.parametrize(
    "domain, relations, marks, message",
    [
        (("a", "b", "a"), {}, {}, "duplicate domain elements"),
        (("a", "b"), {"edge": (0,)}, {}, "relation 'edge' has 1 rows for 2 elements"),
        (("a", "b"), {"edge": (0, 0, 0)}, {}, "relation 'edge' has 3 rows for 2 elements"),
        (("a", "b"), {"edge": (0b1, 0b100)}, {}, "relation 'edge' leaves the domain"),
        (("a", "b"), {"edge": (-1, 0)}, {}, "relation 'edge' leaves the domain"),
        (("a", "b"), {}, {"p": 0b100}, "mark 'p' leaves the domain"),
        ((), {}, {"p": 0b1}, "mark 'p' leaves the domain"),
    ],
)
def test_structure_validation_messages(domain, relations, marks, message):
    with pytest.raises(DomainError) as exc:
        Structure(domain, relations, marks)
    assert str(exc.value) == message


def test_graph_structure_mark_outside_the_graph():
    with pytest.raises(DomainError) as exc:
        graph_structure(path_graph("ab"), {"p": ["a", "z"]})
    assert str(exc.value) == "mark 'p' leaves the domain"
    st = graph_structure(path_graph("abc"), {"p": "ca", "q": []})
    assert st.relations == {"edge": path_graph("abc").rows} and st.marks == {"p": 0b101, "q": 0}


def seeded_representations():
    """The empty representation, then seeded interval, overlap and chord representations, each also condensed."""
    rng = random.Random(24)
    reps = [rep_from_intervals([], INTERVAL)]
    for n in range(2, 17):
        intervals = intervals_from_text(seeded_intervals_text(n, seed=n))
        labels = [f"x{i}" for i in range(n)] * 2
        rng.shuffle(labels)
        for rep in (
            rep_from_intervals(intervals, INTERVAL),
            rep_from_intervals(intervals, OVERLAP),
            rep_from_chords(ChordDiagram(tuple(labels))),
        ):
            reps += [rep, condense(rep)]
    return reps


def test_matrix_structure_matches_cell_loop():
    for rep in seeded_representations():
        m = build_ilmatrix(rep)
        st = matrix_structure(m)
        dom, pairs = reference_matrix_structure(m)
        assert st.domain == dom and st.marks == {}
        assert {name: relation_pairs(st, name) for name in st.relations} == pairs


def test_evaluate_examples(demo6_rep):
    assert evaluate(graph_structure(complete_graph("ab")), SOME_EDGE)
    assert not evaluate(graph_structure(Graph.build("abc", [])), SOME_EDGE)
    # the interpreted domain of the demo6 matrix is exactly the six pairs
    st = matrix_structure(build_ilmatrix(demo6_rep))
    dom = ReferenceEvaluator(st).interpret(interpretation_for(INTERVAL)).domain
    assert len(dom) == 6


def test_parse_and_print():
    f = parse_formula("(forall x (imp (edge x x) false))")
    assert formula_to_text(f) == "(forall x (imp (edge x x) false))"
    assert quantifier_depth(f) == 1
    with pytest.raises(FormatError):
        parse_formula("(exists x")
    with pytest.raises(FormatError):
        parse_formula("(exists x (edge x y)) trailing")
    assert quantifier_depth(parse_formula(nested_sentence(MAX_FORMULA_DEPTH))) == 2
    with pytest.raises(FormatError, match="nests deeper"):
        parse_formula(nested_sentence(MAX_FORMULA_DEPTH + 1))
    with pytest.raises(DomainError):
        evaluate(graph_structure(path_graph("ab")), parse_formula("(edge x y)"))


@pytest.mark.parametrize(
    "f, text",
    [
        (TrueF(), "true"),
        (FalseF(), "false"),
        (Atom("r", ()), "(r )"),
        (Atom("p", ("x",)), "(p x)"),
        (Atom("edge", ("x", "y")), "(edge x y)"),
        (Eq("x", "y"), "(= x y)"),
        (Not(TrueF()), "(not true)"),
        (And(()), "(and )"),
        (Or(()), "(or )"),
        (And((TrueF(), FalseF())), "(and true false)"),
        (Or((FalseF(),)), "(or false)"),
        (Implies(TrueF(), FalseF()), "(imp true false)"),
        (Exists("x", TrueF()), "(exists x true)"),
        (Forall("y", Not(FalseF())), "(forall y (not false))"),
    ],
)
def test_printer_bytes(f, text):
    assert formula_to_text(f) == text


def test_unknown_formula_node_is_a_domain_error():
    class Unknown(Formula):
        pass

    for f in (Unknown(), Not(Unknown()), And((TrueF(), Unknown()))):
        with pytest.raises(DomainError, match="^unknown formula node"):
            formula_to_text(f)


PARSE_ERRORS = [
    ("", "unexpected end of formula"),
    (")", "unexpected ')'"),
    ("(exists x", "missing ')'"),
    ("true false", "trailing input after the formula"),
    ("x", "bare symbol 'x' is not a formula"),
    ("()", "bad form: []"),
    ("((edge x y) x)", "bad form: [['edge', 'x', 'y'], 'x']"),
    ("(exists x)", "exists needs a variable and a body"),
    ("(forall (x) true)", "forall needs a variable and a body"),
    ("(not)", "not takes one argument"),
    ("(not true false)", "not takes one argument"),
    ("(imp true)", "imp takes two arguments"),
    ("(-> true false true)", "imp takes two arguments"),
    ("(= x)", "= takes two variables"),
    ("(= x (y))", "= takes two variables"),
    ("(edge x (y))", "relation arguments must be variables: ['edge', 'x', ['y']]"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_messages(capsys, tmp_path, text, message):
    with pytest.raises(FormatError) as exc:
        parse_formula(text)
    assert str(exc.value) == message
    path = tmp_path / "f.fo"
    path.write_text(text + "\n")
    for extra in ([], ["--direct"]):
        assert run(["fo-check", "--intervals", str(DATA / "demo6.ivl"), "--formula", str(path), *extra]) == 1
        got = capsys.readouterr()
        assert got.out == "" and got.err == f"error: {message}\n"


KEYWORDS = {"true", "false", "exists", "forall", "not", "and", "or", "imp"}
NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True).filter(lambda s: s not in KEYWORDS)
FORMULAS = st.recursive(
    st.one_of(
        st.sampled_from((TrueF(), FalseF())),
        st.builds(Atom, NAMES, st.lists(NAMES, max_size=3).map(tuple)),
        st.builds(Eq, NAMES, NAMES),
    ),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, st.lists(kids, max_size=3).map(tuple)),
        st.builds(Or, st.lists(kids, max_size=3).map(tuple)),
        st.builds(Implies, kids, kids),
        st.builds(Exists, NAMES, kids),
        st.builds(Forall, NAMES, kids),
    ),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(FORMULAS)
def test_print_parse_round_trip(f):
    assert parse_formula(formula_to_text(f)) == f


def test_evaluate_budget():
    g = complete_graph("abcdefgh")
    with pytest.raises(BudgetExceeded):
        evaluate(graph_structure(g), parse_formula("(forall x (forall y (forall z true)))"), budget=10)


def test_de_morgan_and_quantifier_duality():
    rng = random.Random(20)
    for _ in range(60):
        g = Graph.build(
            "abcd",
            [p for p in itertools.combinations("abcd", 2) if rng.random() < 0.5],
        )
        st = graph_structure(g)
        f = random_formula(rng, [], 2, [8])
        g1 = random_formula(rng, [], 1, [4])
        g2 = random_formula(rng, [], 1, [4])
        assert evaluate(st, Not(And((g1, g2)))) == evaluate(st, Or((Not(g1), Not(g2))))
        if isinstance(f, (Exists, Forall)):
            flipped = Not(Exists(f.var, Not(f.body))) if isinstance(f, Forall) else f
            assert evaluate(st, f) == evaluate(st, flipped)


def structure_to_graph(st):
    """The graph of a structure's ``edge`` relation, which must be symmetric and loop-free."""
    rel = relation_pairs(st, "edge")
    assert all(a != b and (b, a) in rel for a, b in rel)
    return Graph.build(st.domain, rel)


def test_identity_interpretation():
    g = path_graph("abc")
    st = graph_structure(g)
    ident = Interpretation("x", TrueF(), {"edge": (("x", "y"), Atom("edge", ("x", "y")))})
    assert structure_to_graph(ReferenceEvaluator(st).interpret(ident)) == g


def test_interpret_matches_decode(demo6_rep, demo6_rep_overlap):
    for rep in (demo6_rep, demo6_rep_overlap):
        st = matrix_structure(build_ilmatrix(rep))
        out = ReferenceEvaluator(st).interpret(interpretation_for(rep.kind))
        assert structure_to_graph(out) == decode(rep)


def test_interpret_matches_pointwise_evaluation(demo6_rep):
    # the interpreted relation agrees with evaluating its defining formula
    # pointwise, with the two free variables pinned to domain elements
    iota = interpretation_for(INTERVAL)
    st = matrix_structure(build_ilmatrix(demo6_rep))
    out = ReferenceEvaluator(st).interpret(iota)
    params, body = iota.relations["edge"]
    edge = relation_pairs(out, "edge")
    for a in out.domain:
        for b in out.domain:
            direct = naive_truth(st, body, {params[0]: a, params[1]: b})
            assert ((a, b) in edge) == direct


def test_oracles_do_not_call_the_evaluator(monkeypatch):
    # naive_truth and ReferenceEvaluator must give their answers with fologic's evaluator out of reach
    rng = random.Random(25)
    sentences = [(random_relation_structure(rng, i % 6), random_sentence(rng, 3, 12)) for i in range(60)]
    matrices = [(rep, matrix_structure(build_ilmatrix(rep))) for rep in seeded_representations()[:13]]

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle called fologic's evaluator")

    monkeypatch.setattr(fologic, "_compile", refuse)
    monkeypatch.setattr(fologic, "evaluate", refuse)
    for st, f in sentences:
        assert ReferenceEvaluator(st).truth(f, {}) == naive_truth(st, f)
    for rep, st in matrices:
        out = ReferenceEvaluator(st).interpret(interpretation_for(rep.kind))
        assert structure_to_graph(out) == decode(rep)


def test_rewrite_shape_and_trivial_cases(demo6_rep):
    iota = interpretation_for(INTERVAL)
    rewritten = rewrite(iota, SOME_EDGE)
    assert isinstance(rewritten, Exists)
    assert isinstance(rewritten.body, And)  # the domain guard was added
    assert rewrite(iota, TrueF()) == TrueF()

    st = matrix_structure(build_ilmatrix(demo6_rep))
    assert evaluate(st, rewritten) == evaluate(graph_structure(decode(demo6_rep)), SOME_EDGE)


def test_rewrite_equivalence_random():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(1, 5)
        intervals, seen = [], set()
        while len(intervals) < n:
            l = rng.randint(0, 6)
            r = rng.randint(l, 6)
            if (l, r) not in seen:
                seen.add((l, r))
                intervals.append((f"i{len(intervals)}", l, r))
        kind = rng.choice((INTERVAL, OVERLAP))
        rep = rep_from_intervals(intervals, kind)
        f = random_formula(rng, [], 2, [8])
        lhs = evaluate(graph_structure(decode(rep)), f)
        rhs = evaluate(matrix_structure(build_ilmatrix(rep)), rewrite(interpretation_for(kind), f))
        assert lhs == rhs


REWRITE_SENTENCES = (
    "(exists x (exists y (edge x y)))",
    "(forall x (imp (not (= x x)) (or false (and))))",
    "(exists x (forall x (and (or) true (-> (edge x x) (not (or (edge x x) (= x x)))))))",
)


def test_rewrite_golden():
    # the exact rewritten trees, fresh bound names _q0, _q1, ... included
    got = "".join(
        f"{kind} {text}\n{formula_to_text(rewrite(interpretation_for(kind), parse_formula(text)))}\n"
        for kind in (INTERVAL, OVERLAP)
        for text in REWRITE_SENTENCES
    )
    assert got == (DATA / "golden" / "fo-rewrite.txt").read_text()


def test_transduce_permutation_examples():
    inst = generate_exposer((2, 1, 3))
    assert transduce_permutation(inst.graph, inst.core, inst.side1, inst.side2) == (2, 1, 3)

    assert transduce_permutation(path_graph("ab"), (), (), ()) == ()

    # two core vertices with identical side-1 neighbourhoods break antisymmetry
    g = Graph.build("wxyz", [("w", "y"), ("x", "y"), ("w", "z"), ("x", "z")])
    assert transduce_permutation(g, ("w", "x"), ("y",), ("z",)) is None

    with pytest.raises(DomainError):
        transduce_permutation(path_graph("ab"), ("a",), ("a",), ())


def test_transduction_image_contains_exposed_permutation():
    inst = generate_exposer((2, 1))
    got = transduction_image(inst.graph, cap=6)
    assert (2, 1) in got


def test_modelcheck_pipeline_matches_direct(demo6_rep, demo6_rep_overlap):
    dominating = parse_formula("(exists x (forall y (or (= x y) (edge x y))))")
    assert modelcheck_pipeline(demo6_rep, dominating) == modelcheck_direct(demo6_rep, dominating)

    assert modelcheck_pipeline(demo6_rep, FalseF()) is False

    triangle = parse_formula(
        "(exists x (exists y (exists z (and (edge x y) (and (edge y z) (edge x z))))))"
    )
    assert modelcheck_pipeline(demo6_rep_overlap, triangle) == modelcheck_direct(
        demo6_rep_overlap, triangle
    )
