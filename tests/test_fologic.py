import itertools
import random

import pytest

from twinwidth.errors import BudgetExceeded, DomainError, FormatError
from twinwidth.fologic import (
    MAX_FORMULA_DEPTH,
    And,
    Atom,
    Eq,
    Exists,
    FalseF,
    Forall,
    Implies,
    Not,
    Or,
    TrueF,
    evaluate,
    formula_to_text,
    graph_structure,
    interpret,
    interpretation_for,
    matrix_structure,
    modelcheck_direct,
    modelcheck_pipeline,
    parse_formula,
    quantifier_depth,
    rewrite,
    structure_to_graph,
    transduce_permutation,
    transduction_image,
)
from twinwidth.graphs import Graph
from twinwidth.ilrep import INTERVAL, OVERLAP, build_ilmatrix, decode, rep_from_intervals
from twinwidth.obstruction import generate_exposer
from conftest import DEMO6_INTERVALS, complete_graph, nested_sentence, path_graph

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


def test_evaluate_examples(demo6_rep):
    assert evaluate(graph_structure(complete_graph("ab")), SOME_EDGE)
    assert not evaluate(graph_structure(Graph.build("abc", [])), SOME_EDGE)
    # the interpreted domain of the demo6 matrix is exactly the six pairs
    st = matrix_structure(build_ilmatrix(demo6_rep))
    dom = interpret(interpretation_for(INTERVAL), st).domain
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


def test_identity_interpretation():
    from twinwidth.fologic import Interpretation

    g = path_graph("abc")
    st = graph_structure(g)
    ident = Interpretation("x", TrueF(), {"edge": (("x", "y"), Atom("edge", ("x", "y")))})
    assert structure_to_graph(interpret(ident, st)) == g


def test_interpret_matches_decode(demo6_rep, demo6_rep_overlap):
    for rep in (demo6_rep, demo6_rep_overlap):
        st = matrix_structure(build_ilmatrix(rep))
        out = interpret(interpretation_for(rep.kind), st)
        assert structure_to_graph(out) == decode(rep)


def test_interpret_matches_pointwise_evaluation(demo6_rep):
    # the interpreted relation agrees with evaluating its defining formula
    # pointwise, with the two free variables pinned to domain elements
    from twinwidth.fologic import _eval

    iota = interpretation_for(INTERVAL)
    st = matrix_structure(build_ilmatrix(demo6_rep))
    out = interpret(iota, st)
    params, body = iota.relations["edge"]
    memo = {}
    for a in out.domain:
        for b in out.domain:
            direct = _eval(st, body, {params[0]: a, params[1]: b}, [10**7], memo)
            assert ((a, b) in out.relations["edge"]) == direct


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


def test_modelcheck_interval_graph_entrypoint(demo6_rep):
    from twinwidth.fologic import modelcheck_interval_graph

    g = decode(demo6_rep)
    dominating = parse_formula("(exists x (forall y (or (= x y) (edge x y))))")
    assert modelcheck_interval_graph(g, dominating) == evaluate(graph_structure(g), dominating)
    c4 = Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    with pytest.raises(DomainError):
        modelcheck_interval_graph(c4, dominating)


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
