import hashlib
import itertools
import json
import random

import pytest

from twinwidth import perturb
from twinwidth.errors import CapExceeded, DomainError
from twinwidth.graphs import Graph, is_isomorphic, permutation_graph
from twinwidth.obstruction import check_exposes, generate_exposer
from twinwidth.perturb import (
    LexPowerOrders,
    _perturbed,
    apply_perturbation,
    build_circle_gadget,
    build_interval_gadget,
    double_with_complement,
    doubled_interval_word,
    find_homogeneous_set,
    verify_robustness_circle,
    verify_robustness_interval,
)
from conftest import complete_graph, oracle_exposer_graph, oracle_permutation_graph, oracle_rows, path_graph


def test_apply_perturbation_examples():
    k3 = complete_graph("abc")
    assert apply_perturbation(k3, []) == k3
    assert not apply_perturbation(k3, [k3.vertices]).edges
    assert apply_perturbation(k3, [k3.vertices, k3.vertices]) == k3
    with pytest.raises(DomainError):
        apply_perturbation(k3, [("a", "zz")])


def test_perturbation_commutes_and_involutes():
    # each pair toggles independently, so elementary perturbations commute
    rng = random.Random(30)
    for _ in range(30):
        vs = "abcde"
        g = Graph.build(vs, [p for p in itertools.combinations(vs, 2) if rng.random() < 0.5])
        x = [v for v in vs if rng.random() < 0.6]
        y = [v for v in vs if rng.random() < 0.6]
        assert apply_perturbation(g, [x, y]) == apply_perturbation(g, [y, x])
        assert apply_perturbation(g, [x, x]) == g


def test_lex_power_orders():
    orders = LexPowerOrders((1, 2), (2, 1), 2)
    assert orders.size == 4
    ranked = sorted(((orders.rank(e), e) for e in itertools.product((1, 2), repeat=2)))
    assert [e for _, e in ranked] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert orders.permutation_word() == (4, 3, 2, 1)
    assert orders.restriction_is_order_isomorphic([(1, 1), (2, 1)])
    assert not orders.restriction_is_order_isomorphic([(1, 1)])


def test_second_rank_maps_digits_like_the_tuple_round_trip():
    rng = random.Random(15)
    for b, exponent in ((1, 3), (2, 5), (3, 4), (5, 3), (8, 2), (4, 1)):
        base = rng.sample(range(100), b)
        orders = LexPowerOrders(tuple(base), tuple(rng.sample(base, b)), exponent)
        assert [orders.second_rank(x) for x in range(orders.size)] == [
            orders.rank(orders.unrank(x), second=True) for x in range(orders.size)
        ]


def test_repeated_base_element_is_a_domain_error():
    # a repeated element would collapse two power tuples into one rank
    with pytest.raises(DomainError, match="base elements must be distinct"):
        LexPowerOrders((1, 1), (1, 1), 2)
    with pytest.raises(DomainError, match="base elements must be distinct"):
        find_homogeneous_set((1, 1), 2, [])


def test_find_homogeneous_examples():
    # no sets: the first coordinate is free immediately
    hs = find_homogeneous_set((1, 2), 2, [])
    assert hs.position == 1 and len(hs.elements) == 2

    hs = find_homogeneous_set((1, 2), 2, [{(1, 1), (1, 2)}])
    assert hs.position == 2 and hs.prefix == (1,)
    assert hs.elements == frozenset({(1, 1), (1, 2)})

    with pytest.raises(DomainError):
        find_homogeneous_set((1, 2), 1, [{(1,)}])


def test_find_homogeneous_random_membership_recheck():
    rng = random.Random(31)
    for _ in range(100):
        ysize = rng.randint(2, 4)
        base = tuple(range(1, ysize + 1))
        s = rng.choice((2, 4))
        r = 1 if s == 2 else rng.randint(1, 2)
        universe = list(itertools.product(base, repeat=s))
        sets = [frozenset(z for z in universe if rng.random() < 0.5) for _ in range(r)]
        hs = find_homogeneous_set(base, s, sets)
        for x in sets:
            assert hs.elements <= x or not (hs.elements & x)
        # certificate structure: prefix + free coordinate + suffix maps
        for e in hs.elements:
            assert e[: hs.position - 1] == hs.prefix
            y = e[hs.position - 1]
            for j, table in hs.suffixes.items():
                assert e[j - 1] == table[y]


def test_homogeneous_restriction_order_isomorphic():
    rng = random.Random(32)
    for _ in range(50):
        base = tuple(range(1, rng.randint(2, 4) + 1))
        second = list(base)
        rng.shuffle(second)
        s = rng.choice((2, 4))
        orders = LexPowerOrders(base, tuple(second), s)
        universe = list(itertools.product(base, repeat=s))
        sets = [frozenset(z for z in universe if rng.random() < 0.5)]
        hs = find_homogeneous_set(base, s, sets)
        assert orders.restriction_is_order_isomorphic(sorted(hs.elements, key=orders.rank))


def test_double_with_complement_examples():
    assert double_with_complement((1,)) == (1, 2)
    assert not permutation_graph((1, 2)).edges  # two isolated vertices

    assert double_with_complement((2, 1)) == (2, 1, 3, 4)
    g = permutation_graph((2, 1, 3, 4))
    assert sorted(g.edges) == [("1", "2")]

    for p in (1, 2, 3, 4):
        for word in itertools.permutations(range(1, p + 1)):
            g2 = permutation_graph(double_with_complement(word))
            h = permutation_graph(word)
            block1 = g2.subgraph([str(i) for i in range(1, p + 1)])
            block2 = g2.subgraph([str(i) for i in range(p + 1, 2 * p + 1)])
            assert is_isomorphic(block1, h)
            assert is_isomorphic(block2, h.complement())
            assert not any(
                (int(u) <= p) != (int(v) <= p) for u, v in g2.edges
            )


def test_doubled_interval_word():
    assert doubled_interval_word((1,)) == (1, 2, 3, 4)
    assert doubled_interval_word((2, 1)) == (3, 4, 1, 2, 5, 6, 7, 8)


def test_build_circle_gadget_sizes():
    g0 = build_circle_gadget((1,), 0)
    assert len(g0.graph.vertices) == 2 and not g0.graph.edges  # degenerates to the doubled pattern

    g1 = build_circle_gadget((1,), 1, exponent=4)
    assert len(g1.graph.vertices) == 16
    inversions = sum(
        1
        for i, j in itertools.combinations(range(16), 2)
        if g1.word[i] > g1.word[j]
    )
    assert len(g1.graph.edges) == inversions

    with pytest.raises(CapExceeded):
        build_circle_gadget((2, 1), 2, exponent=8, cap=1000)
    # an underpowered gadget builds (diagnostics) but cannot be verified
    weak = build_circle_gadget((1,), 2, exponent=2)
    with pytest.raises(DomainError):
        verify_robustness_circle(weak, mode="sampled", samples=1, seed=0)


def test_circle_robustness_r0():
    report = verify_robustness_circle(build_circle_gadget((2, 1), 0))
    assert report.scripts_tested == 1 and not report.failures


def test_circle_robustness_sampled():
    gadget = build_circle_gadget((2, 1), 1)  # 16 vertices at the minimal exponent
    report = verify_robustness_circle(gadget, mode="sampled", samples=300, seed=5)
    assert report.scripts_tested == 300 and not report.failures
    with pytest.raises(DomainError):
        verify_robustness_circle(gadget, mode="sampled", samples=10)


def test_circle_robustness_r2_sampled():
    gadget = build_circle_gadget((1,), 2)  # exponent 4, 16 vertices, two sets per script
    report = verify_robustness_circle(gadget, mode="sampled", samples=100, seed=6)
    assert not report.failures


def test_interval_gadget_diagnostic_collapse():
    # collapsing both powers to 1 leaves exactly the doubled-pair exposer
    gadget = build_interval_gadget((1,), 0, u_power=1, exponent=1)
    assert gadget.orders.permutation_word() == doubled_interval_word((1,))
    inst = gadget.materialize()
    assert check_exposes(inst.graph, inst.core, inst.side1, inst.side2, inst.perm)


def test_interval_gadget_is_exposer_of_power_word():
    gadget = build_interval_gadget((1,), 1, u_power=4, exponent=1)  # 256 core vertices
    inst = gadget.materialize(cap=1024)
    assert inst.perm == gadget.orders.permutation_word()
    assert check_exposes(inst.graph, inst.core, inst.side1, inst.side2, inst.perm)
    # the lazy adjacency on vertex indices agrees with the materialized exposer
    rng = random.Random(33)
    index = {v: x for x, v in enumerate(gadget.names())}
    names = sorted(inst.graph.vertices)
    for _ in range(300):
        a, b = rng.choice(names), rng.choice(names)
        if a != b:
            assert gadget.adjacent(index[a], index[b]) == inst.graph.has_edge(a, b)


def test_gadget_graphs_match_pair_oracles():
    circle = build_circle_gadget((3, 1, 2), 2)  # generate hplus-circle --pi "3 1 2" -r 2
    g = circle.graph
    assert len(g.names) == 1296
    assert (g.names, g.rows) == oracle_rows(*oracle_permutation_graph(circle.word))
    interval = build_interval_gadget((1,))  # generate hplus-interval --pi 1
    g = interval.materialize().graph
    assert len(g.names) == 768
    assert (g.names, g.rows) == oracle_rows(*oracle_exposer_graph(interval.orders.permutation_word()))


def test_interval_robustness_r0_and_r1():
    r0 = verify_robustness_interval(build_interval_gadget((1,), 0), mode="sampled", samples=3, seed=1)
    assert not r0.failures

    honest = build_interval_gadget((1,), 1)  # U = 256, Z = 65536, lazily
    rep = verify_robustness_interval(honest, mode="sampled", samples=200, seed=2)
    assert rep.scripts_tested == 200 and not rep.failures


def test_interval_robustness_p2_sampled():
    gadget = build_interval_gadget((2, 1), 1)
    rep = verify_robustness_interval(gadget, mode="sampled", samples=2, seed=3)
    assert not rep.failures


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lazy_perturbed_adjacency_matches_apply_perturbation(r):
    # the parity rule the checks read must agree pair for pair with the
    # materialized graph after apply_perturbation
    rng = random.Random(34 + r)
    circles = [build_circle_gadget((1,), 0), build_circle_gadget((2, 1), 1), build_circle_gadget((2, 1), 2)]
    assert [len(c.graph.vertices) for c in circles] == [2, 16, 256]
    interval = build_interval_gadget((1,), 1, exponent=1)
    lazy_and_graphs = [(c, c.graph) for c in circles] + [(interval, interval.materialize(cap=1024).graph)]
    for gadget, graph in lazy_and_graphs:
        names = list(gadget.names())
        assert len(names) == len(graph.vertices) and set(names) == graph.vertices
        script = [frozenset(v for v in names if rng.random() < 0.5) for _ in range(r)]
        reference = apply_perturbation(graph, script)
        adj = _perturbed(gadget.adjacent, lambda i, x: names[x] in script[i], r)  # on vertex indices
        for a, b in itertools.combinations(range(len(names)), 2):
            assert adj(a, b) == reference.has_edge(names[a], names[b]), (names[a], names[b])


def test_precondition_checked_before_any_script():
    # exponent < 2^r is refused up front, even when no script would run
    weak_circle = build_circle_gadget((1,), 2, exponent=3)
    weak_interval = build_interval_gadget((1,), 2, exponent=3)
    for verify, gadget in ((verify_robustness_circle, weak_circle), (verify_robustness_interval, weak_interval)):
        with pytest.raises(DomainError, match=r"exponent 3 < 2\^2"):
            verify(gadget, mode="sampled", samples=0, seed=1)
    # below u_power 4 no script reaches the search, so each one reports the diagnostic instead
    diagnostic = build_interval_gadget((1,), 2, u_power=1, exponent=1)
    report = verify_robustness_interval(diagnostic, mode="sampled", samples=2, seed=1)
    assert report.scripts_tested == 2 and len(report.failures) == 2


def test_robustness_report_json_shape():
    report = verify_robustness_circle(build_circle_gadget((1,), 0))
    payload = report.to_json()
    assert payload["case"] == "circle" and payload["failures"] == []


def test_failure_scripts_are_pinned(monkeypatch):
    # every script fails, so the report lists each drawn or enumerated script as written
    monkeypatch.setattr(perturb, "_check_circle_script", lambda gadget, member: "forced")
    sampled = verify_robustness_circle(build_circle_gadget((2, 1), 1), mode="sampled", samples=4, seed=9)
    exhaustive = verify_robustness_circle(build_circle_gadget((1,), 1, exponent=2))
    assert exhaustive.scripts_tested == 16
    digests = [hashlib.sha256(json.dumps(r.to_json()).encode()).hexdigest() for r in (sampled, exhaustive)]
    assert digests == [
        "a50c26bcb471eef20d3226e7bf752c682f0b2f961ae1a89aad4be88c42dcb8b7",
        "60d4807631ed0904b91c3b4e881070b4c182cb0f1ae2e262834af0420b6d0434",
    ]


def test_sampled_interval_membership_queries_are_pinned(monkeypatch):
    # the hash inputs the interval check asks for, with the bit each drew; a
    # passing report never shows them
    queries = set()
    real = perturb._hash_member

    def spy(seed, script, which, vertex):
        bit = real(seed, script, which, vertex)
        queries.add((script, which, vertex, bit))
        return bit

    monkeypatch.setattr(perturb, "_hash_member", spy)
    for word, r, samples in (((1,), 1, 3), ((2, 1), 1, 2), ((1,), 0, 2)):
        report = verify_robustness_interval(build_interval_gadget(word, r), mode="sampled", samples=samples, seed=4)
        assert report.scripts_tested == samples and not report.failures
    assert len(queries) == 26556
    digest = hashlib.sha256(repr(sorted(queries)).encode()).hexdigest()
    assert digest == "ebcd084895c6a5d94b48e7e5a58926d289626e6d7a4db2a3798fd65a4c1a9579"
