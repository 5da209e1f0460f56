"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion carries
a wall-clock budget that is asserted alongside the functional checks.
"""

import itertools
import random
import time

import pytest

from twinwidth.graphs import (
    ContractionStep,
    Graph,
    find_twins,
    is_isomorphic,
    permutation_graph,
)
from twinwidth.ilrep import (
    INTERVAL,
    OVERLAP,
    ChordDiagram,
    build_ilmatrix,
    decode,
    decode_from_matrix,
    rep_from_chords,
    rep_from_intervals,
)
from twinwidth.fologic import (
    evaluate,
    graph_structure,
    interpretation_for,
    matrix_structure,
    rewrite,
)
from twinwidth.obstruction import (
    check_exposes,
    circle_permutation_witness,
    extract_perm_submatrix,
    generate_exposer,
    interval_exposure_witness,
    planted_mixed_minor_rep,
)
from twinwidth.perturb import (
    LexPowerOrders,
    build_circle_gadget,
    find_homogeneous_set,
    verify_robustness_circle,
)
from twinwidth.solver import ordering_without_mixed_minor, twinwidth_exact, twinwidth_greedy, verify_sequence
from twinwidth.trimatrix import (
    TriMatrix,
    adjacency_matrix,
    find_mixed_minor,
    matrix_twinwidth_exact,
    permutation_matrix,
)

from conftest import (
    DATA,
    DEMO5_EDGES,
    DEMO6_INTERVALS,
    interval_vertex_map,
    oracle_chord_crossings,
    reference_contract,
    reference_start,
    reference_symmetric_reds,
)
from test_fologic import random_formula
from test_solver import random_cograph, random_graph


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, summary: str) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"{self.name}: {elapsed:.2f}s over the {self.seconds}s budget"
        print(f"[PASS] {self.name}: {summary} ({elapsed:.2f}s)")


def test_criterion_1_worked_sequence_reproduction():
    budget = Budget("criterion 1 (worked contraction sequence)", 1.0)
    g = Graph.build("abcde", DEMO5_EDGES)
    seq = (
        ContractionStep("a", "b", "ab"),
        ContractionStep("d", "e", "de"),
        ContractionStep("c", "de", "cde"),
        ContractionStep("ab", "cde", "abcde"),
    )
    assert verify_sequence(g, seq, 2)
    assert not verify_sequence(g, seq, 1)
    reds = reference_symmetric_reds(adjacency_matrix(g), [("a", "b"), ("d", "e"), ("c", "d"), ("a", "c")])
    assert reds[2] == 3 and max(reds) == 3
    budget.done("graph width 2, matrix replay peaks at 3 in the third matrix")


def test_criterion_2_worked_matrix_reproduction(capsys):
    budget = Budget("criterion 2 (worked representation matrix)", 1.0)
    from twinwidth.cli import run

    assert run(["ilmatrix", "--intervals", str(DATA / "demo6.ivl")]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "demo6.mat.golden").read_text()
    rep = rep_from_intervals(DEMO6_INTERVALS, INTERVAL)
    assert len(decode(rep).edges) == 11
    assert len(decode(rep_from_intervals(DEMO6_INTERVALS, OVERLAP)).edges) == 9
    with capsys.disabled():
        budget.done("matrix byte-exact, 11 interval edges, 9 overlap edges")


def test_criterion_3_round_trip_oracle():
    budget = Budget("criterion 3 (round trips)", 30.0)
    rng = random.Random(1003)
    mismatches = 0
    for i in range(500):
        n = rng.randint(1, 8)
        intervals, seen = [], set()
        while len(intervals) < n:
            l = rng.randint(0, 10)
            r = rng.randint(l, 10)
            if (l, r) not in seen:
                seen.add((l, r))
                intervals.append((f"i{len(intervals)}", l, r))
        kind = INTERVAL if i % 2 == 0 else OVERLAP
        rep = rep_from_intervals(intervals, kind)
        if decode_from_matrix(build_ilmatrix(rep), kind) != decode(rep):
            mismatches += 1
    for i in range(500):
        n = rng.randint(1, 8)
        labels = [f"x{j}" for j in range(n)] * 2
        rng.shuffle(labels)
        diagram = ChordDiagram(tuple(labels))
        rep = rep_from_chords(diagram)
        g = decode(rep)
        if decode_from_matrix(build_ilmatrix(rep), OVERLAP) != g:
            mismatches += 1
        vertex_of = {lab: f"({lab}1,{lab}2)" for lab in diagram.chords()}
        crossings = {
            tuple(sorted((vertex_of[a], vertex_of[b])))
            for s in oracle_chord_crossings(diagram.sequence)
            for a, b in [sorted(s)]
        }
        if set(g.edges) != crossings:
            mismatches += 1
    assert mismatches == 0
    budget.done("1000 instances round-trip with zero mismatches")


def test_criterion_4_interpretation_equivalence():
    budget = Budget("criterion 4 (formula translation)", 60.0)
    rng = random.Random(1004)
    mismatches = 0
    for i in range(200):
        n = rng.randint(1, 6)
        intervals, seen = [], set()
        while len(intervals) < n:
            l = rng.randint(0, 8)
            r = rng.randint(l, 8)
            if (l, r) not in seen:
                seen.add((l, r))
                intervals.append((f"i{len(intervals)}", l, r))
        kind = INTERVAL if i % 2 == 0 else OVERLAP
        rep = rep_from_intervals(intervals, kind)
        f = random_formula(rng, [], 2, [8])
        direct = evaluate(graph_structure(decode(rep)), f)
        translated = evaluate(
            matrix_structure(build_ilmatrix(rep)), rewrite(interpretation_for(kind), f)
        )
        if direct != translated:
            mismatches += 1
    assert mismatches == 0
    budget.done("200 (instance, formula) pairs agree under translation")


def test_criterion_5_permutation_extraction():
    budget = Budget("criterion 5 (submatrix extraction)", 60.0)
    checked = 0
    for p in (1, 2, 3):
        overlap = planted_mixed_minor_rep(p, OVERLAP)
        g = decode(overlap.rep)
        ilm = build_ilmatrix(overlap.rep)
        minor = find_mixed_minor(ilm.matrix, 2 * p + 1)
        assert minor is not None
        for word in itertools.permutations(range(1, p + 1)):
            sub = extract_perm_submatrix(ilm, word, minor=minor)
            target = permutation_matrix(word)
            for i, rk in enumerate(sub.row_keys):
                for j, ck in enumerate(sub.col_keys):
                    assert ilm.matrix.entry(rk, ck) == target.rows[i][j]
            firsts = [ilm.row_pairs[rk][0] for rk in sub.row_keys]
            assert len(set(firsts)) == len(firsts)

            witness = circle_permutation_witness(overlap.rep, word, minor=minor)
            assert is_isomorphic(g.subgraph(witness.vertices), permutation_graph(word))
            checked += 1
    budget.done(f"{checked} permutations extracted and verified on planted instances")


def test_criterion_6_exposure_generation():
    budget = Budget("criterion 6 (exposure)", 30.0)
    from twinwidth.fologic import transduce_permutation

    checked = 0
    for p in (1, 2, 3, 4):
        for word in itertools.permutations(range(1, p + 1)):
            inst = generate_exposer(word)
            assert check_exposes(inst.graph, inst.core, inst.side1, inst.side2, word)
            rep = rep_from_intervals(inst.intervals, INTERVAL)
            mapping = interval_vertex_map(inst.intervals)
            assert inst.graph.relabel(mapping) == decode(rep)
            assert transduce_permutation(inst.graph, inst.core, inst.side1, inst.side2) == word
            checked += 1
    budget.done(f"{checked} exposers pass membership, decoding, and transduction")


def test_criterion_7_homogeneous_sets():
    budget = Budget("criterion 7 (homogeneous sets)", 30.0)
    rng = random.Random(1007)
    for _ in range(500):
        ysize = rng.randint(2, 4)
        base = tuple(range(1, ysize + 1))
        s = rng.choice((2, 4))
        r = 1 if s == 2 else rng.randint(1, 2)
        universe = list(itertools.product(base, repeat=s))
        sets = [frozenset(z for z in universe if rng.random() < 0.5) for _ in range(r)]
        hs = find_homogeneous_set(base, s, sets)
        for x in sets:
            assert hs.elements <= x or not (hs.elements & x)
        second = list(base)
        rng.shuffle(second)
        orders = LexPowerOrders(base, tuple(second), s)
        assert orders.restriction_is_order_isomorphic(sorted(hs.elements, key=orders.rank))
    budget.done("500 certificates re-verify with order-isomorphic restrictions")


def test_criterion_8_circle_robustness_exhaustive():
    budget = Budget("criterion 8 (circle robustness)", 300.0)
    gadget = build_circle_gadget((1,), 1, exponent=4)
    assert len(gadget.graph.vertices) == 16
    report = verify_robustness_circle(gadget, mode="exhaustive", budget=1 << 17)
    assert report.scripts_tested == 2**16
    assert report.failures == []
    budget.done("all 65536 single-set perturbations keep the two-vertex pattern")


def test_criterion_9_solver_cross_checks():
    budget = Budget("criterion 9 (solver cross-checks)", 300.0)
    rng = random.Random(1009)

    def twins_only_zero(g: Graph) -> bool:
        black, red = reference_start(g)
        while len(black) > 1:
            twins = [
                (u, v)
                for u, v in itertools.combinations(sorted(black), 2)
                if (black[u] | red[u]) - {v} == (black[v] | red[v]) - {u}
            ]
            if not twins:
                return False
            u, v = twins[0]
            black, red = reference_contract(black, red, u, v, u)
            if any(red.values()):
                return False
        return True

    for _ in range(50):
        g = random_cograph(rng, rng.randint(2, 8))
        assert twins_only_zero(g)
        assert twinwidth_exact(g).value == 0

    p4 = Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert twinwidth_exact(p4).value == 1

    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 7))
        exact = twinwidth_exact(g).value
        assert exact <= twinwidth_greedy(g).value

        mapping = dict(zip(sorted(g.vertices), [f"m{i}" for i in range(len(g.vertices))]))
        assert twinwidth_exact(g.relabel(mapping)).value == exact

        v = rng.choice(sorted(g.vertices))
        edges = set(g.edges) | {tuple(sorted(("zz", w))) for w in g.neighbors(v)}
        if rng.random() < 0.5:
            edges.add(tuple(sorted(("zz", v))))
        assert twinwidth_exact(Graph.build(g.vertices | {"zz"}, edges)).value <= max(exact, 0)

        matrix_value = matrix_twinwidth_exact(adjacency_matrix(g), symmetric=True, cap=14).value
        assert abs(exact - matrix_value) <= 1
    budget.done("cographs 0, P4 = 1, 100 graphs pass all four cross-checks")


def test_criterion_10_ordering_spot_check():
    budget = Budget("criterion 10 (ordering spot check)", 300.0)
    rng = random.Random(1010)
    for _ in range(50):
        m = TriMatrix.build(
            [f"r{i}" for i in range(5)],
            [f"c{j}" for j in range(5)],
            [[rng.choice((0, 1)) for _ in range(5)] for _ in range(5)],
        )
        t = matrix_twinwidth_exact(m, cap=10).value
        assert ordering_without_mixed_minor(m, 2 * t + 2) is not None
    budget.done("50 matrices admit a (2t+2)-mixed-minor-free ordering")
