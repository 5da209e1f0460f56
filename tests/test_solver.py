import itertools
import random

import pytest

from twinwidth import solver, trimatrix
from twinwidth.errors import CapExceeded
from twinwidth.graphs import ContractionStep, Graph, SequenceError, sequence_width
from twinwidth.solver import (
    ordering_without_mixed_minor,
    twinwidth_exact,
    twinwidth_greedy,
    verify_sequence,
)
from twinwidth.trimatrix import RED, TriMatrix, adjacency_matrix, find_mixed_minor, matrix_twinwidth_exact
from twinwidth.ilrep import INTERVAL, build_ilmatrix, rep_from_intervals
from conftest import brute_twinwidth, complete_graph, path_graph, reference_greedy, reference_walk


def random_graph(rng, n, p=0.5):
    vs = [chr(97 + i) for i in range(n)]
    edges = [(u, v) for u, v in itertools.combinations(vs, 2) if rng.random() < p]
    return Graph.build(vs, edges)


def random_cograph(rng, n):
    """Random union/join tree over single vertices."""
    parts = [Graph.build([f"v{i}"], []) for i in range(n)]
    while len(parts) > 1:
        rng.shuffle(parts)
        a, b = parts.pop(), parts.pop()
        vs = a.vertices | b.vertices
        edges = set(a.edges) | set(b.edges)
        if rng.random() < 0.5:  # join
            edges |= {tuple(sorted((u, v))) for u in a.vertices for v in b.vertices}
        parts.append(Graph.build(vs, edges))
    return parts[0]


def test_exact_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6))
        assert twinwidth_exact(g).value == brute_twinwidth(g)


def test_exact_examples(demo5_graph):
    assert twinwidth_exact(path_graph("abcd")).value == 1
    res = twinwidth_exact(demo5_graph)
    assert res.value <= 2
    assert res.value == brute_twinwidth(demo5_graph)
    assert sequence_width(demo5_graph, res.sequence) == res.value


def test_exact_cograph_zero():
    rng = random.Random(12)
    for _ in range(10):
        g = random_cograph(rng, rng.randint(2, 7))
        assert twinwidth_exact(g).value == 0


def test_exact_cap():
    with pytest.raises(CapExceeded):
        twinwidth_exact(complete_graph("abcdefghijkl"), cap=10)


def random_matrix(rng, symmetric):
    """Up to 5x5 over {0, 1}, {0, 1, 2} or either with RED entries."""
    alphabet = rng.choice(((0, 1), (0, 1, 2), (0, 1, RED), (0, 1, 2, RED)))
    nr = rng.randint(1, 5)
    nc = nr if symmetric else rng.randint(1, 5)
    rows = [[rng.choice(alphabet) for _ in range(nc)] for _ in range(nr)]
    if symmetric:
        for i in range(nr):
            for j in range(i):
                rows[i][j] = rows[j][i]
    keys = [f"r{i}" for i in range(nr)]
    return TriMatrix.build(keys, keys if symmetric else [f"c{j}" for j in range(nc)], rows)


def test_bounded_walk_matches_reference(monkeypatch):
    """The bounded walk returns the unpruned walk's value and path, in fewer states."""
    rng = random.Random(19)
    graphs = [random_graph(rng, rng.randint(2, 8), rng.choice((0.2, 0.5, 0.8))) for _ in range(300)]
    graphs += [random_graph(rng, 9) for _ in range(3)]
    matrices = [(random_matrix(rng, sym), sym) for sym in (False, True) for _ in range(80)]

    def solve_all():
        out = [(len(g.vertices), twinwidth_exact(g)) for g in graphs]
        return out + [(sum(m.shape()), matrix_twinwidth_exact(m, sym)) for m, sym in matrices]

    bounded = solve_all()
    # solver imports _walk by name, so both modules are patched
    monkeypatch.setattr(solver, "_walk", reference_walk)
    monkeypatch.setattr(trimatrix, "_walk", reference_walk)
    reference = solve_all()

    for (_, got), (_, want) in zip(bounded, reference):
        assert (got.value, got.sequence) == (want.value, want.sequence)
        assert got.nodes_explored <= want.nodes_explored
    big = [(got.nodes_explored, want.nodes_explored) for (n, got), (_, want) in zip(bounded, reference) if n >= 8]
    assert 10 * sum(got for got, _ in big) <= sum(want for _, want in big)


def test_bounded_walk_matches_reference_on_arbitrary_profiles():
    """Red numbers drawn at random per state make the walk's lower bounds loose."""
    for seed in range(60):
        sizes = ((5,), (3, 3), (6,))[seed % 3]

        def profile(state, seed=seed):
            draw = random.Random(hash((seed, state)))
            moves = trimatrix._moves(state)
            free = draw.choice(moves) if moves and draw.random() < 0.2 else None
            return draw.randint(0, 4), free

        got, want = trimatrix._walk(sizes, profile), reference_walk(sizes, profile)
        assert got[:2] == want[:2]
        assert got[2] <= want[2]


def test_greedy_examples(demo5_graph):
    assert twinwidth_greedy(complete_graph("abcdef")).value == 0
    p4 = path_graph("abcd")
    res = twinwidth_greedy(p4)
    assert res.value >= 1
    assert res.value >= twinwidth_exact(p4).value
    assert not res.optimal


def test_greedy_value_matches_own_sequence():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7))
        res = twinwidth_greedy(g)
        assert sequence_width(g, res.sequence) == res.value
        assert twinwidth_exact(g).value <= res.value


def greedy_corpus(seed=47, count=180, sizes=(1, 45), densities=(0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)):
    """Seeded graphs with n in ``sizes`` and p from ``densities``.  A third
    are named by distinct words over {a, b}, so merged names such as ``a`` +
    ``b`` collide with live vertices and get primed."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(*sizes)
        if k % 3 == 0:
            words = set()
            while len(words) < n:
                words.add("".join(rng.choice("ab") for _ in range(rng.randint(1, max(6, n.bit_length())))))
            vs = sorted(words)
            rng.shuffle(vs)
        else:
            vs = [f"v{i}" for i in range(n)]
        p = rng.choice(densities)
        yield Graph.build(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < p])


def interval_corpus(seed=50, count=3, sizes=(60, 100)):
    """Seeded random interval graphs: left ends in [0, 2n), lengths in [0, 2n/3)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*sizes)
        spans = [(a, a + rng.randrange(2 * n // 3)) for a in (rng.randrange(2 * n) for _ in range(n))]
        vs = [f"v{i}" for i in range(n)]
        edges = [(vs[i], vs[j]) for i, j in itertools.combinations(range(n), 2) if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]]
        yield Graph.build(vs, edges)


def test_greedy_matches_reference():
    """The small corpus, then larger sparse graphs and dense ones, whose kept
    pair counts go through many deletions, common-neighbour decrements and
    whole-row shifts: in interval graphs and G(n, .3-.6) the merged vertex
    neighbours most of the graph."""
    corpora = itertools.chain(
        greedy_corpus(),
        greedy_corpus(seed=48, count=12, sizes=(60, 120), densities=(0.03, 0.05, 0.08, 0.1, 0.15)),
        greedy_corpus(seed=49, count=2, sizes=(60, 100), densities=(0.9,)),
        greedy_corpus(seed=51, count=3, sizes=(60, 100), densities=(0.3, 0.45, 0.6)),
        interval_corpus(),
    )
    primed = 0
    for g in corpora:
        n = len(g.vertices)
        got, want = twinwidth_greedy(g), reference_greedy(g)
        assert (got.value, got.sequence, got.nodes_explored) == (want.value, want.sequence, want.nodes_explored)
        assert got.nodes_explored == (n + 1) * n * (n - 1) // 6
        primed += any(s.merged.endswith("'") for s in got.sequence)
    assert primed > 10


@pytest.mark.parametrize(
    "edges",
    [
        [],
        list(itertools.combinations(range(30), 2)),
        [(i, (i + 1) % 30) for i in range(30)],
        [(i, j) for i in range(15) for j in range(15, 30)],
        [(i, i + 15) for i in range(15)],
    ],
    ids=["edgeless", "complete", "cycle", "k15-15", "matching"],
)
def test_greedy_ties_break_on_names(edges):
    """Many pairs tie on width: the pair taken is still the first by names."""
    vs = [f"v{i:02d}" for i in range(30)]
    g = Graph.build(vs, [(vs[i], vs[j]) for i, j in edges])
    got, want = twinwidth_greedy(g), reference_greedy(g)
    assert (got.value, got.sequence, got.nodes_explored) == (want.value, want.sequence, want.nodes_explored)


def test_greedy_large_interval_graph_terminates():
    rng = random.Random(14)
    spans = {}
    for i in range(200):
        a, b = sorted((rng.random(), rng.random()))
        spans[f"v{i:03d}"] = (a, b)
    edges = [
        (u, v)
        for u, v in itertools.combinations(sorted(spans), 2)
        if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]
    ]
    g = Graph.build(spans, edges)
    res = twinwidth_greedy(g)
    assert sequence_width(g, res.sequence) == res.value


def test_verify_sequence(demo5_graph):
    seq = (
        ContractionStep("a", "b", "ab"),
        ContractionStep("d", "e", "de"),
        ContractionStep("c", "de", "cde"),
        ContractionStep("ab", "cde", "x"),
    )
    assert verify_sequence(demo5_graph, seq, 2)
    assert not verify_sequence(demo5_graph, seq, 1)
    with pytest.raises(SequenceError):
        verify_sequence(demo5_graph, seq[:2], 2)


def test_exact_isomorphism_invariance():
    rng = random.Random(15)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6))
        mapping = dict(zip(sorted(g.vertices), [f"n{i}" for i in range(len(g.vertices))]))
        assert twinwidth_exact(g).value == twinwidth_exact(g.relabel(mapping)).value


def test_twin_addition_monotone():
    rng = random.Random(16)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6))
        base = twinwidth_exact(g).value
        v = rng.choice(sorted(g.vertices))
        twin = "zz"
        edges = set(g.edges) | {tuple(sorted((twin, w))) for w in g.neighbors(v)}
        if rng.random() < 0.5:
            edges.add(tuple(sorted((twin, v))))
        g2 = Graph.build(g.vertices | {twin}, edges)
        assert twinwidth_exact(g2).value <= max(base, 0)


def test_graph_vs_matrix_within_one():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6))
        gv = twinwidth_exact(g).value
        mv = matrix_twinwidth_exact(adjacency_matrix(g), symmetric=True, cap=12).value
        assert abs(gv - mv) <= 1


def test_ordering_search_examples():
    zeros = TriMatrix.build([f"r{i}" for i in range(3)], [f"c{j}" for j in range(3)], [[0] * 3] * 3)
    assert ordering_without_mixed_minor(zeros, 2) == (zeros.row_keys, zeros.col_keys)

    rep = rep_from_intervals([("x", 0, 2), ("y", 1, 3), ("z", 2, 4)], INTERVAL)
    m = build_ilmatrix(rep).matrix
    # the native ordering has no 3-mixed minor here, so it is returned as-is
    assert ordering_without_mixed_minor(m, 3) == (m.row_keys, m.col_keys)
    assert find_mixed_minor(m, 3) is None


def test_ordering_search_none_is_a_proof():
    # every ordering of a 2x2 permutation matrix is one mixed zone
    m = TriMatrix.build(["r0", "r1"], ["c0", "c1"], [[0, 1], [1, 0]])
    assert ordering_without_mixed_minor(m, 1) is None
    # the heuristic orders fail, and enumeration past the cap is refused
    with pytest.raises(CapExceeded, match=r"ordering search cap 1 exceeded \(2x2\)"):
        ordering_without_mixed_minor(m, 1, cap=1)


def test_ordering_search_exhaustive_verdict():
    rng = random.Random(18)
    m = TriMatrix.build(
        [f"r{i}" for i in range(5)],
        [f"c{j}" for j in range(5)],
        [[rng.choice((0, 1)) for _ in range(5)] for _ in range(5)],
    )
    res = ordering_without_mixed_minor(m, 2)
    # None is a proof by the return type; an ordering must be free of the minor
    if res is not None:
        rows, cols = res
        reordered = m.permuted(
            [m.row_keys.index(k) for k in rows], [m.col_keys.index(k) for k in cols]
        )
        assert find_mixed_minor(reordered, 2) is None
