import io
import itertools
import json
import random
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from twinwidth.errors import CapExceeded, DomainError
from twinwidth.graphs import (
    ContractionStep,
    Graph,
    SequenceError,
    _bits,
    _contract_masks,
    edge_rows,
    find_twins,
    first_twin_pair,
    graph_lines,
    graph_from_text,
    graph_to_text,
    inverse_permutation,
    is_isomorphic,
    permutation_from_orders,
    permutation_graph,
    sequence_from_text,
    sequence_to_text,
    sequence_width,
)
from twinwidth import graphs, obstruction
from twinwidth.cli import _emit_json
from twinwidth.perturb import apply_perturbation
from twinwidth.solver import twinwidth_exact, twinwidth_greedy
from twinwidth.trimatrix import adjacency_matrix
from conftest import (
    brute_twinwidth,
    bulk_perturb_input,
    complete_graph,
    oracle_exposer_graph,
    oracle_permutation_graph,
    oracle_rows,
    path_graph,
    reference_contract,
    reference_graph_from_text,
    reference_start,
    seeded_words,
    traced_peak,
)
from test_cli import NAMES


def contract_pair(g, u, v):
    """Black and red neighbour sets after ``_contract_masks`` merges u and v into ``u + v``."""
    order, black = list(g.names), list(g.rows)
    red = [0] * len(order)
    a, b = order.index(u), order.index(v)
    _contract_masks(black, red, a, b)
    names = order[:a] + [u + v] + order[a + 1 :]
    sets = lambda masks: {names[i]: {names[w] for w in _bits(masks[i])} for i in range(len(order)) if i != b}
    return sets(black), sets(red)


def test_contract_demo5_example(demo5_graph):
    black, red = contract_pair(demo5_graph, "a", "b")
    assert black["ab"] == {"c"}
    assert red["ab"] == {"d", "e"}


def test_contract_twins_no_red():
    _, red = contract_pair(complete_graph("abc"), "a", "b")
    assert not any(red.values())


def test_contract_path_endpoints():
    # both endpoints of a path on three vertices see only the middle: no red
    black, red = contract_pair(path_graph("abc"), "a", "c")
    assert black["ac"] == {"b"}
    assert not any(red.values())
    # adjacent pair of the same path: the far endpoint disagrees, so red
    _, red = contract_pair(path_graph("abc"), "a", "b")
    assert red["ab"] == {"c"}
    steps = (ContractionStep("a", "b", "ab"), ContractionStep("ab", "c", "abc"))
    assert sequence_width(path_graph("abc"), steps) == 1


def test_contract_errors():
    g = path_graph("ab")
    with pytest.raises(DomainError):
        sequence_width(g, (ContractionStep("a", "a", "aa"),))
    with pytest.raises(DomainError):
        sequence_width(g, (ContractionStep("a", "zz", "x"),))


def test_sequence_width_demo5(demo5_graph):
    seq = (
        ContractionStep("a", "b", "ab"),
        ContractionStep("d", "e", "de"),
        ContractionStep("c", "de", "cde"),
        ContractionStep("ab", "cde", "x"),
    )
    assert sequence_width(demo5_graph, seq) == 2


def test_sequence_width_twins_only_is_zero():
    g = complete_graph("abcd")
    seq = (
        ContractionStep("a", "b", "ab"),
        ContractionStep("ab", "c", "abc"),
        ContractionStep("abc", "d", "abcd"),
    )
    assert sequence_width(g, seq) == 0


def test_p4_best_sequence_width_is_one():
    g = path_graph("abcd")
    assert brute_twinwidth(g) == 1


def test_sequence_errors(demo5_graph):
    with pytest.raises(SequenceError):
        sequence_width(demo5_graph, (ContractionStep("a", "b", "ab"),))
    bad = (
        ContractionStep("a", "b", "ab"),
        ContractionStep("d", "zz", "x"),
        ContractionStep("c", "x", "y"),
        ContractionStep("ab", "y", "z"),
    )
    with pytest.raises(SequenceError):
        sequence_width(demo5_graph, bad)


def reference_width(g, seq):
    black, red = reference_start(g)
    width = 0
    for s in seq:
        black, red = reference_contract(black, red, s.u, s.v, s.merged)
        width = max(width, *map(len, red.values()))
    return width


def random_sequence(rng, g):
    """A full contraction sequence merging random live pairs."""
    live, steps = sorted(g.vertices), []
    while len(live) > 1:
        u, v = rng.sample(live, 2)
        steps.append(ContractionStep(u, v, f"m{len(steps)}"))
        live = [w for w in live if w not in (u, v)] + [steps[-1].merged]
    return tuple(steps)


def replay_corpus(seed=31, count=210):
    """Seeded graphs with n <= 60, each with its exact (n <= 8) or greedy
    sequence and a random one; in a random sequence the largest red degree
    often sits on a neighbour of the merged vertex, not on the merged vertex."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 8) if k % 3 == 0 else rng.randint(1, 60)
        vs = [f"v{i}" for i in range(n)]
        p = rng.choice((0.1, 0.3, 0.5, 0.8))
        g = Graph.build(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < p])
        yield g, (twinwidth_exact(g) if n <= 8 else twinwidth_greedy(g)).sequence
        yield g, random_sequence(rng, g)


def test_sequence_width_replay_matches_trigraph_reference():
    cases = 0
    for g, seq in replay_corpus():
        assert sequence_width(g, seq) == reference_width(g, seq)
        cases += 1
    assert cases == 2 * 210


def test_sequence_width_replay_raises_like_reference(demo5_graph):
    cases = [
        ("c a b ab", "SequenceError: sequence has 1 steps, a full sequence on 5 vertices needs 4"),
        # a vertex missing at that point is found before u == v
        (
            "c a b ab;c a a aa;c c d x;c x e y",
            "SequenceError: step ContractionStep(u='a', v='a', merged='aa') references a vertex missing at that point",
        ),
        ("c a b ab;c c c cc;c cc d x;c x e y", "DomainError: cannot contract a vertex with itself"),
        # merged id taken by another live vertex
        ("c a b ab;c c d e;c e ab x;c x e y", "DomainError: merged vertex id 'e' already present"),
    ]
    steps = lambda text: sequence_from_text(text.replace(";", "\n"))
    for text, want in cases:
        with pytest.raises(DomainError) as got:
            sequence_width(demo5_graph, steps(text))
        assert f"{type(got.value).__name__}: {got.value}" == want
    # a merged id equal to u is no error
    keep_u = steps("c a b a;c d e e;c c e c;c a c a")
    assert sequence_width(demo5_graph, keep_u) == reference_width(demo5_graph, keep_u) == 2


def test_sequence_width_empty_graph():
    with pytest.raises(DomainError, match="^empty graph has no contraction sequence$") as exc:
        sequence_width(Graph.build([], []), ())
    assert not isinstance(exc.value, SequenceError)


def test_permutation_graph_examples():
    assert sorted(permutation_graph((2, 1)).edges) == [("1", "2")]
    assert not permutation_graph((1, 2, 3)).edges
    assert sorted(permutation_graph((3, 1, 4, 2)).edges) == [("1", "2"), ("1", "4"), ("3", "4")]


@pytest.mark.parametrize("p", range(7))
def test_permutation_graph_matches_pair_oracle_on_every_small_word(p):
    for word in itertools.permutations(range(1, p + 1)):
        g = permutation_graph(word)
        assert (g.names, g.rows) == oracle_rows(*oracle_permutation_graph(word))


def test_permutation_graph_matches_pair_oracle_on_seeded_words():
    for word in seeded_words():
        g = permutation_graph(word)
        assert (g.names, g.rows) == oracle_rows(*oracle_permutation_graph(word))
        # rows follow the sorted names, which leave position order from p = 10 on
        assert (g.names == tuple(str(i) for i in range(1, len(word) + 1))) == (len(word) < 10)


def test_generator_oracles_do_not_call_the_package(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator oracle called the package")

    for module, name in [(graphs, "permutation_graph"), (graphs, "span_graph"), (graphs, "check_permutation"),
                         (graphs, "inverse_permutation"), (obstruction, "generate_exposer")]:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(Graph, "build", refuse)
    assert oracle_permutation_graph((3, 1, 2)) == (["1", "2", "3"], [("1", "2"), ("1", "3")])
    vertices, edges = oracle_exposer_graph((2, 1))
    assert vertices == ["w1", "w2", "u1", "u2", "v1", "v2"]
    assert sorted(edges) == [("u1", "u2"), ("u1", "w1"), ("u1", "w2"), ("u2", "w2"), ("v1", "v2"),
                             ("v1", "w1"), ("v2", "w1"), ("v2", "w2"), ("w1", "w2")]
    assert oracle_rows(vertices, edges) == (("u1", "u2", "v1", "v2", "w1", "w2"), (50, 33, 24, 52, 45, 27))


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 7))))
def test_permutation_graph_inverse_isomorphic(perm):
    word = tuple(perm)
    assert is_isomorphic(permutation_graph(word), permutation_graph(inverse_permutation(word)))


def test_permutation_from_orders():
    assert permutation_from_orders([10, 20, 30], [20, 10, 30]) == (2, 1, 3)
    with pytest.raises(DomainError):
        permutation_from_orders([1, 2], [1, 3])


def test_find_twins_examples():
    assert find_twins(complete_graph("abc")) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert find_twins(path_graph("abcd")) == []
    star = Graph.build("cxyz", [("c", "x"), ("c", "y"), ("c", "z")])
    assert find_twins(star) == [("x", "y"), ("x", "z"), ("y", "z")]


def test_is_isomorphic_examples(demo5_graph):
    assert is_isomorphic(demo5_graph, demo5_graph)
    c4 = Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert not is_isomorphic(c4, path_graph("abcd"))
    assert is_isomorphic(permutation_graph((3, 1, 4, 2)), path_graph("wxyz"))
    with pytest.raises(CapExceeded):
        big = complete_graph("abcdefghijklmn")
        is_isomorphic(big, big)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**15 - 1))
def test_contract_invariants(mask):
    vs = "abcdef"
    pairs = list(itertools.combinations(vs, 2))
    g = Graph.build(vs, [p for i, p in enumerate(pairs) if mask >> i & 1])
    black, red = contract_pair(g, "a", "b")
    assert (black, red) == reference_contract(*reference_start(g), "a", "b", "ab")
    assert len(black) == len(vs) - 1
    assert all(not black[w] & red[w] and w not in red[w] for w in black)
    # twins contract without growing the red edge set
    for u, v in find_twins(g):
        assert not any(contract_pair(g, u, v)[1].values())


def test_sequence_width_relabel_invariant(demo5_graph):
    seq = (
        ContractionStep("a", "b", "ab"),
        ContractionStep("d", "e", "de"),
        ContractionStep("c", "de", "cde"),
        ContractionStep("ab", "cde", "x"),
    )
    mapping = {"a": "p", "b": "q", "c": "r", "d": "s", "e": "t"}
    relabeled = demo5_graph.relabel(mapping)
    seq2 = []
    names = dict(mapping)
    for s in seq:
        merged = names[s.u] + names[s.v]
        seq2.append(ContractionStep(names[s.u], names[s.v], merged))
        names[s.merged] = merged
    assert sequence_width(demo5_graph, seq) == sequence_width(relabeled, tuple(seq2))


def test_graph_text_roundtrip(demo5_graph):
    text = graph_to_text(demo5_graph, name="demo5")
    assert text.splitlines()[0] == "graph demo5 5 6"
    assert graph_from_text(text) == demo5_graph


def test_sequence_text_roundtrip():
    seq = (ContractionStep("a", "b", "ab"), ContractionStep("ab", "c", "abc"))
    assert sequence_from_text(sequence_to_text(seq)) == seq


# NAMES and their two-name concatenations: up to 40 distinct names that sort unlike their ranks
ORACLE_NAMES = list(dict.fromkeys([*NAMES, *(a + b for a, b in itertools.product(NAMES, repeat=2))]))


def plain_edges(pairs) -> set[frozenset]:
    return {frozenset(e) for e in pairs}


def as_pairs(edges: set[frozenset]) -> set[tuple]:
    return {tuple(sorted(e)) for e in edges}


def test_graph_matches_plain_set_oracle():
    """``Graph.build``, its views, its methods, twins, the adjacency matrix and perturbations on G(n, p), against plain sets."""
    rng = random.Random(21)
    for _ in range(40):
        n, p = rng.randint(0, 40), rng.choice((0.1, 0.3, 0.5, 0.9))
        vs = rng.sample(ORACLE_NAMES, n)
        pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in itertools.combinations(vs, 2) if rng.random() < p]
        pairs += rng.sample(pairs, len(pairs) // 4)  # repeated pairs, either way round
        edges = plain_edges(pairs)
        nbrs = {u: {v for v in vs if frozenset((u, v)) in edges} for u in vs}
        g = Graph.build(vs, pairs)
        assert g.names == tuple(sorted(vs)) and g.vertices == set(vs) and g.edges == as_pairs(edges)
        assert g == Graph.build(reversed(vs), as_pairs(edges)) and hash(g) == hash(Graph(g.names, g.rows))
        for u, v in itertools.product(vs, repeat=2):
            assert g.has_edge(u, v) == (frozenset((u, v)) in edges)
        for u in vs:
            assert g.neighbors(u) == nbrs[u] and g.degree(u) == len(nbrs[u])

        keep = set(rng.sample(vs, rng.randint(0, n)))
        sub = g.subgraph(keep)
        assert sub.vertices == keep and sub.edges == as_pairs({e for e in edges if e <= keep})
        mapping = dict(zip(vs, rng.sample(ORACLE_NAMES, n)))
        moved = g.relabel(mapping)
        assert moved.vertices == set(mapping.values())
        assert moved.edges == as_pairs({frozenset(map(mapping.get, e)) for e in edges})
        assert g.complement().edges == as_pairs(plain_edges(itertools.combinations(vs, 2)) - edges)

        twins = [(u, v) for u, v in itertools.combinations(sorted(vs), 2) if nbrs[u] - {v} == nbrs[v] - {u}]
        assert find_twins(g) == twins
        m = adjacency_matrix(g)
        assert m.row_keys == m.col_keys == tuple(sorted(vs))
        assert all(m.entry(u, v) == (frozenset((u, v)) in edges) for u, v in itertools.product(vs, repeat=2))
        script = [rng.sample(vs, rng.randint(0, n)) for _ in range(rng.randint(0, 3))]
        toggled = set(edges)
        for subset in script:
            toggled ^= plain_edges(itertools.combinations(subset, 2))
        assert apply_perturbation(g, script).edges == as_pairs(toggled)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 300])
def test_edge_rows_and_writers_match_pairwise_oracle(n):
    """``edge_rows``, the ``.g`` text, graph JSON and ``Graph.edges`` on seeded G(n, p), against a pairwise oracle.

    The last case is a star whose centre is the last name, so every other
    row has one bit, far above its own.
    """
    rng = random.Random(n)
    vs = [f"v{i}" for i in range(n)]  # names sort unlike their ranks: v10 < v2
    names = sorted(vs)
    cases = [[e for e in itertools.combinations(vs, 2) if rng.random() < p] for p in (0, 0.02, 0.5, 1)]
    cases.append([(v, names[-1]) for v in names[:-1]])
    for pairs in cases:
        g = Graph.build(vs, pairs)
        edges = plain_edges(pairs)
        later = [[j for j in range(i + 1, n) if frozenset((names[i], names[j])) in edges] for i in range(n)]
        assert list(edge_rows(g)) == later
        assert g.edges == as_pairs(edges)
        ordered = sorted(as_pairs(edges))
        text = f"graph g {n} {len(ordered)}\n" + "".join(f"v {v}\n" for v in names) + "".join(f"e {u} {v}\n" for u, v in ordered)
        assert graph_to_text(g) == "".join(graph_lines(g)) == text
        out = io.StringIO()
        with redirect_stdout(out):
            _emit_json({"vertices": list(g.names), "edges": g})
        assert out.getvalue() == json.dumps({"vertices": names, "edges": [list(e) for e in ordered]}, indent=2) + "\n"


def test_first_twin_pair_matches_pairwise_twins():
    """The grouped twin search names ``find_twins``'s first pair, on graphs with planted adjacent or non-adjacent twins and on twin-free ones."""
    rng = random.Random(22)
    kinds = {"adjacent": 0, "non-adjacent": 0, "none": 0}
    for k in range(90):
        n = rng.randint(2, 60)
        vs = rng.sample(ORACLE_NAMES, n)
        pairs = [e for e in itertools.combinations(vs, 2) if rng.random() < rng.choice((0.1, 0.5, 0.9))]
        if k % 3:  # plant: vs[1] copies vs[0]'s neighbours, with or without the edge between them
            copy, of = vs[1], vs[0]
            pairs = [e for e in pairs if copy not in e]
            pairs += [(copy, w) for u, w in pairs if u == of] + [(copy, u) for u, w in pairs if w == of]
            if k % 3 == 1:
                pairs.append((copy, of))
        g = Graph.build(vs, pairs)
        twins = find_twins(g)
        assert first_twin_pair(g) == (twins[0] if twins else None)
        kinds["none" if not twins else "adjacent" if g.has_edge(*twins[0]) else "non-adjacent"] += 1
    assert min(kinds.values()) >= 10, kinds
    for path in (path_graph("abcd"), path_graph("abcdefghij")):
        assert not find_twins(path) and first_twin_pair(path) is None


@pytest.mark.parametrize(
    "names, rows",
    [(("b", "a"), (0, 0)), (("a", "a"), (0, 0)), (("a", "b"), (2,)), (("a", "b"), (1, 0)), (("a", "b"), (4, 0)), (("a",), (-1,))],
    ids=["unsorted", "repeated", "row-count", "self-bit", "bit-past-n", "negative"],
)
def test_graph_rows_shape_checks(names, rows):
    with pytest.raises(DomainError):
        Graph(names, rows)


def test_graph_build_pair_errors():
    with pytest.raises(DomainError, match="loop at vertex 'a'"):
        Graph.build("ab", [("a", "b"), ("a", "a")])
    with pytest.raises(DomainError, match=r"edge \('a', 'c'\) has endpoint outside the vertex set"):
        Graph.build("ab", [("c", "a")])


# ---------------------------------------------------------------------------
# the .g loader against the former list-every-line loader

SEPARATORS = ("\n", "\r\n", "\r", "\x0c", " ", "\x1c", "\x85")


def load_outcome(text: str) -> tuple:
    """``graph_from_text`` in ``reference_graph_from_text``'s terms: ``("graph", names, rows)`` or ``(class name, message)``."""
    try:
        g = graph_from_text(text)
    except DomainError as exc:
        return type(exc).__name__, str(exc)
    return "graph", g.names, g.rows


def join_lines(rng: random.Random, lines: list[str]) -> str:
    """The lines with seeded separators and padding, and blank or whitespace-only lines between them.

    A header keeps the one space after ``graph``, which the format requires.
    """
    out = []
    for ln in lines:
        if rng.random() < 0.1:
            out.append(rng.choice(("", " ", "\t \t")) + rng.choice(SEPARATORS))
        head, body = (ln[:6], ln[6:]) if ln.startswith("graph ") else ("", ln)
        pad = rng.choice(("", "", " ", "\t"))
        out.append(head + body.replace(" ", rng.choice((" ", " ", "  ", "\t"))) + pad + rng.choice(SEPARATORS))
    return "".join(out)


def seeded_graph_lines(rng: random.Random, n: int, p: float) -> tuple[list[str], int]:
    """``v`` and ``e`` lines of a seeded graph, some repeated or reversed, in shuffled order, and its edge count."""
    vs = rng.sample(ORACLE_NAMES, n)
    pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in itertools.combinations(vs, 2) if rng.random() < p]
    body = [f"v {v}" for v in vs] + [f"e {u} {v}" for u, v in pairs]
    body += rng.sample(body, len(body) // 5)  # repeated v and e lines
    body += [f"e {v} {u}" for u, v in rng.sample(pairs, len(pairs) // 5)]  # and e lines the other way round
    rng.shuffle(body)  # v lines after e lines
    return body, len(pairs)


def test_graph_from_text_matches_reference_on_seeded_graphs():
    rng = random.Random(27)
    for _ in range(120):
        n = rng.randint(0, 40)
        body, m = seeded_graph_lines(rng, n, rng.choice((0.05, 0.3, 0.8)))
        text = join_lines(rng, [f"graph g {n} {m}", *body])
        expected = reference_graph_from_text(text)
        assert expected[0] == "graph"
        assert load_outcome(text) == expected


def test_line_blocks_hold_the_lines_of_splitlines():
    """Cuts just after a ``\\n`` keep ``\\r\\n`` whole; other separators at or next to the cut split as before."""
    chunk = graphs._CHUNK
    for sep in SEPARATORS:
        for shift in range(-3, 4):
            text = "x" * (chunk - 1 + shift) + "\r\n" + f"y{sep}" * 5 + "\n" + "z" * chunk + sep + "\r\n" * 3 + "w"
            assert list(itertools.chain.from_iterable(graphs._line_blocks(text))) == text.splitlines()
    assert list(graphs._line_blocks("")) == []


def test_graph_from_text_across_line_blocks():
    """Texts of several blocks with ``\\r\\n`` lines, one of them cut between its ``\\r`` and ``\\n``, read as before."""
    chunk = graphs._CHUNK
    rng = random.Random(2700)
    vs = [f"q{i}" for i in range(700)]
    pairs = [(u, v) for u, v in itertools.combinations(vs, 2) if rng.random() < 0.02]
    body = [f"v {v}" for v in vs] + [f"e {u} {v}" for u, v in pairs]
    cut_in_crlf = 0
    for pad in range(12):
        text = " " * pad + "\r\n" + "\r\n".join([f"graph g {len(vs)} {len(pairs)}", *body]) + "\r\n"
        assert len(text) > 2 * chunk
        cut_in_crlf += text[chunk - 1 : chunk + 1] == "\r\n"
        expected = reference_graph_from_text(text)
        assert expected[0] == "graph"
        assert load_outcome(text) == expected
    assert cut_in_crlf


LOADER_FAULTS = {
    "empty": ("", "FormatError"),
    "blank only": ("\n \t\r\n\x0c", "FormatError"),
    "no header": ("v a\ngraph g 1 0\n", "FormatError"),
    "indented header": (" graph g 1 0\nv a\n", "FormatError"),
    "header fields": ("graph g 1\nv a\n", "FormatError"),
    "header count": ("graph g x 0\nv a\n", "FormatError"),
    "header extra": ("graph g 1 0 0\nv a\n", "FormatError"),
    "bad tag": ("graph g 1 0\nv a\nw a\n", "FormatError"),
    "short v": ("graph g 1 0\nv a\nv\n", "FormatError"),
    "long v": ("graph g 1 0\nv a b\n", "FormatError"),
    "short e": ("graph g 1 0\nv a\ne a\n", "FormatError"),
    "long e": ("graph g 2 1\nv a\nv b\ne a b c\n", "FormatError"),
    "loop": ("graph g 1 1\nv a\ne a a\n", "DomainError"),
    "loop, undeclared": ("graph g 1 1\nv a\ne z z\n", "DomainError"),
    "undeclared end": ("graph g 1 1\nv a\ne z a\n", "DomainError"),
    "vertex count": ("graph g 2 0\nv a\n", "FormatError"),
    "edge count": ("graph g 2 2\nv a\nv b\ne a b\ne b a\n", "FormatError"),
    # several faults: format errors in line order, then edge errors in edge order, then counts
    "header, then bad line": ("graph g 1\nv a\nbad\n", "FormatError"),
    "edge error, then bad line": ("graph g 2 1\nv a\ne a z\nv\n", "FormatError"),
    "loop, then bad line": ("graph g 1 1\ne a a\nv a\nx y z w\n", "FormatError"),
    "two bad lines": ("graph g 1 0\nv a\nv\ne\n", "FormatError"),
    "undeclared, then loop": ("graph g 2 2\nv a\ne a z\ne a a\n", "DomainError"),
    "loop, then undeclared": ("graph g 2 2\nv a\ne a a\ne a z\n", "DomainError"),
    "loop declared later": ("graph g 1 1\ne b b\nv b\n", "DomainError"),
    "undeclared, then counts": ("graph g 9 9\nv a\ne z a\n", "DomainError"),
    "bad line, then counts": ("graph g 9 9\nv a\nv\n", "FormatError"),
}


@pytest.mark.parametrize("case", LOADER_FAULTS)
def test_graph_from_text_faults_match_reference(case):
    text, kind = LOADER_FAULTS[case]
    expected = reference_graph_from_text(text)
    assert expected[0] == kind
    assert load_outcome(text) == expected


def test_graph_from_text_fault_messages():
    messages = {case: reference_graph_from_text(text)[1] for case, (text, _) in LOADER_FAULTS.items()}
    assert messages["empty"] == messages["no header"] == "graph file must start with a 'graph <name> <n> <m>' header"
    assert messages["header count"] == "bad graph header: 'graph g x 0'"
    assert messages["edge error, then bad line"] == "bad graph line: 'v'"
    assert messages["loop, then bad line"] == "bad graph line: 'x y z w'"
    assert messages["loop, undeclared"] == messages["loop, then undeclared"].replace("'a'", "'z'") == "loop at vertex 'z'"
    assert messages["undeclared end"] == messages["undeclared, then loop"] == "edge ('a', 'z') has endpoint outside the vertex set"
    assert messages["vertex count"] == messages["edge count"] == "graph header counts do not match the body"


def test_graph_from_text_fault_mixes_match_reference():
    """Seeded texts of well-formed, malformed, loop and undeclared-endpoint lines in random order."""
    rng = random.Random(2701)
    names = ORACLE_NAMES[:8]
    seen: dict[str, int] = {}
    for _ in range(1500):
        declared = rng.sample(names[:6], rng.randint(1, 6))  # names[6:] are never declared
        lines = [f"v {v}" for v in declared]
        edges = set()
        for _ in range(rng.randint(0, 8)):
            u, v = rng.sample(declared, 2) if len(declared) > 1 and rng.random() < 0.85 else rng.choices(names, k=2)
            lines.append(f"e {u} {v}")
            edges.add(frozenset((u, v)))
        for _ in range(rng.choices((0, 1, 2), (6, 3, 1))[0]):
            lines.insert(rng.randint(0, len(lines)), rng.choice(("v", "e a", "v a b", "x a", "e a b c", "graph g 1 1")))
        rng.shuffle(lines)
        n, m = (len(declared), len(edges)) if rng.random() < 0.8 else (rng.randint(0, 7), rng.randint(0, 8))
        header = rng.choices((f"graph g {n} {m}", "graph g 1", f"graph g {n} m", f"grap g {n} {m}"), (20, 1, 1, 1))[0]
        text = join_lines(rng, [header, *lines])
        expected = reference_graph_from_text(text)
        assert load_outcome(text) == expected, text
        starts = ("graph file", "bad graph header", "bad graph line", "loop", "edge", "graph header counts")
        kind = expected[0] if expected[0] == "graph" else next(k for k in starts if expected[1].startswith(k))
        seen[kind] = seen.get(kind, 0) + 1
    # every outcome occurs: a graph, each header error, a bad line, a loop, an undeclared endpoint, the counts
    assert len(seen) == 7 and min(seen.values()) >= 20, seen


def test_reference_loader_does_not_call_the_package(monkeypatch):
    texts = [LOADER_FAULTS[case][0] for case in ("loop, undeclared", "edge error, then bad line", "edge count")]
    texts.append("graph g 3 2\nv b\ne a b\nv a\ne c b\nv c\n")
    expected = [reference_graph_from_text(text) for text in texts]

    def refuse(*args, **kwargs):
        raise AssertionError("the reference loader called the package")

    for name in ("graph_from_text", "_line_blocks", "_rows_from_ends"):
        monkeypatch.setattr(graphs, name, refuse)
    monkeypatch.setattr(Graph, "build", refuse)
    monkeypatch.setattr(Graph, "__post_init__", refuse)
    assert [reference_graph_from_text(text) for text in texts] == expected
    assert expected[-1] == ("graph", ("a", "b", "c"), (2, 5, 2))


def test_graph_from_text_memory_is_bounded():
    """The G(800, .05) text loads within 1.5 MiB; the former list-every-line loader took 3.9 MiB."""
    text, _ = bulk_perturb_input()
    assert load_outcome(text) == reference_graph_from_text(text)
    assert traced_peak(lambda: graph_from_text(text)) <= 1.5 * 2**20
