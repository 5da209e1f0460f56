import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from twinwidth import ilrep
from twinwidth.errors import DomainError, FormatError
from twinwidth.graphs import is_isomorphic, permutation_graph
from twinwidth.ilrep import (
    INTERVAL,
    KINDS,
    OVERLAP,
    ChordDiagram,
    IntervalLikeRep,
    build_ilmatrix,
    chords_from_text,
    chords_to_text,
    condense,
    decode,
    decode_from_matrix,
    intervals_from_text,
    intervals_to_text,
    pair_name,
    rep_from_chords,
    rep_from_intervals,
    rep_to_intervals,
    unify,
    validate_ilmatrix,
)
from twinwidth.trimatrix import RED, TriMatrix, matrix_to_text
from conftest import (
    DEMO6_INTERVALS,
    interval_vertex_map,
    oracle_chord_crossings,
    oracle_interval_graph,
    reference_condense,
    reference_ilmatrix_rows,
    seeded_intervals_text,
    seeded_words,
)


def random_intervals(rng, n, span=8):
    out, seen = [], set()
    while len(out) < n:
        l = rng.randint(0, span)
        r = rng.randint(l, span)
        if (l, r) not in seen:
            seen.add((l, r))
            out.append((f"i{len(out)}", l, r))
    return out


def random_diagram(rng, n):
    labels = [f"x{i}" for i in range(n)] * 2
    rng.shuffle(labels)
    return ChordDiagram(tuple(labels))


def test_rep_from_intervals_demo6(demo6_rep):
    assert demo6_rep.ends == ("a", "b", "c", "d", "e")
    assert sorted(demo6_rep.pairs) == [
        ("a", "c"), ("b", "c"), ("b", "e"), ("c", "d"), ("d", "d"), ("d", "e"),
    ]


def test_rep_from_intervals_degenerate():
    rep = rep_from_intervals([("v", 0, 0)], INTERVAL)
    assert len(rep.ends) == 1 and rep.pairs == frozenset({("a", "a")})
    g = decode(rep)
    assert len(g.vertices) == 1 and not g.edges


def test_rep_from_intervals_disjoint_pair():
    rep = rep_from_intervals([("x", 0, 1), ("y", 5, 6)], INTERVAL)
    assert not decode(rep).edges


def test_rep_from_intervals_rejections():
    with pytest.raises(DomainError):
        rep_from_intervals([("x", 0, 1), ("y", 0, 1)], INTERVAL)
    with pytest.raises(DomainError):
        rep_from_intervals([("x", 2, 1)], INTERVAL)


def test_rep_from_chords_demo7():
    diagram = ChordDiagram(tuple("a b c a d e c f d b g e f g".split()))
    rep = rep_from_chords(diagram)
    assert rep.kind == OVERLAP
    assert ("a1", "a2") in rep.pairs and ("g1", "g2") in rep.pairs
    g = decode(rep)
    # nesting spot checks: b contains d (no edge), b crosses e (edge)
    assert not g.has_edge("(b1,b2)", "(d1,d2)")
    assert g.has_edge("(b1,b2)", "(e1,e2)")
    crossing = oracle_chord_crossings(diagram.sequence)
    for x, y in itertools.combinations(sorted(diagram.chords()), 2):
        names = tuple(sorted((f"({x}1,{x}2)", f"({y}1,{y}2)")))
        assert g.has_edge(*names) == (frozenset((x, y)) in crossing)


def test_single_chord_and_small_diagrams():
    assert len(decode(rep_from_chords(ChordDiagram(("k", "k")))).vertices) == 1
    crossing = decode(rep_from_chords(ChordDiagram(("x", "y", "x", "y"))))
    assert len(crossing.edges) == 1
    nested = decode(rep_from_chords(ChordDiagram(("x", "y", "y", "x"))))
    assert not nested.edges


def test_decode_demo6_both_kinds(demo6_rep, demo6_rep_overlap):
    gi = decode(demo6_rep)
    go = decode(demo6_rep_overlap)
    assert len(gi.edges) == 11 and len(go.edges) == 9
    assert gi.has_edge("(b,e)", "(d,d)")
    assert not go.has_edge("(b,e)", "(d,d)")
    assert not go.has_edge("(b,e)", "(c,d)")
    assert go.has_edge("(b,e)", "(d,e)")
    assert oracle_interval_graph(DEMO6_INTERVALS, INTERVAL) == {
        frozenset((u, v)) for u, v in relabel_to_inputs(gi).edges
    }
    assert oracle_interval_graph(DEMO6_INTERVALS, OVERLAP) == {
        frozenset((u, v)) for u, v in relabel_to_inputs(go).edges
    }


def relabel_to_inputs(g):
    mapping = {v: k for k, v in interval_vertex_map(DEMO6_INTERVALS).items()}
    return g.relabel(mapping)


def test_build_ilmatrix_demo6_rows(demo6_rep):
    ilm = build_ilmatrix(demo6_rep)
    text = matrix_to_text(ilm.matrix)
    assert text == (
        "matrix 10 5\n"
        "(a,a) (a,c) (b,b) (b,c) (b,e) (c,c) (c,d) (d,d) (d,e) (e,e)\n"
        "a b c d e\n"
        "00000\n00100\n20000\n20100\n20001\n22000\n22010\n22210\n22201\n22220\n"
    )


def test_build_ilmatrix_degenerate_cases():
    k1 = rep_from_intervals([("v", 0, 0)], INTERVAL)
    m = build_ilmatrix(k1).matrix
    assert m.rows == (b"\x01",)

    dummy_only = IntervalLikeRep(("s", "t"), frozenset(), INTERVAL)
    m2 = build_ilmatrix(dummy_only).matrix
    assert m2.rows == (b"\x00\x00", b"\x02\x00")
    assert decode_from_matrix(m2, INTERVAL).vertices == frozenset()


def test_ilmatrix_invariants_random():
    rng = random.Random(7)
    for _ in range(60):
        kind = rng.choice((INTERVAL, OVERLAP))
        rep = rep_from_intervals(random_intervals(rng, rng.randint(1, 7)), kind)
        ilm = build_ilmatrix(rep)
        validate_ilmatrix(ilm.matrix)
        firsts = [ilm.row_pairs[k][0] for k in ilm.matrix.row_keys]
        for key, row in zip(ilm.matrix.row_keys, ilm.matrix.rows):
            ones = row.count(1)
            assert ones == (1 if ilm.row_pairs[key] in rep.pairs else 0)
        # rows sharing the first end are consecutive
        seen = {}
        for pos, f in enumerate(firsts):
            if f in seen:
                assert firsts[pos - 1] == f
            seen[f] = pos


def test_decode_from_matrix_round_trip_random():
    rng = random.Random(8)
    for _ in range(80):
        kind = rng.choice((INTERVAL, OVERLAP))
        rep = rep_from_intervals(random_intervals(rng, rng.randint(1, 7)), kind)
        assert decode_from_matrix(build_ilmatrix(rep), kind) == decode(rep)


@pytest.mark.parametrize("kind", KINDS)
def test_decode_from_matrix_round_trip_at_scale(intervals1000, kind):
    # 2 304 rows of 1 309 cells, every one read back through validate_ilmatrix
    rep = rep_from_intervals(intervals_from_text(intervals1000.read_text()), kind)
    assert decode_from_matrix(build_ilmatrix(rep), kind) == decode(rep)


def test_decode_from_matrix_rejects_malformed():
    bad = TriMatrix.build(["r1", "r2"], ["c1", "c2"], [[2, 2], [0, 0]])
    with pytest.raises(DomainError):
        decode_from_matrix(bad, INTERVAL)
    bad2 = TriMatrix.build(["r1", "r2"], ["c1", "c2"], [[0, 2], [0, 0]])
    with pytest.raises(DomainError):
        decode_from_matrix(bad2, INTERVAL)


def test_decode_from_matrix_rejection_messages():
    cases = [
        ([[0, RED], [2, 0]], "representation matrices contain no red entries"),
        ([[0, 0], [0, 2]], "row 'r2': entries 2 must form a prefix"),
        ([[1, 1], [2, 0]], "row 'r1': more than one entry 1"),
        ([[0, 0], [2, 2]], "row 'r2': all entries 2"),
    ]
    for rows, message in cases:
        with pytest.raises(DomainError, match=f"^{message}$"):
            decode_from_matrix(TriMatrix.build(["r1", "r2"], ["c1", "c2"], rows), INTERVAL)


def sweep_corpus(seed=20, count=320, most=60):
    """Seeded interval models, all with integer ends on a short span.

    The short span forces shared ends, point intervals (t, t), equal left
    ends and nested intervals; each model also gets one point interval on
    the end of another interval, so its pair row coincides with a dummy row.
    """
    rng = random.Random(seed)
    models = []
    for _ in range(count):
        n = rng.randint(1, most - 1)
        # at least n distinct (l, r) with 0 <= l <= r <= span
        span = rng.randint(math.isqrt(2 * n) + 1, n + 2)
        out, seen = [], set()
        while len(out) < n:
            l = rng.randint(0, span)
            r = l if rng.random() < 0.2 else rng.randint(l, span)
            if (l, r) not in seen:
                seen.add((l, r))
                out.append((f"i{len(out)}", l, r))
        l, r = out[0][1:]
        if (r, r) not in seen:
            out.append((f"i{len(out)}", r, r))
        models.append(out)
    return models


def test_sweep_corpus_has_every_shape():
    shapes = {"shared end": 0, "point": 0, "equal left": 0, "nested": 0}
    for model in sweep_corpus():
        spans = [(l, r) for _, l, r in model]
        ends = [e for span in spans for e in span]
        shapes["shared end"] += len(set(ends)) < len(ends)
        shapes["point"] += any(l == r for l, r in spans)
        shapes["equal left"] += len({l for l, _ in spans}) < len(spans)
        shapes["nested"] += any(a < c and d < b for a, b in spans for c, d in spans)
    assert min(shapes.values()) >= 100, shapes


def test_sweep_decode_matches_oracle():
    for model in sweep_corpus():
        names = interval_vertex_map(model)
        for kind in KINDS:
            expected = oracle_interval_graph(model, kind)
            rep = rep_from_intervals(model, kind)
            for g in (decode(rep), decode_from_matrix(build_ilmatrix(rep), kind)):
                assert g.vertices == set(names.values())
                assert {frozenset((u, v)) for u, v in g.edges} == {
                    frozenset(names[x] for x in e) for e in expected
                }


def test_sweep_decode_matches_chord_oracle():
    rng = random.Random(21)
    for _ in range(100):
        diagram = random_diagram(rng, rng.randint(1, 30))
        rep = rep_from_chords(diagram)
        expected = {
            frozenset(f"({x}1,{x}2)" for x in e) for e in oracle_chord_crossings(diagram.sequence)
        }
        for g in (decode(rep), decode_from_matrix(build_ilmatrix(rep), OVERLAP)):
            assert {frozenset(e) for e in g.edges} == expected


def test_slab_rows_match_cell_by_cell_reference():
    corpus = sweep_corpus()
    coinciding = 0
    for model in corpus:
        rep = rep_from_intervals(model, INTERVAL)
        m = build_ilmatrix(rep).matrix
        assert (m.row_keys, m.rows) == reference_ilmatrix_rows(rep)
        coinciding += any(a == b for a, b in rep.pairs)
    assert coinciding == len(corpus)
    # the point pair (a, a) is its own dummy row: a 1 where the dummy has a 0
    k1 = rep_from_intervals([("v", 0, 0), ("w", 0, 1)], INTERVAL)
    assert build_ilmatrix(k1).matrix.rows == (b"\x01\x00", b"\x00\x01", b"\x02\x00") == reference_ilmatrix_rows(k1)[1]


def test_unify_examples(demo6_rep):
    rep = IntervalLikeRep(("a", "b", "c"), frozenset({("a", "c"), ("b", "c")}), INTERVAL)
    merged, legal = unify(rep, "a", "b")
    assert not legal and merged.pairs == frozenset({("a", "c")})

    untouched = IntervalLikeRep(("a", "b", "c"), frozenset({("a", "a")}), INTERVAL)
    merged, legal = unify(untouched, "b", "c")
    assert legal
    assert decode(merged) == decode(untouched)

    _, legal = unify(demo6_rep, "a", "b")
    assert not legal

    with pytest.raises(DomainError):
        unify(demo6_rep, "a", "c")


def test_unify_catches_degenerate_point_collision():
    rep = IntervalLikeRep(("a", "b"), frozenset({("a", "a"), ("b", "b")}), INTERVAL)
    merged, legal = unify(rep, "a", "b")
    assert not legal and len(merged.pairs) == 1


def test_condense_fixed_point_and_unused_ends():
    rep = IntervalLikeRep(("a", "b", "c"), frozenset({("a", "c")}), INTERVAL)
    once = condense(rep)
    assert condense(once) == once
    assert len(once.ends) == 1

    # every consecutive unification of the result is illegal or changes the graph
    for i in range(len(once.ends) - 1):
        merged, legal = unify(once, once.ends[i], once.ends[i + 1])
        assert not (legal and is_isomorphic(decode(once), decode(merged)))


def test_condense_p3_minimal():
    rep = rep_from_intervals([("x", 0, 10), ("y", 9, 20), ("z", 19, 30)], INTERVAL)
    out = condense(rep)
    p3 = decode(out)
    assert sorted(len(p3.neighbors(v)) for v in p3.vertices) == [1, 1, 2]
    # one end cannot carry three distinct pairs, so 2 ends is minimal
    assert len(out.ends) == 2


def test_condense_output_admits_no_legal_preserving_unification():
    rng = random.Random(9)
    for _ in range(25):
        kind = rng.choice((INTERVAL, OVERLAP))
        rep = rep_from_intervals(random_intervals(rng, rng.randint(1, 5)), kind)
        out = condense(rep)
        assert is_isomorphic(decode(out), decode(rep))
        for i in range(len(out.ends) - 1):
            merged, legal = unify(out, out.ends[i], out.ends[i + 1])
            if legal:
                assert not is_isomorphic(decode(out), decode(merged))


def test_condense_matches_reference():
    """Seeded interval, overlap and chord representations, the interval ones
    mostly with shared ends, condense exactly as the whole-graph comparison does."""
    rng = random.Random(23)
    merges = 0
    for k in range(240):
        n = rng.randint(1, 16)
        if k % 3 == 2:
            rep = rep_from_chords(random_diagram(rng, n))
        else:
            rep = rep_from_intervals(random_intervals(rng, n, span=rng.choice((n // 2 + 4, n, 2 * n))), (INTERVAL, OVERLAP)[k % 3])
        out = condense(rep)
        assert out == reference_condense(rep)
        merges += len(rep.ends) - len(out.ends)
    assert merges > 500


@pytest.mark.parametrize("kind", KINDS)
def test_condense_decodes_once(monkeypatch, kind):
    # every merge keeps the edge set, so the input's graph answers every adjacency test
    rep = rep_from_intervals(intervals_from_text(seeded_intervals_text(200, seed=3)), kind)
    calls = []
    monkeypatch.setattr(ilrep, "decode", lambda r: calls.append(r) or decode(r))
    out = condense(rep)
    assert len(calls) == 1
    assert len(out.ends) < len(rep.ends)


def test_condense_has_no_vertex_cap():
    from twinwidth.obstruction import planted_mixed_minor_rep

    inst = planted_mixed_minor_rep(1, INTERVAL)  # 13-vertex decoding, already condensed
    assert len(inst.rep.pairs) == 13
    assert condense(inst.rep) == inst.rep


def test_legal_unification_never_removes_an_edge():
    # why condense compares edge sets: a legal merge can only add edges, so it
    # keeps the graph exactly when the natural pair map keeps the edge set
    rng = random.Random(31)
    reps = []
    for _ in range(40):
        reps.append(rep_from_intervals(random_intervals(rng, rng.randint(1, 9)), INTERVAL))
        reps.append(rep_from_intervals(random_intervals(rng, rng.randint(1, 9)), OVERLAP))
        reps.append(rep_from_chords(random_diagram(rng, rng.randint(1, 7))))
    legal_merges = 0
    for rep in reps:
        before = decode(rep)
        for s1, s2 in zip(rep.ends, rep.ends[1:]):
            merged, legal = unify(rep, s1, s2)
            if not legal:
                continue
            legal_merges += 1
            rho = lambda e: s1 if e == s2 else e
            name = {pair_name(p): pair_name((rho(p[0]), rho(p[1]))) for p in rep.pairs}
            after = decode(merged)
            assert all(after.has_edge(name[u], name[v]) for u, v in before.edges)
    assert legal_merges > 100


def test_interval_text_roundtrip():
    intervals = [("x", Fraction(1, 2), Fraction(3, 2)), ("y", 0, 2)]
    assert intervals_from_text(intervals_to_text(intervals)) == [
        ("x", Fraction(1, 2), Fraction(3, 2)),
        ("y", Fraction(0), Fraction(2)),
    ]
    diagram = ChordDiagram(("a", "b", "a", "b"))
    assert chords_from_text(chords_to_text(diagram)) == diagram


def test_rep_to_intervals_roundtrip(demo6_rep):
    out = rep_to_intervals(demo6_rep)
    rebuilt = rep_from_intervals(out, INTERVAL)
    assert rebuilt.pairs == demo6_rep.pairs and rebuilt.ends == demo6_rep.ends


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789+-/._e٣²", min_size=1, max_size=8))
@example("007")
@example("٣")
@example("²")
@example("1_0")
@example("-2")
@example("1e3")
@example("6/4")
@example("1/0")
@example("1e4300")
@example("1E-4300")
@example("1e4301")
@example("1e-4_301")
@example("2e٤٣٠١")
def test_endpoint_tokens_read_like_fraction(token):
    """An endpoint equals ``Fraction(token)`` and hashes alike; the parse fails exactly where ``Fraction`` does.

    The one exception: a token whose exponent exceeds 4 300 in absolute value fails.
    """
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)$", token)
    if exponent and abs(int(exponent[1])) > 4300:
        with pytest.raises(FormatError):
            intervals_from_text(f"i x {token} {token}\n")
        return
    try:
        want = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FormatError):
            intervals_from_text(f"i x {token} {token}\n")
        return
    [(_, left, right)] = intervals_from_text(f"i x {token} {token}\n")
    assert left == right == want and hash(left) == hash(want)
    assert type(left) is (int if token.isascii() and token.isdigit() else Fraction)


def test_permutation_graph_is_the_overlap_graph_of_its_two_line_model():
    words = [w for p in range(7) for w in itertools.permutations(range(1, p + 1))] + seeded_words()
    for word in words:
        p = len(word)
        rep = rep_from_intervals([(str(i + 1), i, 2 * p - x) for i, x in enumerate(word)], OVERLAP)
        assert len(rep.ends) == 2 * p  # the ends are the values 0..2p-1, so end k has value k
        position = {pair_name((rep.ends[i], rep.ends[2 * p - x])): str(i + 1) for i, x in enumerate(word)}
        assert decode(rep).relabel(position) == permutation_graph(word)


@pytest.mark.parametrize("text", ["i a 2 3\ni b 4/2 3\n", "i a 4/2 3\ni b 2 3\n", "i a 2 3\ni b 2.0 3\n"])
def test_integer_and_fraction_endpoints_are_one_value(text):
    with pytest.raises(DomainError) as err:
        rep_from_intervals(intervals_from_text(text), INTERVAL)
    assert str(err.value) == "duplicate interval 'b': (2, 3) appears twice"
