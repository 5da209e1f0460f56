import itertools
import random

import pytest

from twinwidth import obstruction
from twinwidth.errors import DomainError, ExtractionError
from twinwidth.graphs import Graph, find_twins, is_isomorphic, permutation_graph
from twinwidth.ilrep import (
    INTERVAL,
    OVERLAP,
    IntervalLikeRep,
    build_ilmatrix,
    condense,
    decode,
    intervals_from_text,
    rep_from_intervals,
    unify,
)
from twinwidth.obstruction import (
    MateResolutionError,
    PermSubmatrixWitness,
    check_exposes,
    circle_permutation_witness,
    extract_perm_submatrix,
    generate_exposer,
    interval_exposure_witness,
    planted_mixed_minor_rep,
    reversal,
)
from twinwidth.trimatrix import find_mixed_minor, permutation_matrix, verify_division_mixed
from conftest import interval_vertex_map, oracle_exposer_graph, oracle_rows, seeded_intervals_text, seeded_words


def all_perms(p):
    return [tuple(w) for w in itertools.permutations(range(1, p + 1))]


def test_planted_instances_are_sound():
    for p in (1, 2):
        inst = planted_mixed_minor_rep(p, INTERVAL)
        ilm = build_ilmatrix(inst.rep)
        assert verify_division_mixed(ilm.matrix, inst.minor)
        found = find_mixed_minor(ilm.matrix, inst.order)
        assert found is not None


def test_planted_interval_instance_is_condensed_and_twin_free():
    from twinwidth.graphs import find_twins

    inst = planted_mixed_minor_rep(1, INTERVAL)
    assert not find_twins(decode(inst.rep))
    condensed = condense(inst.rep)
    assert condensed == inst.rep


def test_extract_perm_submatrix_p1():
    inst = planted_mixed_minor_rep(1, OVERLAP)
    ilm = build_ilmatrix(inst.rep)
    w = extract_perm_submatrix(ilm, (1,), minor=inst.minor)
    assert w.perm == (1,)
    assert ilm.matrix.entry(w.row_keys[0], w.col_keys[0]) == 1


def test_extract_perm_submatrix_antidiagonal():
    inst = planted_mixed_minor_rep(2, OVERLAP)
    ilm = build_ilmatrix(inst.rep)
    w = extract_perm_submatrix(ilm, (2, 1), minor=inst.minor)
    target = permutation_matrix((2, 1))
    for i, rk in enumerate(w.row_keys):
        for j, ck in enumerate(w.col_keys):
            assert ilm.matrix.entry(rk, ck) == target.rows[i][j]
    firsts = [ilm.row_pairs[rk][0] for rk in w.row_keys]
    assert len(set(firsts)) == len(firsts)


def test_extract_perm_submatrix_all_small_perms():
    for p in (1, 2):
        inst = planted_mixed_minor_rep(p, OVERLAP)
        ilm = build_ilmatrix(inst.rep)
        for word in all_perms(p):
            w = extract_perm_submatrix(ilm, word, minor=inst.minor)
            assert w.perm == word


def test_extract_requires_minor():
    rep = rep_from_intervals([("x", 0, 1)], OVERLAP)
    with pytest.raises(DomainError):
        extract_perm_submatrix(build_ilmatrix(rep), (1,))


def test_circle_witness_examples():
    inst = planted_mixed_minor_rep(1, OVERLAP)
    w = circle_permutation_witness(inst.rep, (1,), minor=inst.minor)
    assert len(w.vertices) == 1

    inst2 = planted_mixed_minor_rep(2, OVERLAP)
    g2 = decode(inst2.rep)
    for word, expected_edges in (((2, 1), 1), ((1, 2), 0)):
        w = circle_permutation_witness(inst2.rep, word, minor=inst2.minor)
        induced = g2.subgraph(w.vertices)
        assert len(induced.edges) == expected_edges
        assert is_isomorphic(induced, permutation_graph(word))


def test_circle_witness_kind_check(demo6_rep):
    with pytest.raises(DomainError):
        circle_permutation_witness(demo6_rep, (1,))


def test_circle_witness_above_the_old_isomorphism_cap():
    inst = planted_mixed_minor_rep(13, OVERLAP)
    g = decode(inst.rep)
    word = tuple(random.Random(13).sample(range(1, 14), 13))
    w = circle_permutation_witness(inst.rep, word, minor=inst.minor)
    assert len(w.vertices) == 13
    position = {v: str(i) for i, v in enumerate(w.vertices, start=1)}
    assert g.subgraph(w.vertices).relabel(position) == permutation_graph(word)


def test_circle_witness_rejects_rows_out_of_map_order(monkeypatch):
    # Reversed rows still induce a graph isomorphic to the target, but
    # vertices[i] no longer plays position i + 1.
    inst = planted_mixed_minor_rep(3, OVERLAP)
    g, word = decode(inst.rep), (2, 3, 1)
    real = obstruction.extract_perm_submatrix

    def reversed_rows(*args, **kwargs):
        sub = real(*args, **kwargs)
        return PermSubmatrixWitness(sub.row_keys[::-1], sub.col_keys, sub.perm)

    monkeypatch.setattr(obstruction, "extract_perm_submatrix", reversed_rows)
    rows = reversed_rows(build_ilmatrix(inst.rep), reversal(word), inst.minor).row_keys
    assert is_isomorphic(g.subgraph(rows), permutation_graph(word))
    with pytest.raises(ExtractionError, match="not the requested permutation graph"):
        circle_permutation_witness(inst.rep, word, minor=inst.minor)


def test_exposure_witness_p1():
    inst = planted_mixed_minor_rep(1, INTERVAL)
    w = interval_exposure_witness(inst.rep, (1,), minor=inst.minor)
    assert len(w.core) == 1 and len(w.side1) == 1 and len(w.side2) == 1
    assert check_exposes(w.graph, w.core, w.side1, w.side2, (1,))


def test_exposure_witness_all_small_perms():
    for p in (1, 2):
        inst = planted_mixed_minor_rep(p, INTERVAL)
        g = decode(inst.rep)
        for word in all_perms(p):
            w = interval_exposure_witness(inst.rep, word, minor=inst.minor)
            assert w.perm == word
            assert w.graph.vertices <= g.vertices


def test_exposure_witness_rejects_twins():
    """The message names ``find_twins``'s first pair: on two nested intervals, and on the seeded 1 000-interval model (141 twin pairs)."""
    small = IntervalLikeRep(("a", "b", "c"), frozenset({("a", "b"), ("a", "c")}), INTERVAL)
    large = rep_from_intervals(intervals_from_text(seeded_intervals_text()), INTERVAL)
    for rep in (small, large):
        first = find_twins(decode(rep))[0]
        with pytest.raises(DomainError) as err:
            interval_exposure_witness(rep, (1,))
        assert str(err.value) == f"graph has twins, e.g. {first}; exposure extraction needs a twin-free graph"


def test_exposure_witness_mate_resolution_failure():
    # a non-condensed representation: extracted vertices miss their mates
    inst = planted_mixed_minor_rep(1, INTERVAL)
    ends = inst.rep.ends + ("zz",)
    pairs = set(inst.rep.pairs)
    pairs.add((ends[-2], "zz"))  # hang a pair so 'zz' exists but nothing ends at the old last end
    rep = IntervalLikeRep(ends, frozenset(pairs), INTERVAL)
    g = decode(rep)
    from twinwidth.graphs import find_twins

    if not find_twins(g):
        ilm = build_ilmatrix(rep)
        minor = find_mixed_minor(ilm.matrix, 3)
        if minor is not None:
            try:
                interval_exposure_witness(rep, (1,), minor=minor)
            except (MateResolutionError, ExtractionError):
                pass


def test_check_exposes_examples():
    inst = generate_exposer((2, 1))
    assert check_exposes(inst.graph, inst.core, inst.side1, inst.side2, (2, 1))
    assert not check_exposes(inst.graph, inst.core, inst.side1, inst.side2, (1, 2))

    # deleting a mate edge breaks a chain
    mate_edge = tuple(sorted((inst.core[0], inst.side1[0])))
    g2 = Graph.build(inst.graph.vertices, inst.graph.edges - {mate_edge})
    assert not check_exposes(g2, inst.core, inst.side1, inst.side2, (2, 1))

    with pytest.raises(DomainError):
        check_exposes(inst.graph, inst.core, inst.side1, ("w1",), (2, 1))


def test_generate_exposer_all_p_le_4():
    # the core order fixes chain 1 and the side-2 neighbourhoods fix chain 2,
    # so the exposer's own partition exposes exactly its word
    for p in (1, 2, 3, 4):
        for word in all_perms(p):
            inst = generate_exposer(word)
            assert len(inst.graph.vertices) == 3 * p
            exposed = [w for w in all_perms(p) if check_exposes(inst.graph, inst.core, inst.side1, inst.side2, w)]
            assert exposed == [word]


@pytest.mark.parametrize("p", range(7))
def test_generate_exposer_matches_pair_oracle_on_every_small_word(p):
    for word in itertools.permutations(range(1, p + 1)):
        g = generate_exposer(word).graph
        assert (g.names, g.rows) == oracle_rows(*oracle_exposer_graph(word))


def test_generate_exposer_matches_pair_oracle_on_seeded_words():
    for word in seeded_words():
        g = generate_exposer(word).graph
        assert (g.names, g.rows) == oracle_rows(*oracle_exposer_graph(word))


def test_generate_exposer_p1_shape():
    inst = generate_exposer((1,))
    w, u, v = inst.core[0], inst.side1[0], inst.side2[0]
    assert inst.graph.has_edge(w, u) and inst.graph.has_edge(w, v)
    assert not inst.graph.has_edge(u, v)


def test_generate_exposer_decodes_from_own_model():
    for word in all_perms(2) + all_perms(3):
        inst = generate_exposer(word)
        rep = rep_from_intervals(inst.intervals, INTERVAL)
        mapping = interval_vertex_map(inst.intervals)
        assert inst.graph.relabel(mapping) == decode(rep)


def test_reversal():
    assert reversal((1, 2, 3)) == (3, 2, 1)
    assert reversal((2, 1)) == (1, 2)
