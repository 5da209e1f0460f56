import hashlib
import itertools
import json
import math
import random

import pytest

from twinwidth.errors import DomainError, FormatError
from twinwidth.graphs import Graph
from twinwidth import trimatrix
from twinwidth.ilrep import (
    INTERVAL,
    OVERLAP,
    ChordDiagram,
    build_ilmatrix,
    condense,
    intervals_from_text,
    rep_from_chords,
    rep_from_intervals,
)
from twinwidth.trimatrix import (
    RED,
    TriMatrix,
    _discrete,
    _matrix_profile,
    _merge,
    adjacency_matrix,
    find_mixed_minor,
    matrix_from_text,
    matrix_to_text,
    matrix_twinwidth_exact,
    matrix_twinwidth_greedy,
    permutation_matrix,
    red_number,
    verify_division_mixed,
)
from twinwidth.solver import ordering_without_mixed_minor
from conftest import DATA, oracle_mixed_minor, reference_merge, reference_symmetric_reds, seeded_intervals_text


def random_matrix(rng, nr, nc, symbols=(0, 1)):
    return TriMatrix.build(
        [f"r{i}" for i in range(nr)],
        [f"c{j}" for j in range(nc)],
        [[rng.choice(symbols) for _ in range(nc)] for _ in range(nr)],
    )


def quotient_profile(m, moves, symmetric=False):
    """``_matrix_profile``'s (red number, free move) after the (axis, a, b) group merges."""
    state = _discrete((len(m.row_keys),) if symmetric else m.shape())
    for move in moves:
        state = _merge(state, *move)
    return _matrix_profile(m, symmetric)(state)


def test_demo5_symmetric_contraction_step(demo5_graph):
    m = adjacency_matrix(demo5_graph)
    m2 = reference_merge(reference_merge(m, 0, "a", "b"), 1, "a", "b")
    assert m2.entry("a", "d") == RED and m2.entry("a", "e") == RED
    assert m2.entry("d", "a") == RED and m2.entry("e", "a") == RED
    assert m2.entry("a", "c") == 1 and m2.entry("c", "a") == 1
    assert m2.entry("c", "d") == 1 and m2.entry("d", "e") == 1
    assert quotient_profile(m, [(0, 0, 1)], symmetric=True)[0] == red_number(m2) == 2


def test_contract_identical_rows_no_red():
    m = TriMatrix.build(["x", "y"], ["c1", "c2"], [[0, 1], [0, 1]])
    assert RED not in reference_merge(m, 0, "x", "y").rows[0]
    # identical rows are the profile's free move
    assert quotient_profile(m, []) == (0, (0, 0, 1))


def test_contract_identity_rows_all_red():
    m = TriMatrix.build(["x", "y"], ["c1", "c2"], [[1, 0], [0, 1]])
    assert reference_merge(m, 0, "x", "y").rows[0] == bytes((RED, RED))
    assert quotient_profile(m, [(0, 0, 1)])[0] == 2


def test_red_number_examples(demo5_graph):
    reds = reference_symmetric_reds(adjacency_matrix(demo5_graph), [("a", "b"), ("d", "e"), ("c", "d"), ("a", "c")])
    assert reds == [0, 2, 3, 2, 1]
    assert red_number(TriMatrix.build(["r"], ["c1", "c2"], [[0, 2]])) == 0
    diag = TriMatrix.build(
        ["r1", "r2", "r3"], ["c1", "c2", "c3"],
        [[RED, 0, 0], [0, RED, 0], [0, 0, RED]],
    )
    assert red_number(diag) == 1


def test_red_number_growth_locality():
    # a row merge can raise the red number only through the merged row or the
    # columns where the two rows disagreed
    rng = random.Random(0)
    for _ in range(50):
        m = random_matrix(rng, 4, 4, (0, 1, 2))
        before = red_number(m)
        out = reference_merge(m, 0, "r0", "r2")
        after = red_number(out)
        assert quotient_profile(m, [(0, 0, 2)])[0] == after
        if after > before:
            disagreed = [j for j in range(4) if m.rows[0][j] != m.rows[2][j]]
            col_counts = [sum(row[j] == RED for row in out.rows) for j in disagreed]
            assert after == max([out.rows[0].count(RED), *col_counts])


def test_contraction_shrinks_and_red_is_sticky():
    # inputs may hold RED, which stays RED in any group it joins
    assert [len(axis) for axis in _merge(_discrete((4, 4)), 0, 0, 2)] == [3, 4]
    rng = random.Random(7)
    for _ in range(40):
        m = random_matrix(rng, 4, 4, (0, 1, 2, RED))
        merged = reference_merge(reference_merge(m, 0, "r0", "r2"), 1, "c1", "c3")
        assert merged.shape() == (3, 3)
        assert quotient_profile(m, [(0, 0, 2), (1, 1, 3)])[0] == red_number(merged)
        assert all(merged.entry("r0", k) == RED for k in merged.col_keys if m.entry("r0", k) == RED)


def test_matrix_twinwidth_examples(demo5_graph):
    res = matrix_twinwidth_exact(adjacency_matrix(demo5_graph), symmetric=True, cap=10)
    assert res.optimal and res.value <= 3

    zeros = TriMatrix.build(["r1", "r2"], ["c1", "c2"], [[0, 0], [0, 0]])
    assert matrix_twinwidth_exact(zeros).value == 0


def test_matrix_twinwidth_against_stepwise_enumeration():
    # independent oracle: enumerate every contraction order with the reference merges
    def oracle(m: TriMatrix) -> int:
        best = [len(m.row_keys) + len(m.col_keys)]

        def go(cur: TriMatrix, mx: int) -> None:
            if len(cur.row_keys) == 1 and len(cur.col_keys) == 1:
                best[0] = min(best[0], mx)
                return
            if mx >= best[0]:
                return
            for a, b in itertools.combinations(cur.row_keys, 2):
                nxt = reference_merge(cur, 0, a, b)
                go(nxt, max(mx, red_number(nxt)))
            for a, b in itertools.combinations(cur.col_keys, 2):
                nxt = reference_merge(cur, 1, a, b)
                go(nxt, max(mx, red_number(nxt)))

        go(m, red_number(m))
        return best[0]

    rng = random.Random(1)
    for _ in range(15):
        m = random_matrix(rng, 3, 3)
        assert matrix_twinwidth_exact(m).value == oracle(m)


def test_matrix_greedy_is_upper_bound():
    rng = random.Random(2)
    for _ in range(20):
        m = random_matrix(rng, 4, 4)
        assert matrix_twinwidth_exact(m).value <= matrix_twinwidth_greedy(m).value


def test_matrix_cap_falls_back_to_greedy():
    rng = random.Random(3)
    m = random_matrix(rng, 8, 8)
    res = matrix_twinwidth_exact(m, cap=10)
    assert not res.optimal


def test_find_mixed_minor_examples(demo6_rep):
    zeros = TriMatrix.build([f"r{i}" for i in range(4)], [f"c{j}" for j in range(4)], [[0] * 4] * 4)
    assert find_mixed_minor(zeros, 2) is None

    eye = permutation_matrix((1, 2, 3, 4))
    assert find_mixed_minor(eye, 2) is None
    assert not oracle_mixed_minor(eye, 2)

    from twinwidth.ilrep import build_ilmatrix

    demo6 = build_ilmatrix(demo6_rep).matrix
    witness = find_mixed_minor(demo6, 2)
    assert (witness is not None) == oracle_mixed_minor(demo6, 2)
    assert witness is not None and verify_division_mixed(demo6, witness.division)


def test_find_mixed_minor_matches_oracle():
    rng = random.Random(4)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6), (0, 1))
        for k in (1, 2, 3):
            got = find_mixed_minor(m, k)
            assert (got is not None) == oracle_mixed_minor(m, k), (m, k)
            if got is not None:
                assert verify_division_mixed(m, got.division)


def test_mixed_minor_monotone_in_k():
    rng = random.Random(5)
    for _ in range(60):
        m = random_matrix(rng, 6, 6)
        for k in (2, 3):
            if find_mixed_minor(m, k) is not None:
                assert find_mixed_minor(m, k - 1) is not None


# find_mixed_minor over mixed_minor_corpus() for k = 1..4: 1 280 searches, 597 of which find a division
FOUND = 597
WITNESS_SHA256 = "298e86d6e892b40498b1226cb714f6452ba8df2e08eb1df5fc812db0980252de"


def mixed_minor_corpus() -> list[TriMatrix]:
    """320 seeded matrices: 80 random 0/1 ones of either orientation, 80 interval and 80 overlap
    representation matrices (every second one condensed), and 80 chord-diagram matrices."""
    rng = random.Random(17)
    corpus = [random_matrix(rng, rng.randint(2, 10), rng.randint(2, 10)) for _ in range(80)]
    for kind in (INTERVAL, OVERLAP):
        for i in range(80):
            n = rng.randint(3, 12)
            spans: dict[tuple[int, int], None] = {}
            while len(spans) < n:
                a = rng.randrange(2 * n)
                spans.setdefault((a, a + rng.randrange(max(2, 2 * n // 3))))
            rep = rep_from_intervals([(f"x{j}", a, b) for j, (a, b) in enumerate(spans)], kind)
            corpus.append(build_ilmatrix(condense(rep) if i % 2 else rep).matrix)
    for _ in range(80):
        sequence = [str(c) for c in range(rng.randint(2, 9)) for _ in range(2)]
        rng.shuffle(sequence)
        corpus.append(build_ilmatrix(rep_from_chords(ChordDiagram(tuple(sequence)))).matrix)
    return corpus


def test_mixed_minor_witnesses_pinned():
    # one JSON line per (matrix, k): the witness, or null when no k-division is all mixed
    lines = []
    for m in mixed_minor_corpus():
        for k in (1, 2, 3, 4):
            w = find_mixed_minor(m, k)
            lines.append(json.dumps(None if w is None else w.to_json()))
    assert len(lines) - lines.count("null") == FOUND
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WITNESS_SHA256


@pytest.mark.parametrize("k, calls", [(5, 359), (7, 69)])
def test_mixed_minor_search_skips_prefixes_no_cut_fits(monkeypatch, k, calls):
    # the condensed seeded 40-interval model is 62 x 26 and has no 5- or 7-division; splitting its
    # 26 columns every way into k blocks of two or more would run the greedy 4 845 or 18 564 times
    rep = rep_from_intervals(intervals_from_text(seeded_intervals_text(40, seed=3)), INTERVAL)
    m = build_ilmatrix(condense(rep)).matrix
    assert m.shape() == (62, 26)
    greedy, counted = trimatrix._greedy_axis, []
    monkeypatch.setattr(trimatrix, "_greedy_axis", lambda *args: counted.append(k) or greedy(*args))
    assert find_mixed_minor(m, k) is None
    assert len(counted) == calls < math.comb(26 - k - 1, k - 1)


def test_zone_witnesses_are_distinct_vectors():
    rng = random.Random(6)
    for _ in range(40):
        m = random_matrix(rng, 5, 5)
        w = find_mixed_minor(m, 2)
        if w is None:
            continue
        rb = {i: b for i, b in enumerate(w.division.row_blocks)}
        cb = {j: b for j, b in enumerate(w.division.col_blocks)}
        for (i, j), (r1, r2) in w.zone_rows.items():
            cols = [m.col_keys.index(c) for c in cb[j]]
            v1 = tuple(m.rows[m.row_keys.index(r1)][c] for c in cols)
            v2 = tuple(m.rows[m.row_keys.index(r2)][c] for c in cols)
            assert v1 != v2
        for (i, j), (c1, c2) in w.zone_cols.items():
            rows = [m.row_keys.index(r) for r in rb[i]]
            v1 = tuple(m.rows[r][m.col_keys.index(c1)] for r in rows)
            v2 = tuple(m.rows[r][m.col_keys.index(c2)] for r in rows)
            assert v1 != v2


def test_permutation_matrix_examples():
    assert permutation_matrix((1, 2)).rows == (b"\x01\x00", b"\x00\x01")
    assert permutation_matrix((2, 1)).rows == (b"\x00\x01", b"\x01\x00")
    m = permutation_matrix((3, 1, 4, 2))
    for i, j in enumerate((3, 1, 4, 2)):
        assert m.rows[i][j - 1] == 1 and sum(m.rows[i]) == 1


def test_exact_value_admits_minor_free_ordering():
    rng = random.Random(8)
    for _ in range(10):
        m = random_matrix(rng, 4, 4)
        t = matrix_twinwidth_exact(m).value
        assert ordering_without_mixed_minor(m, 2 * t + 2) is not None


def test_minor_free_ordering_trivial_cases():
    one = TriMatrix.build(["r"], ["c"], [[1]])
    assert ordering_without_mixed_minor(one, 2) is not None
    zeros = TriMatrix.build([f"r{i}" for i in range(4)], [f"c{j}" for j in range(4)], [[0] * 4] * 4)
    assert ordering_without_mixed_minor(zeros, 2) is not None
    # a matrix without rows or without columns keeps its other axis in its own order
    for nr, nc in ((0, 2), (2, 0), (0, 0)):
        rows, cols = [f"r{i}" for i in range(nr)], [f"c{j}" for j in range(nc)]
        empty = TriMatrix.build(rows, cols, [[0] * nc] * nr)
        assert ordering_without_mixed_minor(empty, 2) == (tuple(rows), tuple(cols))


BAD_ENTRY = "matrix entries must be 0, 1, 2 or RED"


@pytest.mark.parametrize("value", [4, 255])
def test_byte_outside_the_cell_values_is_a_domain_error(value):
    with pytest.raises(DomainError) as exc:
        TriMatrix(("r",), ("a", "b"), (bytes((0, value)),))
    assert str(exc.value) == BAD_ENTRY


@pytest.mark.parametrize("value", [-1, 4, 256, "1", 1.5, None])
def test_build_rejects_a_bad_entry_with_a_domain_error(value):
    # never the ValueError or TypeError of the bytes conversion
    with pytest.raises(DomainError) as exc:
        TriMatrix.build(["r"], ["a", "b"], [[0, value]])
    assert type(exc.value) is DomainError and str(exc.value) == BAD_ENTRY


@pytest.mark.parametrize(
    "row_keys, rows, message",
    [
        (["r", "s"], [[0, 1], [0]], "row length does not match column keys"),
        (["r", "s"], [[0, 1]], "row count does not match row keys"),
        (["r"], [[0, 1], [1, 0]], "row count does not match row keys"),
        (["r", "r"], [[0, 1], [0, 1]], "duplicate row or column keys"),
    ],
)
def test_ragged_rows_and_key_counts_keep_their_messages(row_keys, rows, message):
    with pytest.raises(DomainError) as exc:
        TriMatrix.build(row_keys, ["a", "b"], rows)
    assert str(exc.value) == message


def test_rows_are_bytes_however_the_matrix_is_built(demo5_graph):
    m = TriMatrix.build(["r", "s"], ["a", "b", "c"], [[0, 1, RED], (2, 2, 0)])
    assert m.rows == (bytes((0, 1, RED)), b"\x02\x02\x00")
    made = [m, m.transpose(), m.permuted([1, 0], [2, 0, 1]), adjacency_matrix(demo5_graph), permutation_matrix((2, 3, 1)),
            matrix_from_text(matrix_to_text(m)), TriMatrix.build([], ["a"], []).transpose()]
    assert all(type(row) is bytes for x in made for row in x.rows)
    assert m.transpose().transpose() == m == matrix_from_text(matrix_to_text(m))
    with pytest.raises(DomainError, match="matrix rows must be bytes"):
        TriMatrix(("r",), ("a",), ((1,),))


@pytest.mark.parametrize("row", ["0x", "03", "0R", "0é", "0日", "0 ", "012"])
def test_matrix_text_bad_character_is_a_format_error(row):
    with pytest.raises(FormatError) as exc:
        matrix_from_text(f"matrix 1 2\nr\na b\n{row}\n")
    assert str(exc.value) == f"bad matrix row: {row!r}"


def test_matrix_text_roundtrip(demo5_graph):
    m = adjacency_matrix(demo5_graph)
    m = reference_merge(m, 0, "a", "b")
    empty_axis = [TriMatrix.build(rows, cols, [[] for _ in rows]) for rows, cols in
                  (([], ["a", "b"]), (["x", "y"], []), ([], []))]
    for matrix in [m, *empty_axis]:
        assert matrix_from_text(matrix_to_text(matrix)) == matrix
    for path in DATA.glob("*.mat*"):
        text = path.read_text()
        assert matrix_to_text(matrix_from_text(text)) == text
    with pytest.raises(DomainError):
        matrix_from_text("garbage")
