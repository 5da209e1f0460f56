"""Shared fixtures and independent oracles.

The oracles here recompute expected values by brute force along a different
code path than the operations under test: full enumeration of contraction
sequences, direct chord-crossing and interval-intersection predicates on the
raw input values, full two-axis division enumeration for mixed minors, and
plain recursion over formula syntax for first-order truth and for the exact
number of quantifier instantiations that a fully memoized evaluation makes.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from twinwidth import fologic as fo
from twinwidth.errors import DomainError
from twinwidth.graphs import ContractionStep, Graph, _bits, _contract_masks
from twinwidth.ilrep import INTERVAL, OVERLAP, IntervalLikeRep, decode, end_name, pair_name, rep_from_intervals, unify
from twinwidth.solver import SolveResult, _contract_name
from twinwidth.trimatrix import RED, TriMatrix, _discrete, _merge, _moves, red_number

DATA = Path(__file__).parent / "data"

DEMO5_EDGES = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "e"), ("c", "d"), ("d", "e")]
DEMO6_INTERVALS = [
    ("ac", 1, 3),
    ("bc", 2, 3),
    ("be", 2, 5),
    ("cd", 3, 4),
    ("dd", 4, 4),
    ("de", 4, 5),
]


def seeded_intervals_text(n: int = 1000, seed: int = 16) -> str:
    """``.ivl`` text of n distinct integer intervals drawn from ``random.Random(seed)``.

    Left ends lie in [0, 2n) and lengths in [0, 2n // 3), the size and shape
    of the large inputs of the ``bulk`` benchmark: at n = 1000 the interval
    graph has about 150 000 edges and the overlap matrix about 3 million
    cells.
    """
    rng = random.Random(seed)
    spans: dict[tuple[int, int], None] = {}
    while len(spans) < n:
        a = rng.randrange(2 * n)
        spans.setdefault((a, a + rng.randrange(2 * n // 3)))
    return "".join(f"i x{i} {a} {b}\n" for i, (a, b) in enumerate(spans))


def bulk_perturb_input() -> tuple[str, str]:
    """``.g`` text of G(800, .05) and three 60-vertex ``--sets``, drawn from ``random.Random(800)``.

    The shape of the largest ``perturb`` op of the ``bulk`` benchmark: 800
    ``v`` lines and about 16 000 ``e`` lines, with names that sort unlike
    their ranks (p10 < p2).
    """
    rng = random.Random(800)
    vs = [f"p{i}" for i in range(800)]
    es = [(vs[i], vs[j]) for i in range(800) for j in range(i + 1, 800) if rng.random() < 0.05]
    sets = ";".join(",".join(rng.sample(vs, 60)) for _ in range(3))
    return f"graph g 800 {len(es)}\n" + "".join(f"v {v}\n" for v in vs) + "".join(f"e {a} {b}\n" for a, b in es), sets


def traced_peak(fn) -> int:
    """The most memory ``fn()`` held at once beyond what was held before, as ``tracemalloc`` sees it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def intervals1000(tmp_path_factory) -> Path:
    """The seeded 1 000-interval model as an ``.ivl`` file."""
    path = tmp_path_factory.mktemp("ivl") / "m1000.ivl"
    path.write_text(seeded_intervals_text())
    return path


@pytest.fixture
def demo5_graph() -> Graph:
    return Graph.build("abcde", DEMO5_EDGES)


@pytest.fixture
def demo6_rep() -> IntervalLikeRep:
    return rep_from_intervals(DEMO6_INTERVALS, INTERVAL)


@pytest.fixture
def demo6_rep_overlap() -> IntervalLikeRep:
    return rep_from_intervals(DEMO6_INTERVALS, OVERLAP)


def path_graph(ids: str) -> Graph:
    return Graph.build(ids, list(zip(ids, ids[1:])))


def complete_graph(ids: str) -> Graph:
    return Graph.build(ids, itertools.combinations(ids, 2))


def nested_sentence(depth: int) -> str:
    """A sentence whose parentheses nest exactly ``depth`` deep (depth >= 3)."""
    nots = depth - 3
    return "(exists x (exists y " + "(not " * nots + "(edge x y)" + ")" * nots + "))"


def quantifier_chain(depth: int) -> str:
    """``depth - 1`` nested existential quantifiers around one atom (depth >= 2)."""
    q = depth - 1
    return "".join(f"(exists x{i} " for i in range(q)) + f"(edge x0 x{q - 1})" + ")" * q


# ---------------------------------------------------------------------------
# oracles


def reference_contract(black: dict, red: dict, u: str, v: str, merged: str) -> tuple[dict, dict]:
    """Black and red neighbour sets after merging u and v into ``merged``.

    The rule of the ``graphs`` docstring, applied to plain sets: the merged
    vertex is red to ((N_red(u) | N_red(v)) | (N(u) ^ N(v))) - {u, v} and black
    to the rest of N(u) | N(v), with N = black + red.
    """
    n_u, n_v = black[u] | red[u], black[v] | red[v]
    new_red = (red[u] | red[v] | (n_u ^ n_v)) - {u, v}
    new_black = (n_u | n_v) - {u, v} - new_red
    black = {w: s - {u, v} | ({merged} if w in new_black else set()) for w, s in black.items() if w not in (u, v)}
    red = {w: s - {u, v} | ({merged} if w in new_red else set()) for w, s in red.items() if w not in (u, v)}
    black[merged], red[merged] = new_black, new_red
    return black, red


def reference_start(g: Graph) -> tuple[dict, dict]:
    return {v: g.neighbors(v) for v in g.vertices}, {v: frozenset() for v in g.vertices}


def brute_twinwidth(g: Graph) -> int:
    """Minimum width over every contraction sequence, enumerated outright."""
    best = [len(g.vertices)]

    def go(black: dict, red: dict, mx: int) -> None:
        if len(black) == 1:
            best[0] = min(best[0], mx)
            return
        if mx >= best[0]:
            return
        for u, v in itertools.combinations(sorted(black), 2):
            b2, r2 = reference_contract(black, red, u, v, u)
            go(b2, r2, max(mx, *map(len, r2.values())))

    go(*reference_start(g), 0)
    return best[0]


def reference_merge(m: TriMatrix, axis: int, keep: str, drop: str) -> TriMatrix:
    """Merge line ``drop`` into line ``keep`` of the rows (axis 0) or columns
    (axis 1); an entry where the two lines differ becomes RED."""
    if axis:
        return reference_merge(m.transpose(), 0, keep, drop).transpose()
    line = dict(zip(m.row_keys, m.rows))
    line[keep] = tuple(x if x == y else RED for x, y in zip(line[keep], line.pop(drop)))
    return TriMatrix.build(line, m.col_keys, line.values())


def reference_symmetric_reds(m: TriMatrix, pairs) -> list[int]:
    """Red numbers along a symmetric sequence, once per (keep, drop) pair after
    both its row and its column merge; index 0 is the input matrix."""
    reds = [red_number(m)]
    for keep, drop in pairs:
        m = reference_merge(reference_merge(m, 0, keep, drop), 1, keep, drop)
        reds.append(red_number(m))
    return reds


def interval_vertex_map(intervals) -> dict[str, str]:
    """Input interval id -> the vertex id that decoding gives it."""
    values = sorted({Fraction(v) for _, l, r in intervals for v in (l, r)})
    name = {v: end_name(i) for i, v in enumerate(values)}
    return {ident: pair_name((name[Fraction(l)], name[Fraction(r)])) for ident, l, r in intervals}


def reference_walk(sizes, profile):
    """The unpruned memoized partition-lattice walk, kept as a reference.

    It visits every state reachable from the discrete partition, so the
    bounded ``trimatrix._walk`` must return its width and path exactly and
    never profile more states.
    """
    memo: dict[tuple, tuple[int, tuple | None]] = {}
    nodes = 0

    # f(state) = best achievable red number from this state on, itself included.
    def solve(state: tuple) -> tuple[int, tuple | None]:
        nonlocal nodes
        got = memo.get(state)
        if got is not None:
            return got
        nodes += 1
        here, free = profile(state)
        if all(len(axis) <= 1 for axis in state):
            memo[state] = (here, None)
            return (here, None)
        best, best_move = None, None
        for move in [free] if free is not None else _moves(state):
            width = solve(_merge(state, *move))[0]
            if best is None or width < best:
                best, best_move = width, move
        result = (max(here, best), best_move)
        memo[state] = result
        return result

    state = _discrete(sizes)
    value = solve(state)[0]
    path = []
    while (move := memo[state][1]) is not None:
        x, a, b = move
        path.append((x, state[x][a], state[x][b]))
        state = _merge(state, x, a, b)
    return value, path, nodes


def reference_greedy(g: Graph) -> SolveResult:
    """The former incremental ``twinwidth_greedy``, kept as a reference.

    It scores a candidate from per-level red-degree counts; the plain scan
    of ``twinwidth_greedy`` must give the same value, sequence and
    ``nodes_explored``.
    """
    if not g.vertices:
        raise DomainError("empty graph has no contraction sequence")
    order, black = g.names, list(g.rows)
    n = len(order)
    red = [0] * n
    names: dict[int, str] = dict(enumerate(order))
    live = set(order)
    alive = set(range(n))
    steps: list[ContractionStep] = []
    value = 0
    nodes = 0

    while len(alive) > 1:
        degs = {i: red[i].bit_count() for i in alive}
        best: tuple[int, tuple[str, str]] | None = None
        best_pair: tuple[int, int] | None = None
        by_level: dict[int, int] = {}
        for d in degs.values():
            by_level[d] = by_level.get(d, 0) + 1

        for a, b in itertools.combinations(sorted(alive), 2):
            nodes += 1
            pair_bits = (1 << a) | (1 << b)
            red_m = (red[a] | red[b] | (black[a] ^ black[b])) & ~pair_bits
            resulting = red_m.bit_count()
            if best is not None and resulting > best[0]:
                continue
            key = tuple(sorted((names[a], names[b])))
            plus = red_m & ~(red[a] | red[b])
            minus = red[a] & red[b] & ~pair_bits
            abort = False
            for w in _bits(plus):
                resulting = max(resulting, degs[w] + 1)
                if best is not None and resulting > best[0]:
                    abort = True
                    break
            if abort:
                continue
            touched = set(_bits(plus)) | set(_bits(minus)) | {a, b}
            level_delta: dict[int, int] = {}
            for w in touched:
                level_delta[degs[w]] = level_delta.get(degs[w], 0) + 1
            for level in sorted(by_level, reverse=True):
                if level <= resulting:
                    break
                if by_level[level] - level_delta.get(level, 0) > 0:
                    resulting = max(resulting, level)
                    break
            for w in _bits(minus):
                resulting = max(resulting, degs[w] - 1)
            if best is not None and (resulting, key) >= best:
                continue
            best = (resulting, key)
            best_pair = (a, b)

        a, b = best_pair
        if names[b] < names[a]:
            a, b = b, a
        merged_name = _contract_name(live, names[a], names[b])
        steps.append(ContractionStep(names[a], names[b], merged_name))
        _contract_masks(black, red, a, b)
        names[a] = merged_name
        alive.discard(b)
        value = max(value, best[0])
    return SolveResult(value, False, tuple(steps), nodes)


def _reference_preserves_graph(rep: IntervalLikeRep, merged: IntervalLikeRep, s1: str, s2: str) -> bool:
    rho = lambda e: s1 if e == s2 else e
    translate = {
        pair_name(p): pair_name((rho(p[0]), rho(p[1]))) for p in rep.pairs
    }
    before = {tuple(sorted((translate[u], translate[v]))) for u, v in decode(rep).edges}
    return before == set(decode(merged).edges)


def reference_condense(rep: IntervalLikeRep) -> IntervalLikeRep:
    """The former ``condense``, kept as a reference: each candidate merge is
    built and both graphs are decoded in full and compared edge for edge."""
    changed = True
    while changed:
        changed = False
        for i in range(len(rep.ends) - 1):
            s1, s2 = rep.ends[i], rep.ends[i + 1]
            merged, legal = unify(rep, s1, s2)
            if legal and _reference_preserves_graph(rep, merged, s1, s2):
                rep = merged
                changed = True
                break
    return rep


def oracle_interval_graph(intervals, kind: str) -> set[frozenset[str]]:
    """Edges computed straight from the rational endpoint values."""
    vals = {i: (Fraction(l), Fraction(r)) for i, l, r in intervals}
    edges = set()
    for a, b in itertools.combinations(sorted(vals), 2):
        (l1, r1), (l2, r2) = vals[a], vals[b]
        intersect = l1 <= r2 and l2 <= r1
        if kind == INTERVAL:
            adjacent = intersect
        else:
            nested = (l1 < l2 and r2 < r1) or (l2 < l1 and r1 < r2)
            equal_span = (l1, r1) == (l2, r2)
            adjacent = intersect and not nested and not equal_span
        if adjacent:
            edges.add(frozenset((a, b)))
    return edges


def reference_ilmatrix_rows(rep: IntervalLikeRep) -> tuple[tuple[str, ...], tuple[bytes, ...]]:
    """Row keys and rows of the representation matrix, built cell by cell.

    This is the former ``build_ilmatrix`` loop, kept as a reference for the
    slab-built rows: 2 left of the first end, 1 in the second end's column
    on pair rows, 0 elsewhere.
    """
    r = rep.rank
    all_rows = sorted(
        set(rep.pairs) | {(t, t) for t in rep.ends},
        key=lambda p: (r[p[0]], r[p[1]]),
    )
    rows = []
    for s1, s2 in all_rows:
        in_pairs = (s1, s2) in rep.pairs
        row = []
        for j, col in enumerate(rep.ends):
            if j < r[s1]:
                row.append(2)
            elif in_pairs and col == s2:
                row.append(1)
            else:
                row.append(0)
        rows.append(bytes(row))
    return tuple(pair_name(p) for p in all_rows), tuple(rows)


def reference_graph_from_text(text: str) -> tuple:
    """The former ``.g`` loader with the former ``Graph.build``: ``("graph", names, rows)``, or the error it raised.

    An error is ``(class name, message)``.  It lists every non-blank line
    and parses them all before it looks at an edge, so every format error
    comes first, in line order; then the edges are checked in order, a loop
    before an endpoint outside the ``v`` lines; the header counts come last.
    It calls nothing in the package.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("graph "):
        return "FormatError", "graph file must start with a 'graph <name> <n> <m>' header"
    try:
        _, _, n, m = lines[0].split()
        n, m = int(n), int(m)
    except ValueError:
        return "FormatError", f"bad graph header: {lines[0]!r}"
    vertices, edges = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "v" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            return "FormatError", f"bad graph line: {ln!r}"
    names = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(names)}
    rows = [0] * len(names)
    for u, v in edges:
        if u == v:
            return "DomainError", f"loop at vertex {u!r}"
        if u not in index or v not in index:
            return "DomainError", f"edge {(min(u, v), max(u, v))!r} has endpoint outside the vertex set"
        rows[index[u]] |= 1 << index[v]
        rows[index[v]] |= 1 << index[u]
    if len(names) != n or sum(map(int.bit_count, rows)) != 2 * m:
        return "FormatError", "graph header counts do not match the body"
    return "graph", names, tuple(rows)


def oracle_chord_crossings(sequence) -> set[frozenset[str]]:
    """Chord pairs whose endpoints interleave around the circle."""
    pos: dict[str, list[int]] = {}
    for i, lab in enumerate(sequence):
        pos.setdefault(lab, []).append(i)
    edges = set()
    for a, b in itertools.combinations(sorted(pos), 2):
        a1, a2 = pos[a]
        b1, b2 = pos[b]
        if (a1 < b1 < a2 < b2) or (b1 < a1 < b2 < a2):
            edges.add(frozenset((a, b)))
    return edges


def seeded_words(sizes=range(7, 41), per_size: int = 3, seed: int = 26) -> list[tuple[int, ...]]:
    """``per_size`` permutations of each size drawn from ``random.Random(seed)``; from p = 10 on, "10" < "2"."""
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1, p + 1), p)) for p in sizes for _ in range(per_size)]


def oracle_permutation_graph(word) -> tuple[list[str], list[tuple[str, str]]]:
    """The inversion graph as name pairs: vertices "1".."p", pair (i, j) for i < j iff word[i] > word[j]."""
    names = [str(i) for i in range(1, len(word) + 1)]
    return names, [(names[i], names[j]) for i, j in itertools.combinations(range(len(word)), 2) if word[i] > word[j]]


def oracle_exposer_graph(word) -> tuple[list[str], list[tuple[str, str]]]:
    """The canonical exposer as name pairs: three cliques, and w_k sees u_0..u_k and each v_j with inv[j] <= inv[k]."""
    p = len(word)
    inv = [0] * p
    for i, x in enumerate(word, start=1):
        inv[x - 1] = i
    core, side1, side2 = ([f"{c}{i}" for i in range(1, p + 1)] for c in "wuv")
    edges = [pair for block in (core, side1, side2) for pair in itertools.combinations(block, 2)]
    for k, w_k in enumerate(core):
        edges += [(u, w_k) for u in side1[: k + 1]]
        edges += [(v, w_k) for v, inv_v in zip(side2, inv) if inv_v <= inv[k]]
    return core + side1 + side2, edges


def oracle_rows(vertices, edges) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """``(names, rows)`` of the graph on these name pairs, one bit per pair end, built without ``Graph``."""
    names = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(names)}
    rows = [0] * len(names)
    for u, v in edges:
        rows[index[u]] |= 1 << index[v]
        rows[index[v]] |= 1 << index[u]
    return names, tuple(rows)


def oracle_mixed_minor(m: TriMatrix, k: int) -> bool:
    """Full enumeration over both axes: does an all-mixed k-division exist?

    A zone is mixed when, by the definition, it holds at least two distinct
    row slices and at least two distinct column vectors.
    """
    nr, nc = m.shape()

    def mixed(r0: int, r1: int, c0: int, c1: int) -> bool:
        row_slices = {tuple(m.rows[i][c0:c1]) for i in range(r0, r1)}
        col_vectors = {tuple(m.rows[i][j] for i in range(r0, r1)) for j in range(c0, c1)}
        return len(row_slices) >= 2 and len(col_vectors) >= 2

    def compositions(total: int, parts: int):
        if parts == 1:
            if total >= 1:
                yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    def bounds(sizes):
        out, pos = [], 0
        for s in sizes:
            out.append((pos, pos + s))
            pos += s
        return out

    for rsizes in compositions(nr, k):
        rb = bounds(rsizes)
        for csizes in compositions(nc, k):
            cb = bounds(csizes)
            if all(mixed(r0, r1, c0, c1) for r0, r1 in rb for c0, c1 in cb):
                return True
    return False


def structure_from_pairs(domain, relations: dict, marks: dict | None = None) -> fo.Structure:
    """The structure whose relations hold the given name pairs and whose marks hold the given elements."""
    index = {a: i for i, a in enumerate(domain)}
    rows = {
        name: tuple(sum(1 << index[b] for a2, b in pairs if a2 == a) for a in domain)
        for name, pairs in relations.items()
    }
    masks = {name: sum(1 << index[a] for a in set(elements)) for name, elements in (marks or {}).items()}
    return fo.Structure(tuple(domain), rows, masks)


def relation_pairs(st: fo.Structure, name: str) -> frozenset[tuple[str, str]]:
    """The name pairs of one relation of st, read bit by bit."""
    return frozenset(
        (a, b) for a, row in zip(st.domain, st.relations[name]) for j, b in enumerate(st.domain) if row >> j & 1
    )


def reference_matrix_structure(m) -> tuple[tuple[str, ...], dict[str, frozenset[tuple[str, str]]]]:
    """The domain and the A1/A2 pairs of a representation matrix, read cell by cell.

    The domain is the row keys, then the column keys that are not row keys.
    """
    mat = m.matrix
    rows = set(mat.row_keys)
    dom = tuple(mat.row_keys) + tuple(k for k in mat.col_keys if k not in rows)
    a1, a2 = set(), set()
    for rk, row in zip(mat.row_keys, mat.rows):
        for ck, v in zip(mat.col_keys, row):
            if v == 1:
                a1.add((rk, ck))
            elif v == 2:
                a2.add((rk, ck))
    return dom, {"A1": frozenset(a1), "A2": frozenset(a2)}


def naive_truth(st: fo.Structure, f: fo.Formula, env: dict[str, str] | None = None) -> bool:
    """Truth of f on st under env (variable -> element), by plain recursion.

    Every quantifier copies the env dict per element, and an atom looks its
    elements up in the domain and reads one bit; there is no memo, no budget
    and no compilation, so this shares nothing with ``evaluate``.
    """
    env = env or {}
    if isinstance(f, fo.TrueF):
        return True
    if isinstance(f, fo.FalseF):
        return False
    if isinstance(f, fo.Eq):
        return env[f.left] == env[f.right]
    if isinstance(f, fo.Atom):
        at = [st.domain.index(env[a]) for a in f.args]
        if len(at) == 1:
            return bool(st.marks[f.rel] >> at[0] & 1)
        return bool(st.relations[f.rel][at[0]] >> at[1] & 1)
    if isinstance(f, fo.Not):
        return not naive_truth(st, f.body, env)
    if isinstance(f, fo.And):
        return all(naive_truth(st, p, env) for p in f.parts)
    if isinstance(f, fo.Or):
        return any(naive_truth(st, p, env) for p in f.parts)
    if isinstance(f, fo.Implies):
        return not naive_truth(st, f.left, env) or naive_truth(st, f.right, env)
    pick = any if isinstance(f, fo.Exists) else all
    return pick(naive_truth(st, f.body, {**env, f.var: a}) for a in st.domain)


def reference_free_vars(f: fo.Formula) -> frozenset[str]:
    """Free variables of f, by plain recursion over the syntax."""
    if isinstance(f, fo.Atom):
        return frozenset(f.args)
    if isinstance(f, fo.Eq):
        return frozenset((f.left, f.right))
    if isinstance(f, (fo.Exists, fo.Forall)):
        return reference_free_vars(f.body) - {f.var}
    if isinstance(f, fo.Not):
        return reference_free_vars(f.body)
    if isinstance(f, fo.Implies):
        return reference_free_vars(f.left) | reference_free_vars(f.right)
    return frozenset().union(*map(reference_free_vars, getattr(f, "parts", ())))


class ReferenceEvaluator:
    """Truth and exact budget use of formulas on one structure, by memoized recursion.

    Every non-leaf node is memoized by its ``id`` and the values of its free
    variables, and a quantifier charges one per element that it binds, in
    domain order, up to the first element that decides.  All calls on one
    evaluator share the memo and the count.  There is no compilation, no
    bitmask sweep and no memo elision, so this shares nothing with
    ``fologic._compile``; the count of one ``truth`` call on a sentence is
    the exact budget that ``evaluate`` must use.
    """

    def __init__(self, st: fo.Structure):
        self.st, self.used, self.memo = st, 0, {}

    def truth(self, f: fo.Formula, env: dict[str, str]) -> bool:
        if isinstance(f, (fo.TrueF, fo.FalseF, fo.Atom, fo.Eq)):
            return naive_truth(self.st, f, env)
        key = (id(f), frozenset((v, env[v]) for v in reference_free_vars(f)))
        if key not in self.memo:
            self.memo[key] = self._expand(f, env)
        return self.memo[key]

    def _expand(self, f: fo.Formula, env: dict[str, str]) -> bool:
        if isinstance(f, fo.Not):
            return not self.truth(f.body, env)
        if isinstance(f, fo.And):
            return all(self.truth(p, env) for p in f.parts)
        if isinstance(f, fo.Or):
            return any(self.truth(p, env) for p in f.parts)
        if isinstance(f, fo.Implies):
            return not self.truth(f.left, env) or self.truth(f.right, env)
        exists = isinstance(f, fo.Exists)
        for a in self.st.domain:
            self.used += 1
            if self.truth(f.body, {**env, f.var: a}) == exists:
                return exists
        return not exists

    def interpret(self, iota: fo.Interpretation) -> fo.Structure:
        """The structure that iota defines on st: the domain formula per element, then each relation per pair."""
        dom = tuple(a for a in self.st.domain if self.truth(iota.domain_formula, {iota.domain_var: a}))
        rels = {
            name: [(a, b) for a, b in itertools.product(dom, repeat=2) if self.truth(body, dict(zip(params, (a, b))))]
            for name, (params, body) in iota.relations.items()
        }
        return structure_from_pairs(dom, rels)
