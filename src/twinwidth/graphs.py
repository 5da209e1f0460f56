"""Graphs, contraction sequences, permutations, twins, and small-scale isomorphism.

Vertices are opaque strings.  Along a contraction sequence the graph becomes
a trigraph: a second, disjoint set of "red" edges records where merged
vertices disagreed.  Contracting u and v yields one vertex whose red
neighbourhood is

    ((N_red(u) | N_red(v)) | (N(u) ^ N(v))) - {u, v}

where N is the full (black + red) neighbourhood; its black neighbours are the
rest of N(u) | N(v).  ``_contract_masks`` is that rule on bitmask
neighbourhoods, and the only one in the package: the greedy solver merges
with it and ``sequence_width`` replays sequences with it.

One-line permutations are plain tuples over 1..p, e.g. ``(3, 1, 4, 2)``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, DomainError, FormatError
from .records import record

DEFAULT_ISO_CAP = 12


def _norm_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@record
class Graph:
    """A simple graph: loop-free, no duplicate edges."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise DomainError(f"loop at vertex {u!r}")
            if u > v:
                raise DomainError(f"edge {(u, v)!r} not normalised")
            if u not in self.vertices or v not in self.vertices:
                raise DomainError(f"edge {(u, v)!r} has endpoint outside the vertex set")

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        # a pair tuple already in order is kept, not copied, so it shares its name strings
        edges = (e if type(e) is tuple and e[0] <= e[1] else _norm_edge(*e) for e in edges)
        return Graph(frozenset(vertices), frozenset(edges))

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def neighbors(self, v: str) -> frozenset[str]:
        return self.adjacency[v]

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: str, v: str) -> bool:
        return _norm_edge(u, v) in self.edges

    def subgraph(self, keep: Iterable[str]) -> "Graph":
        ks = frozenset(keep)
        if not ks <= self.vertices:
            raise DomainError("subgraph vertices not contained in the graph")
        return Graph(ks, frozenset(e for e in self.edges if e[0] in ks and e[1] in ks))

    def relabel(self, mapping: dict[str, str]) -> "Graph":
        if set(mapping) != set(self.vertices) or len(set(mapping.values())) != len(self.vertices):
            raise DomainError("relabel mapping must be a bijection on the vertex set")
        return Graph.build(mapping.values(), ((mapping[u], mapping[v]) for u, v in self.edges))

    def complement(self) -> "Graph":
        vs = sorted(self.vertices)
        edges = [(u, v) for u, v in itertools.combinations(vs, 2) if not self.has_edge(u, v)]
        return Graph.build(vs, edges)


@record
class ContractionStep:
    u: str
    v: str
    merged: str


ContractionSequence = tuple[ContractionStep, ...]


class SequenceError(DomainError):
    """A contraction sequence is malformed (wrong length or missing vertices)."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _adjacency(g: Graph) -> tuple[list[str], list[int]]:
    """The sorted vertices and each one's neighbourhood as a bitmask over them."""
    order = sorted(g.vertices)
    slot = {v: i for i, v in enumerate(order)}
    adj = [0] * len(order)
    for u, v in g.edges:
        adj[slot[u]] |= 1 << slot[v]
        adj[slot[v]] |= 1 << slot[u]
    return order, adj


def _contract_masks(black: list[int], red: list[int], a: int, b: int) -> int:
    """Contract slot b into slot a of bitmask neighbourhoods, in place.

    The rule is the one in the module docstring.  Only slots adjacent to a
    or b change, and the slots whose red degree can change are exactly the
    red neighbours of the merged vertex, whose mask is returned.
    """
    pair = (1 << a) | (1 << b)
    touched = (black[a] | black[b] | red[a] | red[b]) & ~pair
    black_m = black[a] & black[b] & ~pair
    red_m = (red[a] | red[b] | (black[a] ^ black[b])) & ~pair
    black[a], red[a] = black_m, red_m
    black[b] = red[b] = 0
    bit_a = 1 << a
    for w in _bits(touched):
        black[w] &= ~pair
        red[w] &= ~pair
        if black_m >> w & 1:
            black[w] |= bit_a
        elif red_m >> w & 1:
            red[w] |= bit_a
    return red_m


def sequence_width(g: Graph, seq: Sequence[ContractionStep]) -> int:
    """Maximum red degree over all trigraphs of a full contraction sequence.

    A replay on bitmask neighbourhoods that builds no trigraph.  It checks,
    in this order: a nonempty graph (``DomainError``), n - 1 steps
    (``SequenceError``), and per step both ends live (``SequenceError``),
    distinct ends, and a merged name that no other live vertex holds (both
    ``DomainError``).
    """
    if not g.vertices:
        raise DomainError("empty graph has no contraction sequence")
    if len(seq) != len(g.vertices) - 1:
        raise SequenceError(
            f"sequence has {len(seq)} steps, a full sequence on {len(g.vertices)} vertices needs {len(g.vertices) - 1}"
        )
    order, black = _adjacency(g)
    red = [0] * len(order)
    slot = {v: i for i, v in enumerate(order)}
    width = 0
    for step in seq:
        u, v, merged = step.u, step.v, step.merged
        if u not in slot or v not in slot:
            raise SequenceError(f"step {step} references a vertex missing at that point")
        if u == v:
            raise DomainError("cannot contract a vertex with itself")
        if merged in slot and merged != u and merged != v:
            raise DomainError(f"merged vertex id {merged!r} already present")
        a, b = slot.pop(u), slot.pop(v)
        slot[merged] = a
        red_m = _contract_masks(black, red, a, b)
        width = max(width, red_m.bit_count(), *(red[w].bit_count() for w in _bits(red_m)))
    return width


# ---------------------------------------------------------------------------
# permutations (one-line notation over 1..p)


def is_permutation(word: Sequence[int]) -> bool:
    return sorted(word) == list(range(1, len(word) + 1))


def check_permutation(word: Sequence[int]) -> tuple[int, ...]:
    w = tuple(word)
    if not is_permutation(w):
        raise DomainError(f"{w!r} is not a permutation of 1..{len(w)}")
    return w


def inverse_permutation(word: Sequence[int]) -> tuple[int, ...]:
    w = check_permutation(word)
    inv = [0] * len(w)
    for i, x in enumerate(w, start=1):
        inv[x - 1] = i
    return tuple(inv)


def permutation_graph(word: Sequence[int]) -> Graph:
    """The inversion graph of a permutation: vertices "1".."p", edge ij (i<j) iff word[i] > word[j].

    >>> sorted(permutation_graph((3, 1, 4, 2)).edges)
    [('1', '2'), ('1', '4'), ('3', '4')]
    """
    w = check_permutation(word)
    names = [str(i) for i in range(1, len(w) + 1)]
    edges = [(names[i], names[j]) for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j]]
    return Graph.build(names, edges)


def permutation_from_orders(first: Sequence, second: Sequence) -> tuple[int, ...]:
    """The permutation carrying two linear orders of the same set.

    ``first`` and ``second`` list the same elements; position i of the result
    is the ``first``-rank of the i-th element of ``second``.
    """
    if sorted(map(repr, first)) != sorted(map(repr, second)) or len(set(first)) != len(first):
        raise DomainError("the two orders must list the same distinct elements")
    rank1 = {x: i for i, x in enumerate(first, start=1)}
    return tuple(rank1[x] for x in second)


# ---------------------------------------------------------------------------
# twins


def find_twins(g: Graph) -> list[tuple[str, str]]:
    """All pairs u < v with N(u) - {v} = N(v) - {u} (adjacent or not)."""
    out = []
    for u, v in itertools.combinations(sorted(g.vertices), 2):
        if g.neighbors(u) - {v} == g.neighbors(v) - {u}:
            out.append((u, v))
    return out


# ---------------------------------------------------------------------------
# isomorphism at desk scale


def _neighbor_degree_profile(g: Graph) -> dict[str, tuple[int, tuple[int, ...]]]:
    return {
        v: (g.degree(v), tuple(sorted(g.degree(w) for w in g.neighbors(v))))
        for v in g.vertices
    }


def is_isomorphic(g: Graph, h: Graph, cap: int = DEFAULT_ISO_CAP) -> bool:
    """Exhaustive isomorphism test with degree-profile pruning; |V| <= cap."""
    if len(g.vertices) > cap or len(h.vertices) > cap:
        raise CapExceeded(f"isomorphism cap {cap} exceeded ({len(g.vertices)} / {len(h.vertices)} vertices)")
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return False
    gp, hp = _neighbor_degree_profile(g), _neighbor_degree_profile(h)
    if sorted(gp.values()) != sorted(hp.values()):
        return False

    # Map high-degree vertices first; candidates share the degree profile.
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    cands = {v: [w for w in h.vertices if hp[w] == gp[v]] for v in order}

    def extend(i: int, mapping: dict[str, str], used: set[str]) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in cands[v]:
            if w in used:
                continue
            ok = all(
                g.has_edge(v, prev) == h.has_edge(w, mapping[prev])
                for prev in order[:i]
            )
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1, mapping, used):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return extend(0, {}, set())


# ---------------------------------------------------------------------------
# text formats


def edge_rows(g: Graph, order: list[str]) -> Iterator[tuple[str, list[int]]]:
    """Each u of ``order == sorted(g.vertices)`` with the sorted ranks of its later neighbours.

    Edges are normalised (u < v), so bucketing each edge under the rank of
    u and sorting the integer ranks of the v's in each bucket gives, row
    after row, the edges in ``sorted(g.edges)`` order, with no string
    comparison and no sorted copy of the edge set.  Every vertex has a row,
    possibly empty.
    """
    rank = {v: i for i, v in enumerate(order)}
    later: list[list[int]] = [[] for _ in order]
    for u, v in g.edges:
        later[rank[u]].append(rank[v])
    for u, ranks in zip(order, later):
        ranks.sort()
        yield u, ranks


def graph_lines(g: Graph, name: str = "g") -> Iterator[str]:
    """The ``.g`` text in pieces: the header with the ``v`` lines, then the ``e`` lines of each ``edge_rows`` row."""
    order = sorted(g.vertices)
    yield f"graph {name} {len(g.vertices)} {len(g.edges)}\n" + "".join(f"v {v}\n" for v in order)
    for u, ranks in edge_rows(g, order):
        if ranks:
            yield "".join(f"e {u} {order[r]}\n" for r in ranks)


def graph_to_text(g: Graph, name: str = "g") -> str:
    """Serialize: header ``graph <name> <n> <m>``, then sorted ``v``/``e`` lines."""
    return "".join(graph_lines(g, name))


def graph_from_text(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("graph "):
        raise FormatError("graph file must start with a 'graph <name> <n> <m>' header")
    try:
        _, _, n, m = lines[0].split()
        n, m = int(n), int(m)
    except ValueError as exc:
        raise FormatError(f"bad graph header: {lines[0]!r}") from exc
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "v" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise FormatError(f"bad graph line: {ln!r}")
    g = Graph.build(vertices, edges)
    if len(g.vertices) != n or len(g.edges) != m:
        raise FormatError("graph header counts do not match the body")
    return g


def sequence_to_text(seq: Sequence[ContractionStep]) -> str:
    return "".join(f"c {s.u} {s.v} {s.merged}\n" for s in seq)


def sequence_from_text(text: str) -> ContractionSequence:
    steps = []
    for ln in text.splitlines():
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 4 or parts[0] != "c":
            raise FormatError(f"bad sequence line: {ln!r}")
        steps.append(ContractionStep(parts[1], parts[2], parts[3]))
    return tuple(steps)
