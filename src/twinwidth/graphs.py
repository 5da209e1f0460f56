"""Graphs, contraction sequences, permutations, twins, and small-scale isomorphism.

Vertices are opaque strings.  A ``Graph`` holds one adjacency form: the
names, strictly sorted, and one int bitmask row per name over that order.
The solvers and ``sequence_width`` start from a copy of the rows, and the
``.g`` and JSON writers read each row's bits above its own index.  One
rule, ``span_graph``, builds every interval and overlap graph from named
spans: ``ilrep``'s decoders, ``permutation_graph`` (the overlap graph of
its two-line model) and ``obstruction.generate_exposer`` call it.  The
``.g`` loader reads its text in one pass, keeps the edges as a flat list
of int ids and fills the rows with ``_rows_from_ends``, the rule
``Graph.build`` also uses; ``Graph.build`` is for name-pair input:
``relabel`` and other edge lists.

Along a contraction sequence the graph becomes a trigraph: a second,
disjoint set of "red" edges records where merged vertices disagreed.
Contracting u and v yields one vertex whose red neighbourhood is

    ((N_red(u) | N_red(v)) | (N(u) ^ N(v))) - {u, v}

where N is the full (black + red) neighbourhood; its black neighbours are the
rest of N(u) | N(v).  ``_contract_masks`` is that rule on bitmask
neighbourhoods, and the only one in the package: the greedy solver merges
with it and ``sequence_width`` replays sequences with it.

One-line permutations are plain tuples over 1..p, e.g. ``(3, 1, 4, 2)``.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, DomainError, FormatError
from .records import record

DEFAULT_ISO_CAP = 12


@record
class Graph:
    """A simple graph: bit j of ``rows[i]`` is set iff ``names[i]`` and ``names[j]`` are adjacent.

    The rows are symmetric (not checked: that costs a pass over the edges),
    with no bit i in row i and none at ``len(names)`` or above.  Code that
    knows the rows constructs ``Graph(names, rows)``; ``Graph.build`` takes
    vertices and name pairs, and ``graph_from_text`` reads ``.g`` text
    without listing name pairs.  ``vertices`` and ``edges`` (smaller name
    first) are views derived on first use.
    """

    names: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        names, limit = self.names, 1 << len(self.names)
        if any(u >= v for u, v in zip(names, names[1:])):
            raise DomainError("vertex names must be strictly sorted")
        if len(self.rows) != len(names):
            raise DomainError(f"{len(self.rows)} rows for {len(names)} vertices")
        for i, row in enumerate(self.rows):
            if not 0 <= row < limit or row >> i & 1:
                raise DomainError(f"the row of {names[i]!r} has a loop or a bit outside the vertex set")

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        """The graph on ``set(vertices)``; the first loop or pair with an endpoint outside it, in edge order, is a ``DomainError``."""
        names = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(names)}
        ends: list[int] = []
        for u, v in edges:
            if u == v:
                raise DomainError(f"loop at vertex {u!r}")
            try:
                ends += index[u], index[v]
            except KeyError:
                raise DomainError(f"edge {(min(u, v), max(u, v))!r} has endpoint outside the vertex set") from None
        return Graph(names, _rows_from_ends(len(names), ends))

    @cached_property
    def index(self) -> dict[str, int]:  # each name's position in names and rows
        return {v: i for i, v in enumerate(self.names)}

    @cached_property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.names)

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((u, self.names[j]) for u, later in zip(self.names, edge_rows(self)) for j in later)

    def neighbors(self, v: str) -> frozenset[str]:
        return frozenset(map(self.names.__getitem__, _bits(self.rows[self.index[v]])))

    def degree(self, v: str) -> int:
        return self.rows[self.index[v]].bit_count()

    def has_edge(self, u: str, v: str) -> bool:
        index = self.index
        return u in index and v in index and self.rows[index[u]] >> index[v] & 1 == 1

    def subgraph(self, keep: Iterable[str]) -> "Graph":
        ks = frozenset(keep)
        if not ks <= self.vertices:
            raise DomainError("subgraph vertices not contained in the graph")
        kept = [i for i, v in enumerate(self.names) if v in ks]
        new = {i: 1 << k for k, i in enumerate(kept)}
        rows = tuple(sum(new.get(j, 0) for j in _bits(self.rows[i])) for i in kept)
        return Graph(tuple(self.names[i] for i in kept), rows)

    def relabel(self, mapping: dict[str, str]) -> "Graph":
        if set(mapping) != set(self.vertices) or len(set(mapping.values())) != len(self.vertices):
            raise DomainError("relabel mapping must be a bijection on the vertex set")
        return Graph.build(mapping.values(), ((mapping[u], mapping[v]) for u, v in self.edges))

    def complement(self) -> "Graph":
        full = (1 << len(self.names)) - 1
        return Graph(self.names, tuple(full ^ row ^ 1 << i for i, row in enumerate(self.rows)))


@record
class ContractionStep:
    u: str
    v: str
    merged: str


ContractionSequence = tuple[ContractionStep, ...]


class SequenceError(DomainError):
    """A contraction sequence is malformed (wrong length or missing vertices)."""


# a row's binary digit characters as the bytes 0 and 1, for ``itertools.compress``
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _rows_from_ends(n: int, ends: Sequence[int]) -> tuple[int, ...]:
    """The n bitmask rows of the edges ``ends[0] ends[1]``, ``ends[2] ends[3]``, ... between ranks below n.

    One bitmap per row, bit j in byte j >> 3, read as one int at the end.
    Each pair's two ends must be distinct ranks below n; a repeated edge
    sets no new bit.
    """
    bitmaps = [bytearray(n + 7 >> 3) for _ in range(n)]
    pairs = iter(ends)
    for i, j in zip(pairs, pairs):
        bitmaps[i][j >> 3] |= 1 << (j & 7)
        bitmaps[j][i >> 3] |= 1 << (i & 7)
    return tuple(int.from_bytes(b, "little") for b in bitmaps)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    n = len(g.names)
    if not n:
        raise DomainError("empty graph has no contraction sequence")
    if len(seq) != n - 1:
        raise SequenceError(f"sequence has {len(seq)} steps, a full sequence on {n} vertices needs {n - 1}")
    black, red, slot = list(g.rows), [0] * n, dict(g.index)
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
# interval and overlap graphs of spans


def span_graph(spans: dict[str, tuple[int, int]], overlap: bool) -> Graph:
    """The graph on named closed spans (l, r), 0 <= l <= r: the interval graph, or with ``overlap`` the overlap graph.

    Two spans are adjacent when they meet; overlapping ones also need that
    neither strictly contains the other, so sharing an end makes an edge.
    Over the names in sorted order, ``first[x]`` masks the spans with first
    end < x and ``second[x]`` those with second end >= x.  Span (l, r) meets
    exactly ``first[r + 1] & second[l]``.  Of those, the overlap kind keeps
    the spans not strictly inside it, ``first[l + 1] | second[r]``, and
    drops those strictly containing it, ``first[l] & second[r + 1]``, by
    an XOR, since all of them are kept so far.  A row costs a few big-int
    operations whatever its degree.
    """
    names = sorted(spans)
    ends = [spans[v] for v in names]
    top = max((r for _, r in ends), default=0) + 2
    first, second = [0] * top, [0] * top
    for k, (l, r) in enumerate(ends):
        first[l + 1] |= 1 << k
        second[r] |= 1 << k
    # running ORs, from the left and from the right; a position where no span ends keeps the previous int
    acc = 0
    first = [acc := acc | bits if bits else acc for bits in first]
    acc = 0
    second = [acc := acc | bits if bits else acc for bits in reversed(second)]
    second.reverse()
    if overlap:
        rows = [
            (first[r + 1] & second[l] & (first[l + 1] | second[r])) ^ (first[l] & second[r + 1]) ^ 1 << k
            for k, (l, r) in enumerate(ends)
        ]
    else:
        rows = [(first[r + 1] & second[l]) ^ 1 << k for k, (l, r) in enumerate(ends)]
    return Graph(tuple(names), tuple(rows))


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

    It is the overlap graph of the two-line model: position i is the span
    (i, 2p - word[i]).  Every first end lies left of every second end, so
    two spans always meet, and for i < j span j lies inside span i exactly
    when word[j] > word[i].

    >>> sorted(permutation_graph((3, 1, 4, 2)).edges)
    [('1', '2'), ('1', '4'), ('3', '4')]
    """
    w = check_permutation(word)
    p = len(w)
    return span_graph({str(i + 1): (i, 2 * p - x) for i, x in enumerate(w)}, overlap=True)


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
    """All pairs u < v with N(u) - {v} = N(v) - {u} (adjacent or not): rows equal off the pair's two bits."""
    names, rows = g.names, g.rows
    pairs = itertools.combinations(range(len(names)), 2)
    return [(names[i], names[j]) for i, j in pairs if not (rows[i] ^ rows[j]) & ~(1 << i | 1 << j)]


def first_twin_pair(g: Graph) -> tuple[str, str] | None:
    """``find_twins(g)[0]``, or None, from one pass that groups the rows.

    Non-adjacent twins have equal rows and adjacent twins have equal rows
    with their own bits set, so each group of equal keys is a set of twins,
    and its first two members are its least pair.
    """
    groups: dict[tuple[bool, int], list[int]] = {}
    for i, row in enumerate(g.rows):
        groups.setdefault((False, row), []).append(i)
        groups.setdefault((True, row | 1 << i), []).append(i)
    first = min((group[:2] for group in groups.values() if len(group) > 1), default=None)
    if first is None:
        return None
    i, j = first
    return g.names[i], g.names[j]


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


def edge_rows(g: Graph) -> Iterator[list[int]]:
    """Per vertex, in name order, the ascending ranks of its later neighbours: its row's bits above its own.

    Row after row, these are the edges in ``sorted(g.edges)`` order, with no
    string comparison and no edge set.  Every vertex has a row, possibly
    empty.  The binary digits of the row above its own bit are read once, as
    one byte per digit, lowest first, and select the later ranks at C level
    from one shared tuple of ranks, so no rank is built twice.
    """
    ranks = tuple(range(len(g.rows)))
    for i, row in enumerate(g.rows):
        yield list(itertools.compress(ranks[i + 1 :], bin(row >> i + 1)[:1:-1].encode().translate(_DIGITS)))


def graph_lines(g: Graph, name: str = "g") -> Iterator[str]:
    """The ``.g`` text in pieces: the header with the ``v`` lines, then the ``e`` lines of each ``edge_rows`` row."""
    names = g.names
    yield f"graph {name} {len(names)} {sum(map(int.bit_count, g.rows)) // 2}\n" + "".join(f"v {v}\n" for v in names)
    for u, later in zip(names, edge_rows(g)):
        if later:
            head = f"e {u} "
            yield head + f"\n{head}".join(map(names.__getitem__, later)) + "\n"


def graph_to_text(g: Graph, name: str = "g") -> str:
    """Serialize: header ``graph <name> <n> <m>``, then sorted ``v``/``e`` lines."""
    return "".join(graph_lines(g, name))


_CHUNK = 1 << 15  # characters per slice of text that ``_line_blocks`` splits at once


def _line_blocks(text: str) -> Iterator[list[str]]:
    """The lines of ``text.splitlines()`` in blocks, each split from a slice of about ``_CHUNK`` characters.

    Each slice ends just after a ``\\n``, and no line break spans that cut
    (``\\r\\n`` ends with it), so the blocks hold the same lines and no
    list of every line is built.
    """
    start, size = 0, len(text)
    while start < size:
        cut = text.find("\n", start + _CHUNK) + 1 or size
        yield text[start:cut].splitlines()
        start = cut


def graph_from_text(text: str) -> Graph:
    """Parse ``.g`` text in one pass over its lines, with no list of lines or of name pairs.

    Names get provisional ids in order of first appearance, and ``e`` lines
    append their two ids to one flat list, which is mapped to sorted ranks
    once every ``v`` line is known.  The errors come in the order of a
    parse that lists every line before it builds: the header's, then the
    first bad line's, then the first loop or undeclared endpoint in edge
    order (``Graph.build``'s, on a replay that runs only when some edge has
    one), and the header counts last.
    """
    lines = itertools.chain.from_iterable(_line_blocks(text))
    header = next(filter(str.strip, lines), None)
    if header is None or not header.startswith("graph "):
        raise FormatError("graph file must start with a 'graph <name> <n> <m>' header")
    try:
        _, _, n, m = header.split()
        n, m = int(n), int(m)
    except ValueError as exc:
        raise FormatError(f"bad graph header: {header!r}") from exc
    vertices: list[str] = []
    ids: defaultdict[str, int] = defaultdict(itertools.count().__next__)  # so list(ids)[k] is the name with id k
    ends: list[int] = []  # the ids of each e line's two names
    for ln in lines:
        parts = ln.split()
        if len(parts) == 3 and parts[0] == "e":
            ends.append(ids[parts[1]])
            ends.append(ids[parts[2]])
        elif len(parts) == 2 and parts[0] == "v":
            vertices.append(parts[1])
        elif parts:
            raise FormatError(f"bad graph line: {ln!r}")
    names = tuple(sorted(set(vertices)))
    rank = {v: r for r, v in enumerate(names)}
    ranked = list(map([rank.get(v, -1) for v in ids].__getitem__, ends))
    pairs = iter(ends)
    if -1 in ranked or any(map(operator.eq, pairs, pairs)):
        named = map(list(ids).__getitem__, ends)
        g = Graph.build(names, zip(named, named))  # raises that edge's error
    else:
        g = Graph(names, _rows_from_ends(len(names), ranked))
    if len(names) != n or sum(map(int.bit_count, g.rows)) != 2 * m:
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
