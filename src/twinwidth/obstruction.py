"""Explicit obstructions: permutation submatrices, induced permutation
subgraphs of overlap (circle) graphs, and exposure witnesses in interval
graphs.

A representation matrix with a (2p+1)-mixed minor contains, for every
permutation of p elements, that permutation's 0/1 matrix as a submatrix
whose rows all start at distinct first ends; the witness is found by picking
a 1-entry in every second zone of the division.  Because opening a circle
flips one chord side, and because the two exposure chains read the interval
ends from opposite directions, the permutation requested by a caller is
composed with the reversal map before extraction; every extraction
re-verifies its output against the requested permutation, which is the
actual contract.

``check_exposes`` is the membership test for the family of graphs exposing a
permutation: two strict neighbourhood-nesting chains over the two mate sets,
one in core order, one in permuted order.  The family itself is never
materialized (it grows combinatorially).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .errors import DomainError, ExtractionError
from .graphs import Graph, check_permutation, first_twin_pair, inverse_permutation, span_graph
from .ilrep import INTERVAL, OVERLAP, IlMatrix, IntervalLikeRep, build_ilmatrix, decode, pair_name
from .records import record
from .trimatrix import Division, MixedMinorWitness, find_mixed_minor, permutation_matrix, verify_division_mixed


def reversal(word: Sequence[int]) -> tuple[int, ...]:
    """Compose with the order-reversing map: i -> p + 1 - word[i]."""
    w = check_permutation(word)
    p = len(w)
    return tuple(p + 1 - v for v in w)


class MateResolutionError(DomainError):
    """No mate vertex shares the required end.

    On a condensed representation of a twin-free graph every extracted
    vertex has both mates, so this signals a violated precondition.
    """


@record
class PermSubmatrixWitness:
    row_keys: tuple[str, ...]  # in matrix row order; first ends pairwise distinct
    col_keys: tuple[str, ...]  # in matrix column order
    perm: tuple[int, ...]  # the permutation whose 0/1 matrix the submatrix equals

    def to_json(self) -> dict:
        return {
            "type": "perm-submatrix",
            "permutation": list(self.perm),
            "rows": list(self.row_keys),
            "cols": list(self.col_keys),
            "verification": "pass",
        }


def _assert_witness(m: IlMatrix, rows: tuple[str, ...], cols: tuple[str, ...], word: tuple[int, ...]) -> None:
    target = permutation_matrix(word)
    for i, rk in enumerate(rows):
        for j, ck in enumerate(cols):
            if m.matrix.entry(rk, ck) != target.rows[i][j]:
                raise ExtractionError("extracted submatrix does not equal the permutation matrix")
    firsts = [m.row_pairs[rk][0] for rk in rows]
    if len(set(firsts)) != len(firsts):
        raise ExtractionError("extracted rows share a first end")


def extract_perm_submatrix(
    m: IlMatrix,
    word: Sequence[int],
    minor: "MixedMinorWitness | Division | None" = None,
) -> PermSubmatrixWitness:
    """A submatrix equal to the permutation matrix of ``word``.

    Requires a (2p+1)-mixed minor where p = len(word); one is searched for
    when not supplied.  In every zone indexed by an even row block and the
    doubled permutation value the row-major smallest 1-entry is taken;
    should the distinct-first-end condition fail for that choice, other
    1-entries are tried (the division guarantees a valid choice exists).
    """
    w = check_permutation(word)
    p = len(w)
    k = 2 * p + 1
    if minor is None:
        minor = find_mixed_minor(m.matrix, k)
        if minor is None:
            raise DomainError(f"matrix has no {k}-mixed minor")
    division = minor if isinstance(minor, Division) else minor.division
    if len(division.row_blocks) != k or len(division.col_blocks) != k:
        raise DomainError(f"supplied division has order {len(division.row_blocks)}, need {k}")
    if not verify_division_mixed(m.matrix, division):
        raise DomainError("supplied division is not all-mixed for this matrix")

    row_blocks = division.row_blocks
    col_blocks = division.col_blocks
    candidates: list[list[tuple[str, str]]] = []
    for i in range(1, p + 1):
        rows = row_blocks[2 * i - 1]
        cols = col_blocks[2 * w[i - 1]]
        ones = [(rk, ck) for rk in rows for ck in cols if m.matrix.entry(rk, ck) == 1]
        if not ones:
            raise ExtractionError("an interior zone of the division carries no 1-entry")
        candidates.append(ones)

    chosen: list[tuple[str, str]] = []

    def pick(i: int, used_firsts: set[str]) -> bool:
        if i == p:
            return True
        for rk, ck in candidates[i]:
            first = m.row_pairs[rk][0]
            if first in used_firsts:
                continue
            chosen.append((rk, ck))
            if pick(i + 1, used_firsts | {first}):
                return True
            chosen.pop()
        return False

    if not pick(0, set()):
        raise ExtractionError("could not realize the distinct-first-end condition")

    rpos, cpos = m.matrix._row_pos, m.matrix._col_pos
    rows = tuple(sorted((rk for rk, _ in chosen), key=rpos.__getitem__))
    cols = tuple(sorted((ck for _, ck in chosen), key=cpos.__getitem__))
    _assert_witness(m, rows, cols, w)
    return PermSubmatrixWitness(rows, cols, w)


# ---------------------------------------------------------------------------
# circle-graph permutation subgraphs


@record
class CirclePermWitness:
    """The vertex order is the map: ``vertices[i]`` plays position i + 1 of ``permutation_graph(perm)``."""

    vertices: tuple[str, ...]  # the submatrix row order
    perm: tuple[int, ...]  # the requested permutation; the subgraph realizes it
    submatrix: PermSubmatrixWitness

    def to_json(self) -> dict:
        return {
            "type": "permutation-subgraph",
            "permutation": list(self.perm),
            "vertices": list(self.vertices),
            "submatrix": self.submatrix.to_json(),
            "verification": "pass",
        }


def circle_permutation_witness(
    rep: IntervalLikeRep,
    word: Sequence[int],
    minor: MixedMinorWitness | Division | None = None,
) -> CirclePermWitness:
    """Vertices of the overlap graph ``decode(rep)`` inducing the permutation graph of ``word``."""
    w = check_permutation(word)
    if rep.kind != OVERLAP:
        raise DomainError("circle witnesses need an overlap representation")
    g = decode(rep)
    sub = extract_perm_submatrix(build_ilmatrix(rep), reversal(w), minor)
    vertices = sub.row_keys
    for i, j in itertools.combinations(range(len(w)), 2):
        if g.has_edge(vertices[i], vertices[j]) != (w[i] > w[j]):
            raise ExtractionError("induced subgraph is not the requested permutation graph")
    return CirclePermWitness(vertices, w, sub)


# ---------------------------------------------------------------------------
# exposure


@record
class ExposureWitness:
    graph: Graph  # induced on core + mates
    core: tuple[str, ...]  # ordered: nesting order of the first chain
    side1: tuple[str, ...]  # mate of core[i] in the first chain
    side2: tuple[str, ...]  # mate of core[i] in the second chain
    perm: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "type": "exposure",
            "permutation": list(self.perm),
            "vertices": list(self.graph.names),
            "core": list(self.core),
            "mates": {
                "side1": dict(zip(self.core, self.side1)),
                "side2": dict(zip(self.core, self.side2)),
            },
            "verification": "pass",
        }


def check_exposes(
    h: Graph,
    core: Sequence[str],
    side1: Iterable[str],
    side2: Iterable[str],
    word: Sequence[int],
) -> bool:
    """Whether (core order, side1, side2) realizes the permutation in h.

    The neighbourhoods of the ordered core vertices inside side1 must nest
    strictly in core order and inside side2 in permuted order; all of them
    nonempty.  Edges inside the parts and between the sides are ignored.
    """
    w = check_permutation(word)
    cs, s1, s2 = tuple(core), frozenset(side1), frozenset(side2)
    p = len(w)
    if len(cs) != p or len(s1) != p or len(s2) != p:
        raise DomainError("core and both mate sets must have the permutation's size")
    parts = [frozenset(cs), s1, s2]
    if len(frozenset().union(*parts)) != 3 * p:
        raise DomainError("core and mate sets must be pairwise disjoint")
    for vs in parts:
        if not vs <= h.vertices:
            raise DomainError("partition leaves the graph")

    n1 = {v: h.neighbors(v) & s1 for v in cs}
    n2 = {v: h.neighbors(v) & s2 for v in cs}
    if any(not n1[v] or not n2[v] for v in cs):
        return False
    chain1 = all(n1[cs[i]] < n1[cs[i + 1]] for i in range(p - 1))
    chain2 = all(n2[cs[w[i] - 1]] < n2[cs[w[i + 1] - 1]] for i in range(p - 1))
    return chain1 and chain2


def interval_exposure_witness(
    rep: IntervalLikeRep,
    word: Sequence[int],
    minor: MixedMinorWitness | Division | None = None,
) -> ExposureWitness:
    """An induced subgraph of the twin-free interval graph ``decode(rep)`` exposing ``word``.

    Needs a condensed representation: each extracted vertex's first end must
    also be some other vertex's second end (and symmetrically), which is
    exactly what condensing guarantees; failures raise MateResolutionError.
    """
    w = check_permutation(word)
    p = len(w)
    if rep.kind != INTERVAL:
        raise DomainError("exposure witnesses need an interval representation")
    g = decode(rep)
    pair = first_twin_pair(g)
    if pair:
        raise DomainError(f"graph has twins, e.g. {pair}; exposure extraction needs a twin-free graph")

    ilm = build_ilmatrix(rep)
    inv = inverse_permutation(w)
    # Submatrix of the reversal-conjugate: its rows, read in decreasing
    # first-end order, expose exactly the requested permutation.
    target = tuple(inv[p - j] for j in range(1, p + 1))
    sub = extract_perm_submatrix(ilm, target, minor)

    chosen = set(sub.row_keys)
    pairs_by_second: dict[str, list[tuple[str, str]]] = {}
    pairs_by_first: dict[str, list[tuple[str, str]]] = {}
    for pr in rep.sorted_pairs():
        pairs_by_first.setdefault(pr[0], []).append(pr)
        pairs_by_second.setdefault(pr[1], []).append(pr)

    def mate(end: str, table: dict[str, list[tuple[str, str]]], x: tuple[str, str]) -> str:
        options = [pr for pr in table.get(end, []) if pr != x and pair_name(pr) not in chosen]
        if not options:
            raise MateResolutionError(
                f"no mate shares end {end!r}; the representation is not condensed or the graph has twins"
            )
        return pair_name(options[0])

    xs = [ilm.row_pairs[rk] for rk in sub.row_keys]  # increasing first ends
    left_mates = [mate(x[0], pairs_by_second, x) for x in xs]
    right_mates = [mate(x[1], pairs_by_first, x) for x in xs]
    if len(set(left_mates)) != p or len(set(right_mates)) != p or set(left_mates) & set(right_mates):
        raise ExtractionError("mates collide; the planted instance is degenerate")

    # Core order: decreasing first end; its own mates line up with the chains.
    core = tuple(pair_name(x) for x in reversed(xs))
    side1 = tuple(reversed(left_mates))
    side2 = tuple(reversed(right_mates))
    keep = set(core) | set(side1) | set(side2)
    h = g.subgraph(keep)
    if not check_exposes(h, core, side1, side2, w):
        raise ExtractionError("extracted subgraph does not expose the requested permutation")
    return ExposureWitness(h, core, side1, side2, w)


# ---------------------------------------------------------------------------
# canonical exposers


@record
class ExposerInstance:
    graph: Graph
    core: tuple[str, ...]
    side1: tuple[str, ...]
    side2: tuple[str, ...]
    perm: tuple[int, ...]
    intervals: tuple[tuple[str, int, int], ...]


def generate_exposer(word: Sequence[int]) -> ExposerInstance:
    """The canonical interval graph exposing ``word``: the interval graph of its intervals.

    Three cliques of size p on a line: the mates of the first chain end
    exactly at the core intervals' left ends, the second chain's mates start
    at their right ends, which are arranged by the permutation; the two mate
    cliques never touch each other.
    """
    w = check_permutation(word)
    p = len(w)
    inv = inverse_permutation(w)
    core = [f"w{m}" for m in range(1, p + 1)]
    side1 = [f"u{i}" for i in range(1, p + 1)]
    side2 = [f"v{i}" for i in range(1, p + 1)]
    intervals = [(core[k], p - 1 - k, 2 * p + inv[k]) for k in range(p)]
    intervals += [(side1[k], -1 - k, p - 1 - k) for k in range(p)]
    intervals += [(side2[k], 2 * p + inv[k], 3 * p + inv[k]) for k in range(p)]
    g = span_graph({v: (l + p, r + p) for v, l, r in intervals}, overlap=False)  # + p: no end is negative
    return ExposerInstance(g, tuple(core), tuple(side1), tuple(side2), w, tuple(intervals))


# ---------------------------------------------------------------------------
# planted instances (test infrastructure)


@record
class PlantedInstance:
    rep: IntervalLikeRep
    minor: Division  # the intended all-mixed division
    order: int  # = 2p + 1


def planted_mixed_minor_rep(p: int, kind: str) -> PlantedInstance:
    """A representation whose matrix carries a known (2p+1)-mixed minor.

    Layout on the line, left to right: ends s_1..s_2p with a point vertex on
    each and spine pairs chaining them, a terminator end t, then per block j
    two ends c_j, d_j with a bridge pair (c_j, d_j) and a point vertex on
    d_j.  Every s_i sends a "long" pair to every c_j, so each zone of the
    intended division holds a 1-entry while the 2-staircase of the dummy
    rows mixes the leftmost and lowest zones.  The decoded interval graph is
    twin-free and the representation is condensed, which the exposure
    extraction needs; overlap decodings reuse the same matrix.
    """
    if p < 1:
        raise DomainError("p must be positive")
    b = 2 * p
    s = [f"s{i:02d}" for i in range(1, b + 1)]
    t = "t"
    right: list[str] = []
    for j in range(1, b + 1):
        right.extend((f"c{j:02d}", f"d{j:02d}"))
    ends = tuple(s + [t] + right)

    pairs: set[tuple[str, str]] = set()
    pairs.update((e, e) for e in s)  # point vertices pinning the left ends
    pairs.update((s[i], s[i + 1]) for i in range(b - 1))  # spine
    pairs.add((s[-1], t))
    pairs.add((t, t))
    for i in range(b):
        for j in range(1, b + 1):
            pairs.add((s[i], f"c{j:02d}"))  # the 1-entries of the interior zones
    for j in range(1, b + 1):
        pairs.add((f"c{j:02d}", f"d{j:02d}"))  # bridges pin each c end
        pairs.add((f"d{j:02d}", f"d{j:02d}"))  # points pin each d end

    rep = IntervalLikeRep(ends, frozenset(pairs), kind)
    ilm = build_ilmatrix(rep)

    col_blocks = [tuple(s) + (t,)]
    col_blocks.extend((f"c{j:02d}", f"d{j:02d}") for j in range(1, b + 1))
    row_blocks: list[tuple[str, ...]] = []
    for i in range(b):
        row_blocks.append(tuple(k for k in ilm.matrix.row_keys if ilm.row_pairs[k][0] == s[i]))
    bottom = tuple(k for k in ilm.matrix.row_keys if ilm.row_pairs[k][0] not in set(s))
    row_blocks.append(bottom)
    division = Division(tuple(row_blocks), tuple(col_blocks))
    if not verify_division_mixed(ilm.matrix, division):
        raise ExtractionError("planted division is not all-mixed; construction bug")
    return PlantedInstance(rep, division, 2 * p + 1)
