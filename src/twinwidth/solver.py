"""Exact and heuristic twin-width of graphs at desk scale.

The exact solver is the bounded partition-lattice walk of
``trimatrix._walk`` on a single axis, the vertex groups; it skips the
states that cannot beat the best width found so far.  Its ``profile`` hook
reads the quotient trigraph from bitmask neighbourhoods: two groups have a
black edge iff all cross pairs are edges, no edge iff none are, and a red
edge otherwise.  The hook also names the first pair of twin groups (same
status toward every other group); merging them creates no red edge, so it
is the only move the walk tries from that state.

The greedy solver is a bitmask heuristic for graphs far beyond the exact
cap; it merges with ``graphs._contract_masks``, the rule that
``graphs.sequence_width`` replays when a sequence is verified.  That rule
changes the masks of the merged vertex, and those of its neighbours only at
the two merged bits.  A pair's merged red count depends on its two ends'
masks alone, so the greedy keeps every pair's count between steps: a pair
with neither end among those vertices keeps it, a pair of a neighbour with
a vertex outside them moves by -1 or 0 (a whole row of counts shifts at
once), and only the pairs at the merged vertex or with both ends at
neighbours are recounted.  Both solvers name a merged vertex ``u + v``,
primed while a live vertex has that name, so every sequence they emit
re-verifies.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right

from .errors import CapExceeded, DomainError
from .graphs import ContractionStep, Graph, _bits, _contract_masks, sequence_width
from .records import record
from .trimatrix import DEFAULT_ORDERING_CAP, TriMatrix, _walk, find_mixed_minor

DEFAULT_EXACT_CAP = 10


@record
class SolveResult:
    value: int
    optimal: bool
    sequence: tuple[ContractionStep, ...]
    nodes_explored: int


def _contract_name(live: set[str], u: str, v: str) -> str:
    """Name the vertex merging u and v, and make it live in place of them.

    The name is ``u + v``, primed until no other live vertex has it: a plain
    concatenation can repeat a live name (``a`` + ``b`` beside a vertex
    ``ab``), which ``sequence_width`` rejects.
    """
    live -= {u, v}
    merged = u + v
    while merged in live:
        merged += "'"
    live.add(merged)
    return merged


def twinwidth_exact(g: Graph, cap: int = DEFAULT_EXACT_CAP) -> SolveResult:
    """Exact twin-width and an optimal contraction sequence; |V| <= cap."""
    n = len(g.names)
    if n > cap:
        raise CapExceeded(f"exact twin-width cap {cap} exceeded ({n} vertices)")
    if n == 0:
        raise DomainError("empty graph has no contraction sequence")
    order, adj = g.names, g.rows

    def profile(state: tuple) -> tuple[int, tuple | None]:
        (p,) = state
        k = len(p)
        # per group: vertices adjacent to some member, and to every member
        some, every = [0] * k, [-1] * k
        for i, grp in enumerate(p):
            for v in _bits(grp):
                some[i] |= adj[v]
                every[i] &= adj[v]
        # per group: bitmasks over group indices of its black and red edges
        black, red = [0] * k, [0] * k
        for i, j in itertools.combinations(range(k), 2):
            if some[i] & p[j]:
                status = black if every[i] & p[j] == p[j] else red
                status[i] |= 1 << j
                status[j] |= 1 << i
        here = max(r.bit_count() for r in red)
        # Twin groups (identical rows off the pair) merge first; the merge
        # introduces no red edges, so it never hurts.
        for a, b in itertools.combinations(range(k), 2):
            if not ((black[a] ^ black[b]) | (red[a] ^ red[b])) & ~((1 << a) | (1 << b)):
                return here, (0, a, b)
        return here, None

    value, path, nodes = _walk((n,), profile)
    names = {1 << i: v for i, v in enumerate(order)}
    live = set(order)
    steps: list[ContractionStep] = []
    for _, ga, gb in path:
        merged_name = _contract_name(live, names[ga], names[gb])
        steps.append(ContractionStep(names[ga], names[gb], merged_name))
        names[ga | gb] = merged_name
    return SolveResult(value, True, tuple(steps), nodes)


def _pair_counts(closed: list[int], black: list[int], p: int) -> list[int]:
    """Merged red count + 2 of live position p with each later live position.

    ``closed[x]`` is x's red mask with x's own bit set, so the union below
    holds both ends of the pair and exactly their merged red neighbours.
    """
    c, b = closed[p], black[p]
    return [(c | c2 | (b ^ b2)).bit_count() for c2, b2 in zip(closed[p + 1 :], black[p + 1 :])]


def twinwidth_greedy(g: Graph) -> SolveResult:
    """Upper bound: contract the pair minimizing the next maximum red degree.

    Ties break lexicographically on the (sorted) pair of group names.  Each
    live vertex keeps its pairs' merged red counts with every later live
    vertex, and a lower bound on their minimum.  Merging b into a changes
    the masks of a, and those of its neighbours T only at bits a and b.  So
    a pair with no end in T + {a} keeps its count, and a pair of x in T with
    y outside T + {a} moves by 1 - [x~a] - [x~b]: by -1 if x was a common
    neighbour of a and b, else not at all.  The row of a is recounted.  The
    row of x in T is shifted by -1 as a whole if x was a common neighbour
    (each row keeps one shift, added to every count it stores), is
    recounted only at the later members of T + {a}, and takes its minimum
    as its bound.  Every other row is recounted at a and lowered by 1 at its
    later common neighbours.  Rows are scanned by rising bound, and a pair
    whose count exceeds the best width so far is skipped.  A pair that
    passes is scored by one scan of the red degrees, falling, each with the
    mask of live vertices that have it, which stops once a degree + 1 cannot
    raise the width.  ``nodes_explored`` still counts every live pair of
    every step.
    """
    if not g.names:
        raise DomainError("empty graph has no contraction sequence")
    order, black = g.names, list(g.rows)
    red = [0] * len(order)
    names: dict[int, str] = dict(enumerate(order))  # the live vertices
    live = set(order)
    # per live position, in slot order: slot, closed red mask, black mask,
    # counts + 2 with every later position less a shift kept for the whole
    # row, that shift, and a lower bound on the row's minimum count
    slots = list(range(len(order)))
    closed = [1 << x for x in slots]
    blk = list(black)
    rows = [_pair_counts(closed, blk, p) for p in slots]
    shift = [0] * len(order)
    low = [min(row, default=0) for row in rows]
    steps: list[ContractionStep] = []
    value = 0
    nodes = 0

    while len(names) > 1:
        k = len(slots)
        nodes += k * (k - 1) // 2
        # the live vertices by red degree, one mask per degree, highest first
        levels: dict[int, int] = {}
        for w in names:
            d = red[w].bit_count()
            levels[d] = levels.get(d, 0) | 1 << w
        ranked = sorted(levels.items(), reverse=True)
        best: tuple[int, str, str, int, int] | None = None
        limit = k  # best width + 2; no count exceeds k - 2
        for p in sorted(range(k - 1), key=low.__getitem__):
            if low[p] > limit:
                break
            row, s = rows[p], shift[p]
            low[p] = min(row) + s
            for j in itertools.compress(range(len(row)), map((limit - s).__ge__, row)):
                if row[j] + s > limit:  # the limit fell after compress read it
                    continue
                a, b = slots[p], slots[p + 1 + j]
                width = row[j] + s - 2
                pair_bits = (1 << a) | (1 << b)
                red_m = (red[a] | red[b] | (black[a] ^ black[b])) & ~pair_bits
                # a vertex gains a red edge to the merged vertex, or loses one of two
                plus = red_m & ~(red[a] | red[b])
                minus = red[a] & red[b]
                for d, level in ranked:
                    if d + 1 <= width:
                        break
                    level &= ~pair_bits
                    if level & plus:
                        width = d + 1
                    elif level & ~minus:
                        width = max(width, d)
                    elif level:
                        width = max(width, d - 1)
                if names[b] < names[a]:
                    a, b = b, a
                candidate = (width, names[a], names[b], a, b)
                if best is None or candidate < best:
                    best, limit = candidate, width + 2

        width, u, v, a, b = best
        merged_name = _contract_name(live, u, v)
        steps.append(ContractionStep(u, v, merged_name))
        common = (black[a] | red[a]) & (black[b] | red[b])
        _contract_masks(black, red, a, b)
        names[a] = merged_name
        del names[b]
        value = max(value, width)

        # b leaves every list and a's row is recounted; a neighbour's row
        # shifts by -1 if it was a common neighbour, and is recounted at
        # later neighbours and a; every other row up to the last of a and the
        # common neighbours gets a fresh count with a and -1 at later common
        # neighbours
        pb = bisect_left(slots, b)
        del slots[pb], closed[pb], blk[pb], rows[pb], shift[pb], low[pb]
        for p in range(pb):
            del rows[p][pb - p - 1]
        changed = black[a] | red[a] | 1 << a
        changed_pos = []
        for w in _bits(changed):
            q = bisect_left(slots, w)
            closed[q], blk[q] = red[w] | 1 << w, black[w]
            changed_pos.append(q)
        pa = bisect_left(slots, a)
        rows[pa], shift[pa] = _pair_counts(closed, blk, pa), 0
        low[pa] = min(rows[pa], default=0)
        for t, p in enumerate(changed_pos, 1):
            if p == pa:
                continue
            if common >> slots[p] & 1:
                shift[p] -= 1
            row, s, c, bk = rows[p], shift[p], closed[p], blk[p]
            for q in changed_pos[t:]:
                row[q - p - 1] = (c | closed[q] | (bk ^ blk[q])).bit_count() - s
            low[p] = min(row, default=0) + s
        common_pos = [bisect_left(slots, w) for w in _bits(common)]
        ca, ba = closed[pa], blk[pa]
        for p in range(max(pa, common_pos[-1] if common_pos else 0)):
            if changed >> slots[p] & 1:
                continue
            row = rows[p]
            if p < pa:
                count = (closed[p] | ca | (blk[p] ^ ba)).bit_count()
                row[pa - p - 1] = count - shift[p]
                if count < low[p]:
                    low[p] = count
            later = common_pos[bisect_right(common_pos, p) :]
            for q in later:
                row[q - p - 1] -= 1
            if later:
                low[p] -= 1
    return SolveResult(value, False, tuple(steps), nodes)


def verify_sequence(g: Graph, seq: tuple[ContractionStep, ...], claimed: int) -> bool:
    """True iff seq is a full contraction sequence of g with width == claimed.

    Malformed sequences raise SequenceError, and an empty graph DomainError;
    a width mismatch returns False.
    """
    return sequence_width(g, seq) == claimed


# ---------------------------------------------------------------------------
# ordering search for mixed-minor-freeness


def _similarity_order(lines: tuple[bytes, ...]) -> list[int]:
    """Nearest-neighbour chaining by Hamming distance, starting from index 0."""
    order = [0] if lines else []
    remaining = set(range(1, len(lines)))
    while remaining:
        last = lines[order[-1]]
        nxt = min(
            remaining,
            key=lambda i: (sum(1 for x, y in zip(lines[i], last) if x != y), i),
        )
        order.append(nxt)
        remaining.discard(nxt)
    return order


def ordering_without_mixed_minor(
    m: TriMatrix, k: int, cap: int = DEFAULT_ORDERING_CAP
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """The row and column key orders of an ordering of m without a k-mixed minor, or None.

    The native ordering is tried first, then lexicographic and
    similarity-based sortings, then every ordering; ``None`` is therefore a
    proof that no such ordering exists.  Enumeration past ``cap`` per axis
    raises CapExceeded.
    """
    nr, nc = m.shape()

    def check(row_order, col_order):
        return find_mixed_minor(m.permuted(row_order, col_order), k) is None

    identity_r, identity_c = list(range(nr)), list(range(nc))
    cols_of = m.transpose().rows
    candidates = [
        (identity_r, identity_c),
        (sorted(identity_r, key=lambda i: m.rows[i]), sorted(identity_c, key=lambda j: cols_of[j])),
        (_similarity_order(m.rows), _similarity_order(cols_of)),
    ]
    for ro, co in candidates:
        if check(ro, co):
            ordered = m.permuted(ro, co)
            return ordered.row_keys, ordered.col_keys

    if nr > cap or nc > cap:
        raise CapExceeded(f"ordering search cap {cap} exceeded ({nr}x{nc})")
    for ro in itertools.permutations(range(nr)):
        for co in itertools.permutations(range(nc)):
            if check(ro, co):
                ordered = m.permuted(ro, co)
                return ordered.row_keys, ordered.col_keys
    return None
