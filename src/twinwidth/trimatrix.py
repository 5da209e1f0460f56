"""Ordered matrices over {0, 1, 2} plus a red error entry.

A matrix row is a ``bytes`` object with one byte per cell, 0, 1, 2 or RED
(3), so indexing, slicing, ``count`` and ``index`` on rows run in C, and a
cell costs one byte.  ``matrix_lines`` writes the ``.mat`` text one row at a
time, from a matrix's rows or from any iterable of rows.

Contracting two rows keeps one of them and turns every entry where the two
rows disagreed into RED; columns symmetrically.  The red number of a matrix
is the maximum count of RED entries over all rows and columns.  A k-mixed
minor is a division of the (ordered) matrix into k consecutive row blocks
and k consecutive column blocks such that every zone contains two distinct
rows and two distinct columns.  ``find_mixed_minor`` fixes the blocks of the
smaller axis from left to right and cuts the other axis greedily against each
prefix, so a prefix that no cut fits is never extended; one zone rule,
``_zone_split``, serves the search, its witness and ``verify_division_mixed``.

Exact twin-width of matrices and of graphs (``solver.twinwidth_exact``) is
one memoized walk of the partition lattice, ``_walk``.  Its state holds a
partition per axis: rows and columns, or a single one for graphs and
symmetric matrices.  The matrix or trigraph reached by any interleaving of
contractions is the quotient by that state, so memoizing on it is exact.
The walk is bounded: a state is searched only while it can still beat the
best width found so far among its siblings, which gives the same width and
the same optimal sequence as visiting the whole lattice.  Callers plug in
only a ``profile`` hook giving the red number of a state and an optional
free move.  For matrices the hook reads each quotient cell, a common value
or RED, from per-row value bitmasks; the greedy bound scores its candidate
merges with the same hook.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, FormatError
from .graphs import Graph, _bits
from .records import record

RED = 3

_SYMBOLS = {0: "0", 1: "1", 2: "2", RED: "r"}
_VALUES = {s: v for v, s in _SYMBOLS.items()}
# byte i -> its symbol; a row's entries are in 0..3 (checked on construction)
_TO_TEXT = bytes.maketrans(bytes(_SYMBOLS), "".join(_SYMBOLS.values()).encode())
# symbol -> its cell value; any other byte -> 255, which is no cell value
_FROM_TEXT = bytes(_VALUES.get(chr(b), 255) for b in range(256))
# the cell values: a row is valid iff deleting them leaves nothing
_CELLS = bytes(_SYMBOLS)
_BAD_ENTRY = "matrix entries must be 0, 1, 2 or RED"

DEFAULT_MATRIX_BUDGET = 10  # rows + cols for the exact solver
DEFAULT_ORDERING_CAP = 6  # per-axis size for exhaustive row/col ordering search


@record
class TriMatrix:
    """Row and column keys, and one ``bytes`` row per row key, one byte per cell."""

    row_keys: tuple[str, ...]
    col_keys: tuple[str, ...]
    rows: tuple[bytes, ...]

    def __post_init__(self) -> None:
        check_keys(self.row_keys, self.col_keys)
        if len(self.rows) != len(self.row_keys):
            raise DomainError("row count does not match row keys")
        for row in self.rows:
            if type(row) is not bytes:
                raise DomainError("matrix rows must be bytes; TriMatrix.build takes rows of ints")
            if len(row) != len(self.col_keys):
                raise DomainError("row length does not match column keys")
            if row.translate(None, _CELLS):
                raise DomainError(_BAD_ENTRY)

    @staticmethod
    def build(row_keys: Iterable[str], col_keys: Iterable[str], rows: Iterable[Iterable[int]]) -> "TriMatrix":
        """The matrix whose rows hold the given ints, each row stored as ``bytes``."""
        try:
            cells = tuple(map(bytes, rows))
        except (TypeError, ValueError) as exc:  # a non-int, or an int outside 0..255
            raise DomainError(_BAD_ENTRY) from exc
        return TriMatrix(tuple(row_keys), tuple(col_keys), cells)

    @cached_property
    def _row_pos(self) -> dict[str, int]:
        return {k: i for i, k in enumerate(self.row_keys)}

    @cached_property
    def _col_pos(self) -> dict[str, int]:
        return {k: i for i, k in enumerate(self.col_keys)}

    def entry(self, row_key: str, col_key: str) -> int:
        return self.rows[self._row_pos[row_key]][self._col_pos[col_key]]

    def shape(self) -> tuple[int, int]:
        return (len(self.row_keys), len(self.col_keys))

    def transpose(self) -> "TriMatrix":
        cols = tuple(map(bytes, zip(*self.rows))) if self.rows else (b"",) * len(self.col_keys)
        return TriMatrix(self.col_keys, self.row_keys, cols)

    def permuted(self, row_order: Sequence[int], col_order: Sequence[int]) -> "TriMatrix":
        return TriMatrix(
            tuple(self.row_keys[i] for i in row_order),
            tuple(self.col_keys[j] for j in col_order),
            tuple(bytes(map(self.rows[i].__getitem__, col_order)) for i in row_order),
        )


def check_keys(row_keys: Sequence[str], col_keys: Sequence[str]) -> None:
    """``TriMatrix``'s check on its keys alone, for a writer that streams rows: no key repeats on either axis."""
    if len(set(row_keys)) != len(row_keys) or len(set(col_keys)) != len(col_keys):
        raise DomainError("duplicate row or column keys")


def adjacency_matrix(g: Graph) -> TriMatrix:
    """0/1 adjacency matrix with rows and columns sorted by vertex id: each row's bits, lowest first."""
    n = len(g.names)
    return TriMatrix(g.names, g.names, tuple(format(row, f"0{n}b")[::-1].encode().translate(_FROM_TEXT) for row in g.rows))


def row_text(row: bytes) -> str:
    """A row's symbols, ``0``, ``1``, ``2`` or ``r`` per cell."""
    return row.translate(_TO_TEXT).decode()


def matrix_lines(row_keys: Sequence[str], col_keys: Sequence[str], rows: Iterable[bytes]) -> Iterator[str]:
    """The ``.mat`` text, one line at a time: the header, the two key lines, then each row as ``rows`` yields it."""
    yield f"matrix {len(row_keys)} {len(col_keys)}\n"
    yield " ".join(row_keys) + "\n"
    yield " ".join(col_keys) + "\n"
    for row in rows:
        yield row_text(row) + "\n"


def matrix_to_text(m: TriMatrix) -> str:
    return "".join(matrix_lines(m.row_keys, m.col_keys, m.rows))


def matrix_from_text(text: str) -> TriMatrix:
    lines = text.lstrip().splitlines()
    if not lines or not lines[0].startswith("matrix "):
        raise FormatError("matrix file must start with a 'matrix <rows> <cols>' header")
    try:
        _, nr, nc = lines[0].split()
        nr, nc = int(nr), int(nc)
    except ValueError as exc:
        raise FormatError(f"bad matrix header: {lines[0]!r}") from exc
    # the key lines sit right after the header: an empty axis has an empty one
    if len(lines) < 3:
        raise FormatError("matrix file needs a row-key line and a column-key line")
    row_keys = lines[1].split()
    col_keys = lines[2].split()
    if len(row_keys) != nr or len(col_keys) != nc:
        raise FormatError("key lines do not match the header counts")
    # blank lines are skipped; a matrix without columns has only blank rows
    body = [ln for ln in lines[3:] if ln.strip()]
    if len(body) != (nr if nc else 0):
        raise FormatError("matrix body does not match the header row count")
    rows = []
    for ln in body:
        # one byte per character: a character past Latin-1 becomes "?", which is no symbol
        row = ln.encode("latin-1", "replace").translate(_FROM_TEXT)
        if len(row) != nc or row.translate(None, _CELLS):
            raise FormatError(f"bad matrix row: {ln!r}")
        rows.append(row)
    if not nc:
        rows = [b""] * nr
    return TriMatrix(tuple(row_keys), tuple(col_keys), tuple(rows))


# ---------------------------------------------------------------------------
# the red number


def red_number(m: TriMatrix) -> int:
    return max((line.count(RED) for line in itertools.chain(m.rows, zip(*m.rows))), default=0)


# ---------------------------------------------------------------------------
# divisions, zones, mixed minors


@record
class Division:
    """Consecutive partitions of the row and column keys into nonempty blocks."""

    row_blocks: tuple[tuple[str, ...], ...]
    col_blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if any(not b for b in self.row_blocks) or any(not b for b in self.col_blocks):
            raise DomainError("division blocks must be nonempty")


@record
class MixedMinorWitness:
    division: Division
    # per zone (i, j): two row keys and two column keys that differ inside it
    zone_rows: dict[tuple[int, int], tuple[str, str]]
    zone_cols: dict[tuple[int, int], tuple[str, str]]

    def to_json(self) -> dict:
        return {
            "type": "mixed-minor-division",
            "permutation": None,
            "rows": [list(b) for b in self.division.row_blocks],
            "cols": [list(b) for b in self.division.col_blocks],
            "zones": {
                f"{i},{j}": {"rows": list(self.zone_rows[(i, j)]), "cols": list(self.zone_cols[(i, j)])}
                for (i, j) in sorted(self.zone_rows)
            },
            "verification": "pass",
        }


def _zone_split(rows: Sequence[bytes], cols: Sequence[bytes], r0: int, r1: int, c0: int, c1: int) -> tuple[int, int] | None:
    """The first row and the first column of the zone [r0, r1) x [c0, c1) that
    differ from its first row and first column, or None if the zone is not mixed.

    ``cols`` are the rows of the transpose, so both tests compare ``bytes`` slices.
    """
    first_row, first_col = rows[r0][c0:c1], cols[c0][r0:r1]
    r = next((i for i in range(r0 + 1, r1) if rows[i][c0:c1] != first_row), None)
    c = next((j for j in range(c0 + 1, c1) if cols[j][r0:r1] != first_col), None)
    return None if r is None or c is None else (r, c)


def _bounds(blocks: Sequence[Sequence[str]]) -> list[tuple[int, int]]:
    """The index range [start, end) of each of the consecutive blocks."""
    ends = list(itertools.accumulate(map(len, blocks)))
    return list(zip([0, *ends], ends))


def _greedy_axis(mixed, n: int, k: int, fixed_bounds: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """Cut [0, n) into k blocks, each mixed against every fixed block.

    Cutting each block at the earliest feasible point is complete: mixedness
    only grows when a block is extended, so any valid cut dominates the
    greedy one.
    """
    cuts = []
    start = 0
    for t in range(k - 1):
        limit = n - (k - 1 - t) * 2
        end = None
        for e in range(start + 2, limit + 1):
            if all(mixed(start, e, c0, c1) for c0, c1 in fixed_bounds):
                end = e
                break
        if end is None:
            return None
        cuts.append((start, end))
        start = end
    if n - start < 2 or not all(mixed(start, n, c0, c1) for c0, c1 in fixed_bounds):
        return None
    cuts.append((start, n))
    return cuts


def find_mixed_minor(m: TriMatrix, k: int) -> MixedMinorWitness | None:
    """The first k-by-k division whose zones are all mixed, or None.

    Every block of a mixed division has at least two lines.  The blocks of
    the smaller axis (columns on a tie) are fixed depth-first from left to
    right, each size in increasing order, and the other axis is cut by the
    complete greedy ``_greedy_axis`` against the blocks fixed so far.  A
    prefix the greedy rejects is not extended: an all-mixed division,
    restricted to its first t fixed blocks, is still all-mixed against them.
    So the search meets the splits of the smaller axis in the order of
    listing them all, skips only subtrees that hold no division, and returns
    the division that closing each listed split with the greedy in turn
    would find first.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    nr, nc = m.shape()
    if nr < 2 * k or nc < 2 * k:
        return None
    rows, cols = m.rows, m.transpose().rows
    split = cache(lambda r0, r1, c0, c1: _zone_split(rows, cols, r0, r1, c0, c1))
    cols_fixed = nc <= nr
    total, other = (nc, nr) if cols_fixed else (nr, nc)
    mixed = split if cols_fixed else lambda a0, a1, b0, b1: split(b0, b1, a0, a1)

    def extend(fixed: list[tuple[int, int]]):
        """The first division whose fixed axis starts with these blocks, as (fixed, free) bounds."""
        free = _greedy_axis(mixed, other, k, fixed)
        if free is None:
            return None
        if len(fixed) == k:
            return fixed, free
        start = fixed[-1][1] if fixed else 0
        after = 2 * (k - len(fixed) - 1)  # the least room the blocks after the next one need
        for end in range(start + 2, total - after + 1) if after else [total]:
            if found := extend(fixed + [(start, end)]):
                return found
        return None

    found = extend([])
    if found is None:
        return None
    fixed, free = found
    row_bounds, col_bounds = (free, fixed) if cols_fixed else (fixed, free)
    zones = {
        (i, j): split(r0, r1, c0, c1) for i, (r0, r1) in enumerate(row_bounds) for j, (c0, c1) in enumerate(col_bounds)
    }
    return MixedMinorWitness(
        Division(tuple(m.row_keys[a:b] for a, b in row_bounds), tuple(m.col_keys[a:b] for a, b in col_bounds)),
        {(i, j): (m.row_keys[row_bounds[i][0]], m.row_keys[r]) for (i, j), (r, _) in zones.items()},
        {(i, j): (m.col_keys[col_bounds[j][0]], m.col_keys[c]) for (i, j), (_, c) in zones.items()},
    )


def verify_division_mixed(m: TriMatrix, division: Division) -> bool:
    """True iff every zone of the division is mixed (independent re-check)."""
    rb, cb = _bounds(division.row_blocks), _bounds(division.col_blocks)
    expected_rows = tuple(itertools.chain.from_iterable(division.row_blocks))
    expected_cols = tuple(itertools.chain.from_iterable(division.col_blocks))
    if expected_rows != m.row_keys or expected_cols != m.col_keys:
        return False
    cols = m.transpose().rows
    return all(_zone_split(m.rows, cols, r0, r1, c0, c1) for r0, r1 in rb for c0, c1 in cb)


# ---------------------------------------------------------------------------
# permutation matrices


def permutation_matrix(word: Sequence[int]) -> TriMatrix:
    r"""The 0/1 matrix with a 1 at (i, word[i]).

    >>> permutation_matrix((2, 1)).rows
    (b'\x00\x01', b'\x01\x00')
    """
    from .graphs import check_permutation

    w = check_permutation(word)
    p = len(w)
    keys = tuple(str(i) for i in range(1, p + 1))
    rows = tuple(bytes(v - 1) + b"\x01" + bytes(p - v) for v in w)
    return TriMatrix(keys, keys, rows)


# ---------------------------------------------------------------------------
# the partition-lattice walk shared by graph and matrix twin-width
#
# A state is a tuple of axes (one for graphs and symmetric matrices; rows then
# columns otherwise), each a tuple of disjoint bitmask groups sorted by their
# lowest set bit.  A move (axis, a, b) with a < b merges groups a and b of one
# axis; the merged group keeps a's lowest bit, so it takes a's place.
#
# Callers plug in ``profile(state) -> (red number here, free move or None)``.
# A free move merges two groups whose quotient lines are identical; it creates
# no red entry, so it is the only move tried from that state.


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _discrete(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 << i for i in range(n)) for n in sizes)


def _merge(state: tuple, x: int, a: int, b: int) -> tuple:
    axis = list(state[x])
    axis[a] |= axis.pop(b)
    return state[:x] + (tuple(axis),) + state[x + 1 :]


def _moves(state: tuple) -> list[tuple[int, int, int]]:
    return [(x, a, b) for x, axis in enumerate(state) for a, b in itertools.combinations(range(len(axis)), 2)]


def _walk(sizes: Sequence[int], profile) -> tuple[int, list[tuple[int, int, int]], int]:
    """Exact width from the discrete partition of each axis down to one group each.

    Returns the width, the optimal path as (axis, kept group, merged-in group)
    bitmasks, and the number of distinct states profiled.  The state reached
    by any interleaving of merges is the quotient by the partition, so
    memoizing on the state is exact.  Among moves of equal width the first
    one wins.

    The walk is a bounded (fail-high) search.  A child is solved under the
    smaller of its parent's bound and the best width among its earlier
    siblings.  A state whose own red number reaches its bound stops at once,
    and a child becomes the best move only if it is strictly below its bound,
    so the first strict minimum wins exactly as in an unbounded walk.  A
    state that fails keeps its lower bound in the memo and is searched again
    only under a higher bound.
    """
    # state -> [red number here, free move, width, best move, width is exact]
    memo: dict[tuple, list] = {}

    # f(state) = best achievable red number from this state on, itself
    # included.  solve(state, bound) is f(state) if f(state) < bound, and
    # otherwise a lower bound on f(state) that is at least bound.
    def solve(state: tuple, bound: float) -> int:
        entry = memo.get(state)
        if entry is None:
            here, free = profile(state)
            last = all(len(axis) <= 1 for axis in state)
            entry = memo[state] = [here, free, here, None, last]
        here, free, width, _, exact = entry
        if exact or width >= bound:
            return width
        least, best_move = math.inf, None
        for move in [free] if free is not None else _moves(state):
            cap = min(bound, least)
            got = solve(_merge(state, *move), cap)
            if got < cap:
                best_move = move
            least = min(least, got)
        entry[2:] = max(here, least), best_move, best_move is not None
        return entry[2]

    state = _discrete(sizes)
    value = solve(state, math.inf)
    path = []
    while (move := memo[state][3]) is not None:
        x, a, b = move
        path.append((x, state[x][a], state[x][b]))
        state = _merge(state, x, a, b)
    return value, path, len(memo)


# ---------------------------------------------------------------------------
# twin-width of a matrix


@record
class MatrixSolveResult:
    value: int
    optimal: bool
    # each step: ("row"|"col", keep key, drop key); symmetric pairs expand to both
    sequence: tuple[tuple[str, str, str], ...]
    nodes_explored: int


_KINDS = ("row", "col")


def _matrix_profile(m: TriMatrix, symmetric: bool):
    """profile() for matrix states: red cells of the quotient and identical lines.

    A quotient cell is the common value of its entries, or RED if they differ.
    Only rows are checked for identical lines in symmetric mode.
    """
    # per row and value (0..RED), the columns holding that value
    masks = [[0] * (RED + 1) for _ in m.rows]
    for i, row in enumerate(m.rows):
        for j, v in enumerate(row):
            masks[i][v] |= 1 << j

    def profile(state: tuple) -> tuple[int, tuple | None]:
        rows_p, cols_p = (state[0], state[0]) if symmetric else state
        firsts = [_low(cg) for cg in cols_p]
        lines = []
        for rg in rows_p:
            # per value, the columns holding it in every row of the group
            common = [-1] * (RED + 1)
            for i in _bits(rg):
                common = [c & mask for c, mask in zip(common, masks[i])]
            first_row = m.rows[_low(rg)]
            line = []
            for cg, j in zip(cols_p, firsts):
                v = first_row[j]
                line.append(v if common[v] & cg == cg else RED)
            lines.append(tuple(line))
        cols = list(zip(*lines))
        here = max([line.count(RED) for line in lines] + [col.count(RED) for col in cols], default=0)
        for x, axis_lines in enumerate([lines] if symmetric else [lines, cols]):
            seen: dict[tuple[int, ...], int] = {}
            for i, line in enumerate(axis_lines):
                if line in seen:
                    return here, (x, seen[line], i)
                seen[line] = i
        return here, None

    return profile


def _matrix_sizes(m: TriMatrix, symmetric: bool) -> tuple[int, ...]:
    if symmetric and m.row_keys != m.col_keys:
        raise DomainError("symmetric solving needs identical row and column keys")
    return (len(m.row_keys),) if symmetric else m.shape()


def _matrix_steps(m: TriMatrix, symmetric: bool, path) -> tuple[tuple[str, str, str], ...]:
    steps = []
    for x, keep, drop in path:
        keys = m.col_keys if x else m.row_keys
        for kind in _KINDS if symmetric else (_KINDS[x],):
            steps.append((kind, keys[_low(keep)], keys[_low(drop)]))
    return tuple(steps)


def matrix_twinwidth_exact(
    m: TriMatrix,
    symmetric: bool = False,
    cap: int = DEFAULT_MATRIX_BUDGET,
) -> MatrixSolveResult:
    """Exact matrix twin-width with an optimal contraction sequence.

    With ``symmetric=True`` every row contraction is immediately followed by
    the same column contraction, and the red number is measured once per
    pair.  If rows + cols exceeds ``cap`` the greedy bound is returned with
    ``optimal=False`` instead of an exhaustive answer.
    """
    sizes = _matrix_sizes(m, symmetric)
    if sum(m.shape()) > cap:
        return matrix_twinwidth_greedy(m, symmetric)
    value, path, nodes = _walk(sizes, _matrix_profile(m, symmetric))
    return MatrixSolveResult(value, True, _matrix_steps(m, symmetric, path), nodes)


def matrix_twinwidth_greedy(m: TriMatrix, symmetric: bool = False) -> MatrixSolveResult:
    """Upper bound: repeatedly take the merge minimizing the next red number.

    Candidates rank by (red number, kind, kept key, a, b), so at equal red
    number a column merge ("col") comes before a row merge ("row").
    """
    profile = _matrix_profile(m, symmetric)
    keys = (m.row_keys, m.col_keys)
    state = _discrete(_matrix_sizes(m, symmetric))
    value = red_number(m)
    path = []
    nodes = 0
    while moves := _moves(state):
        best = None
        for x, a, b in moves:
            nodes += 1
            nxt = _merge(state, x, a, b)
            key = (profile(nxt)[0], _KINDS[x], keys[x][_low(state[x][a])], a, b)
            if best is None or key < best[0]:
                best = (key, (x, state[x][a], state[x][b]), nxt)
        (red, *_), step, state = best
        path.append(step)
        value = max(value, red)
    return MatrixSolveResult(value, False, _matrix_steps(m, symmetric, path), nodes)
