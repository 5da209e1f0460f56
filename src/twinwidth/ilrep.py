"""Interval-like representations and their representation matrices.

A representation is a linearly ordered set of interval *ends* plus a set of
ordered end pairs; the pairs are the vertices.  The same data decodes to two
different graphs:

* ``interval`` kind: pairs are adjacent when the closed intervals intersect;
* ``overlap`` kind: adjacent when they intersect but neither strictly
  contains the other (so sharing an end makes an edge).  Overlap graphs are
  exactly the circle graphs, read off an opened chord diagram.

The representation matrix has one column per end and one row per pair plus a
dummy row (t, t) for every end t; a row holds 2 in the columns left of its
first end and a single 1 in the column of its second end (pair rows only).
Dummy rows encode the end order, which is what makes the matrix decodable.
Each row is a ``bytes`` object, one byte per cell, built from whole slabs by
the generator of ``ilmatrix_rows``: ``build_ilmatrix`` keeps every row, and
the ``ilmatrix`` command writes each row as it is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, FormatError
from .graphs import Graph, span_graph
from .records import record
from .trimatrix import RED, TriMatrix

INTERVAL = "interval"
OVERLAP = "overlap"
KINDS = (INTERVAL, OVERLAP)


def end_name(i: int) -> str:
    """Spreadsheet-style names: a..z, aa, ab, ... (order is positional, not lexicographic)."""
    letters = ""
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        letters = chr(ord("a") + rem) + letters
    return letters


def pair_name(pair: tuple[str, str]) -> str:
    return f"({pair[0]},{pair[1]})"


@record
class IntervalLikeRep:
    """Ordered ends, a set of end pairs (the vertices), and a decoding kind."""

    ends: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DomainError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if len(set(self.ends)) != len(self.ends):
            raise DomainError("duplicate end ids")
        pos = {e: i for i, e in enumerate(self.ends)}
        for s1, s2 in self.pairs:
            if s1 not in pos or s2 not in pos:
                raise DomainError(f"pair {(s1, s2)!r} uses an unknown end")
            if pos[s1] > pos[s2]:
                raise DomainError(f"pair {(s1, s2)!r} is not ordered by the end order")

    @cached_property
    def rank(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.ends)}

    def sorted_pairs(self) -> list[tuple[str, str]]:
        r = self.rank
        return sorted(self.pairs, key=lambda p: (r[p[0]], r[p[1]]))


def rep_from_intervals(
    intervals: Sequence[tuple[str, Fraction | int, Fraction | int]],
    kind: str,
) -> IntervalLikeRep:
    """Normalize endpoint values to ranked opaque ends and collect the pairs.

    Duplicate intervals (same left and right value) are rejected: the decoded
    graph's vertices are the distinct pairs.  An ``int`` value is kept as it
    is and any other becomes a ``Fraction``; the two compare and hash alike,
    so ``2`` and ``4/2`` are one value.
    """
    seen: set[tuple[Fraction | int, Fraction | int]] = set()
    norm = []
    for ident, left, right in intervals:
        l = left if type(left) is int else Fraction(left)
        r = right if type(right) is int else Fraction(right)
        if l > r:
            raise DomainError(f"interval {ident!r} has left > right")
        if (l, r) in seen:
            raise DomainError(f"duplicate interval {ident!r}: ({l}, {r}) appears twice")
        seen.add((l, r))
        norm.append((l, r))
    values = sorted({v for l, r in norm for v in (l, r)})
    name = {v: end_name(i) for i, v in enumerate(values)}
    ends = tuple(name[v] for v in values)
    pairs = frozenset((name[l], name[r]) for l, r in norm)
    return IntervalLikeRep(ends, pairs, kind)


@record
class ChordDiagram:
    """Circular endpoint sequence of chords; every chord label appears exactly twice."""

    sequence: tuple[str, ...]

    def __post_init__(self) -> None:
        counts: dict[str, int] = {}
        for label in self.sequence:
            counts[label] = counts.get(label, 0) + 1
        bad = [l for l, c in counts.items() if c != 2]
        if bad:
            raise DomainError(f"chord labels must appear exactly twice, bad: {sorted(bad)}")

    def chords(self) -> dict[str, tuple[int, int]]:
        pos: dict[str, list[int]] = {}
        for i, label in enumerate(self.sequence):
            pos.setdefault(label, []).append(i)
        return {label: (p[0], p[1]) for label, p in pos.items()}


def rep_from_chords(diagram: ChordDiagram) -> IntervalLikeRep:
    """Cut the circle before position 0 and flatten the chords into end pairs."""
    occurrence: dict[str, int] = {}
    names = []
    for label in diagram.sequence:
        occurrence[label] = occurrence.get(label, 0) + 1
        names.append(f"{label}{occurrence[label]}")
    if len(set(names)) != len(names):
        raise DomainError("chord labels collide after numbering their two ends")
    pairs = frozenset(
        (names[a], names[b]) for a, b in diagram.chords().values()
    )
    return IntervalLikeRep(tuple(names), pairs, OVERLAP)


# ---------------------------------------------------------------------------
# decoding


def decode(rep: IntervalLikeRep) -> Graph:
    """The graph on the end pairs, under the representation's kind: ``span_graph`` on their end ranks."""
    r = rep.rank
    return span_graph({pair_name(p): (r[p[0]], r[p[1]]) for p in rep.pairs}, rep.kind == OVERLAP)


# ---------------------------------------------------------------------------
# representation matrices


@record(uncompared=("row_pairs",))
class IlMatrix:
    matrix: TriMatrix
    rep: IntervalLikeRep
    row_pairs: dict[str, tuple[str, str]]


def ilmatrix_rows(rep: IntervalLikeRep) -> tuple[list[tuple[str, str]], Iterator[bytes]]:
    """The representation matrix's row pairs, in row order, and a generator of its rows.

    The rows are the pairs and a dummy (t, t) per end t, sorted by end
    ranks.  Each row is built from whole slabs when it is asked for: a 2
    prefix, then 0s, with a 1 in the second end's column on pair rows.
    """
    r = rep.rank
    nc = len(rep.ends)
    by_span = {(r[s1], r[s2]): (s1, s2) for s1, s2 in rep.pairs}
    pair_spans = set(by_span)
    for i, t in enumerate(rep.ends):
        by_span.setdefault((i, i), (t, t))
    spans = sorted(by_span)
    rows = (
        b"\x02" * a + bytes(b - a) + b"\x01" + bytes(nc - b - 1)
        if (a, b) in pair_spans
        else b"\x02" * a + bytes(nc - a)
        for a, b in spans
    )
    return [by_span[span] for span in spans], rows


def build_ilmatrix(rep: IntervalLikeRep) -> IlMatrix:
    pairs, rows = ilmatrix_rows(rep)
    keys = tuple(map(pair_name, pairs))
    return IlMatrix(TriMatrix(keys, rep.ends, tuple(rows)), rep, dict(zip(keys, pairs)))


def _implied_pairs(m: TriMatrix) -> dict[str, tuple[int, int | None]]:
    """Row key -> (first-end rank, second-end rank or None for dummy rows)."""
    out: dict[str, tuple[int, int | None]] = {}
    for key, row in zip(m.row_keys, m.rows):
        if RED in row:
            raise DomainError("representation matrices contain no red entries")
        # the 2 prefix ends at the first 0 or 1, the only other entries
        prefix = min((row.index(v) for v in (0, 1) if v in row), default=len(row))
        if 2 in row[prefix:]:
            raise DomainError(f"row {key!r}: entries 2 must form a prefix")
        if row.count(1) > 1:
            raise DomainError(f"row {key!r}: more than one entry 1")
        if prefix == len(row):
            raise DomainError(f"row {key!r}: all entries 2")
        out[key] = (prefix, row.index(1) if 1 in row else None)
    return out


def validate_ilmatrix(m: TriMatrix) -> dict[str, tuple[int, int | None]]:
    """Check the representation-matrix invariants; returns the implied pairs."""
    implied = _implied_pairs(m)
    order = [
        (s1, s2 if s2 is not None else s1)
        for s1, s2 in implied.values()
    ]
    if order != sorted(order) or len(set(order)) != len(order):
        raise DomainError("rows are not strictly sorted by their implied end pairs")
    dummies = {s1 for (s1, s2) in order if s1 == s2}
    if dummies != set(range(len(m.col_keys))):
        raise DomainError("every column needs its degenerate (t, t) row")
    return implied


def decode_from_matrix(m: IlMatrix | TriMatrix, kind: str) -> Graph:
    """Decode a representation matrix directly (no logic engine involved).

    Agrees with ``decode`` edge for edge when the matrix came from
    ``build_ilmatrix``.
    """
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")
    matrix = m.matrix if isinstance(m, IlMatrix) else m
    implied = validate_ilmatrix(matrix)
    return span_graph({key: span for key, span in implied.items() if span[1] is not None}, kind == OVERLAP)


# ---------------------------------------------------------------------------
# unification and condensing


def unify(rep: IntervalLikeRep, s1: str, s2: str) -> tuple[IntervalLikeRep, bool]:
    """Merge two consecutive ends (s2 into s1).

    The unification is legal when no two distinct pairs collide under the
    merge, i.e. the vertex set keeps its size.
    """
    r = rep.rank
    if s1 not in r or s2 not in r:
        raise DomainError("unknown end")
    if r[s2] != r[s1] + 1:
        raise DomainError(f"ends {s1!r}, {s2!r} are not consecutive")
    rho = lambda e: s1 if e == s2 else e
    new_pairs = frozenset((rho(a), rho(b)) for a, b in rep.pairs)
    legal = len(new_pairs) == len(rep.pairs)
    ends = tuple(e for e in rep.ends if e != s2)
    return IntervalLikeRep(ends, new_pairs, rep.kind), legal


def condense(rep: IntervalLikeRep) -> IntervalLikeRep:
    """Apply legal, graph-preserving unifications until none applies.

    Graph-preserving means the natural pair map keeps the edge set.
    ``unify`` maps end ranks monotonically and both adjacency predicates are
    built from <= on the ranks of two pairs' ends, so a legal unification of
    s1 < s2 only adds edges, and only between a pair with an end at s1 and
    one with an end at s2, which now share an end and so are adjacent.  The
    graph is kept iff every such cross pair was adjacent already.  Legality
    likewise involves only the pairs at s1 or s2.  Every merge made keeps
    the edge set, so the input is decoded once, and a current pair is
    adjacent exactly where its original pair is; no isomorphism search is
    needed, and there is no vertex cap.

    The scan runs left to right, and after a merge at positions i, i+1 it
    resumes at i-1.  That makes the same merges as restarting at 0: a
    candidate j < i-1 that failed still fails.  Its ends are not merged, so
    it sees the same pairs, whose adjacency is unchanged; and a collision it
    had persists, because the merge at i is injective on pairs and commutes
    with the merge at j.  So the result is deterministic; condensed forms
    are generally not unique.
    """
    g = decode(rep)
    ends = list(rep.ends)
    now = {p: p for p in rep.pairs}  # each original pair -> its current pair
    at: list[set[tuple[str, str]]] = [set() for _ in ends]  # the original pairs with an end at each position
    for p in rep.pairs:
        at[rep.rank[p[0]]].add(p)
        at[rep.rank[p[1]]].add(p)
    i = 0
    while i < len(ends) - 1:
        s1, s2 = ends[i], ends[i + 1]
        near = at[i] | at[i + 1]
        merged = {p: tuple(s1 if e == s2 else e for e in now[p]) for p in near}
        # unify's legality test, on the only pairs that can collide
        if len(set(merged.values())) < len(near) or not all(
            p == q or g.has_edge(pair_name(p), pair_name(q)) for p in at[i] for q in at[i + 1]
        ):
            i += 1
            continue
        now.update(merged)
        at[i] = near
        del at[i + 1], ends[i + 1]
        i = max(i - 1, 0)
    return IntervalLikeRep(tuple(ends), frozenset(now.values()), rep.kind)


# ---------------------------------------------------------------------------
# text formats


def intervals_to_text(intervals: Iterable[tuple[str, Fraction | int, Fraction | int]]) -> str:
    return "".join(f"i {ident} {left} {right}\n" for ident, left, right in intervals)


_MAX_EXPONENT = 4300  # the digit limit of int(str), which already refuses longer digit tokens


def _endpoint(token: str) -> Fraction | int:
    """``int`` for a token of ASCII digits only, else ``Fraction(token)``, its exponent checked before 10 ** exponent is built."""
    if token.isascii() and token.isdigit():
        return int(token)
    exponent = token.replace("E", "e").partition("e")[2]
    if exponent and abs(int(exponent)) > _MAX_EXPONENT:
        raise ValueError(f"exponent {exponent} is beyond {_MAX_EXPONENT}")
    return Fraction(token)


def intervals_from_text(text: str) -> list[tuple[str, Fraction | int, Fraction | int]]:
    out = []
    for ln in text.splitlines():
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 4 or parts[0] != "i":
            raise FormatError(f"bad interval line: {ln!r}")
        try:
            out.append((parts[1], _endpoint(parts[2]), _endpoint(parts[3])))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad interval bounds in {ln!r}") from exc
    return out


def chords_to_text(diagram: ChordDiagram) -> str:
    return " ".join(diagram.sequence) + "\n"


def chords_from_text(text: str) -> ChordDiagram:
    labels = text.split()
    if not labels:
        raise FormatError("empty chord file")
    return ChordDiagram(tuple(labels))


def rep_to_intervals(rep: IntervalLikeRep) -> list[tuple[str, int, int]]:
    """Serialize a representation as integer-endpoint intervals (rank = value).

    Only representations without unused ends round-trip exactly; condensed
    ones never have unused ends.
    """
    used = {e for p in rep.pairs for e in p}
    if used != set(rep.ends):
        raise DomainError("representation has unused ends; cannot serialize as intervals")
    r = rep.rank
    return [(pair_name(p), r[p[0]], r[p[1]]) for p in rep.sorted_pairs()]
