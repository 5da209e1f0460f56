"""Independent re-implementations used to check the program's outputs.

Nothing here imports ``twinwidth``: every check re-derives its answer from
the input files the benchmark wrote, so a defect in the code under test
cannot make its own output look correct.
"""

from __future__ import annotations

import bisect
import itertools
import json

RED = "r"


def end_name(i: int) -> str:
    letters = ""
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        letters = chr(ord("a") + rem) + letters
    return letters


# ---------------------------------------------------------------------------
# graphs and trigraph replay


def parse_graph(text: str) -> tuple[list[str], set[tuple[str, str]]]:
    vertices, edges = [], set()
    for line in text.splitlines()[1:]:
        parts = line.split()
        if parts and parts[0] == "v":
            vertices.append(parts[1])
        elif parts and parts[0] == "e":
            a, b = sorted(parts[1:3])
            edges.add((a, b))
    return vertices, edges


def graph_text(vertices, edges, name: str = "g") -> str:
    edges = sorted(edges)
    lines = [f"graph {name} {len(vertices)} {len(edges)}"]
    lines += [f"v {v}" for v in sorted(vertices)]
    lines += [f"e {a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def replay_width(vertices, edges, steps) -> int:
    """Max red degree along a full contraction sequence [(u, v, merged), ...].

    Raises ValueError when the sequence is not a full sequence on the graph.
    """
    if len(steps) != len(vertices) - 1:
        raise ValueError(f"{len(steps)} steps for {len(vertices)} vertices")
    slot = {v: i for i, v in enumerate(vertices)}
    black = [0] * len(vertices)
    red = [0] * len(vertices)
    for a, b in edges:
        black[slot[a]] |= 1 << slot[b]
        black[slot[b]] |= 1 << slot[a]
    width = 0
    for u, v, merged in steps:
        if u not in slot or v not in slot or u == v:
            raise ValueError(f"step {u} {v} uses a vertex not present")
        a, b = slot.pop(u), slot.pop(v)
        if merged in slot:
            raise ValueError(f"merged name {merged} already present")
        pair = (1 << a) | (1 << b)
        full = ((black[a] | red[a]) | (black[b] | red[b])) & ~pair
        new_red = ((red[a] | red[b]) | ((black[a] | red[a]) ^ (black[b] | red[b]))) & ~pair
        new_black = full & ~new_red
        black[a], red[a] = new_black, new_red
        black[b] = red[b] = 0
        slot[merged] = a
        for w in slot.values():
            if w == a:
                continue
            bit = 1 << w
            black[w] &= ~pair
            red[w] &= ~pair
            if new_black & bit:
                black[w] |= 1 << a
            if new_red & bit:
                red[w] |= 1 << a
        width = max(width, max(red[w].bit_count() for w in slot.values()))
    return width


def isomorphic_small(vertices_a, edges_a, vertices_b, edges_b) -> bool:
    """Brute-force isomorphism for the handful of vertices a witness has."""
    if len(vertices_a) != len(vertices_b) or len(edges_a) != len(edges_b):
        return False
    eb = {frozenset(e) for e in edges_b}
    for image in itertools.permutations(vertices_b):
        m = dict(zip(vertices_a, image))
        if all(frozenset((m[a], m[b])) in eb for a, b in edges_a):
            return True
    return False


def permutation_graph(word) -> tuple[list[str], set[tuple[str, str]]]:
    p = len(word)
    vs = [str(i) for i in range(1, p + 1)]
    es = {
        tuple(sorted((str(i + 1), str(j + 1))))
        for i, j in itertools.combinations(range(p), 2)
        if word[i] > word[j]
    }
    return vs, es


def apply_perturbation(edges, script) -> set[tuple[str, str]]:
    out = set(edges)
    for subset in script:
        for pair in itertools.combinations(sorted(set(subset)), 2):
            out ^= {pair}
    return out


# ---------------------------------------------------------------------------
# matrices


def parse_matrix(text: str) -> tuple[list[str], list[str], list[str]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[1].split(), lines[2].split(), lines[3:]


def _red_number(rows: list[list[str]]) -> int:
    best = max((row.count(RED) for row in rows), default=0)
    for col in zip(*rows):
        best = max(best, col.count(RED))
    return best


def matrix_replay_width(text: str, steps, symmetric: bool) -> int:
    """Max red number along a full matrix contraction sequence.

    Steps are ("row"|"col", keep, drop); a symmetric sequence lists each
    row contraction followed by the same column contraction and is measured
    once per pair.
    """
    row_keys, col_keys, body = parse_matrix(text)
    rows = [list(line) for line in body]
    rk, ck = list(row_keys), list(col_keys)
    width = _red_number(rows)
    for n, (kind, keep, drop) in enumerate(steps):
        keys = rk if kind == "row" else ck
        ki, di = keys.index(keep), keys.index(drop)
        if kind == "row":
            rows[ki] = [x if x == y else RED for x, y in zip(rows[ki], rows[di])]
            del rows[di]
        else:
            for row in rows:
                row[ki] = row[ki] if row[ki] == row[di] else RED
                del row[di]
        del keys[di]
        if not symmetric or n % 2 == 1:
            width = max(width, _red_number(rows))
    if len(rk) != 1 or len(ck) != 1:
        raise ValueError("matrix sequence does not reach a 1x1 matrix")
    return width


def zone_mixed(body: list[str], r0: int, r1: int, c0: int, c1: int) -> bool:
    if r1 - r0 < 2 or c1 - c0 < 2:
        return False
    rows = {body[i][c0:c1] for i in range(r0, r1)}
    cols = {tuple(body[i][j] for i in range(r0, r1)) for j in range(c0, c1)}
    return len(rows) > 1 and len(cols) > 1


def division_is_mixed(text: str, row_blocks, col_blocks, k: int) -> bool:
    row_keys, col_keys, body = parse_matrix(text)
    if len(row_blocks) != k or len(col_blocks) != k:
        return False
    if sum(row_blocks, []) != row_keys or sum(col_blocks, []) != col_keys:
        return False

    def bounds(blocks):
        out, pos = [], 0
        for b in blocks:
            out.append((pos, pos + len(b)))
            pos += len(b)
        return out

    return all(
        zone_mixed(body, r0, r1, c0, c1) for r0, r1 in bounds(row_blocks) for c0, c1 in bounds(col_blocks)
    )


# ---------------------------------------------------------------------------
# interval-like representations


class Rep:
    """Ranked ends and pairs read from an .ivl file, as the CLI reads them."""

    def __init__(self, ends: list[str], pairs: list[tuple[int, int]], kind: str):
        self.ends = ends  # end names in order
        self.pairs = sorted(pairs)  # (rank, rank) with rank1 <= rank2
        self.kind = kind

    @staticmethod
    def from_intervals(text: str, kind: str) -> "Rep":
        raw = [(int(p[2]), int(p[3])) for p in (ln.split() for ln in text.splitlines()) if p]
        values = sorted({v for pair in raw for v in pair})
        rank = {v: i for i, v in enumerate(values)}
        return Rep([end_name(i) for i in range(len(values))], [(rank[a], rank[b]) for a, b in raw], kind)

    def name(self, pair: tuple[int, int]) -> str:
        return f"({self.ends[pair[0]]},{self.ends[pair[1]]})"

    def edges(self, pairs=None) -> set[tuple[int, int]]:
        """Edges as position pairs (i < j) into the given pair list.

        Swept in sorted order: a later pair starts no earlier, so it must
        start by the right end of the earlier one (and, for overlap graphs,
        end no earlier than it does).
        """
        ps = self.pairs if pairs is None else pairs
        order = sorted(range(len(ps)), key=ps.__getitem__)
        lefts = [ps[i][0] for i in order]
        out = set()
        for k, i in enumerate(order):
            right = ps[i][1]
            for j in order[k + 1 : bisect.bisect_right(lefts, right)]:
                if self.kind == "interval" or right <= ps[j][1]:
                    out.add((min(i, j), max(i, j)))
        return out

    def graph(self) -> tuple[list[str], set[tuple[str, str]]]:
        names = [self.name(p) for p in self.pairs]
        return names, {tuple(sorted((names[i], names[j]))) for i, j in self.edges()}

    def matrix_text(self) -> str:
        vertex = set(self.pairs)
        rows = sorted(vertex | {(t, t) for t in range(len(self.ends))})
        lines = [
            f"matrix {len(rows)} {len(self.ends)}",
            " ".join(self.name(p) for p in rows),
            " ".join(self.ends),
        ]
        width = len(self.ends)
        for s1, s2 in rows:
            if (s1, s2) in vertex:
                lines.append("2" * s1 + "0" * (s2 - s1) + "1" + "0" * (width - s2 - 1))
            else:
                lines.append("2" * s1 + "0" * (width - s1))
        return "\n".join(lines) + "\n"

    def unifications(self):
        """(i, legal, edges kept) for every merge of end i+1 into end i.

        Each pair keeps its identity through the merge, so "kept" compares
        the edge sets pair by pair.
        """
        base = self.edges()
        for i in range(len(self.ends) - 1):
            merged = [(a - (a > i), b - (b > i)) for a, b in self.pairs]
            legal = len(set(merged)) == len(merged)
            yield i, legal, legal and self.edges(merged) == base


def _end_maps(n_in: int, pairs_in, n_out: int, out_set):
    """Monotone maps of the input ends onto the output ends carrying pairs onto pairs.

    Consecutive ends map to the same or the next output end, which is what
    a sequence of unifications of consecutive ends can produce.
    """
    closing: dict[int, list[tuple[int, int]]] = {}
    for a, b in pairs_in:
        closing.setdefault(b, []).append((a, b))
    f = [0] * n_in

    def extend(i: int):
        if i == n_in:
            if f[-1] == n_out - 1:
                yield list(f)
            return
        for v in (f[i - 1], f[i - 1] + 1) if i else (0,):
            if v >= n_out or n_out - 1 - v > n_in - 1 - i:
                continue
            f[i] = v
            if all((f[a], f[b]) in out_set for a, b in closing.get(i, ())):
                yield from extend(i + 1)

    return extend(0)


def check_condensed(input_rep: Rep, out_intervals) -> str | None:
    """The output arises from merging consecutive ends, keeps every edge, and is maximal."""
    out = Rep.from_intervals("".join(f"i {n} {l} {r}\n" for n, l, r in out_intervals), input_rep.kind)
    if len(out.pairs) != len(input_rep.pairs):
        return "condense changed the number of vertices"
    out_set = set(out.pairs)
    base = input_rep.edges()
    for f in _end_maps(len(input_rep.ends), input_rep.pairs, len(out.ends), out_set):
        mapped = [(f[a], f[b]) for a, b in input_rep.pairs]
        if len(set(mapped)) == len(mapped) and out.edges(mapped) == base:
            break
    else:
        return "no merge of consecutive ends carries the input graph onto the output"
    for i, legal, kept in out.unifications():
        if kept:
            return f"ends {i},{i + 1} can still be unified"
    return None


def has_defect_trigger(rep: Rep) -> bool:
    """Whether the first condense scan meets a legal merge that changes the edges.

    The program resolves such a merge with an isomorphism test, capped at
    12 vertices, before it can move on.
    """
    for _, legal, kept in rep.unifications():
        if kept:
            return False
        if legal:
            return True
    return False


def exposes(vertices, edges, core, side1, side2, word) -> bool:
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in edges:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    s1, s2 = set(side1), set(side2)
    n1 = [adj[v] & s1 for v in core]
    n2 = [adj[v] & s2 for v in core]
    if not all(n1) or not all(n2):
        return False
    p = len(word)
    chain1 = all(n1[i] < n1[i + 1] for i in range(p - 1))
    chain2 = all(n2[word[i] - 1] < n2[word[i + 1] - 1] for i in range(p - 1))
    return chain1 and chain2


# ---------------------------------------------------------------------------
# gadgets


def double_with_complement(word) -> tuple[int, ...]:
    p = len(word)
    return tuple(word) + tuple(p + v for v in reversed(word))


def lex_power_word(base_second, exponent: int) -> tuple[int, ...]:
    """Permutation carried by the lexicographic powers of (1..m) and base_second."""
    m = len(base_second)
    digit = {x: i for i, x in enumerate(range(1, m + 1))}
    out = []
    for i in range(m**exponent):
        value, rank = i, 0
        digits = []
        for _ in range(exponent):
            value, d = divmod(value, m)
            digits.append(base_second[d])
        for x in reversed(digits):
            rank = rank * m + digit[x]
        out.append(rank + 1)
    return tuple(out)


def exposer_edges(word) -> tuple[list[str], set[tuple[str, str]]]:
    p = len(word)
    inv = [0] * p
    for i, x in enumerate(word, start=1):
        inv[x - 1] = i
    core = [f"w{m}" for m in range(1, p + 1)]
    s1 = [f"u{i}" for i in range(1, p + 1)]
    s2 = [f"v{i}" for i in range(1, p + 1)]
    edges = set()
    for block in (core, s1, s2):
        edges.update(tuple(sorted(e)) for e in itertools.combinations(block, 2))
    for m in range(1, p + 1):
        for i in range(1, p + 1):
            if i <= m:
                edges.add(tuple(sorted((f"w{m}", f"u{i}"))))
            if inv[i - 1] <= inv[m - 1]:
                edges.add(tuple(sorted((f"w{m}", f"v{i}"))))
    return core + s1 + s2, edges


def graph_payload(stdout: str) -> tuple[list[str], set[tuple[str, str]]]:
    payload = json.loads(stdout)
    return payload["vertices"], {tuple(e) for e in payload["edges"]}
