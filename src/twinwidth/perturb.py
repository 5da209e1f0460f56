"""Bounded perturbations and the gadgets that survive them.

An elementary perturbation complements the edge relation inside a chosen
vertex subset; an r-bounded perturbation applies at most r of these.  The
gadgets blow a permutation up through lexicographic powers of its two
defining orders: a homogeneous copy of the base always survives every
perturbation, because each perturbed set either contains the copy or misses
it, so the induced subgraph is the base pattern or its exact complement.

The homogeneous-set search follows the constructive induction on
first-order ranks: color the ranks by their membership signature; either
some color hits every slice of the next coordinate (leave that coordinate
free and keep each slice's first rank of that color), or some slice misses a
color and the search descends into it with one color fewer.  Every copy is
re-verified by direct membership; ``find_homogeneous_set`` states it on
tuples, with its prefix and suffix maps.

The interval gadget doubles every ground element into a consecutive pair
(consecutive in both orders).  When a perturbation complements a mate side,
the nesting chain read from a vertex's own mates starts empty; the chain
read from the pair partners' mates is intact, just reversed.  The verifier
therefore picks the smaller pair element as core representative and tries
own/partner mates per side, then reads the surviving half of the doubled
pattern.

Both gadgets are lazy graphs on vertex indices.  A circle vertex's index is
its first-order rank x, and its name is x + 1; an interval vertex's index is
k * N + x for core rank x, with k = 0, 1, 2 for w, u, v.  Scripts test
membership by index and ``adjacent(a, b)`` takes indices: after a script, a
pair is adjacent iff ``adjacent(a, b)`` XOR the parity of the script sets
holding both ends, so verification builds no gadget and no perturbed copy.
Names (``names()[x]``) appear only at the edges: the sampled interval
scripts' hash input, failure scripts and witness graphs.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Callable, Iterable, Sequence

# hashlib's own blake2b, without the OpenSSL module that importing hashlib loads
from _blake2 import blake2b

from .errors import CapExceeded, DomainError, ExtractionError
from .graphs import Graph, check_permutation, permutation_graph
from .obstruction import check_exposes, generate_exposer
from .records import record

DEFAULT_GADGET_CAP = 4096


def _power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """``base ** exponent > cap`` for base >= 2, stopping once the product passes the cap."""
    value = 1
    for _ in range(exponent):
        if value > cap:
            return True
        value *= base
    return value > cap


# ---------------------------------------------------------------------------
# perturbations


def apply_perturbation(g: Graph, script: Sequence[Iterable[str]]) -> Graph:
    """Complement the edge relation inside each subset, in order: XOR its mask, less x's own bit, into each member x's row."""
    rows, index = list(g.rows), g.index
    for subset in script:
        xs = set(subset)
        if not xs <= g.vertices:
            raise DomainError("perturbation subset leaves the vertex set")
        mask = sum(1 << index[x] for x in xs)
        for x in xs:
            rows[index[x]] ^= mask ^ 1 << index[x]
    return Graph(g.names, tuple(rows))


# ---------------------------------------------------------------------------
# lexicographic powers


@record
class LexPowerOrders:
    """Two linear orders on base^exponent, as lexicographic powers.

    ``base`` lists the ground elements in first order; ``base_second`` lists
    the same elements in second order.  Ranks are positional numbers, so the
    power set never needs materializing.
    """

    base: tuple
    base_second: tuple
    exponent: int

    def __post_init__(self) -> None:
        if sorted(map(repr, self.base)) != sorted(map(repr, self.base_second)):
            raise DomainError("the two base orders must list the same elements")
        if len(set(self.base)) != len(self.base):
            raise DomainError("base elements must be distinct")
        if self.exponent < 1:
            raise DomainError("exponent must be positive")

    @property
    def size(self) -> int:
        return len(self.base) ** self.exponent

    @functools.cached_property
    def _digits(self) -> tuple[dict, dict]:
        return tuple({x: i for i, x in enumerate(order)} for order in (self.base, self.base_second))

    def rank(self, element: tuple, second: bool = False) -> int:
        digits = self._digits[second]
        value = 0
        for coordinate in element:
            value = value * len(self.base) + digits[coordinate]
        return value

    def unrank(self, value: int, second: bool = False) -> tuple:
        order = self.base_second if second else self.base
        out = []
        for _ in range(self.exponent):
            value, digit = divmod(value, len(self.base))
            out.append(order[digit])
        return tuple(reversed(out))

    @functools.cached_property
    def _digit_map(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The place values b**k of a rank, and each first-order digit's second-order digit."""
        return tuple(len(self.base) ** k for k in range(self.exponent)), tuple(map(self._digits[1].__getitem__, self.base))

    def second_rank(self, rank: int) -> int:
        """The second-order rank of the element at first-order ``rank``: each of its base-b digits mapped."""
        places, second = self._digit_map
        return sum(second[rank // p % len(self.base)] * p for p in places)

    def _word(self, ranks: Iterable[int]) -> tuple[int, ...]:
        """The 1-based permutation both orders carry on ascending first-order ``ranks``; a copy of orders B gives B's."""
        seconds = [self.second_rank(x) for x in ranks]
        return tuple(k + 1 for k in sorted(range(len(seconds)), key=seconds.__getitem__))

    def permutation_word(self) -> tuple[int, ...]:
        """The permutation carried by the two power orders (1-based)."""
        return self._word(range(self.size))

    def restriction_is_order_isomorphic(self, elements: Sequence[tuple]) -> bool:
        """Both power orders restricted to ``elements`` match the base orders."""
        ranks = sorted({self.rank(e) for e in elements})
        base_word = tuple(self._digits[0][y] + 1 for y in self.base_second)
        return len(ranks) == len(elements) and self._word(ranks) == base_word


# ---------------------------------------------------------------------------
# homogeneous sets


@record(uncompared=("suffixes", "elements"))
class HomogeneousSet:
    """A base-sized power subset lying inside or outside each input set."""

    position: int  # the free coordinate, 1-based
    prefix: tuple
    suffixes: dict[int, dict]  # coordinate -> {base element -> value}
    elements: frozenset


def _homogeneous_ranks(b: int, exponent: int, members: Sequence[Callable[[int], bool]]) -> tuple[int, list[int]]:
    """A homogeneous copy of range(b) inside range(b)^exponent, on first-order ranks.

    Returns the depth of the free coordinate and one rank per digit y, each
    at the slice of y under the fixed prefix.  Members answer 0/1 or a bool
    for a rank; the caller checks exponent >= 2^len(members).
    """
    if b == 0:
        raise DomainError("base must be nonempty")
    palette_size = 1 << len(members)
    prefix = 0  # the first-order rank of the fixed coordinates
    for depth in range(exponent):
        width = b ** (exponent - depth - 1)
        firsts = []  # per slice: color -> the first rank of that color
        for y in range(b):
            start = (prefix * b + y) * width
            seen: dict[int, int] = {}
            for x in range(start, start + width):
                color = 0
                for m in members:
                    color = 2 * color + m(x)
                if color not in seen:
                    seen[color] = x
                    if len(seen) == palette_size:
                        break
            firsts.append(seen)
        common = set(firsts[0]).intersection(*firsts[1:])
        if common:
            color = min(common)
            ranks = [seen[color] for seen in firsts]
            for m in members:
                if len({m(x) for x in ranks}) != 1:
                    raise ExtractionError("homogeneous set fails direct membership re-check")
            return depth, ranks
        palette = set().union(*firsts)
        prefix = prefix * b + next(y for y, seen in enumerate(firsts) if len(seen) < len(palette))
    raise ExtractionError("homogeneous search failed; exponent precondition violated")


def find_homogeneous_set(
    base: Sequence,
    exponent: int,
    sets: Sequence[Callable[[tuple], bool] | Iterable[tuple]],
) -> HomogeneousSet:
    """A homogeneous copy of the base inside base^exponent.

    Needs exponent >= 2^len(sets), after which the search cannot fail.  Sets
    may be collections of tuples or membership callables.
    """
    base = tuple(base)
    if not base:
        raise DomainError("base must be nonempty")
    members = [x if callable(x) else frozenset(x).__contains__ for x in sets]
    if exponent < 2 ** len(members):
        raise DomainError(f"exponent {exponent} < 2^{len(members)}; the search may fail")
    orders = LexPowerOrders(base, base, exponent)
    depth, ranks = _homogeneous_ranks(len(base), exponent, [lambda x, m=m: bool(m(orders.unrank(x))) for m in members])
    elements = [orders.unrank(x) for x in ranks]
    if len(set(elements)) != len(base):
        raise ExtractionError("homogeneous set has the wrong size")
    suffixes = {j + 1: {y: e[j] for y, e in zip(base, elements)} for j in range(depth + 1, exponent)}
    return HomogeneousSet(depth + 1, elements[0][:depth], suffixes, frozenset(elements))


# ---------------------------------------------------------------------------
# the doubled permutations


def double_with_complement(word: Sequence[int]) -> tuple[int, ...]:
    """Concatenate the permutation with its reversed copy on the next block.

    The inversion graph of the result is the disjoint union of the original
    permutation's graph and that graph's complement.

    >>> double_with_complement((2, 1))
    (2, 1, 3, 4)
    """
    w = check_permutation(word)
    p = len(w)
    return w + tuple(p + v for v in reversed(w))


def doubled_interval_word(word: Sequence[int]) -> tuple[int, ...]:
    """Duplicate each doubled value into a pair consecutive in both orders."""
    out: list[int] = []
    for v in double_with_complement(word):
        out.extend((2 * v - 1, 2 * v))
    return tuple(out)


# ---------------------------------------------------------------------------
# gadget orders and the script sweep shared by both gadgets


def _gadget_orders(second: tuple, r: int, exponent: int | None, cap: int, noun: str, u_power: int | None = None):
    """Orders on 1..len(second), to the power u_power * (exponent or 2^r), refused over the cap before building."""
    if r < 0:
        raise DomainError("r must be nonnegative")
    if u_power is not None and u_power < 1:
        raise DomainError("u_power must be positive")
    scale = "" if u_power is None else f"{u_power}*"
    if exponent is None and r >= cap.bit_length():  # 2^r alone would dwarf the cap
        raise CapExceeded(f"gadget would have {len(second)}^({scale}2^{r}) {noun}, cap is {cap}")
    # exponents below 2^r are allowed for diagnostics; robustness
    # verification enforces its own precondition
    s = (u_power or 1) * (exponent if exponent is not None else 2**r)
    orders = LexPowerOrders(tuple(range(1, len(second) + 1)), second, s)
    if _power_exceeds(len(second), s, cap):
        raise CapExceeded(f"gadget would have {len(second)}^{s} {noun}, cap is {cap}")
    return orders


def _mask_script(masks: Sequence[int], names: Sequence[str], key: Callable | None):
    """A script as the sweep runs it: member(i, x) is bit x of mask i; a thunk writes the sets by name for a failure."""

    def write():
        return [sorted((names[x] for x in range(m.bit_length()) if m >> x & 1), key=key) for m in masks]

    return (lambda i, x: masks[i] >> x & 1), write


def _perturbed(adjacent: Callable[[int, int], bool], member: Callable[[int, int], int], r: int):
    """Adjacency after r sets: a pair flips once for every set holding both ends."""
    return lambda a, b: adjacent(a, b) ^ (sum(1 for i in range(r) if member(i, a) and member(i, b)) % 2 == 1)


def _sweep(case, sizes, gadget, check, exponent, draw, key, mode, samples, seed, budget) -> "RobustnessReport":
    """Check every script, or ``samples`` drawn ones; ``exponent`` (None: no search runs) must be >= 2^r."""
    r = gadget.r
    if mode == "exhaustive":
        names = gadget.names()
        n = len(names)
        if _power_exceeds(2, n * r, budget):
            raise CapExceeded(f"exhaustive mode needs 2^{n * r} scripts, budget is {budget}")
        all_masks = itertools.product(*(range(1 << n) for _ in range(r)))  # r == 0: the one empty script
        scripts = (_mask_script(masks, names, key) for masks in all_masks)
    elif mode == "sampled":
        if seed is None:
            raise DomainError("sampled mode needs a seed")
        if samples < 0:
            raise DomainError("samples must be nonnegative")
        scripts = map(draw, range(samples))
    else:
        raise DomainError(f"unknown mode {mode!r}")
    if exponent is not None and exponent.bit_length() <= r:  # exponent < 2^r, without building 2^r
        raise DomainError(f"exponent {exponent} < 2^{r}; the search may fail")
    tested, failures = 0, []
    for tested, (member, write) in enumerate(scripts, 1):
        why = check(gadget, member)
        if why is not None:
            failures.append({"script": write(), "reason": why})
    params = {"pi": list(gadget.pi), "r": r, **sizes, "seed": seed}
    return RobustnessReport(case, params, mode, tested, failures)


# ---------------------------------------------------------------------------
# circle gadget


@record
class CircleGadget:
    orders: LexPowerOrders
    word: tuple[int, ...]
    pi: tuple[int, ...]
    r: int

    @functools.cached_property
    def graph(self) -> Graph:  # permutation graph of the power permutation; vertices "1".."N"
        return permutation_graph(self.word)

    def names(self) -> list[str]:  # vertex x is the first-order rank x, named x + 1
        return [str(i) for i in range(1, len(self.word) + 1)]

    def adjacent(self, a: int, b: int) -> bool:
        return self.word[min(a, b)] > self.word[max(a, b)]


def build_circle_gadget(
    word: Sequence[int],
    r: int = 0,
    exponent: int | None = None,
    cap: int = DEFAULT_GADGET_CAP,
) -> CircleGadget:
    """A permutation graph that keeps ``word`` inside under r perturbations.

    The vertex set is the exponent-fold lexicographic power of the doubled
    permutation's ground set; the default exponent is 2^r, the smallest the
    homogeneous-set argument supports.
    """
    w = check_permutation(word)
    orders = _gadget_orders(double_with_complement(w), r, exponent, cap, "vertices")
    return CircleGadget(orders, orders.permutation_word(), w, r)


def _check_circle_script(gadget: CircleGadget, member: Callable[[int, int], int]) -> str | None:
    """member(i, vertex index) gives the i-th perturbation set; None means success."""
    orders, r = gadget.orders, gadget.r
    sets = [functools.partial(member, i) for i in range(r)]
    _, copy = _homogeneous_ranks(len(orders.base), orders.exponent, sets)
    doubled = orders.base_second  # the doubled word w = double_with_complement(pi), the base's own word
    if orders._word(copy) != doubled:
        return "restricted orders not isomorphic to the base orders"
    flips = sum(1 for i in range(r) if member(i, copy[0])) % 2 == 1  # the copy is homogeneous

    # The pair loop also certifies the surviving half under an explicit map
    # onto permutation_graph(pi).  Unflipped, copy[i] plays position i + 1,
    # as w[i] = pi[i] for i < p.  Flipped, copy[p + i] plays position p - i:
    # w[p + i] = p + pi[p - 1 - i] is pi reversed, so an inversion of w there
    # is a non-inversion of pi, and the flip complements it back.
    adj = _perturbed(gadget.adjacent, member, r)
    for i, j in itertools.combinations(range(len(copy)), 2):
        if adj(copy[i], copy[j]) != (doubled[i] > doubled[j]) ^ flips:
            return "induced block is not the doubled pattern or its complement"
    return None


def verify_robustness_circle(
    gadget: CircleGadget,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int | None = None,
    budget: int = 1 << 20,
) -> "RobustnessReport":
    """Every (or each sampled) perturbation must leave the target inside."""
    names, rng = gadget.names(), random.Random(seed)

    def draw(_: int):  # one bit per vertex, in index order, for each set in turn
        masks = [sum(rng.getrandbits(1) << x for x in range(len(names))) for _ in range(gadget.r)]
        return _mask_script(masks, names, int)

    sizes = {"exponent": gadget.orders.exponent, "vertices": gadget.orders.size}
    return _sweep("circle", sizes, gadget, _check_circle_script, sizes["exponent"], draw, int, mode, samples, seed, budget)


# ---------------------------------------------------------------------------
# interval gadget (lazy: adjacency is defined by rank formulas)


@record
class _KindNames(Sequence):
    """Core names w1..wN, then mates u1..uN and v1..vN, never listed: N can reach 2^40."""

    size: int

    def __len__(self) -> int:
        return 3 * self.size

    def __getitem__(self, index: int) -> str:
        kind, rank = divmod(range(3 * self.size)[index], self.size)
        return f"{'wuv'[kind]}{rank + 1}"


@record
class IntervalGadget:
    orders: LexPowerOrders  # flattened ground order: base T, exponent u_power * z_power
    pi: tuple[int, ...]
    r: int
    u_power: int
    z_power: int

    @property
    def size(self) -> int:
        return self.orders.size

    def names(self) -> Sequence[str]:  # vertex k * size + x is core rank x of kind "wuv"[k]
        return _KindNames(self.size)

    @functools.cached_property
    def _u_word(self) -> tuple[int, ...]:  # U = T^u_power: a core rank is z_power digits of U ranks
        return LexPowerOrders(self.orders.base, self.orders.base_second, self.u_power).permutation_word()

    def adjacent(self, a: int, b: int) -> bool:
        """Canonical exposer adjacency: three cliques, threshold mates."""
        (ka, ia), (kb, ib) = sorted((divmod(a, self.size), divmod(b, self.size)))
        if ka == kb:
            return a != b
        if ka:  # u and v
            return False
        return ib <= ia if kb == 1 else self.orders.second_rank(ib) <= self.orders.second_rank(ia)

    def materialize(self, cap: int = DEFAULT_GADGET_CAP):
        if len(self.names()) > cap:
            raise CapExceeded(f"gadget has {len(self.names())} vertices, cap is {cap}")
        return generate_exposer(self.orders.permutation_word())


def build_interval_gadget(
    word: Sequence[int],
    r: int = 0,
    u_power: int = 4,
    exponent: int | None = None,
    cap: int = 2**40,
) -> IntervalGadget:
    """The exposer-shaped gadget over T -> U = T^u_power -> Z = U^2^r.

    Lazily represented; ``materialize`` builds the interval graph for small
    sizes.  ``u_power`` below 4 cannot drive the second homogeneous step of
    robustness verification and is only for diagnostics.
    """
    w = check_permutation(word)
    orders = _gadget_orders(doubled_interval_word(w), r, exponent, cap, "core vertices", u_power)
    return IntervalGadget(orders, w, r, u_power, orders.exponent // u_power)


def _check_interval_script(gadget: IntervalGadget, member: Callable[[int, int], int]) -> str | None:
    """member(i, vertex index) gives the i-th perturbation set; None means success."""
    if gadget.u_power < 4:
        return "u_power below 4 cannot drive the second homogeneous step"
    orders, r, n = gadget.orders, gadget.r, gadget.size

    # Step 1: a homogeneous copy of U inside Z.  A Z element has the first-
    # and second-order ranks of its flattened T tuple, so the copy is a list
    # of core ranks, one per U rank.
    sets = [functools.partial(member, i) for i in range(r)]
    _, copy1 = _homogeneous_ranks(len(gadget._u_word), gadget.z_power, sets)
    if orders._word(copy1) != gadget._u_word:
        return "first restriction not order-isomorphic"
    core_in = [member(i, copy1[0]) for i in range(r)]

    # Step 2: mates keep or complement their neighbourhood toward the copy;
    # a homogeneous copy of T inside U makes that uniform per side.
    def preserved(kind: int, u: int) -> bool:
        x = kind * n + copy1[u]
        return sum(1 for i in range(r) if core_in[i] and member(i, x)) % 2 == 0

    sides = [functools.partial(preserved, 1), functools.partial(preserved, 2)]
    _, copy2 = _homogeneous_ranks(len(orders.base), gadget.u_power, sides)
    t_core = [copy1[u] for u in copy2]  # one core rank per ground element of T
    if orders._word(t_core) != orders.base_second:  # T's own word
        return "second restriction not order-isomorphic"
    adj = _perturbed(gadget.adjacent, member, r)

    # Step 3: pick pair representatives and mates, read the surviving block.
    names = gadget.names()
    for rep_shift in (0, 1):  # smaller element of each consecutive pair first
        reps, partners = t_core[rep_shift::2], t_core[1 - rep_shift::2]
        for m1_from in (reps, partners):
            for m2_from in (reps, partners):
                if _block_exposes(gadget.pi, adj, names, reps, [n + c for c in m1_from], [2 * n + c for c in m2_from]):
                    return None
    return "no representative choice exposes the requested permutation"


def _block_exposes(target, adj, names, core, mates1, mates2) -> bool:
    """Whether a half of the doubled chain pattern realizes the target; the witness graph takes ``names``."""
    p = len(target)

    def sizes(mates):
        out = [sum(1 for m in mates if adj(w, m)) for w in core]
        return out if sorted(out) == list(range(1, len(core) + 1)) else None

    s1, s2 = sizes(mates1), sizes(mates2)
    if s1 is None or s2 is None:
        return False
    order = sorted(range(len(core)), key=lambda i: s1[i])
    for block in (order[:p], order[-p:]):
        sub = sorted(block, key=lambda i: s1[i])
        by2 = sorted(block, key=lambda i: s2[i])
        rank = {i: k for k, i in enumerate(sub)}
        candidate = tuple(rank[i] + 1 for i in by2)
        if candidate != tuple(target):
            continue
        h_vertices = [v for i in sub for v in (core[i], mates1[i], mates2[i])]
        edges = [(names[a], names[b]) for a, b in itertools.combinations(h_vertices, 2) if adj(a, b)]
        h = Graph.build([names[v] for v in h_vertices], edges)
        if check_exposes(h, *([names[v] for v in h_vertices[k::3]] for k in range(3)), target):
            return True
    return False


def _hash_member(seed: int, script: int, which: int, vertex: str) -> bool:
    digest = blake2b(f"{seed}:{script}:{which}:{vertex}".encode(), digest_size=1).digest()
    return bool(digest[0] & 1)


def verify_robustness_interval(
    gadget: IntervalGadget,
    mode: str = "sampled",
    samples: int = 1000,
    seed: int | None = None,
    budget: int = 1 << 20,
) -> "RobustnessReport":
    """Sampled (or tiny exhaustive) robustness check for the interval gadget.

    Sampled scripts are pseudo-random vertex subsets derived from the seed;
    the gadget graph stays lazy, only witness subgraphs materialize.
    """
    names = gadget.names()

    def draw(idx: int):  # the hash reads vertex names, so scripts do not depend on the index layout
        return (lambda i, x: _hash_member(seed, idx, i, names[x])), lambda: f"hash sample {idx} (seed {seed})"

    sizes = {"u_power": gadget.u_power, "z_power": gadget.z_power, "core_vertices": gadget.size}
    e = gadget.z_power if gadget.u_power >= 4 else None  # below 4, scripts stop before any search
    return _sweep("interval", sizes, gadget, _check_interval_script, e, draw, None, mode, samples, seed, budget)


@record
class RobustnessReport:
    case: str  # "circle" | "interval"
    params: dict
    mode: str
    scripts_tested: int
    failures: list

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "params": self.params,
            "mode": self.mode,
            "scripts_tested": self.scripts_tested,
            "failures": list(self.failures),
        }
