"""Bounded perturbations and the gadgets that survive them.

An elementary perturbation complements the edge relation inside a chosen
vertex subset; an r-bounded perturbation applies at most r of these.  The
gadgets blow a permutation up through lexicographic powers of its two
defining orders: a homogeneous copy of the base always survives every
perturbation, because each perturbed set either contains the copy or misses
it, so the induced subgraph is the base pattern or its exact complement.

The homogeneous-set search follows the constructive induction: color the
power tuples by their membership signature; either some color hits every
first-coordinate slice (fix that coordinate free, pick witness suffixes), or
some slice misses a color and the search recurses into it with one color
fewer.  Certificates carry their prefix and suffix maps and are re-verified
by direct membership.

The interval gadget doubles every ground element into a consecutive pair
(consecutive in both orders).  When a perturbation complements a mate side,
the nesting chain read from a vertex's own mates starts empty; the chain
read from the pair partners' mates is intact, just reversed.  The verifier
therefore picks the smaller pair element as core representative and tries
own/partner mates per side, then reads the surviving half of the doubled
pattern.

Both gadgets are lazy graphs with ``names()`` and ``adjacent(a, b)``: after a
script, a pair is adjacent iff ``adjacent(a, b)`` XOR the parity of the script
sets holding both ends, so verification builds no gadget and no perturbed copy.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property

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
    """Complement the edge relation inside each subset, in order."""
    edges = set(g.edges)
    for subset in script:
        xs = sorted(set(subset))
        if not set(xs) <= g.vertices:
            raise DomainError("perturbation subset leaves the vertex set")
        for pair in itertools.combinations(xs, 2):
            if pair in edges:
                edges.remove(pair)
            else:
                edges.add(pair)
    return Graph(g.vertices, frozenset(edges))


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
        if self.exponent < 1:
            raise DomainError("exponent must be positive")

    @property
    def size(self) -> int:
        return len(self.base) ** self.exponent

    @cached_property
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

    def permutation_word(self) -> tuple[int, ...]:
        """The permutation carried by the two power orders (1-based)."""
        return tuple(self.rank(self.unrank(i, second=True)) + 1 for i in range(self.size))

    def restriction_is_order_isomorphic(self, elements: Sequence[tuple]) -> bool:
        """Both power orders restricted to ``elements`` match the base orders."""
        if len(elements) != len(self.base):
            return False
        by_first = sorted(elements, key=self.rank)
        by_second = sorted(elements, key=lambda e: self.rank(e, second=True))
        pairing = dict(zip(by_first, self.base))
        return [pairing[e] for e in by_second] == list(self.base_second)


# ---------------------------------------------------------------------------
# homogeneous sets


@record(uncompared=("suffixes", "elements"))
class HomogeneousSet:
    """A base-sized power subset lying inside or outside each input set."""

    position: int  # the free coordinate, 1-based
    prefix: tuple
    suffixes: dict[int, dict]  # coordinate -> {base element -> value}
    elements: frozenset


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
    members: list[Callable[[tuple], bool]] = []
    for x in sets:
        members.append(x if callable(x) else frozenset(x).__contains__)
    if exponent < 2 ** len(members):
        raise DomainError(f"exponent {exponent} < 2^{len(members)}; the search may fail")
    full_palette = 2 ** len(members)

    def signature(element: tuple) -> tuple[bool, ...]:
        return tuple(m(element) for m in members)

    def search(prefix: tuple) -> tuple[tuple, dict]:
        tail = exponent - len(prefix) - 1
        slice_colors: dict = {}
        for y in base:
            seen: set = set()
            for suffix in itertools.product(base, repeat=tail):
                seen.add(signature(prefix + (y,) + suffix))
                if len(seen) == full_palette:
                    break
            slice_colors[y] = seen
        palette = set().union(*slice_colors.values())
        common = set.intersection(*slice_colors.values())
        if common:
            color = min(common)
            suffix_for = {}
            for y in base:
                for suffix in itertools.product(base, repeat=tail):
                    if signature(prefix + (y,) + suffix) == color:
                        suffix_for[y] = suffix
                        break
            return prefix, suffix_for
        if tail == 0:
            raise ExtractionError("homogeneous search failed; exponent precondition violated")
        for y in base:
            if slice_colors[y] < palette:
                return search(prefix + (y,))
        raise ExtractionError("homogeneous search failed; exponent precondition violated")

    prefix, suffix_for = search(())
    position = len(prefix) + 1
    tail = exponent - position
    suffixes = {position + 1 + j: {y: suffix_for[y][j] for y in base} for j in range(tail)}
    elements = frozenset(prefix + (y,) + suffix_for[y] for y in base)
    result = HomogeneousSet(position, prefix, suffixes, elements)

    if len(elements) != len(base):
        raise ExtractionError("homogeneous set has the wrong size")
    for m in members:
        if len({m(e) for e in elements}) != 1:
            raise ExtractionError("homogeneous set fails direct membership re-check")
    return result


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


def _set_script(sets: Sequence[frozenset[str]], key: Callable | None):
    """A script as the sweep runs it: member(i, vertex), and a thunk writing the script for a failure."""
    return (lambda i, v: v in sets[i]), lambda: [sorted(x, key=key) for x in sets]


def _perturbed(adjacent: Callable[[str, str], bool], member: Callable[[int, str], bool], r: int):
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
        scripts = (_set_script([frozenset(names[i] for i in range(n) if m >> i & 1) for m in ms], key) for ms in all_masks)
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

    @cached_property
    def graph(self) -> Graph:  # permutation graph of the power permutation; vertices "1".."N"
        return permutation_graph(self.word)

    def names(self) -> list[str]:
        return [str(i) for i in range(1, len(self.word) + 1)]

    def adjacent(self, a: str, b: str) -> bool:
        i, j = sorted((int(a), int(b)))
        return self.word[i - 1] > self.word[j - 1]


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


def _check_circle_script(gadget: CircleGadget, member: Callable[[int, str], bool]) -> str | None:
    """member(i, vertex name) gives the i-th perturbation set; None means success."""
    orders = gadget.orders
    sets = [(lambda i: (lambda z: member(i, str(orders.rank(z) + 1))))(i) for i in range(gadget.r)]
    hs = find_homogeneous_set(orders.base, orders.exponent, sets)
    elements = sorted(hs.elements, key=orders.rank)
    if not orders.restriction_is_order_isomorphic(elements):
        return "restricted orders not isomorphic to the base orders"
    names = [str(orders.rank(z) + 1) for z in elements]
    flips = sum(1 for i in range(gadget.r) if member(i, names[0])) % 2 == 1  # the copy is homogeneous

    # The pair loop also certifies the surviving half under an explicit map
    # onto permutation_graph(pi); w is the doubled word.  Unflipped, names[i]
    # plays position i + 1, as w[i] = pi[i] for i < p.  Flipped, names[p + i]
    # plays position p - i: w[p + i] = p + pi[p - 1 - i] is pi reversed, so an
    # inversion of w there is a non-inversion of pi, and the flip complements
    # it back.
    adj = _perturbed(gadget.adjacent, member, gadget.r)
    doubled = orders.base_second  # the doubled word w = double_with_complement(pi)
    for i, j in itertools.combinations(range(len(names)), 2):
        if adj(names[i], names[j]) != (doubled[i] > doubled[j]) ^ flips:
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

    def draw(_: int):
        return _set_script([frozenset(v for v in names if rng.getrandbits(1)) for _ in range(gadget.r)], int)

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

    def names(self) -> Sequence[str]:
        return _KindNames(self.size)

    def second_rank(self, rank: int) -> int:
        return self.orders.rank(self.orders.unrank(rank), second=True)

    def adjacent(self, a: str, b: str) -> bool:
        """Canonical exposer adjacency: three cliques, threshold mates."""
        if a == b:
            return False
        fa, ia = a[0], int(a[1:]) - 1
        fb, ib = b[0], int(b[1:]) - 1
        if fa == fb:
            return True
        if {fa, fb} == {"u", "v"}:
            return False
        if fb == "w":
            fa, ia, fb, ib = fb, ib, fa, ia
        if fb == "u":
            return ib <= ia
        return self.second_rank(ib) <= self.second_rank(ia)

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


def _check_interval_script(gadget: IntervalGadget, member: Callable[[int, str], bool]) -> str | None:
    """member(i, vertex name) gives the i-th perturbation set; None means success."""
    if gadget.u_power < 4:
        return "u_power below 4 cannot drive the second homogeneous step"
    orders = gadget.orders
    t_base = orders.base
    u_orders = LexPowerOrders(t_base, orders.base_second, gadget.u_power)
    u_elements = tuple(u_orders.unrank(i) for i in range(u_orders.size))
    u_by_second = tuple(sorted(u_elements, key=lambda e: u_orders.rank(e, second=True)))
    z_orders = LexPowerOrders(u_elements, u_by_second, gadget.z_power)

    def vertex(kind: str, nested: tuple) -> str:
        return f"{kind}{orders.rank(itertools.chain.from_iterable(nested)) + 1}"

    # Step 1: a homogeneous copy of U inside Z.
    sets = [(lambda i: (lambda nested: member(i, vertex("w", nested))))(i) for i in range(gadget.r)]
    hs1 = find_homogeneous_set(u_elements, gadget.z_power, sets)
    z0 = sorted(hs1.elements, key=z_orders.rank)
    if not z_orders.restriction_is_order_isomorphic(z0):
        return "first restriction not order-isomorphic"
    core_in = [member(i, vertex("w", z0[0])) for i in range(gadget.r)]
    iota = dict(zip(u_elements, z0))

    # Step 2: mates keep or complement their neighbourhood toward the copy;
    # a homogeneous copy of T inside U makes that uniform per side.
    def preserved(kind: str, u: tuple) -> bool:
        name = vertex(kind, iota[u])
        return sum(1 for i in range(gadget.r) if core_in[i] and member(i, name)) % 2 == 0

    hs2 = find_homogeneous_set(t_base, gadget.u_power, [
        lambda u: preserved("u", u),
        lambda u: preserved("v", u),
    ])
    u0 = sorted(hs2.elements, key=u_orders.rank)
    if not u_orders.restriction_is_order_isomorphic(u0):
        return "second restriction not order-isomorphic"
    t_core = [iota[u] for u in u0]  # one core vertex per ground element of T
    adj = _perturbed(gadget.adjacent, member, gadget.r)

    # Step 3: pick pair representatives and mates, read the surviving block.
    p = len(gadget.pi)
    for rep_shift in (0, 1):  # smaller element of each consecutive pair first
        reps = [t_core[i + rep_shift] for i in range(0, 4 * p, 2)]
        partners = [t_core[i + 1 - rep_shift] for i in range(0, 4 * p, 2)]
        names = [vertex("w", c) for c in reps]
        for m1_from in (reps, partners):
            for m2_from in (reps, partners):
                mates1 = [vertex("u", c) for c in m1_from]
                mates2 = [vertex("v", c) for c in m2_from]
                if _block_exposes(gadget.pi, adj, names, mates1, mates2):
                    return None
    return "no representative choice exposes the requested permutation"


def _block_exposes(target, adj, names, mates1, mates2) -> bool:
    """Whether a half of the doubled chain pattern realizes the target."""
    p = len(target)

    def sizes(mates):
        out = [sum(1 for m in mates if adj(w, m)) for w in names]
        return out if sorted(out) == list(range(1, len(names) + 1)) else None

    s1, s2 = sizes(mates1), sizes(mates2)
    if s1 is None or s2 is None:
        return False
    order = sorted(range(len(names)), key=lambda i: s1[i])
    for block in (order[:p], order[-p:]):
        sub = sorted(block, key=lambda i: s1[i])
        by2 = sorted(block, key=lambda i: s2[i])
        rank = {i: k for k, i in enumerate(sub)}
        candidate = tuple(rank[i] + 1 for i in by2)
        if candidate != tuple(target):
            continue
        chosen = [(names[i], mates1[i], mates2[i]) for i in sub]
        h_vertices = [v for triple in chosen for v in triple]
        h = Graph.build(h_vertices, [(a, b) for a, b in itertools.combinations(h_vertices, 2) if adj(a, b)])
        if check_exposes(h, *zip(*chosen), target):
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

    def draw(idx: int):
        return (lambda i, v: _hash_member(seed, idx, i, v)), lambda: f"hash sample {idx} (seed {seed})"

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
