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
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import CapExceeded, DomainError, ExtractionError
from .graphs import Graph, check_permutation, is_isomorphic, permutation_graph
from .obstruction import check_exposes

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


@dataclass(frozen=True)
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

    def rank(self, element: tuple, second: bool = False) -> int:
        order = self.base_second if second else self.base
        digits = {x: i for i, x in enumerate(order)}
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


@dataclass(frozen=True)
class HomogeneousSet:
    """A base-sized power subset lying inside or outside each input set."""

    position: int  # the free coordinate, 1-based
    prefix: tuple
    suffixes: dict[int, dict] = field(compare=False)  # coordinate -> {base element -> value}
    elements: frozenset = field(compare=False)


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
# circle gadget


@dataclass(frozen=True)
class CircleGadget:
    graph: Graph  # permutation graph of the power permutation; vertices "1".."N"
    orders: LexPowerOrders
    word: tuple[int, ...]
    pi: tuple[int, ...]
    r: int


def build_circle_gadget(
    word: Sequence[int],
    r: int,
    exponent: int | None = None,
    cap: int = DEFAULT_GADGET_CAP,
) -> CircleGadget:
    """A permutation graph that keeps ``word`` inside under r perturbations.

    The vertex set is the exponent-fold lexicographic power of the doubled
    permutation's ground set; the default exponent is 2^r, the smallest the
    homogeneous-set argument supports.
    """
    w = check_permutation(word)
    if r < 0:
        raise DomainError("r must be nonnegative")
    if exponent is None and r >= cap.bit_length():  # 2^r alone would dwarf the cap
        raise CapExceeded(f"gadget would have {2 * len(w)}^(2^{r}) vertices, cap is {cap}")
    # exponents below 2^r are allowed for diagnostics; robustness
    # verification enforces its own precondition
    s = exponent if exponent is not None else 2**r
    orders = LexPowerOrders(tuple(range(1, 2 * len(w) + 1)), double_with_complement(w), s)
    if _power_exceeds(len(orders.base), orders.exponent, cap):
        raise CapExceeded(f"gadget would have {len(orders.base)}^{orders.exponent} vertices, cap is {cap}")
    rho = orders.permutation_word()
    return CircleGadget(permutation_graph(rho), orders, rho, w, r)


def _check_circle_script(gadget: CircleGadget, script: Sequence[frozenset[str]]) -> str | None:
    """One script through the homogeneous pipeline; None means success."""
    orders = gadget.orders
    perturbed = apply_perturbation(gadget.graph, script)

    def name(z: tuple) -> str:
        return str(orders.rank(z) + 1)

    sets = [(lambda x: (lambda z: name(z) in x))(x) for x in script]
    hs = find_homogeneous_set(orders.base, orders.exponent, sets)
    elements = sorted(hs.elements, key=orders.rank)
    if not orders.restriction_is_order_isomorphic(elements):
        return "restricted orders not isomorphic to the base orders"
    names = [name(z) for z in elements]
    copies = set(names)
    flips = sum(1 for x in script if copies <= x) % 2

    base_graph = permutation_graph(double_with_complement(gadget.pi))
    p2 = len(orders.base)
    for i, j in itertools.combinations(range(p2), 2):
        want = base_graph.has_edge(str(i + 1), str(j + 1)) ^ bool(flips)
        if perturbed.has_edge(names[i], names[j]) != want:
            return "induced block is not the doubled pattern or its complement"

    p = len(gadget.pi)
    block = range(p) if not flips else range(p, 2 * p)
    target = [names[i] for i in block]
    if not is_isomorphic(perturbed.subgraph(target), permutation_graph(gadget.pi), cap=max(12, p)):
        return "surviving block does not induce the requested permutation graph"
    return None


def verify_robustness_circle(
    gadget: CircleGadget,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int | None = None,
    budget: int = 1 << 20,
) -> "RobustnessReport":
    """Every (or each sampled) perturbation must leave the target inside."""
    names = sorted(gadget.graph.vertices, key=int)
    n = len(names)
    tested = 0
    failures = []

    def run(script) -> None:
        nonlocal tested
        tested += 1
        why = _check_circle_script(gadget, script)
        if why is not None:
            failures.append({"script": [sorted(x, key=int) for x in script], "reason": why})

    if mode == "exhaustive":
        if _power_exceeds(2, n * gadget.r, budget):
            raise CapExceeded(f"exhaustive mode needs 2^{n * gadget.r} scripts, budget is {budget}")
        if gadget.r == 0:
            run(())
        else:
            for masks in itertools.product(range(2**n), repeat=gadget.r):
                run(tuple(frozenset(names[i] for i in range(n) if mask >> i & 1) for mask in masks))
    elif mode == "sampled":
        if seed is None:
            raise DomainError("sampled mode needs a seed")
        rng = random.Random(seed)
        for _ in range(samples):
            run(tuple(frozenset(v for v in names if rng.getrandbits(1)) for _ in range(gadget.r)))
    else:
        raise DomainError(f"unknown mode {mode!r}")
    params = {
        "pi": list(gadget.pi),
        "r": gadget.r,
        "exponent": gadget.orders.exponent,
        "vertices": gadget.orders.size,
        "seed": seed,
    }
    return RobustnessReport("circle", params, mode, tested, failures)


# ---------------------------------------------------------------------------
# interval gadget (lazy: adjacency is defined by rank formulas)


@dataclass(frozen=True)
class IntervalGadget:
    orders: LexPowerOrders  # flattened ground order: base T, exponent u_power * z_power
    pi: tuple[int, ...]
    r: int
    u_power: int
    z_power: int

    @property
    def size(self) -> int:
        return self.orders.size

    def vertex_count(self) -> int:
        return 3 * self.size

    def core_name(self, rank: int) -> str:
        return f"w{rank + 1}"

    def side1_name(self, rank: int) -> str:
        return f"u{rank + 1}"

    def side2_name(self, rank: int) -> str:
        return f"v{rank + 1}"

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
        from .obstruction import generate_exposer

        if self.vertex_count() > cap:
            raise CapExceeded(f"gadget has {self.vertex_count()} vertices, cap is {cap}")
        return generate_exposer(self.orders.permutation_word())


def build_interval_gadget(
    word: Sequence[int],
    r: int,
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
    if r < 0:
        raise DomainError("r must be nonnegative")
    if u_power < 1:
        raise DomainError("u_power must be positive")
    if exponent is None and r >= cap.bit_length():  # 2^r alone would dwarf the cap
        raise CapExceeded(f"gadget would have {4 * len(w)}^({u_power}*2^{r}) core vertices, cap is {cap}")
    z_power = exponent if exponent is not None else 2**r
    orders = LexPowerOrders(tuple(range(1, 4 * len(w) + 1)), doubled_interval_word(w), u_power * z_power)
    if _power_exceeds(len(orders.base), orders.exponent, cap):
        raise CapExceeded(f"gadget would have {len(orders.base)}^{orders.exponent} core vertices, cap is {cap}")
    return IntervalGadget(orders, w, r, u_power, z_power)


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

    def flat(nested: tuple) -> tuple:
        return tuple(c for block in nested for c in block)

    def vertex(kind: str, nested: tuple) -> str:
        rank = orders.rank(flat(nested))
        return {"w": gadget.core_name, "u": gadget.side1_name, "v": gadget.side2_name}[kind](rank)

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

    def adj(a: str, b: str) -> bool:
        flips = sum(1 for i in range(gadget.r) if member(i, a) and member(i, b)) % 2
        return gadget.adjacent(a, b) ^ bool(flips)

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
        edges = [
            (a, b)
            for a, b in itertools.combinations(sorted(h_vertices), 2)
            if adj(a, b)
        ]
        h = Graph.build(h_vertices, edges)
        core_order = tuple(t[0] for t in chosen)
        w1 = tuple(t[1] for t in chosen)
        w2 = tuple(t[2] for t in chosen)
        if check_exposes(h, core_order, w1, w2, target):
            return True
    return False


def _hash_member(seed: int, script: int, which: int, vertex: str) -> bool:
    digest = hashlib.blake2b(f"{seed}:{script}:{which}:{vertex}".encode(), digest_size=1).digest()
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
    n = gadget.vertex_count()
    tested = 0
    failures = []
    if mode == "exhaustive":
        if _power_exceeds(2, n * gadget.r, budget):
            raise CapExceeded(f"exhaustive mode needs 2^{n * gadget.r} scripts, budget is {budget}")
        names = (
            [gadget.core_name(i) for i in range(gadget.size)]
            + [gadget.side1_name(i) for i in range(gadget.size)]
            + [gadget.side2_name(i) for i in range(gadget.size)]
        )
        masks_iter = itertools.product(range(2**n), repeat=gadget.r) if gadget.r else [()]
        for masks in masks_iter:
            chosen = [frozenset(names[i] for i in range(n) if mask >> i & 1) for mask in masks]
            tested += 1
            why = _check_interval_script(gadget, lambda i, v: v in chosen[i])
            if why is not None:
                failures.append({"script": [sorted(x) for x in chosen], "reason": why})
    elif mode == "sampled":
        if seed is None:
            raise DomainError("sampled mode needs a seed")
        for idx in range(samples):
            tested += 1
            why = _check_interval_script(gadget, lambda i, v, si=idx: _hash_member(seed, si, i, v))
            if why is not None:
                failures.append({"script": f"hash sample {idx} (seed {seed})", "reason": why})
    else:
        raise DomainError(f"unknown mode {mode!r}")
    params = {
        "pi": list(gadget.pi),
        "r": gadget.r,
        "u_power": gadget.u_power,
        "z_power": gadget.z_power,
        "core_vertices": gadget.size,
        "seed": seed,
    }
    return RobustnessReport("interval", params, mode, tested, failures)


@dataclass(frozen=True)
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
