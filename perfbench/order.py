"""A small finite-poset toolkit of the benchmark's own.

The generators and the output checks use this instead of finfib, so
that a change to the program can neither shift a workload's inputs nor
weaken the checks on its outputs.  Orders are stored as down-set
bitmasks: ``below[i]`` has bit j set iff j <= i.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence


class Order:
    __slots__ = ("names", "below", "index")

    def __init__(self, names: Sequence[str], below: Sequence[int]):
        self.names = list(names)
        self.below = list(below)
        self.index = {x: i for i, x in enumerate(self.names)}

    @classmethod
    def from_pairs(cls, names: Sequence[str], pairs: Iterable[tuple[int, int]]) -> "Order":
        """Reflexive-transitive closure of (lo, hi) index pairs (acyclic)."""
        n = len(names)
        lower = [[] for _ in range(n)]
        for lo, hi in pairs:
            lower[hi].append(lo)
        below: list[Optional[int]] = [None] * n
        for start in range(n):
            stack = [start]
            while stack:
                i = stack[-1]
                if below[i] is not None:
                    stack.pop()
                    continue
                todo = [j for j in lower[i] if below[j] is None]
                if todo:
                    stack.extend(todo)
                    continue
                row = 1 << i
                for j in lower[i]:
                    row |= below[j]
                below[i] = row
                stack.pop()
        return cls(names, below)

    @property
    def n(self) -> int:
        return len(self.names)

    def le(self, i: int, j: int) -> bool:
        return bool(self.below[j] >> i & 1)

    def above(self) -> list[int]:
        up = [0] * self.n
        for i, row in enumerate(self.below):
            for j in bits(row):
                up[j] |= 1 << i
        return up

    def covers(self) -> list[tuple[int, int]]:
        above = self.above()
        return [
            (j, i)
            for i in range(self.n)
            for j in bits(self.below[i] & ~(1 << i))
            if (self.below[i] & above[j]).bit_count() == 2
        ]

    def doc(self) -> dict:
        return {
            "elements": list(self.names),
            "covers": [[self.names[j], self.names[i]] for j, i in self.covers()],
        }

    def sub(self, keep: Sequence[int]) -> "Order":
        pos = {i: k for k, i in enumerate(keep)}
        mask = sum(1 << i for i in keep)
        return Order(
            [self.names[i] for i in keep],
            [sum(1 << pos[j] for j in bits(self.below[i] & mask)) for i in keep],
        )

    def shuffled(self, rng: random.Random) -> "Order":
        """The same poset with its elements listed in a random order."""
        perm = list(range(self.n))
        rng.shuffle(perm)
        return self.sub(perm)

    def has_beat_point(self, kind: str, same: Optional[Sequence[int]] = None) -> bool:
        """Whether some strict down set (kind 'down') or up set has an extremum.

        With ``same`` given (one label per element), only extrema that
        carry the element's own label count: beat points of a map.
        """
        rows = self.below if kind == "down" else self.above()
        for i in range(self.n):
            strict = rows[i] & ~(1 << i)
            for w in bits(strict):
                if strict & ~rows[w] == 0 and (same is None or same[w] == same[i]):
                    return True
        return False


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pair_name(x: str, y: str) -> str:
    """The program's documented name for a product or total-space point."""
    return f"({x},{y})"


# -- shapes --------------------------------------------------------------


def chain(n: int, prefix: str) -> Order:
    return Order.from_pairs([f"{prefix}{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def antichain(n: int, prefix: str) -> Order:
    return Order.from_pairs([f"{prefix}{i}" for i in range(n)], [])


def crown(k: int, prefix: str) -> Order:
    """2k points a_i < c_i, c_{i+1}: no beat points, no minimum, no maximum."""
    names = [f"{prefix}a{i}" for i in range(k)] + [f"{prefix}c{i}" for i in range(k)]
    pairs = [(i, k + i) for i in range(k)] + [(i, k + (i + 1) % k) for i in range(k)]
    return Order.from_pairs(names, pairs)


def random_dag(rng: random.Random, n: int, prob: float, prefix: str) -> Order:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]
    return Order.from_pairs([f"{prefix}{i}" for i in range(n)], pairs).shuffled(rng)


def sparse_dag(rng: random.Random, n: int, edges: int, prefix: str) -> Order:
    """Random poset generated by exactly ``edges`` distinct pairs i < j."""
    pairs = set()
    while len(pairs) < edges:
        i, j = sorted(rng.sample(range(n), 2))
        pairs.add((i, j))
    return Order.from_pairs([f"{prefix}{i}" for i in range(n)], sorted(pairs)).shuffled(rng)


def based(rng: random.Random, n: int, prefix: str) -> Order:
    """Random poset on n points with a fresh minimum adjoined (n + 1 points)."""
    top = random_dag(rng, n, 0.35, prefix)
    return Order.from_pairs(
        [f"{prefix}min"] + top.names,
        [(j + 1, i + 1) for j, i in top.covers()] + [(0, i + 1) for i in range(n)],
    )


def height1_with_max(k: int, prefix: str) -> Order:
    """k >= 2 minimal points under one maximum: height 1, no minimum."""
    return Order.from_pairs(
        [f"{prefix}{i}" for i in range(k)] + [f"{prefix}top"], [(i, k) for i in range(k)]
    )


def forest(rng: random.Random, n: int, prefix: str) -> Order:
    """Down sets are chains: each point has at most one lower cover."""
    pairs = [(rng.randrange(j), j) for j in range(1, n) if rng.random() < 0.8]
    if not pairs:
        pairs = [(0, 1)]
    return Order.from_pairs([f"{prefix}{i}" for i in range(n)], pairs).shuffled(rng)


def disjoint_twin(p: Order, prefix: str) -> Order:
    """p + p, the second copy renamed; swapping the copies is an automorphism."""
    names = [f"{prefix}{x}" for x in p.names] + [f"{prefix}{x}'" for x in p.names]
    pairs = [(j, i) for j, i in p.covers()] + [(p.n + j, p.n + i) for j, i in p.covers()]
    return Order.from_pairs(names, pairs)


def minimal_fiber(rng: random.Random, prefix: str) -> Order:
    """A space with no beat points: an antichain or a crown."""
    kind = rng.randrange(4)
    if kind == 0:
        return antichain(rng.choice((2, 3)), prefix)
    if kind == 1:
        return antichain(rng.choice((3, 4)), prefix)
    return crown(rng.choice((2, 3)), prefix)


# -- automorphisms (constructed, never searched) -------------------------


def symmetries(p: Order, shape: str) -> list[list[int]]:
    """Some nontrivial automorphisms of a shape built above, as index lists."""
    n = p.n
    if shape == "antichain":
        return [[(i + r) % n for i in range(n)] for r in range(1, n)]
    if shape == "crown":
        k = n // 2
        rot = [[(i + r) % k if i < k else k + (i - k + r) % k for i in range(n)] for r in range(1, k)]
        flip = [(-i) % k if i < k else k + (1 - (i - k)) % k for i in range(n)]
        return rot + [flip]
    if shape == "twin":
        h = n // 2
        return [[i + h if i < h else i - h for i in range(n)]]
    raise ValueError(shape)


# -- maps -----------------------------------------------------------------


class Map:
    """A monotone map total -> base given by base indices."""

    __slots__ = ("total", "base", "vals")

    def __init__(self, total: Order, base: Order, vals: Sequence[int]):
        self.total = total
        self.base = base
        self.vals = list(vals)

    def doc(self) -> dict:
        return {
            "domain": self.total.doc(),
            "codomain": self.base.doc(),
            "values": {x: self.base.names[v] for x, v in zip(self.total.names, self.vals)},
        }

    def restrict(self, keep: Sequence[int]) -> "Map":
        return Map(self.total.sub(keep), self.base, [self.vals[i] for i in keep])

    def shuffled(self, rng: random.Random) -> "Map":
        perm = list(range(self.total.n))
        rng.shuffle(perm)
        return self.restrict(perm)


def projection(base: Order, fiber: Order) -> Map:
    """base x fiber -> base, points named 'b_x' (not the program's pair names)."""
    names = [f"{b}_{x}" for b in base.names for x in fiber.names]
    nf = fiber.n
    below = []
    for bi in range(base.n):
        for xi in range(fiber.n):
            below.append(
                sum(1 << (v * nf + y) for v in bits(base.below[bi]) for y in bits(fiber.below[xi]))
            )
    return Map(Order(names, below), base, [bi for bi in range(base.n) for _ in range(nf)])


def insert_down_beat_point(rng: random.Random, p: Map, tag: str, over: Optional[Sequence[int]] = None) -> Map:
    """Copy a point x just above itself in x's fiber.

    The copy covers x and lies below everything strictly above x, so it
    is a down beat point of the map with witness x.  ``over`` limits the
    base points the copy may sit over.
    """
    pool = [i for i in range(p.total.n) if over is None or p.vals[i] in over]
    x = rng.choice(pool)
    n = p.total.n
    below = [row | (1 << n if row >> x & 1 and i != x else 0) for i, row in enumerate(p.total.below)]
    below.append(p.total.below[x] | 1 << n)
    total = Order(p.total.names + [f"{p.total.names[x]}+{tag}"], below)
    return Map(total, p.base, p.vals + [p.vals[x]])


def random_monotone(rng: random.Random, dom: Order, cod: Order) -> list[int]:
    """Random monotone dom -> cod, built along a linear extension."""
    cod_up = cod.above()
    order = sorted(range(dom.n), key=lambda i: dom.below[i].bit_count())
    for _ in range(50):
        vals = [-1] * dom.n
        for i in order:
            allowed = (1 << cod.n) - 1
            for j in bits(dom.below[i] & ~(1 << i)):
                allowed &= cod_up[vals[j]]
            if not allowed:
                break
            vals[i] = rng.choice(list(bits(allowed)))
        else:
            return vals
    return [rng.randrange(cod.n)] * dom.n


class Functor:
    """A covariant functor into posets, given on the covers of its base.

    ``step[(v, b)]`` is the transition along the cover v < b as an index
    list.  The base is a forest (down sets are chains, so a composite is
    the unique path of covers) or has height 1 (no composites at all);
    either way functoriality holds by construction.
    """

    def __init__(self, base: Order, fibers: list[Order], step: dict[tuple[int, int], list[int]]):
        self.base = base
        self.fibers = fibers
        self.step = step
        self.parent = {b: v for v, b in step}

    def along(self, v: int, b: int) -> list[int]:
        """Transition v <= b, composed from the covers on the path."""
        if (v, b) in self.step:
            return self.step[(v, b)]
        t = list(range(self.fibers[b].n))
        while b != v:
            prev = self.parent[b]
            t = [t[x] for x in self.step[(prev, b)]]
            b = prev
        return t

    def doc(self) -> dict:
        base = self.base
        return {
            "base": base.doc(),
            "variance": "covariant",
            "fibers": {base.names[b]: f.doc() for b, f in enumerate(self.fibers)},
            "transitions": {
                f"{base.names[v]}<={base.names[b]}": {
                    self.fibers[v].names[y]: self.fibers[b].names[x] for y, x in enumerate(t)
                }
                for (v, b), t in self.step.items()
            },
        }

    def total(self) -> Map:
        """Grothendieck construction: (v, y) <= (b, x) iff v <= b and t(y) <= x."""
        base, fibers = self.base, self.fibers
        names, owner, offset = [], [], []
        for b, f in enumerate(fibers):
            offset.append(len(names))
            for x in range(f.n):
                names.append(pair_name(base.names[b], f.names[x]))
                owner.append((b, x))
        below = []
        for b, x in owner:
            row = 0
            for v in bits(base.below[b]):
                t = self.along(v, b)
                for y in range(fibers[v].n):
                    if fibers[b].le(t[y], x):
                        row |= 1 << offset[v] + y
            below.append(row)
        return Map(Order(names, below), base, [b for b, _ in owner])
