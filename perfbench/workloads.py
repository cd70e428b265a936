"""The four workloads: seeded instance families with the answers they fix.

Shapes and sizes follow fixed schedules wherever they move the cost of
an op much, so two seeds give nearly the same mix and differ mainly in
the random structure inside it and in element order.  Each instance is
one ``finfib`` command on one JSON document.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks
from order import (
    Functor,
    Map,
    Order,
    antichain,
    based,
    bits,
    crown,
    chain,
    disjoint_twin,
    forest,
    height1_with_max,
    insert_down_beat_point,
    minimal_fiber,
    projection,
    random_dag,
    random_monotone,
    sparse_dag,
    symmetries,
)

# isomorphism-search node budget for the large twisted crown bundles
ISO_BUDGET = 20_000


@dataclass
class Instance:
    family: str
    size: int  # points in the total space (or the space)
    command: list[str]
    doc: dict
    code: int  # expected exit code
    check: checks.Check


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """count sizes evenly spaced over [lo, hi]."""
    return [lo + (hi - lo) * k // max(1, count - 1) for k in range(count)]


def _with_beat_points(rng: random.Random, m: Map, count: int) -> Map:
    for k in range(count):
        m = insert_down_beat_point(rng, m, str(k))
    return m


# -- hurewicz verdict families -----------------------------------------------


def min_base_product(rng: random.Random, k: int, j: int) -> Instance:
    """Projection over a based poset plus map beat points: minimum-base certificate."""
    base = based(rng, k, "b")
    m = _with_beat_points(rng, projection(base, random_dag(rng, 3 + j % 3, 0.35, "x")), 6 + j % 9)
    m = m.shuffled(rng)
    return Instance(
        "min-base", m.total.n, ["check", "hurewicz", "--json"], m.doc(), 0,
        checks.verdict_check(m, "fibration", "minimum_base_bifibration", {"minimum": "bmin"}),
    )


def height1_product(rng: random.Random, k: int, j: int) -> Instance:
    """Projection over k minimal points under a maximum: height-1 retract."""
    base = height1_with_max(k, "b")
    m = _with_beat_points(rng, projection(base, random_dag(rng, 3 + j % 3, 0.35, "x")), 4 + j % 7)
    m = m.shuffled(rng)
    return Instance(
        "height1-max", m.total.n, ["check", "hurewicz", "--json"], m.doc(), 0,
        checks.verdict_check(m, "fibration", "height1_max_retract", {"maximum": "btop"}),
    )


def crown_product(rng: random.Random, k: int, fiber: Order) -> Map:
    """crown x fiber with a few map beat points over the crown's minima.

    The fiber has no down beat points, so the smallest down-beat-point
    retract is the product itself, which is trivial over the base.
    """
    m = projection(crown(k, "b"), fiber)
    return _with_beat_points(rng, m, rng.randint(0, 2)).shuffled(rng)


def trivial_crown_product(rng: random.Random, k: int, fiber: Order) -> Instance:
    m = crown_product(rng, k, fiber)
    return Instance(
        "crown-product", m.total.n, ["check", "hurewicz", "--json"], m.doc(), 0,
        checks.verdict_check(m, "fibration", "trivial_over_base"),
    )


def refuted_functor(rng: random.Random, n: int) -> Instance:
    """Construction of a functor with one constant transition out of an antichain.

    Fibers have no beat points, so the construction has no map beat
    points and is its own reduction.  Over the cover v < b with constant
    transition, the points over v below the image form an antichain of
    two or more: no cartesian lift, so the reduced map is no bifibration.
    """
    base = forest(rng, n, "b")
    covers = base.covers()
    v, b = rng.choice(covers)
    fibers = [antichain(rng.choice((2, 3)), f"x{i}_") if i == v else minimal_fiber(rng, f"x{i}_") for i in range(base.n)]
    step = {(lo, hi): random_monotone(rng, fibers[lo], fibers[hi]) for lo, hi in covers}
    step[(v, b)] = [rng.randrange(fibers[b].n)] * fibers[v].n
    m = Functor(base, fibers, step).total().shuffled(rng)
    return Instance(
        "functor-refuted", m.total.n, ["check", "hurewicz", "--json"], m.doc(), 1,
        checks.verdict_check(m, "not_fibration", "reduced_bifibration"),
    )


def twisted_crown(rng: random.Random, k: int, fiber: Order, shape: str, j: int) -> Map:
    """Bundle over a crown whose holonomy is the j-th listed symmetry of the fiber.

    Transitions are identities except on one cover, so going once round
    the crown applies that automorphism; a bundle over a crown is
    trivial over the base only when its holonomy is the identity.  The
    search cost depends on the holonomy's cycle type, so it follows the
    schedule rather than the seed.
    """
    base = crown(k, "b")
    step = {(lo, hi): list(range(fiber.n)) for lo, hi in base.covers()}
    auts = symmetries(fiber, shape)
    step[(k - 1, k)] = auts[j % len(auts)]
    return Functor(base, [fiber] * base.n, step).total().shuffled(rng)


def twisted_small(rng: random.Random, k: int, fiber: Order, shape: str, j: int) -> Instance:
    m = twisted_crown(rng, k, fiber, shape, j)
    return Instance(
        "twisted-crown", m.total.n, ["check", "hurewicz", "--json"], m.doc(), 2,
        checks.verdict_check(m, "unknown", "undecided"),
    )


# fibers without beat points, each with its shape for ``symmetries``
SMALL_MINIMAL = (
    (antichain(2, "x"), "antichain"),
    (antichain(3, "x"), "antichain"),
    (antichain(4, "x"), "antichain"),
    (crown(2, "x"), "crown"),
)


def hurewicz_mix(rng: random.Random) -> list[Instance]:
    out = []
    for j, k in enumerate(_spread(4, 8, 60)):
        out.append(min_base_product(rng, k, j))
    for j, k in enumerate(_spread(3, 7, 60)):
        out.append(height1_product(rng, k, j))
    for j in range(60):
        fiber = (*SMALL_MINIMAL, (crown(3, "x"), "crown"))[j // 3 % 5][0]
        out.append(trivial_crown_product(rng, 2 + j % 2, fiber))
    for n in _spread(5, 12, 60):
        out.append(refuted_functor(rng, n))
    # |E| = 2k|F| <= 32.  Four-point antichains over the 8-point crown are
    # left out: their unbudgeted negative search takes 20-300 ms, a tail
    # that would swamp the other families.
    twisted = [
        (k, fiber, shape)
        for k in (2, 3, 4)
        for fiber, shape in SMALL_MINIMAL
        if not (k == 4 and shape == "antichain" and fiber.n == 4)
    ]
    for j in range(60):
        out.append(twisted_small(rng, *twisted[j % len(twisted)], j // len(twisted)))
    return out


# -- reductions -------------------------------------------------------------


def core_reduce(rng: random.Random) -> list[Instance]:
    out = []
    # most chains share the largest size, so the 90th percentile falls in
    # the middle of that group rather than between two sizes
    for n in [40] * 4 + [64] * 4 + [88] * 4 + [112] * 24:
        x = chain(n, "c").shuffled(rng)
        out.append(Instance("chain", n, ["check", "core", "--json"], x.doc(), 0,
                            checks.core_check(x, result_size=1)))
    for n in _spread(64, 128, 72):
        x = sparse_dag(rng, n, 3 * n // 4, "s")
        out.append(Instance("sparse", n, ["check", "core", "--json"], x.doc(), 0, checks.core_check(x)))
    for k in _spread(3, 5, 24):
        inserted = rng.randint(10, 30)
        m = projection(based(rng, k, "b"), random_dag(rng, rng.randint(3, 5), 0.35, "x"))
        m = _with_beat_points(rng, m, inserted).shuffled(rng)
        out.append(Instance("map-beat-points", m.total.n, ["check", "map-core", "--json"], m.doc(), 0,
                            checks.core_check(m.total, m.vals, m.base.names, min_removed=inserted)))
    for k in _spread(2, 6, 12):
        m = projection(crown(k, "b"), minimal_fiber(rng, "x")).shuffled(rng)
        out.append(Instance("no-beat-points", m.total.n, ["check", "map-core", "--json"], m.doc(), 0,
                            checks.core_check(m.total, m.vals, m.base.names, max_removed=0)))
    return out


# -- bundles and isomorphism search ----------------------------------------------


def symmetric_fiber(rng: random.Random, size: int, shape: str) -> tuple[Order, str]:
    if shape == "antichain":
        return antichain(size, "x"), shape
    if shape == "crown":
        return crown(max(2, size // 2), "x"), shape
    return disjoint_twin(random_dag(rng, max(2, size // 2), 0.5, "y"), "x"), shape


def forest_bundle(rng: random.Random, n: int, size: int, shape: str) -> Map:
    """Construction with automorphism transitions over a forest: a bundle."""
    base = forest(rng, n, "b")
    fiber, shape = symmetric_fiber(rng, size, shape)
    auts = symmetries(fiber, shape) + [list(range(fiber.n))]
    step = {(lo, hi): rng.choice(auts) for lo, hi in base.covers()}
    return Functor(base, [fiber] * base.n, step).total()


def bundle_iso(rng: random.Random) -> list[Instance]:
    out = []
    # base size 3..6, fiber size 4..8, three fiber shapes, all combined
    schedule = [(3 + j % 4, 4 + j % 5, ("antichain", "crown", "twin")[j % 3]) for j in range(168)]
    for n, size, shape in schedule:
        m = forest_bundle(rng, n, size, shape).shuffled(rng)
        out.append(Instance("bundle", m.total.n, ["check", "bundle", "--json"], m.doc(), 0,
                            checks.bundle_check(m, None)))
    for n, size, shape in schedule[:72]:
        m = forest_bundle(rng, n, size, shape)
        # a beat point over a non-isolated base point breaks local triviality
        # at the first base point (in listed order) whose down set holds it
        # and has two or more points
        base = m.base
        above = base.above()
        linked = [b for b in range(base.n) if (base.below[b] | above[b]).bit_count() > 1]
        b = rng.choice(linked)
        m = insert_down_beat_point(rng, m, "0", over=[b]).shuffled(rng)
        fail = next(c for c in range(base.n) if base.le(b, c) and base.below[c].bit_count() > 1)
        out.append(Instance("non-bundle", m.total.n, ["check", "bundle", "--json"], m.doc(), 1,
                            checks.bundle_check(m, base.names[fail])))
    # With antichain fibers the search always runs into the budget; with
    # crown fibers at |E| = 36 it is exhausted below it.  Most bundles share the largest size, so
    # the 90th percentile falls inside that group rather than between two.
    for j, (k, fiber, shape) in enumerate(
        [(3, crown(3, "x"), "crown")] * 12
        + [(4, antichain(6, "x"), "antichain")] * 12
        + [(4, antichain(8, "x"), "antichain")] * 96
    ):
        m = twisted_crown(rng, k, fiber, shape, j)
        out.append(Instance("twisted-crown-budget", m.total.n,
                            ["check", "hurewicz", "--json", "--budget", str(ISO_BUDGET)], m.doc(), 2,
                            checks.verdict_check(m, "unknown", "undecided")))
    return out


# -- lifts and constructions -------------------------------------------------


def random_functor(rng: random.Random, n: int) -> Functor:
    base = forest(rng, n, "b")
    fibers = [random_dag(rng, 2 + (i + n) % 4, 0.4, f"x{i}_") for i in range(base.n)]
    step = {(lo, hi): random_monotone(rng, fibers[lo], fibers[hi]) for lo, hi in base.covers()}
    return Functor(base, fibers, step)


def is_fibration(d: Functor) -> bool:
    """A covariant construction is a fibration iff each t(v<=b)^-1(U_x) has a maximum.

    (Every such construction is an opfibration: (b, t(y)) is the
    cocartesian lift of (v, y).)
    """
    for b in range(d.base.n):
        for v in bits(d.base.below[b] & ~(1 << b)):
            t, fv, fb = d.along(v, b), d.fibers[v], d.fibers[b]
            for x in range(fb.n):
                pre = [y for y in range(fv.n) if fb.le(t[y], x)]
                if not any(all(fv.le(y, w) for y in pre) for w in pre):
                    return False
    return True


def groth_construct(rng: random.Random) -> list[Instance]:
    out = []
    for j, k in enumerate(_spread(11, 27, 100)):
        m = projection(based(rng, k, "b"), random_dag(rng, 2 + j % 2, 0.4, "x")).shuffled(rng)
        out.append(Instance("product", m.total.n, ["check", "groth", "--json"], m.doc(), 0,
                            checks.groth_check(m, True, True)))
    for n in _spread(6, 14, 80):
        d = random_functor(rng, n)
        fib = is_fibration(d)
        m = d.total().shuffled(rng)
        out.append(Instance("functor", m.total.n, ["check", "groth", "--json"], m.doc(), 0 if fib else 1,
                            checks.groth_check(m, fib, True)))
    for n in _spread(6, 16, 80):
        d = random_functor(rng, n)
        total = d.total()
        out.append(Instance("construct", total.total.n, ["construct", "--json"], d.doc(), 0,
                            checks.construct_check(total)))
    return out


WORKLOADS: dict[str, Callable[[random.Random], list[Instance]]] = {
    "hurewicz-mix": hurewicz_mix,
    "core-reduce": core_reduce,
    "bundle-iso": bundle_iso,
    "groth-construct": groth_construct,
}
