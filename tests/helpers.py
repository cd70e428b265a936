"""Brute-force oracles and random instance generators shared by the suite.

The oracles deliberately avoid the library's bitmask machinery: lifts
are found by filtering and pairwise comparison, isomorphisms by a raw
permutation scan.  Generators draw from a seeded random.Random so every
test run sees the same instances.
"""

import itertools
import random

from hypothesis import strategies as st

from finfib.errors import (
    CodomainMismatch,
    FunctorialityViolated,
    GuardExceeded,
    SearchBudgetExhausted,
    UnknownElement,
)
from finfib.grothendieck import PosetFunctor, grothendieck_construction
from finfib.posets import MonotoneMap, Poset, _bits, pair_name, product
from finfib.slices import SliceMap, as_slice
from finfib.stong import ReductionTrace, core


# -- independent oracles -----------------------------------------------


def brute_lift(p, e, b, side):
    """(co)cartesian lift by exhaustive filtering and pairwise extremum.

    Returns (element, None) on success and (None, reason) otherwise,
    with reason 'no_extremum' or 'stray' mirroring the engine's two
    failure modes.
    """
    s = as_slice(p)
    if side == "cartesian":
        pool = [x for x in s.total.elements if s.total.le(x, e) and s.base.le(s.map(x), b)]
        ext = [m for m in pool if all(s.total.le(x, m) for x in pool)]
    else:
        pool = [x for x in s.total.elements if s.total.le(e, x) and s.base.le(b, s.map(x))]
        ext = [m for m in pool if all(s.total.le(m, x) for x in pool)]
    if not ext:
        return None, "no_extremum"
    if s.map(ext[0]) != b:
        return None, "stray"
    return ext[0], None


def brute_iso(p, q):
    """Isomorphism by scanning all permutations; usable up to n = 7."""
    if p.n != q.n:
        return None
    for perm in itertools.permutations(range(q.n)):
        if all(
            (p.below[j] >> i & 1) == (q.below[perm[j]] >> perm[i] & 1)
            for i in range(p.n)
            for j in range(p.n)
        ):
            return {p.elements[i]: q.elements[perm[i]] for i in range(p.n)}
    return None


def linear_extremum(rows, m):
    """First index of mask m whose row holds all of m, or None.

    The linear probe that ``Poset.max_of_mask``/``min_of_mask``, the
    lift search and the beat-point witness search each ran before
    ``posets._extremum`` replaced them; kept as an oracle.
    """
    for i in _bits(m):
        if m & ~rows[i] == 0:
            return i
    return None


def pair_walk_covers(p):
    """Hasse relation as (lo, hi) names, by one popcount per comparable pair.

    ``Poset.covers`` before the cover table, kept verbatim as an oracle.
    """
    out = []
    for i in range(p.n):
        for j in _bits(p.below[i] & ~(1 << i)):
            # j is covered by i iff the interval [j, i] has 2 points
            if (p.below[i] & p.above[j]).bit_count() == 2:
                out.append((j, i))
    out.sort()
    return tuple((p.elements[j], p.elements[i]) for j, i in out)


def pair_walk_heights(p):
    """``Poset.heights`` over every comparable pair, kept verbatim as an oracle."""
    order = sorted(range(p.n), key=lambda i: (p.below[i].bit_count(), i))
    h = [0] * p.n
    for i in order:
        strict = p.below[i] & ~(1 << i)
        h[i] = 1 + max((h[j] for j in _bits(strict)), default=-1)
    return tuple(h)


def pair_walk_sub(p, keep):
    """Induced subposet on the names ``keep``, moving each kept comparable pair.

    ``Poset.sub`` before it took masks, kept verbatim as an oracle (it
    always builds a new poset, even for a full mask).
    """
    keep_mask = p.mask(keep)
    kept = list(_bits(keep_mask))
    pos = {i: k for k, i in enumerate(kept)}
    below, above = [], []
    for i in kept:
        lo = hi = 0
        for j in _bits(p.below[i] & keep_mask):
            lo |= 1 << pos[j]
        for j in _bits(p.above[i] & keep_mask):
            hi |= 1 << pos[j]
        below.append(lo)
        above.append(hi)
    return Poset(tuple(p.elements[i] for i in kept), below, above)


def is_beat_point_brute(x, a):
    """Beat point test straight from the definition, via down/up sets."""
    down = [z for z in x.strict_down_set(a)]
    up = [z for z in x.strict_up_set(a)]
    has_max = any(all(x.le(z, m) for z in down) for m in down)
    has_min = any(all(x.le(m, z) for z in up) for m in up)
    return has_max or has_min


def _rescan_candidates(x, alive, kinds, fiber_vals=None):
    """Every beat point of the subspace on ``alive``, by a full scan.

    Same contract as ``stong._beat_candidates``: (index, kind, witness
    index) tuples, kind-major and index-minor, filtered by fiber value.
    """
    out = []
    for kind in kinds:
        rows = x.below if kind == "down" else x.above
        for i in _bits(alive):
            strict = rows[i] & alive & ~(1 << i)
            if not strict:
                continue
            wi = linear_extremum(rows, strict)
            if wi is None:
                continue
            if fiber_vals is not None and fiber_vals[wi] != fiber_vals[i]:
                continue
            out.append((i, kind, wi))
    return out


def rescan_reduce(x, kinds, picker, keep=0, fiber_vals=None):
    """Beat-point reduction that rescans every point after each removal.

    The quadratic-per-step engine ``stong._reduce`` replaced, kept as
    an oracle: same arguments, same trace, and the picker sees the
    same candidate tuple at every step.
    """
    alive = (1 << x.n) - 1
    cur = list(range(x.n))
    removed = []
    while True:
        cands = [
            (i, kind, wi)
            for i, kind, wi in _rescan_candidates(x, alive, kinds, fiber_vals)
            if not keep >> i & 1
        ]
        if not cands:
            break
        if picker is None:
            i, kind, wi = cands[0]
        else:
            choice = picker(tuple((x.elements[i], kind) for i, kind, _ in cands))
            matches = [c for c in cands if (x.elements[c[0]], c[1]) == choice]
            if not matches:
                raise UnknownElement(f"picker returned {choice!r}, not a candidate")
            i, kind, wi = matches[0]
        alive &= ~(1 << i)
        removed.append((x.elements[i], kind))
        for k in range(x.n):
            if cur[k] == i:
                cur[k] = wi
    result = x.sub(x.names(alive))
    retraction = MonotoneMap(x, result, tuple(result.index[x.elements[cur[k]]] for k in range(x.n)))
    return ReductionTrace(x, result, tuple(removed), retraction)


def scan_open_map(p):
    """Openness p(U_e) = U_{p(e)} scanned on every down set, point by point.

    ``verdict.is_open_map`` before the lower-cover test, kept verbatim
    as an oracle: same (passed, witness) result.
    """
    s = as_slice(p)
    for ei, e in enumerate(s.total.elements):
        got = 0
        for j in _bits(s.total.below[ei]):
            got |= 1 << s.map.vals[j]
        miss = s.base.below[s.map.vals[ei]] & ~got
        if miss:
            b = s.base.elements[(miss & -miss).bit_length() - 1]
            return False, {"e": e, "missing": b}
    return True, None


def scan_closed_map(p):
    """Closedness p(F_e) = F_{p(e)} scanned on the up sets directly.

    The scan ``verdict.is_closed_map`` replaced by openness of the
    opposite map; same (passed, witness) result.
    """
    s = as_slice(p)
    for ei, e in enumerate(s.total.elements):
        got = 0
        for j in _bits(s.total.above[ei]):
            got |= 1 << s.map.vals[j]
        miss = s.base.above[s.map.vals[ei]] & ~got
        if miss:
            b = s.base.elements[(miss & -miss).bit_length() - 1]
            return False, {"e": e, "missing": b}
    return True, None


def fiberwise_down_fiber_nonempty(pc):
    """First (e, b) with b <= p(e) and U_e missing the fiber over b, or None."""
    for ei, e in enumerate(pc.total.elements):
        pe = pc.map.vals[ei]
        for bi in _bits(pc.base.below[pe]):
            if not pc.total.below[ei] & pc.fiber_mask(pc.base.elements[bi]):
                return {"e": e, "b": pc.base.elements[bi]}
    return None


def every_pair_down_fiber_contractible(pc):
    """First (e, b) with b <= p(e) and U_e meeting the fiber over b in an
    empty or non-contractible set.

    Every pair is built and reduced to its core, with no shortcut for a
    set that has a maximum.
    """
    for ei, e in enumerate(pc.total.elements):
        pe = pc.map.vals[ei]
        for bi in _bits(pc.base.below[pe]):
            b = pc.base.elements[bi]
            m = pc.total.below[ei] & pc.fiber_mask(b)
            if not m:
                return {"e": e, "b": b, "reason": "empty"}
            if core(pc.total.sub(pc.total.names(m))).result.n != 1:
                return {"e": e, "b": b, "reason": "not_contractible"}
    return None


def hand_built_grothendieck_construction(d):
    """The construction with hand-built order rows, flipping a contravariant d.

    The library now closes generating pairs with ``Poset.build``; this
    is the earlier routine, kept verbatim as an oracle.
    """
    if d.variance == "contravariant":
        flipped: dict[tuple[str, str], MonotoneMap] = {}
        for (lo, hi), t in d.transitions.items():
            flipped[(hi, lo)] = t.op()
        d = PosetFunctor(
            d.base.op(), "covariant", {b: f.op() for b, f in d.fibers.items()}, flipped
        )
    base = d.base
    names: list[str] = []
    owner: list[tuple[int, int]] = []  # (base index, index inside that fiber)
    offset: dict[int, int] = {}
    for bi, b in enumerate(base.elements):
        offset[bi] = len(names)
        for xi, x in enumerate(d.fibers[b].elements):
            names.append(pair_name(b, x))
            owner.append((bi, xi))
    below = [0] * len(names)
    above = [0] * len(names)
    for k, (bi, xi) in enumerate(owner):
        b = base.elements[bi]
        fib_b = d.fibers[b]
        m = 0
        for vi in _bits(base.below[bi]):
            v = base.elements[vi]
            t = d.transition(v, b)
            for yj in range(d.fibers[v].n):
                if fib_b.below[xi] >> t.vals[yj] & 1:
                    m |= 1 << offset[vi] + yj
                    above[offset[vi] + yj] |= 1 << k
        below[k] = m
    total = Poset(names, below, above)
    for k in range(total.n):
        for j in _bits(below[k]):
            if below[j] & ~below[k]:
                raise FunctorialityViolated("transition data does not generate a poset")
    proj = MonotoneMap(total, base, tuple(bi for bi, _ in owner))
    return SliceMap(proj)


def transpose(rows):
    """The transposed bitmask rows: bit i of row j wherever bit j of row i.

    The bit-by-bit loop ``Poset.__init__`` ran when a caller gave only
    ``below``; every constructor now builds ``above`` itself.
    """
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            out[j] |= 1 << i
    return tuple(out)


def matrix_labeled_posets(names):
    """Every partial order on the labeled elements, by filtering relation sets.

    The k x k matrix scan ``verdict._all_labeled_posets`` replaced; it
    yields the same posets in the same order.
    """
    n = len(names)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for choice in itertools.product((False, True), repeat=len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        ok = True
        for (i, j), on in zip(pairs, choice):
            if on:
                rel[i][j] = True
        for i in range(n):
            for j in range(n):
                if i != j and rel[i][j] and rel[j][i]:
                    ok = False
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if rel[i][j] and rel[j][k] and not rel[i][k]:
                        ok = False
        if not ok:
            continue
        below = [0] * n
        above = [0] * n
        for j in range(n):
            for i in range(n):
                if rel[i][j]:
                    below[j] |= 1 << i
                    above[i] |= 1 << j
        yield Poset(names, below, above)


def _linear_extension(p):
    # |U_x| strictly grows along the order, so this sort is a linear
    # extension, and it is deterministic.
    return sorted(range(p.n), key=lambda i: (p.below[i].bit_count(), i))


def rec_enumerate_monotone(dom, cod, cand, guard):
    """Yield value tuples of monotone maps with per-element candidate masks.

    The recursive enumerator ``posets.monotone_maps`` replaced, kept
    verbatim as an oracle.  The guard is checked against the product
    of candidate set sizes before any work happens.
    """
    if dom.n == 0:
        yield ()
        return
    bound = 1
    for m in cand:
        bound *= m.bit_count()
    if guard is not None and bound > guard:
        raise GuardExceeded(bound, guard)
    if bound == 0:
        return
    order = _linear_extension(dom)
    pos_of = [0] * dom.n
    for k, i in enumerate(order):
        pos_of[i] = k
    # strict lower covers of each element, as positions already assigned
    lower = []
    cover_dn = {e: dom.lower_covers(e) for e in dom.elements}
    for i in order:
        lower.append([dom.index[c] for c in cover_dn[dom.elements[i]]])
    vals = [0] * dom.n
    above = cod.above

    def rec(k):
        if k == dom.n:
            yield tuple(vals)
            return
        i = order[k]
        m = cand[i]
        for j in lower[k]:
            m &= above[vals[j]]
        for v in _bits(m):
            vals[i] = v
            yield from rec(k + 1)

    yield from rec(0)


def rec_monotone_maps(dom, cod, guard=100_000, *, lower=None, upper=None, over=None, fixed=None):
    """``posets.monotone_maps`` as it was over ``rec_enumerate_monotone``."""
    full = (1 << cod.n) - 1
    cand = [full] * dom.n
    if lower is not None:
        if lower.dom != dom or lower.cod != cod:
            raise CodomainMismatch("lower bound must be a map dom -> cod")
        for i in range(dom.n):
            cand[i] &= cod.above[lower.vals[i]]
    if upper is not None:
        if upper.dom != dom or upper.cod != cod:
            raise CodomainMismatch("upper bound must be a map dom -> cod")
        for i in range(dom.n):
            cand[i] &= cod.below[upper.vals[i]]
    if over is not None:
        p, q = over
        if p.dom != dom or q.dom != cod or p.cod != q.cod:
            raise CodomainMismatch("'over' needs p: dom -> B and q: cod -> B")
        fibers = {}
        for i, v in enumerate(q.vals):
            fibers[v] = fibers.get(v, 0) | 1 << i
        for i in range(dom.n):
            cand[i] &= fibers.get(p.vals[i], 0)
    if fixed:
        for name, target in fixed.items():
            cand[dom.idx(name)] &= 1 << cod.idx(target)
    for vals in rec_enumerate_monotone(dom, cod, cand, guard):
        yield MonotoneMap(dom, cod, vals)


def _rec_cover_adjacency(p):
    dn = [[] for _ in range(p.n)]
    up = [[] for _ in range(p.n)]
    for lo, hi in p.covers():
        dn[p.index[hi]].append(p.index[lo])
        up[p.index[lo]].append(p.index[hi])
    return dn, up


def repr_joint_labels(p, q, extra_p, extra_q):
    """Structural labels refined jointly over both posets.

    The nested-tuple refinement ``posets._joint_labels`` replaced,
    canonicalised each round by sorting with ``key=repr``; kept as an
    oracle for ``rec_isomorphisms``.
    """

    def initial(s, extra):
        heights = s.heights()
        depths = s.op().heights()
        return [
            (
                s.below[i].bit_count(),
                s.above[i].bit_count(),
                heights[i],
                depths[i],
                None if extra is None else extra[i],
            )
            for i in range(s.n)
        ]

    lab_p = initial(p, extra_p)
    lab_q = initial(q, extra_q)
    dn_p, up_p = _rec_cover_adjacency(p)
    dn_q, up_q = _rec_cover_adjacency(q)
    for _ in range(p.n + q.n):
        key_p = [
            (lab_p[i], tuple(sorted(lab_p[j] for j in dn_p[i])), tuple(sorted(lab_p[j] for j in up_p[i])))
            for i in range(p.n)
        ]
        key_q = [
            (lab_q[i], tuple(sorted(lab_q[j] for j in dn_q[i])), tuple(sorted(lab_q[j] for j in up_q[i])))
            for i in range(q.n)
        ]
        canon = {}
        for k in sorted(set(key_p) | set(key_q), key=repr):
            canon[k] = len(canon)
        new_p = [canon[k] for k in key_p]
        new_q = [canon[k] for k in key_q]
        if new_p == lab_p and new_q == lab_q:
            break
        lab_p, lab_q = new_p, new_q
    return lab_p, lab_q


def height_keyed_joint_labels(p, q, extra_p, extra_q):
    """Integer colour refinement on the disjoint union of p and q.

    The refinement ``posets._joint_labels`` replaced, kept verbatim as
    an oracle: it seeds each element with its height and depth as well,
    which the stable partition separates anyway.
    """
    keys = []
    dn = []
    up = []
    for s, extra in ((p, extra_p), (q, extra_q)):
        heights, depths = s.heights(), s.op().heights()
        shift = len(keys)
        keys += [
            (
                s.below[i].bit_count(),
                s.above[i].bit_count(),
                heights[i],
                depths[i],
                None if extra is None else extra[i],
            )
            for i in range(s.n)
        ]
        s_dn, s_up = _rec_cover_adjacency(s)
        dn += [[j + shift for j in row] for row in s_dn]
        up += [[j + shift for j in row] for row in s_up]
    classes = 0
    while True:
        ids = {}
        colour = [ids.setdefault(k, len(ids)) for k in keys]
        if len(ids) == classes:
            return colour[: p.n], colour[p.n :]
        classes = len(ids)
        keys = [
            (colour[v], tuple(sorted(colour[u] for u in dn[v])), tuple(sorted(colour[u] for u in up[v])))
            for v in range(len(colour))
        ]


def rec_isomorphisms(p, q, *, extra_p=None, extra_q=None, budget=None):
    """The recursive isomorphism search ``posets.isomorphisms`` replaced.

    Kept verbatim as an oracle: same yield sequence, and the budget
    runs out at the same attempted assignment.
    """
    if p.n != q.n:
        return
    if p.n == 0:
        yield {}
        return
    lab_p, lab_q = repr_joint_labels(p, q, extra_p, extra_q)
    if sorted(lab_p) != sorted(lab_q):
        return
    by_label = {}
    for j, l in enumerate(lab_q):
        by_label.setdefault(l, []).append(j)
    # assign elements in order of rising candidate count, then index
    order = sorted(range(p.n), key=lambda i: (len(by_label.get(lab_p[i], ())), i))
    assigned = [-1] * p.n
    used = 0
    nodes = [0]

    def rec(k):
        nonlocal used
        if k == p.n:
            yield {p.elements[i]: q.elements[assigned[i]] for i in range(p.n)}
            return
        i = order[k]
        for j in by_label.get(lab_p[i], ()):
            if used >> j & 1:
                continue
            nodes[0] += 1
            if budget is not None and nodes[0] > budget:
                raise SearchBudgetExhausted(
                    f"isomorphism search exceeded budget of {budget} nodes"
                )
            ok = True
            for k2 in range(k):
                i2 = order[k2]
                j2 = assigned[i2]
                if (p.below[i] >> i2 & 1) != (q.below[j] >> j2 & 1) or (
                    p.below[i2] >> i & 1
                ) != (q.below[j2] >> j & 1):
                    ok = False
                    break
            if not ok:
                continue
            assigned[i] = j
            used |= 1 << j
            yield from rec(k + 1)
            used &= ~(1 << j)
            assigned[i] = -1

    yield from rec(0)


def per_value_backtrack(order, cand, budget=None):
    """The explicit-stack search ``posets._backtrack`` replaced.

    Kept verbatim as an oracle: it steps through the tried values one at
    a time, counting each against the budget before testing it for
    consistency, where the replacement counts the refuted ones in bulk.
    """
    vals = [-1] * len(order)
    stack = [cand(0, vals)]
    nodes = 0
    while stack:
        k = len(stack) - 1
        tried, ok = stack[k]
        if not tried:
            stack.pop()
            continue
        low = tried & -tried
        stack[k] = (tried ^ low, ok)
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchBudgetExhausted(f"isomorphism search exceeded budget of {budget} nodes")
        if not ok & low:
            continue
        vals[order[k]] = low.bit_length() - 1
        if k + 1 == len(order):
            yield vals
        else:
            stack.append(cand(k + 1, vals))


# -- random instance generators ----------------------------------------


def rand_poset(rng, n, prob=0.35, prefix="x"):
    """Random poset on n points: random DAG edges, shuffled element order."""
    names = [f"{prefix}{i}" for i in range(n)]
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < prob
    ]
    order = names[:]
    rng.shuffle(order)
    return Poset.build(order, pairs)


def rand_monotone(rng, dom, cod, tries=60):
    """Random monotone map dom -> cod.

    Walks a linear extension picking each image above the images of
    the lower covers; a dead end restarts, and a constant map is the
    (always monotone) last resort.
    """
    order = sorted(dom.elements, key=lambda a: len(dom.down_set(a)))
    for _ in range(tries):
        vals = {}
        for a in order:
            allowed = set(cod.elements)
            for l in dom.lower_covers(a):
                allowed &= set(cod.up_set(vals[l]))
            if not allowed:
                break
            vals[a] = rng.choice(sorted(allowed))
        else:
            return MonotoneMap.build(dom, cod, vals)
    return MonotoneMap.constant(dom, cod, rng.choice(cod.elements))


def forest_base(rng, n, prefix="b"):
    """Poset whose down sets are chains, so Hasse paths are unique."""
    names = [f"{prefix}{i}" for i in range(n)]
    pairs = []
    for j in range(1, n):
        if rng.random() < 0.8:
            pairs.append((names[rng.randrange(j)], names[j]))
    order = names[:]
    rng.shuffle(order)
    return Poset.build(order, pairs)


def rand_functor(rng, fiber_pool=None, max_base=5, max_fiber=4):
    """Covariant functor over a forest base with random cover transitions.

    fiber_pool, when given, is a list of posets to draw fibers from;
    otherwise fibers are fresh random posets.  Unique Hasse paths make
    path independence automatic, so the constructor always succeeds.
    """
    base = forest_base(rng, rng.randint(2, max_base))
    fibers = {}
    for k, b in enumerate(base.elements):
        if fiber_pool is not None:
            fibers[b] = rng.choice(fiber_pool)
        else:
            fibers[b] = rand_poset(rng, rng.randint(1, max_fiber), prefix=f"f{k}_")
    transitions = {
        (lo, hi): rand_monotone(rng, fibers[lo], fibers[hi]) for lo, hi in base.covers()
    }
    return PosetFunctor(base, "covariant", fibers, transitions)


def minimal_fiber_pool():
    """Small spaces with no beat points: point, antichains, a crown."""
    return [
        Poset.antichain(["m0"]),
        Poset.antichain(["m0", "m1"]),
        Poset.antichain(["m0", "m1", "m2"]),
        Poset.build(
            ["m0", "m1", "m2", "m3"],
            [("m0", "m2"), ("m0", "m3"), ("m1", "m2"), ("m1", "m3")],
        ),
    ]


def rand_bundle(rng, max_base=4, max_fiber=4):
    """Grothendieck construction with one fiber and automorphism transitions."""
    from finfib.posets import automorphisms

    base = forest_base(rng, rng.randint(2, max_base))
    fiber = rand_poset(rng, rng.randint(2, max_fiber), prefix="f")
    auts = [MonotoneMap.build(fiber, fiber, a) for a in automorphisms(fiber)]
    transitions = {(lo, hi): rng.choice(auts) for lo, hi in base.covers()}
    d = PosetFunctor(
        base, "covariant", {b: fiber for b in base.elements}, transitions
    )
    return d, grothendieck_construction(d)


def based_poset(rng, n, prefix="b"):
    """Random poset with a fresh minimum adjoined below everything."""
    top = rand_poset(rng, n, prefix=prefix)
    root = f"{prefix}_min"
    pairs = list(top.covers()) + [(root, m) for m in top.minimal_elements()]
    return Poset.build([root] + list(top.elements), pairs)


def insert_map_down_beat_point(rng, p, tag):
    """Duplicate a random total-space point x just above itself.

    The copy sits over the same base point, covers x and keeps x's
    strict upper bounds, so it is a down beat point of the map with
    witness x; removing it recovers the original map.
    """
    s = as_slice(p)
    x = rng.choice(s.total.elements)
    dup = f"{x}+{tag}"
    pairs = list(s.total.covers()) + [(x, dup)]
    pairs += [(dup, z) for z in s.total.upper_covers(x)]
    total = Poset.build(list(s.total.elements) + [dup], pairs)
    values = s.map.values
    values[dup] = s.map(x)
    return MonotoneMap.build(total, s.base, values)


def rand_fibration(rng):
    """Product projection over a based poset plus a few beat-point insertions."""
    base = based_poset(rng, rng.randint(1, 3))
    fiber = rand_poset(rng, rng.randint(1, 3), prefix="f")
    _, to_base, _ = product(base, fiber)
    p = to_base
    for k in range(rng.randint(0, 3)):
        p = insert_map_down_beat_point(rng, p, str(k))
    return p


@st.composite
def posets(draw, names=st.integers(0, 99).map(lambda i: f"x{i}"), max_size=8):
    """Hypothesis strategy: a random order on distinct drawn names, shuffled."""
    elements = draw(st.lists(names, unique=True, max_size=max_size))
    slots = list(itertools.combinations(elements, 2))
    edges = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    order = draw(st.permutations(elements))
    return Poset.build(order, [pair for pair, edge in zip(slots, edges) if edge])


def shuffling_picker(rng):
    """Reduction picker taking a uniformly random candidate each step."""
    return lambda cands: rng.choice(cands)


def seeded(seed):
    return random.Random(seed)
