"""Brute-force oracles and random instance generators shared by the suite.

The oracles deliberately avoid the library's bitmask machinery: lifts
are found by filtering and pairwise comparison, isomorphisms by a raw
permutation scan.  Generators draw from a seeded random.Random so every
test run sees the same instances.
"""

import argparse
import functools
import itertools
import random
from typing import Iterator, Optional, Sequence

from hypothesis import assume
from hypothesis import strategies as st

from finfib.cli import _CHECKS, cmd_check, cmd_construct, cmd_gallery, cmd_info
from finfib.documents import poset_from_doc, poset_to_doc
from finfib.errors import CodomainMismatch, FunctorialityViolated, UnknownElement
from finfib.grothendieck import BundleReport, LiftFailure, PosetFunctor, grothendieck_construction
from finfib.posets import (
    MonotoneMap,
    Poset,
    _bits,
    _extremum,
    find_isomorphism_over_base,
    isomorphisms,
    pair_name,
    product,
)
from finfib.slices import SliceMap, as_slice, restrict_over
from finfib.stong import BeatPointReport, ReductionTrace, core, smallest_dbp_retract
from finfib.verdict import RetractCertificate, _retract_fault

DEFAULT_GUARD = 100_000


class GuardExceeded(Exception):
    """An oracle enumeration would exceed its guard, checked before any work."""

    def __init__(self, bound, guard):
        super().__init__(f"enumeration bound {bound} exceeds guard {guard}")
        self.bound = bound
        self.guard = guard


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


def pairwise_scan_lifts(s, side):
    """``grothendieck._scan_lifts`` with one extremum search per pair (e, b < p(e)).

    The scan before lifts were composed along base covers, kept
    verbatim as an oracle: same failures in the same order, same table.
    """
    total, base, vals = s.total, s.base, s.map.vals
    if side == "cartesian":
        rows, co, reach, ext = total.below, total.above, base.below, "maximum"
    else:
        rows, co, reach, ext = total.above, total.below, base.above, "minimum"
    pre = [s.preimage(row) for row in reach]
    failures = []
    transports = {}
    for ei in range(total.n):
        transports[(ei, vals[ei])] = ei
        for bi in _bits(reach[vals[ei]] & ~(1 << vals[ei])):
            i = _extremum(rows, co, rows[ei] & pre[bi])
            if i is not None and vals[i] == bi:
                transports[(ei, bi)] = i
            else:
                stray = None if i is None else total.elements[i]
                reason = f"no_{ext}" if i is None else f"{ext}_outside_fiber"
                failures.append(LiftFailure(side, total.elements[ei], base.elements[bi], reason, stray))
    return failures, transports


def table_pairs(rows):
    """A lift table's rows, one dict per point, as ``pairwise_scan_lifts``' {(e, b): lift}."""
    return {(ei, bi): i for ei, row in enumerate(rows) for bi, i in row.items()}


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


def closure_rows(n, pairs):
    """Reflexive-transitive closure of index pairs (lo, hi), as below rows.

    Warshall's algorithm on a boolean matrix, no bitmask shortcuts.
    """
    le = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in pairs:
        le[lo][hi] = True
    for k in range(n):
        for i in range(n):
            if le[i][k]:
                for j in range(n):
                    le[i][j] = le[i][j] or le[k][j]
    return tuple(sum(1 << i for i in range(n) if le[i][j]) for j in range(n))


def shift_sum_product_rows(p, q):
    """Below and above rows of p x q, one shifted copy of q's row per point of p's row.

    ``product`` before it spread p's rows by one multiplication, kept as an oracle.
    """
    def rows(p_rows, q_rows):
        return tuple(sum(q_row << a * q.n for a in _bits(p_row)) for p_row in p_rows for q_row in q_rows)

    return rows(p.below, q.below), rows(p.above, q.above)


def all_pairs_monotone(dom, cod, values):
    """Whether x <= y in dom gives values[x] <= values[y] in cod, over every pair."""
    return all(cod.le(values[x], values[y]) for x in dom for y in dom if dom.le(x, y))


def cover_scan_disorder(f):
    """The first cover (lo, hi) of f's domain, in covers() order, whose images are out of order.

    ``MonotoneMap._disorder`` before it tested generating pairs, kept as an oracle;
    None for a monotone map.
    """
    rows = f.cod.below
    for lo, hi in f.dom._cover_pairs():
        if not rows[f.vals[hi]] >> f.vals[lo] & 1:
            return lo, hi
    return None


def is_beat_point_brute(x, a):
    """Beat point test straight from the definition, via down/up sets."""
    down = [z for z in x.elements if x.lt(z, a)]
    up = [z for z in x.elements if x.lt(a, z)]
    has_max = any(all(x.le(z, m) for z in down) for m in down)
    has_min = any(all(x.le(m, z) for z in up) for m in up)
    return has_max or has_min


def _rescan_candidates(x, alive, kinds, fiber_vals=None):
    """Every beat point of the subspace on ``alive``, by a full scan.

    Returns (index, kind, witness index) tuples, kind-major (order of
    ``kinds``) and index-minor.  With ``fiber_vals`` given, only beat
    points whose witness has the same value survive; these are the beat
    points of the map those values describe.
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
    an oracle: with no picker and no ``keep`` it gives the same trace.
    A picker receives the candidate tuple ((element, kind), ...),
    kind-major and index-minor, and returns one entry; ``keep`` masks
    elements that must not be removed.
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


def rescan_map_reduce(m, kinds, picker):
    """The map restricted to what ``rescan_reduce`` leaves of its beat points."""
    s = as_slice(m)
    trace = rescan_reduce(s.total, kinds, picker, fiber_vals=s.map.vals)
    return SliceMap(s.map.restrict(trace.result))


def is_dbp_retract(x, keep):
    """Trace showing ``keep`` is reachable by down beat point removals.

    Greedy is complete here: removing any down beat point outside a
    subspace reachable this way keeps it reachable, so a stuck state
    not equal to ``keep`` certifies absence (returns None).
    """
    keep_mask = x.mask(keep)
    trace = rescan_reduce(x, ("down",), None, keep=keep_mask)
    return trace if trace.result.n == keep_mask.bit_count() else None


def scan_witnesses(x, fiber_vals=None):
    """Down and up beat points of x by name, each mapped to its witness.

    ``stong._witnesses``, the second scan engine ``beat_points`` and
    ``map_beat_points`` once ran, kept verbatim over ``_rescan_candidates``
    (the contract of the ``stong._beat_candidates`` it called).
    """
    down: dict[str, str] = {}
    up: dict[str, str] = {}
    for i, kind, wi in _rescan_candidates(x, (1 << x.n) - 1, ("down", "up"), fiber_vals):
        (down if kind == "down" else up)[x.elements[i]] = x.elements[wi]
    return down, up


def scan_map_beat_points(p):
    """``slices.map_beat_points`` as one scan with the fiber filter built in."""
    s = as_slice(p)
    return BeatPointReport(*scan_witnesses(s.total, s.map.vals))


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
            if not pc.total.below[ei] & pc.fiber_masks[bi]:
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
            m = pc.total.below[ei] & pc.fiber_masks[bi]
            if not m:
                return {"e": e, "b": b, "reason": "empty"}
            if core(pc.total.sub(pc.total.names(m))).result.n != 1:
                return {"e": e, "b": b, "reason": "not_contractible"}
    return None


def elementwise_up_reachability(pc):
    """First (e, b) with p(e) < b and no e' <= e over p(e) below a point over b, or None.

    Every triple is tried through ``Poset.le`` and the map's names, with
    no masks and no short cut.
    """
    total, base, p = pc.total, pc.base, pc.map
    for e in total.elements:
        for b in base.elements:
            if not base.lt(p(e), b):
                continue
            lower = [x for x in total.elements if total.le(x, e) and p(x) == p(e)]
            if not any(total.le(x, y) and p(y) == b for x in lower for y in total.elements):
                return {"e": e, "b": b}
    return None


def scan_beat_point_dichotomy(f):
    """``verdict._cond_beat_point_dichotomy`` with a scan of E for map beat
    points, kept verbatim as an oracle."""
    pc, bp_e, bp_b = f.pc, f.total_beat_points, f.base_beat_points
    mbp = scan_map_beat_points(pc)
    for e0 in sorted(bp_e.down, key=pc.total.idx):
        if pc.map(e0) not in bp_b.down and e0 not in mbp.down:
            return {"e": e0, "kind": "down"}
    if not mbp.down:
        for e0 in sorted(bp_e.up, key=pc.total.idx):
            if pc.map(e0) not in bp_b.up and e0 not in mbp.up:
                return {"e": e0, "kind": "up"}
    return None


def unshared_ed_inside_preimage_bd(f):
    """``verdict._cond_ed_inside_preimage_bd`` reducing E from scratch,
    kept verbatim as an oracle."""
    pc = f.pc
    ed = smallest_dbp_retract(pc.total).result
    bd = smallest_dbp_retract(pc.base).result
    pre = pc.preimage(pc.base.mask(bd.elements))
    # ed keeps the index order of E, so its first stray has the lowest index
    stray = pc.total.mask(ed.elements) & ~pre
    if stray:
        return {"stray": pc.total.elements[(stray & -stray).bit_length() - 1]}
    if is_dbp_retract(pc.total._sub_mask(pre), ed.elements) is None:
        return {"reason": "not_a_dbp_retract", "subspace": list(pc.total.names(pre))}
    return None


def search_fiber_bundle(p):
    """The isomorphism search ``is_fiber_bundle`` ran before it read the lift table.

    Kept verbatim, less its budget, as an oracle: the search over each
    U_b is exhaustive, so a miss is a proof.
    """
    s = as_slice(p)
    trivializations = {}
    for b in s.base.elements:
        rest = restrict_over(s, s.base.down_set(b))
        prod, to_base, _ = product(rest.base, s.fiber(b))
        iso = find_isomorphism_over_base(rest.map, to_base)
        if iso is None:
            return BundleReport("not_bundle", trivializations, failed_at=b)
        trivializations[b] = iso
    return BundleReport("bundle", trivializations)


def search_trivial_over_base(p):
    """The isomorphism search ``is_trivial_over_base`` ran before it read the lift table.

    Kept verbatim, less its budget, as an oracle: the isomorphism of p
    with base x fiber(first base point) over the base, or None.
    """
    s = as_slice(p)
    if s.base.n == 0:
        return None
    b0 = s.base.elements[0]
    fiber = s.fiber(b0)
    if s.base.n * fiber.n != s.total.n:
        return None
    prod, to_base, _ = product(s.base, fiber)
    return find_isomorphism_over_base(s.map, to_base)


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
            t = d.transitions[(v, b)] if v != b else MonotoneMap.identity(fib_b)
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

    The relation pairs (i, j), i != j, are scanned row-major, absent
    before present, so the order is fixed: ``search_retract_certificate``
    returns the first certificate it meets.
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

    The enumerator behind ``rec_monotone_maps``.  The guard is checked
    against the product of candidate set sizes before any work happens.
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
    cover_dn = _rec_cover_adjacency(dom)[0]
    lower = [cover_dn[i] for i in order]
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


def rec_monotone_maps(dom, cod, guard=DEFAULT_GUARD, *, upper=None, over=None, fixed=None):
    """Enumerate monotone maps dom -> cod, optionally constrained.

    ``upper`` bounds the maps pointwise from above (f <= upper);
    ``over=(p, q)`` keeps only maps f with q o f = p, for p out of dom
    and q out of cod into a common base; ``fixed`` pins given elements.
    """
    full = (1 << cod.n) - 1
    cand = [full] * dom.n
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


def rec_isomorphisms(p, q, *, extra_p=None, extra_q=None, visit=None):
    """The recursive isomorphism search ``posets.isomorphisms`` replaced.

    Kept as an oracle: same yield sequence.  ``visit(prefix, values)``,
    if given, sees each node of the search before its children: the
    (p, q) name pairs assigned so far and the q names consistent with
    them for the next element, in the order they are tried.
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

    def rec(k):
        nonlocal used
        if k == p.n:
            yield {p.elements[i]: q.elements[assigned[i]] for i in range(p.n)}
            return
        i = order[k]
        consistent = []
        for j in by_label.get(lab_p[i], ()):
            if used >> j & 1:
                continue
            ok = True
            for k2 in range(k):
                i2 = order[k2]
                j2 = assigned[i2]
                if (p.below[i] >> i2 & 1) != (q.below[j] >> j2 & 1) or (
                    p.below[i2] >> i & 1
                ) != (q.below[j2] >> j & 1):
                    ok = False
                    break
            if ok:
                consistent.append(j)
        if visit is not None:
            prefix = tuple((p.elements[i2], q.elements[assigned[i2]]) for i2 in order[:k])
            visit(prefix, tuple(q.elements[j] for j in consistent))
        for j in consistent:
            assigned[i] = j
            used |= 1 << j
            yield from rec(k + 1)
            used &= ~(1 << j)
            assigned[i] = -1

    yield from rec(0)


# -- the command line as argparse read it ------------------------------


def _budget(text: str) -> int:
    """A node budget: an int that is 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"budget must be 0 or more, got {n}")
    return n


@functools.cache
def argparse_reader() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its table-driven reader.

    Kept as the oracle the reader is checked against: parse_args exits 0
    on help and 2 on a refused command line.
    """
    # built once per process: argparse looks sys.stdout/sys.stderr up
    # when it prints, not when it is built
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--verbose", action="store_true", help="more detail")
    # validated for the callers that pass it; no check runs a search it could bound
    common.add_argument("--budget", type=_budget, default=None, metavar="N",
                        help="accepted and validated (0 or more), but bounds nothing")

    parser = argparse.ArgumentParser(
        prog="finfib",
        description="Fibration analysis for monotone maps between finite T0 spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", parents=[common], help="summarize a poset or map")
    p_info.add_argument("target", help="file path or gallery:ID")
    p_info.set_defaults(func=cmd_info)

    p_check = sub.add_parser("check", parents=[common], help="run one analysis")
    p_check.add_argument("which", choices=sorted(_CHECKS))
    p_check.add_argument("target", help="file path or gallery:ID")
    p_check.set_defaults(func=cmd_check)

    p_construct = sub.add_parser(
        "construct", parents=[common], help="integrate a functor document"
    )
    p_construct.add_argument("target", help="functor JSON file")
    p_construct.add_argument("--out", metavar="DIR", help="write documents here")
    p_construct.set_defaults(func=cmd_construct)

    p_gallery = sub.add_parser("gallery", parents=[common], help="built-in examples")
    gsub = p_gallery.add_subparsers(dest="action", required=True)
    g_list = gsub.add_parser("list", parents=[common])
    g_list.set_defaults(func=cmd_gallery)
    g_emit = gsub.add_parser("emit", parents=[common])
    g_emit.add_argument("id")
    g_emit.set_defaults(func=cmd_gallery)

    return parser


# -- retract families, descending endomaps and hom-posets --------------


def _all_bp_retracts(x: Poset, kind: str, limit: Optional[int]) -> tuple[tuple[str, ...], ...]:
    full = (1 << x.n) - 1
    seen = {full}
    frontier = [full]
    while frontier:
        alive = frontier.pop()
        for i, _, _ in _rescan_candidates(x, alive, (kind,)):
            nxt = alive & ~(1 << i)
            if nxt not in seen:
                if limit is not None and len(seen) >= limit:
                    raise GuardExceeded(len(seen) + 1, limit)
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(x.names(m) for m in sorted(seen, key=lambda m: (-m.bit_count(), m)))


def all_dbp_retracts(x: Poset, limit: Optional[int] = 10_000) -> tuple[tuple[str, ...], ...]:
    """Every subspace reachable by removing down beat points."""
    return _all_bp_retracts(x, "down", limit)


def endomaps_below_identity(x: Poset, guard: Optional[int] = DEFAULT_GUARD) -> Iterator[MonotoneMap]:
    """All monotone f: x -> x with f <= Id."""
    return rec_monotone_maps(x, x, guard, upper=MonotoneMap.identity(x))


def map_le(f: MonotoneMap, g: MonotoneMap) -> bool:
    """The pointwise order f <= g of two maps with one domain and codomain."""
    return all(f.cod.below[w] >> v & 1 for v, w in zip(f.vals, g.vals))


def trace_idempotent(trace: ReductionTrace) -> MonotoneMap:
    """The retraction of a reduction trace followed by the inclusion of its result."""
    incl = [trace.source.idx(e) for e in trace.result.elements]
    return MonotoneMap(trace.source, trace.source, tuple(incl[v] for v in trace.retraction.vals))


def homotopy_classes(x: Poset, y: Poset, guard: Optional[int] = DEFAULT_GUARD) -> list[list[MonotoneMap]]:
    """Partition of hom(x, y) into homotopy classes.

    Two maps are homotopic iff they are joined by a zigzag of pointwise
    inequalities, i.e. iff they lie in one comparability component.
    """
    return hom_poset(x, y, guard).comparability_classes()


class HomPoset:
    """All monotone maps dom -> cod under the pointwise order."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: Poset, target: Poset, maps: Sequence[MonotoneMap]):
        self.source = source
        self.target = target
        self.maps = tuple(sorted(maps, key=lambda f: f.vals))

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self) -> Iterator[MonotoneMap]:
        return iter(self.maps)

    def comparability_classes(self) -> list[list[MonotoneMap]]:
        """Connected components of the comparability graph.

        Two maps land in one class iff they are connected by a zigzag
        of pointwise inequalities, i.e. iff they are homotopic.
        """
        n = len(self.maps)
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in range(n):
            for j in range(i + 1, n):
                fi, fj = self.maps[i], self.maps[j]
                if map_le(fi, fj) or map_le(fj, fi):
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
        groups: dict[int, list[MonotoneMap]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(self.maps[i])
        return [groups[r] for r in sorted(groups, key=lambda r: self.maps[r].vals)]


def hom_poset(dom: Poset, cod: Poset, guard: Optional[int] = DEFAULT_GUARD) -> HomPoset:
    """The poset of all monotone maps dom -> cod.

    The guard bounds |cod| ** |dom|, checked before enumerating.
    """
    return HomPoset(dom, cod, list(rec_monotone_maps(dom, cod, guard)))


# -- retract certificates --------------------------------------------


def verify_retract_certificate(p, cert):
    """Re-check a retract certificate from scratch.

    Returns (True, None) or (False, reason), the reason naming the
    shape constraint, the first map that is not monotone or the first
    violated identity, the last two by the builder's own check.
    """
    sl = as_slice(p)
    prod, to_x, _ = product(cert.x, cert.y)
    if cert.i.dom != sl.total or cert.i.cod != prod:
        return False, "i must map the total space into x times y"
    if cert.r.dom != prod or cert.r.cod != sl.total:
        return False, "r must map x times y onto the total space"
    if cert.j.dom != sl.base or cert.j.cod != cert.x:
        return False, "j must map the base into x"
    if cert.s.dom != cert.x or cert.s.cod != sl.base:
        return False, "s must map x onto the base"
    fault = _retract_fault(sl, cert, to_x)
    return fault is None, fault


def retract_certificate_from_doc(doc, p):
    """The certificate a ``documents.retract_certificate_to_doc`` document names, for the map p."""
    sl = as_slice(p)
    x, y = poset_from_doc(doc["x"]), poset_from_doc(doc["y"])
    prod = product(x, y)[0]
    sides = zip("irjs", ((sl.total, prod), (prod, sl.total), (sl.base, x), (x, sl.base)))
    return RetractCertificate(x, y, *(MonotoneMap.build(dom, cod, doc[f]) for f, (dom, cod) in sides))


def search_retract_certificate(p, max_y=3, guard=DEFAULT_GUARD):
    """Bounded exhaustive search for a retract certificate with X = B.

    Every labeled poset Y with at most max_y elements, every monotone
    g: E -> Y making i = (p, g) injective, and every fiber-preserving
    monotone r with r i = Id, in that order; j = s = Id.  None
    exhausts this shape only, not wilder certificates.
    """
    s = as_slice(p)
    ident = MonotoneMap.identity(s.base)
    for k in range(1, max_y + 1):
        for y in matrix_labeled_posets(tuple(f"y{t}" for t in range(k))):
            prod, to_x, _ = product(s.base, y)
            for g in rec_monotone_maps(s.total, y, guard):
                i_vals = tuple(v * y.n + w for v, w in zip(s.map.vals, g.vals))
                if len(set(i_vals)) < s.total.n:
                    continue
                pins = {prod.elements[v]: s.total.elements[ei] for ei, v in enumerate(i_vals)}
                r = next(rec_monotone_maps(prod, s.total, guard, over=(to_x, s.map), fixed=pins), None)
                if r is not None:
                    return RetractCertificate(s.base, y, MonotoneMap(s.total, prod, i_vals), r, ident, ident)
    return None


# -- random instance generators ----------------------------------------


def chain(names):
    """The total order on names, first name at the bottom."""
    return Poset.build(names, zip(names, names[1:]))


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
    lower_covers = {a: [lo for lo, hi in dom.covers() if hi == a] for a in dom.elements}
    for _ in range(tries):
        vals = {}
        for a in order:
            allowed = set(cod.elements)
            for l in lower_covers[a]:
                allowed &= {z for z in cod.elements if cod.le(vals[l], z)}
            if not allowed:
                break
            vals[a] = rng.choice(sorted(allowed))
        else:
            return MonotoneMap.build(dom, cod, vals)
    return MonotoneMap(dom, cod, (cod.idx(rng.choice(cod.elements)),) * dom.n)


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


def functor_to_doc(d):
    """The functor document of d, with transitions keyed "lo<=hi".

    ``functor_from_doc`` reads it back when no base name holds "<=" or
    starts or ends with a space.
    """
    return {
        "base": poset_to_doc(d.base),
        "variance": d.variance,
        "fibers": {b: poset_to_doc(f) for b, f in d.fibers.items()},
        "transitions": {f"{lo}<={hi}": dict(t.values) for (lo, hi), t in sorted(d.transitions.items())},
    }


def minimal_fiber_pool():
    """Small spaces with no beat points: point, antichains, a crown."""
    return [
        Poset.build(["m0"], []),
        Poset.build(["m0", "m1"], []),
        Poset.build(["m0", "m1", "m2"], []),
        Poset.build(
            ["m0", "m1", "m2", "m3"],
            [("m0", "m2"), ("m0", "m3"), ("m1", "m2"), ("m1", "m3")],
        ),
    ]


def rand_bundle(rng, max_base=4, max_fiber=4):
    """Grothendieck construction with one fiber and automorphism transitions."""
    base = forest_base(rng, rng.randint(2, max_base))
    fiber = rand_poset(rng, rng.randint(2, max_fiber), prefix="f")
    auts = [MonotoneMap.build(fiber, fiber, a) for a in isomorphisms(fiber, fiber)]
    transitions = {(lo, hi): rng.choice(auts) for lo, hi in base.covers()}
    d = PosetFunctor(
        base, "covariant", {b: fiber for b in base.elements}, transitions
    )
    return d, grothendieck_construction(d)


def based_poset(rng, n, prefix="b"):
    """Random poset with a fresh minimum adjoined below everything."""
    top = rand_poset(rng, n, prefix=prefix)
    root = f"{prefix}_min"
    pairs = list(top.covers()) + [(root, m) for m in top.elements if top.down_set(m) == (m,)]
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
    pairs += [(dup, hi) for lo, hi in s.total.covers() if lo == x]
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


def crowns(k, copies, prefix):
    """Disjoint copies of the 2k-point crown: min i below max i and max i+1 mod k."""
    names, pairs = [], []
    for c in range(copies):
        lo = [f"{prefix}{c}m{i}" for i in range(k)]
        hi = [f"{prefix}{c}M{i}" for i in range(k)]
        names += lo + hi
        pairs += [(lo[i], hi[j % k]) for i in range(k) for j in (i, i + 1)]
    return Poset.build(names, pairs)


def twisted_bundle(k, fiber, aut, copies=1):
    """Bundle over copies of the 2k-point crown with fiber F, twisted by aut on its last cover.

    Going once round the last crown applies aut, so the bundle is
    trivial over the base exactly when aut is the identity.
    """
    base = crowns(k, copies, "b")
    covers = base.covers()
    transitions = {c: MonotoneMap.identity(fiber) for c in covers}
    transitions[covers[-1]] = MonotoneMap.build(fiber, fiber, aut)
    d = PosetFunctor(base, "covariant", {b: fiber for b in base.elements}, transitions)
    return grothendieck_construction(d)


def crown_cover(d, k):
    """The connected d-fold cover of the 2k-point crown by the 2dk-point one, i -> i mod k.

    A covering map, so a Hurewicz fibration and a fiber bundle with
    antichain fibers; for d > 1 its holonomy is a d-cycle, so it is not
    trivial over the base.
    """
    total, base = crowns(d * k, 1, "e"), crowns(k, 1, "b")
    values = {f"e0{side}{i}": f"b0{side}{i % k}" for side in "mM" for i in range(d * k)}
    return MonotoneMap.build(total, base, values)


def assert_trivializes(p, part, b, iso):
    """iso is an isomorphism over ``part`` of p restricted there with part x fiber(b).

    Its keys come in the restriction's element order.
    """
    rest = restrict_over(p, part)
    prod, to_base, _ = product(rest.base, as_slice(p).fiber(b))
    assert list(iso) == list(rest.total.elements)
    phi = MonotoneMap.build(rest.total, prod, iso)
    assert phi.is_iso()
    assert phi.then(to_base) == rest.map


def census_unknown():
    """A 6-point map onto the 4-point fence a < b > c < d that stays unknown.

    It is one of the few maps with |E| = 6 onto a connected,
    minimum-free base that pass every necessary condition yet get no
    certificate from the engine; ``search_retract_certificate(max_y=3)``
    certifies it.
    """
    total = Poset.build(
        ["e5", "e4", "e0", "e2", "e1", "e3"],
        [("e4", "e5"), ("e0", "e2"), ("e2", "e5"), ("e2", "e3"), ("e1", "e2")],
    )
    fence = Poset.build(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])
    values = {"e5": "b", "e4": "a", "e0": "c", "e2": "c", "e1": "c", "e3": "d"}
    return MonotoneMap.build(total, fence, values)


@st.composite
def posets(draw, max_size=8):
    """Hypothesis strategy: a random order on distinct drawn names, shuffled."""
    elements = draw(st.lists(st.integers(0, 99).map(lambda i: f"x{i}"), unique=True, max_size=max_size))
    slots = list(itertools.combinations(elements, 2))
    edges = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    order = draw(st.permutations(elements))
    return Poset.build(order, [pair for pair, edge in zip(slots, edges) if edge])


@st.composite
def generated_domains(draw):
    """(way, poset): a poset whose generating pairs are its covers, more than its covers, or derived.

    The ways are ``Poset.build`` from the exact covers, from the covers
    plus shuffled transitive and repeated pairs, ``product`` of two such
    posets or of induced subposets (which keep no pairs), ``op`` and
    ``_sub_mask``.
    """
    way = draw(st.sampled_from(("covers", "redundant", "product", "op", "sub")))
    p = draw(posets(max_size=7))
    elements = draw(st.permutations(p.elements))
    if way == "covers":
        return way, Poset.build(elements, p.covers())
    comparable = [(a, b) for a in p for b in p if p.lt(a, b)]
    pairs = list(p.covers()) + draw(st.lists(st.sampled_from(comparable), max_size=8) if comparable else st.just([]))
    built = Poset.build(elements, draw(st.permutations(pairs)))
    if way == "redundant":
        return way, built
    if way == "op":
        return way, built.op()
    keep = draw(st.integers(0, (1 << p.n) - 1))
    if way == "sub":
        return way, built._sub_mask(keep)
    q = draw(posets(max_size=3))
    if draw(st.booleans()):
        built, q = built._sub_mask(keep), q._sub_mask(draw(st.integers(0, (1 << q.n) - 1)))
    return way, product(built, q)[0]


@st.composite
def maps(draw, max_total=7, max_base=4):
    """Hypothesis strategy: a random monotone map, plus up to two map down beat points."""
    total = draw(posets(max_size=max_total).filter(len))
    base = draw(posets(max_size=max_base).filter(len))
    rng = seeded(draw(st.integers(0, 2**16)))
    p = rand_monotone(rng, total, base)
    for k in range(draw(st.integers(0, 2))):
        p = insert_map_down_beat_point(rng, p, str(k))
    return p


@st.composite
def deep_maps(draw):
    """Hypothesis strategy: a map with shuffled elements onto a base of height >= 2.

    The base is a chain, a random poset with a minimum adjoined, or a
    forest; the map is a random monotone one, mostly no fibration, or
    the projection of base x fiber with up to two map beat points.
    """
    rng = seeded(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(("chain", "based", "forest")))
    k = draw(st.integers(3, 6))
    if kind == "chain":
        names = [f"b{i}" for i in range(k)]
        base = Poset.build(rng.sample(names, k), list(zip(names, names[1:])))
    elif kind == "based":
        base = based_poset(rng, k - 1)
    else:
        base = forest_base(rng, k)
    assume(base.height() >= 2)
    if draw(st.booleans()):
        total = rand_poset(rng, draw(st.integers(1, 10)), prob=draw(st.sampled_from((0.2, 0.4, 0.6))))
        return rand_monotone(rng, total, base)
    _, p, _ = product(base, rand_poset(rng, draw(st.integers(1, 3)), prefix="f"))
    for j in range(draw(st.integers(0, 2))):
        p = insert_map_down_beat_point(rng, p, str(j))
    total = Poset.build(rng.sample(p.dom.elements, p.dom.n), p.dom.covers())
    return MonotoneMap.build(total, base, p.values)


def shuffling_picker(rng):
    """Reduction picker taking a uniformly random candidate each step."""
    return lambda cands: rng.choice(cands)


def seeded(seed):
    return random.Random(seed)
