"""Cartesian lifts, transport functors and the Grothendieck construction.

A map p: E -> B is a Grothendieck fibration when every e and every
b <= p(e) admit a cartesian lift: U_e intersected with p^{-1}(U_b) has
a maximum lying in the fiber over b.  Opfibrations are dual (minimum
of F_e inside p^{-1}(F_b)), and a bifibration is both.  Fibrations
give a contravariant transport functor alpha on the base, opfibrations
a covariant one beta, and integrating beta back rebuilds p up to an
isomorphism over the base.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import (
    FinfibError,
    FunctorialityViolated,
    NotGrothendieckOpfibration,
    ReconstructionMismatch,
    UnknownElement,
)
from .posets import (
    MonotoneMap,
    Poset,
    _bits,
    find_isomorphism_over_base,  # noqa: F401 -- perfbench/spans.py wraps it under this module
    pair_name,
    product,  # noqa: F401 -- perfbench/spans.py wraps it under this module
)
from .slices import (
    MapLike,
    SliceMap,
    as_slice,
    restrict_over,  # noqa: F401 -- perfbench/spans.py wraps it under this module
)


class LiftFailure(NamedTuple):
    """One failing lift request: its side, element, base point and reason."""

    side: str  # 'cartesian' | 'cocartesian'
    e: str
    b: str
    reason: str
    stray: Optional[str] = None

    def as_dict(self) -> dict:
        """{side, e, b, reason}, plus the stray extremum when there is one."""
        d = {"side": self.side, "e": self.e, "b": self.b, "reason": self.reason}
        if self.stray is not None:
            d["stray"] = self.stray
        return d


class PosetFunctor:
    """A functor from a poset into finite posets.

    ``fibers[b]`` is the poset at b.  ``transitions`` holds monotone
    maps for strictly related pairs (lo, hi): covariant functors map
    fibers[lo] -> fibers[hi], contravariant ones fibers[hi] ->
    fibers[lo].  The variance, the fiber keys and the pair and shape of
    every given transition are checked first.  One bottom-up pass then
    composes each strictly related pair through every point strictly
    between, in index order: a pair left out takes the first composite
    (cover transitions suffice), every other composite must equal it,
    and a pair with neither raises.  So instances are always genuine
    functors with a transition for every strictly related pair.
    """

    __slots__ = ("base", "variance", "fibers", "transitions")

    def __init__(
        self,
        base: Poset,
        variance: str,
        fibers: dict[str, Poset],
        transitions: dict[tuple[str, str], MonotoneMap],
    ):
        if variance not in ("covariant", "contravariant"):
            raise FunctorialityViolated(f"unknown variance {variance!r}")
        if set(fibers) != set(base.elements):
            raise UnknownElement("fibers must be indexed exactly by the base elements")
        co = variance == "covariant"
        for (lo, hi), t in transitions.items():
            if lo not in base or hi not in base:
                raise UnknownElement(f"transition pair ({lo!r}, {hi!r}) is not in the base")
            if not base.lt(lo, hi):
                raise FunctorialityViolated(f"transition pair ({lo!r}, {hi!r}) is not strictly related")
            src, dst = (lo, hi) if co else (hi, lo)
            if t.dom != fibers[src] or t.cod != fibers[dst]:
                raise FunctorialityViolated(f"transition for ({lo!r}, {hi!r}) has the wrong fibers")
        filled = dict(transitions)
        # bottom-up over the base, and within each top element nearest lower
        # elements first, so both halves through any point in between exist
        names = base.elements
        for bi in base._linear_extension():
            b = names[bi]
            strict = _bits(base.below[bi] & ~(1 << bi))
            for vi in sorted(strict, key=lambda vi: -base.below[vi].bit_count()):
                v = names[vi]
                for mi in _bits(base.above[vi] & base.below[bi] & ~(1 << vi | 1 << bi)):
                    mid = names[mi]
                    lower, upper = filled[(v, mid)], filled[(mid, b)]
                    through = lower.then(upper) if co else upper.then(lower)
                    if (v, b) not in filled:
                        filled[(v, b)] = through
                    elif filled[(v, b)] != through:
                        raise FunctorialityViolated(
                            f"transitions do not compose along {v!r} <= {mid!r} <= {b!r}"
                        )
                if (v, b) not in filled:
                    raise FunctorialityViolated(f"missing transition for ({v!r}, {b!r})")
        self.base = base
        self.variance = variance
        self.fibers = dict(fibers)
        self.transitions = filled

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PosetFunctor):
            return NotImplemented
        return (
            self.base == other.base
            and self.variance == other.variance
            and self.fibers == other.fibers
            and self.transitions == other.transitions
        )

    def __hash__(self) -> int:
        return hash((self.base, self.variance, tuple(sorted(self.transitions))))

    def __repr__(self) -> str:
        return f"PosetFunctor({self.variance} over {self.base!r})"


def _closed_extremum(size: list[int], d: int) -> Optional[int]:
    """The maximum of a down-closed mask d, or None; ``size[k]`` holds the w with |U_w| = k.

    A down-closed D has a maximum exactly when it holds a point x with
    |U_x| = |D|, and that x is the maximum: U_x lies in D and has its
    size, so U_x = D, and two such points have equal rows, so they are
    one.  With the sizes |F_w| and an up-closed d it is the minimum.
    """
    x = d & size[d.bit_count()]
    return x.bit_length() - 1 if x else None


def _lift_frame(s: SliceMap, side: str) -> tuple:
    """What every lift search of one side reads: (ups, covers, pre, counts, size).

    ``ups`` are the rows U_e of E (F_e cocartesian), ``covers[b]`` the
    lower (upper) covers of b from the base's cover table, and
    ``pre[b]`` the preimage p^-1(U_b) (p^-1(F_b)), one OR per cover
    along the Hasse diagram, since U_b is b with the U_c of its lower
    covers c.  Searches only read ``pre`` at base points below (above)
    another one, so a maximal (minimal) b gets 0.  ``counts[w]`` is
    |U_w| and ``size[k]`` the points w with |U_w| = k, for
    ``_closed_extremum``.
    """
    total, base = s.total, s.base
    lower, upper, _ = base._cover_table()
    order = base._linear_extension()  # each base point after its lower covers
    if side == "cartesian":
        ups, covers, over = total.below, lower, upper
    else:
        ups, covers, over, order = total.above, upper, lower, reversed(order)
    pre = [0] * base.n
    for b in order:
        if over[b]:
            m = s.fiber_masks[b]
            for c in covers[b]:
                m |= pre[c]
            pre[b] = m
    counts = [row.bit_count() for row in ups]
    size = [0] * (total.n + 1)
    for w, k in enumerate(counts):
        size[k] |= 1 << w
    return ups, covers, pre, counts, size


def _lifts_over_covers(s: SliceMap, side: str) -> bool:
    """Whether p is a fibration (opfibration): e lifts over each lower (upper) cover of p(e).

    That is necessary, and it is enough by induction up the base (down
    it, cocartesian).  Take b < p(e), below a lower cover c of p(e),
    and the lift i of e over c.  By the composition lemma of
    ``_scan_lifts`` e's lift over b is i's, and i, over c < p(e), has
    all its lifts by induction.  So one ``_closed_extremum`` lookup per
    point and cover decides the side, the first miss ends the check,
    and no table is built.
    """
    ups, covers, pre, _, size = _lift_frame(s, side)
    vals = s.map.vals
    for ei, v in enumerate(vals):
        up = ups[ei]
        for c in covers[v]:
            i = _closed_extremum(size, up & pre[c])
            if i is None or vals[i] != c:
                return False
    return True


def _scan_lifts(s: SliceMap, side: str) -> tuple[list[LiftFailure], list[dict[int, int]]]:
    """Every lift on one side: all failures and the transport rows.

    The lift of e over b is the maximum of the down-closed U_e in
    p^-1(U_b) (cartesian) or the minimum of the up-closed F_e in
    p^-1(F_b) (cocartesian), one ``_closed_extremum`` lookup, and it
    must sit over b.  ``rows[e]`` maps each base index b of U_{p(e)}
    (F_{p(e)} cocartesian) over which e has a lift to it, the trivial
    lift e over p(e) included without a search, so the failures are
    the points a row lacks.  Once the rows are done they are read off
    the short rows, e-major, base-index-minor, with one more lookup for
    each stray extremum.  The table holds one entry per lift, never
    |E|.|B| cells.

    Lifts compose, so one search per lower cover c of p(e) settles
    every b <= c that it reaches (dually with minima and upper covers).
    If i = max(U_e in p^-1(U_c)) exists, over c or stray, then for every
    b <= p(i) the set U_e in p^-1(U_b) lies in U_e in p^-1(U_c), hence
    in U_i, and it holds all of U_i in p^-1(U_b) because i <= e.  The
    two sets are equal, so e's entry over b is i's, and e has none where
    i has none.  Every b of i's row lies in U_{p(i)}, so e takes i's
    whole row: its row begins as a copy of the first such row, later
    covers' rows are merged into it, and where two overlap they agree.
    Base points below p(e) that no cover's i reaches are searched
    directly.  Visiting the points by rising |U_e| (|F_e| cocartesian),
    which grows strictly along the order, completes i's row before e's
    begins.  When no cover of the base lies above another base point,
    nothing is copied and index order serves.
    """
    total, base, vals = s.total, s.base, s.map.vals
    ups, covers, pre, counts, size = _lift_frame(s, side)
    reach, ext = (base.below, "maximum") if side == "cartesian" else (base.above, "minimum")
    deep = []  # deep[b]: the base points below b (above, cocartesian) less b and its covers
    for b, row in enumerate(reach):
        for c in covers[b]:
            row ^= 1 << c
        deep.append(row ^ 1 << b)
    order = range(total.n)
    if any(deep):
        order = sorted(order, key=counts.__getitem__)
    rows: list[dict[int, int]] = [None] * total.n  # filled in visiting order
    for ei in order:
        v = vals[ei]
        up = ups[ei]
        rest = deep[v]
        row = {}
        for c in covers[v]:
            i = _closed_extremum(size, up & pre[c])
            if i is None:
                continue
            copy = reach[vals[i]] & rest
            if copy:
                rest ^= copy
                row.update(rows[i])  # a whole copy while the row is empty
            if vals[i] == c:
                row[c] = i
        if rest:
            for bi in _bits(rest):
                i = _closed_extremum(size, up & pre[bi])
                if i is not None and vals[i] == bi:
                    row[bi] = i
        row[v] = ei
        rows[ei] = row
    names, bnames = total.elements, base.elements
    none, outside = f"no_{ext}", f"{ext}_outside_fiber"
    full = [m.bit_count() for m in reach]
    failures = []
    for ei, row in enumerate(rows):
        if len(row) == full[vals[ei]]:
            continue
        m = reach[vals[ei]]
        for bi in row:
            m ^= 1 << bi
        e, up = names[ei], ups[ei]
        for bi in _bits(m):
            i = _closed_extremum(size, up & pre[bi])
            if i is None:
                failures.append(LiftFailure(side, e, bnames[bi], none))
            else:
                failures.append(LiftFailure(side, e, bnames[bi], outside, names[i]))
    return failures, rows


def _transport_functor(s: SliceMap, side: str, transports: list[dict[int, int]]) -> PosetFunctor:
    """Package one side's transports as a functor on the base.

    Cartesian transports form a contravariant functor (alpha), the
    cocartesian ones a covariant functor (beta); fibers carry their
    order as subspaces of the total space.
    """
    total, base = s.total, s.base
    fibers = {b: s.fiber(b) for b in base.elements}
    transitions: dict[tuple[str, str], MonotoneMap] = {}
    for bi, b in enumerate(base.elements):
        for vi in _bits(base.below[bi] & ~(1 << bi)):
            v = base.elements[vi]
            # cartesian transport runs down from b to v, cocartesian up from v to b
            src, dst, to = (b, v, vi) if side == "cartesian" else (v, b, bi)
            src, dst = fibers[src], fibers[dst]
            lifts = (transports[total.index[x]][to] for x in src.elements)
            tvals = tuple(dst.index[total.elements[k]] for k in lifts)
            transitions[(v, b)] = MonotoneMap(src, dst, tvals)
    variance = "contravariant" if side == "cartesian" else "covariant"
    return PosetFunctor(base, variance, fibers, transitions)


class GrothendieckReport:
    """Classification of a map on both lift sides.

    ``is_fibration`` and ``is_opfibration`` come from
    ``_lifts_over_covers``, which builds no table.  ``failures`` lists
    every failing lift, e-major, cartesian before cocartesian for one e,
    base-index-minor.  ``cartesian`` and ``cocartesian`` are the two
    transport tables ``_scan_lifts`` builds, one row per point of the
    total space: ``cartesian[e][b]`` is the index of e's lift over b,
    and a b of e's reach with no entry has no lift.  ``alpha``
    (contravariant transport) is present iff the map is a Grothendieck
    fibration, ``beta`` (covariant) iff an opfibration.  Each side is
    scanned on the first read of its table, its failures or its
    transport functor, at most once, and a side that holds is never
    scanned for its failures, which are none.
    """

    def __init__(self, s: SliceMap):
        self.slice_map = s
        self.is_fibration = _lifts_over_covers(s, "cartesian")
        self.is_opfibration = _lifts_over_covers(s, "cocartesian")

    @property
    def is_bifibration(self) -> bool:
        return self.is_fibration and self.is_opfibration

    @cached_property
    def _cartesian_scan(self) -> tuple[list[LiftFailure], list[dict[int, int]]]:
        return _scan_lifts(self.slice_map, "cartesian")

    @cached_property
    def _cocartesian_scan(self) -> tuple[list[LiftFailure], list[dict[int, int]]]:
        return _scan_lifts(self.slice_map, "cocartesian")

    @property
    def cartesian(self) -> list[dict[int, int]]:
        return self._cartesian_scan[1]

    @property
    def cocartesian(self) -> list[dict[int, int]]:
        return self._cocartesian_scan[1]

    @property
    def fibration_failure(self) -> Optional[LiftFailure]:
        return None if self.is_fibration else self._cartesian_scan[0][0]

    @property
    def opfibration_failure(self) -> Optional[LiftFailure]:
        return None if self.is_opfibration else self._cocartesian_scan[0][0]

    @cached_property
    def failures(self) -> tuple[LiftFailure, ...]:
        cart = [] if self.is_fibration else self._cartesian_scan[0]
        cocart = [] if self.is_opfibration else self._cocartesian_scan[0]
        # both sides list their failures e-major, and a stable merge on
        # the point's index keeps the cartesian ones first for each e
        return tuple(heapq.merge(cart, cocart, key=lambda f: self.slice_map.total.index[f.e]))

    @cached_property
    def alpha(self) -> Optional[PosetFunctor]:
        if not self.is_fibration:
            return None
        return _transport_functor(self.slice_map, "cartesian", self.cartesian)

    @cached_property
    def beta(self) -> Optional[PosetFunctor]:
        if not self.is_opfibration:
            return None
        return _transport_functor(self.slice_map, "cocartesian", self.cocartesian)


def classify_grothendieck(p: MapLike) -> GrothendieckReport:
    """Decide fibration and opfibration status from the lifts over base covers.

    Witnesses are the first failing (element, base point) pair in
    index order on each failing side, found by scanning that side when
    they are first read.
    """
    return GrothendieckReport(as_slice(p))


def grothendieck_construction(d: PosetFunctor) -> SliceMap:
    """Total space and projection of a transport functor.

    For covariant d over B the points are the pairs (b, x) with x in
    d(b), ordered by (v, y) <= (b, x) iff v <= b in B and the
    transport of y into the fiber over b is <= x there.  This is the
    specialization order of the topology generated by the sets
    {v in U_b} x transition(v, b)^{-1}(V) for V open in d(b).

    A contravariant d is integrated as the covariant functor it
    defines over the opposite base, with opposite fibers; the result
    then projects to d.base.op().  Integrating the cartesian functor
    of a fibration p this way rebuilds p.op().

    Either way the order is the closure of the fiber covers (reversed
    for a contravariant d) and the pairs (src, y) < (dst, t(y)) of
    each cover transition t from the fiber over src to the one over
    dst; functoriality makes every other transition a composite of
    those.  Names that collide raise DuplicateName.
    """
    co = d.variance == "covariant"
    names: dict[str, list[str]] = {}
    pairs: list[tuple[str, str]] = []
    for b in d.base.elements:
        fib = d.fibers[b]
        names[b] = at = [pair_name(b, x) for x in fib.elements]
        for lo, hi in fib._cover_pairs():
            lo, hi = at[lo], at[hi]
            pairs.append((lo, hi) if co else (hi, lo))
    for lo, hi in d.base.covers():
        src, dst = (names[lo], names[hi]) if co else (names[hi], names[lo])
        pairs.extend(zip(src, (dst[v] for v in d.transitions[(lo, hi)].vals)))
    total = Poset.build((x for b in d.base.elements for x in names[b]), pairs)
    owner = tuple(bi for bi, b in enumerate(d.base.elements) for _ in names[b])
    return SliceMap(MonotoneMap(total, d.base if co else d.base.op(), owner))


def reconstruct_over_base(p: MapLike) -> tuple[SliceMap, MonotoneMap]:
    """Integrate the covariant transport of an opfibration and match it.

    Returns the constructed projection and the isomorphism onto the
    original total space given by (b, x) -> x; any failure of that
    correspondence to be an isomorphism over the base raises
    ReconstructionMismatch, so a clean return is a machine check of
    the reconstruction.  A map that is not an opfibration raises
    NotGrothendieckOpfibration with its first failing cocartesian lift.
    """
    s = as_slice(p)
    rep = classify_grothendieck(s)
    if rep.beta is None:
        f = rep.opfibration_failure
        raise NotGrothendieckOpfibration(
            f"no cocartesian lift of {f.e!r} over {f.b!r} ({f.reason})", witness=f
        )
    integ = grothendieck_construction(rep.beta)
    try:
        phi = MonotoneMap.build(
            integ.total,
            s.total,
            {pair_name(b, x): x for b in s.base.elements for x in s.fiber(b).elements},
        )
    except FinfibError as exc:
        raise ReconstructionMismatch(f"correspondence is not monotone: {exc}") from exc
    if not phi.is_iso():
        raise ReconstructionMismatch("correspondence (b, x) -> x is not an isomorphism")
    if phi.then(s.map) != integ.map:
        raise ReconstructionMismatch("correspondence does not commute with the projections")
    return integ, phi


def _defects(s: SliceMap, cart: list[dict[int, int]]) -> int:
    """Base mask of the points where local triviality breaks.

    ``cart`` is the cartesian table ``_scan_lifts`` built for s.  A
    defect is the top p(e) of a failing lift, read off a row shorter
    than U_{p(e)}, or the top w of a cover u < w (w not already a
    defect) whose transport F_w -> F_u is no order isomorphism.  A
    transport is monotone: x <= y gives alpha(x) <= x <= y, and
    alpha(y) is the largest point over u below y.  So a bijective one
    maps the comparable pairs of F_w injectively into those of F_u, and
    it is an isomorphism exactly when the two counts agree.  Over a U_b
    with no failing tops the lifts compose: for u <= w <= b and y over
    b, every point of U_y over U_u lies below alpha_{w<=b}(y), so
    alpha_{u<=w} alpha_{w<=b} = alpha_{u<=b}.  Hence every alpha_{v<=b}
    is an isomorphism exactly when the cover transports inside U_b are,
    that is when U_b holds no defect.
    """
    below, vals, masks = s.total.below, s.map.vals, s.fiber_masks
    pairs = [sum((below[x] & m).bit_count() for x in _bits(m)) for m in masks]
    full = [m.bit_count() for m in s.base.below]
    defects = 0
    for row, v in zip(cart, vals):
        if len(row) < full[v]:
            defects |= 1 << v
    for w, lower in enumerate(s.base._cover_table()[0]):
        src = masks[w]
        for u in lower:
            if defects >> w & 1:
                break
            # with as many bits in dst as in src, the image bits sum to dst only if none collide
            dst = masks[u]
            same = src.bit_count() == dst.bit_count() and pairs[w] == pairs[u]
            if not same or sum(1 << cart[y][u] for y in _bits(src)) != dst:
                defects |= 1 << w
    return defects


class BundleReport(NamedTuple):
    """Local triviality over every minimal open set of the base.

    ``trivializations[b]`` matches the restriction over U_b with the
    product U_b x fiber(b); ``failed_at`` is the first base point with
    no such matching.
    """

    status: str  # 'bundle' | 'not_bundle'
    trivializations: dict[str, dict[str, str]]
    failed_at: Optional[str] = None


def is_fiber_bundle(p: MapLike) -> BundleReport:
    """Check local triviality base point by base point, in index order.

    The restriction of p over U_b is isomorphic to U_b x F_b over U_b
    exactly when every point over U_b has all its cartesian lifts and
    every transport alpha_{v<=b}: F_b -> F_v, v <= b, is an order
    isomorphism, that is when U_b holds no point of ``_defects``; the
    first b where that fails is ``failed_at``.
    (<=) Send x to (p(x), alpha_{p(x)<=b}^-1(x)).  For u = p(x) <= w =
    p(y), x <= y holds exactly when x <= alpha_{u<=w}(y), the largest
    point over u below y, and alpha_{u<=b} = alpha_{u<=w} alpha_{w<=b}
    turns that into alpha_{u<=b}^-1(x) <= alpha_{w<=b}^-1(y).
    (=>) In U_b x F_b every lift exists and every transport is the
    identity, and an isomorphism over U_b carries lifts to lifts.
    """
    s = as_slice(p)
    total, base, vals = s.total, s.base, s.map.vals
    _, cart = _scan_lifts(s, "cartesian")
    defects = _defects(s, cart)
    trivializations: dict[str, dict[str, str]] = {}
    for bi, b in enumerate(base.elements):
        down = base.below[bi]
        if down & defects:
            return BundleReport("not_bundle", trivializations, failed_at=b)
        back = {cart[y][vi]: y for y in _bits(s.fiber_masks[bi]) for vi in _bits(down)}
        trivializations[b] = {
            total.elements[x]: pair_name(base.elements[vals[x]], total.elements[back[x]])
            for x in _bits(s.preimage(down))
        }
    return BundleReport("bundle", trivializations)
