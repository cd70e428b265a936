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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import (
    FinfibError,
    FunctorialityViolated,
    NotGrothendieckOpfibration,
    ReconstructionMismatch,
    SearchBudgetExhausted,
    UnknownElement,
)
from .posets import (
    MonotoneMap,
    Poset,
    _bits,
    _extremum,
    find_isomorphism_over_base,
    pair_name,
    product,
)
from .slices import MapLike, SliceMap, as_slice, restrict_over


@dataclass(frozen=True)
class LiftFailure:
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


def _lift(s: SliceMap, side: str, ei: int, bi: int, pre: int) -> tuple[Optional[int], Optional[str]]:
    """Index-level lift of total element ei over base element bi.

    ``pre`` is the preimage of U_b (cartesian) or F_b (cocartesian);
    the lift is the maximum of U_e (minimum of F_e) inside it, and it
    must sit over b.  Returns (transport, None) on success, otherwise
    (stray, reason) with stray the extremum outside the fiber or None.
    """
    t = s.total
    rows, co, ext = (t.below, t.above, "maximum") if side == "cartesian" else (t.above, t.below, "minimum")
    i = _extremum(rows, co, rows[ei] & pre)
    if i is None:
        return None, f"no_{ext}"
    return i, None if s.map.vals[i] == bi else f"{ext}_outside_fiber"


class PosetFunctor:
    """A functor from a poset into finite posets.

    ``fibers[b]`` is the poset at b.  ``transitions`` holds monotone
    maps for strictly related pairs (lo, hi): covariant functors map
    fibers[lo] -> fibers[hi], contravariant ones fibers[hi] ->
    fibers[lo].  Every pair left out is filled in by composing given
    ones (cover transitions suffice), and a pair no composite reaches
    raises.  Construction then validates shapes and path independence,
    so instances are always genuine functors with a transition for
    every strictly related pair.
    """

    __slots__ = ("base", "variance", "fibers", "transitions")

    def __init__(
        self,
        base: Poset,
        variance: str,
        fibers: dict[str, Poset],
        transitions: dict[tuple[str, str], MonotoneMap],
    ):
        filled = dict(transitions)
        # bottom-up over the base, and within each top element nearest lower
        # elements first, so both halves through any point in between exist
        for bi in base._linear_extension():
            b = base.elements[bi]
            strict = _bits(base.below[bi] & ~(1 << bi))
            for vi in sorted(strict, key=lambda vi: -base.below[vi].bit_count()):
                v = base.elements[vi]
                if (v, b) in filled:
                    continue
                between = base.above[vi] & base.below[bi] & ~(1 << vi | 1 << bi)
                if not between:
                    raise FunctorialityViolated(f"missing transition for ({v!r}, {b!r})")
                step = base.elements[(between & -between).bit_length() - 1]
                if variance == "covariant":
                    filled[(v, b)] = filled[(v, step)].then(filled[(step, b)])
                else:
                    filled[(v, b)] = filled[(step, b)].then(filled[(v, step)])
        if variance not in ("covariant", "contravariant"):
            raise FunctorialityViolated(f"unknown variance {variance!r}")
        if set(fibers) != set(base.elements):
            raise UnknownElement("fibers must be indexed exactly by the base elements")
        self.base = base
        self.variance = variance
        self.fibers = dict(fibers)
        self.transitions = filled
        self._validate()

    def _validate(self) -> None:
        for (lo, hi), t in self.transitions.items():
            if lo not in self.base or hi not in self.base:
                raise UnknownElement(f"transition pair ({lo!r}, {hi!r}) is not in the base")
            if not self.base.lt(lo, hi):
                raise FunctorialityViolated(f"transition pair ({lo!r}, {hi!r}) is not strictly related")
            src, dst = (lo, hi) if self.variance == "covariant" else (hi, lo)
            if t.dom != self.fibers[src] or t.cod != self.fibers[dst]:
                raise FunctorialityViolated(f"transition for ({lo!r}, {hi!r}) has the wrong fibers")
        # path independence over every strictly ordered triple
        for lo, hi in self.transitions:
            for mi in _bits(self.base.below[self.base.idx(hi)] & self.base.above[self.base.idx(lo)]):
                mid = self.base.elements[mi]
                if mid == lo or mid == hi:
                    continue
                if self.variance == "covariant":
                    through = self.transitions[(lo, mid)].then(self.transitions[(mid, hi)])
                else:
                    through = self.transitions[(mid, hi)].then(self.transitions[(lo, mid)])
                if through != self.transitions[(lo, hi)]:
                    raise FunctorialityViolated(
                        f"transitions do not compose along {lo!r} <= {mid!r} <= {hi!r}"
                    )

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


def _scan_lifts(
    s: SliceMap, side: str
) -> tuple[list[LiftFailure], dict[tuple[int, int], int]]:
    """Every lift on one side: all failures and the transport table.

    The table maps index pairs (e, b) to the lift of e over b wherever it
    exists, for b in U_p(e) (cartesian) or F_p(e) (cocartesian); the
    trivial lift over p(e) is e itself, recorded without a search.
    Failures are listed e-major, base-index-minor.
    """
    total, base, vals = s.total, s.base, s.map.vals
    rows = base.below if side == "cartesian" else base.above
    pre = [s.preimage(row) for row in rows]
    failures: list[LiftFailure] = []
    transports: dict[tuple[int, int], int] = {}
    for ei in range(total.n):
        transports[(ei, vals[ei])] = ei
        for bi in _bits(rows[vals[ei]] & ~(1 << vals[ei])):
            i, reason = _lift(s, side, ei, bi, pre[bi])
            if reason is None:
                transports[(ei, bi)] = i
            else:
                stray = None if i is None else total.elements[i]
                failures.append(LiftFailure(side, total.elements[ei], base.elements[bi], reason, stray))
    return failures, transports


def _transport_functor(s: SliceMap, side: str, transports: dict[tuple[int, int], int]) -> PosetFunctor:
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
            lifts = (transports[(total.index[x], to)] for x in src.elements)
            tvals = tuple(dst.index[total.elements[k]] for k in lifts)
            transitions[(v, b)] = MonotoneMap(src, dst, tvals)
    variance = "contravariant" if side == "cartesian" else "covariant"
    return PosetFunctor(base, variance, fibers, transitions)


@dataclass(frozen=True)
class GrothendieckReport:
    """Classification of a map on both lift sides.

    ``failures`` lists every failing lift, e-major, cartesian before
    cocartesian for one e, base-index-minor.  ``cartesian`` and
    ``cocartesian`` hold the two transport tables ``_scan_lifts`` built.
    ``alpha`` (contravariant transport) is present iff the map is a
    Grothendieck fibration, ``beta`` (covariant) iff an opfibration;
    both are built from the tables on first access.
    """

    is_fibration: bool
    is_opfibration: bool
    fibration_failure: Optional[LiftFailure] = None
    opfibration_failure: Optional[LiftFailure] = None
    failures: tuple[LiftFailure, ...] = ()
    slice_map: Optional[SliceMap] = field(default=None, compare=False, repr=False)
    cartesian: dict[tuple[int, int], int] = field(default_factory=dict, compare=False, repr=False)
    cocartesian: dict[tuple[int, int], int] = field(default_factory=dict, compare=False, repr=False)

    @property
    def is_bifibration(self) -> bool:
        return self.is_fibration and self.is_opfibration

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
    """Decide fibration and opfibration status by checking every lift.

    Witnesses are the first failing (element, base point) pair in
    index order on each failing side.
    """
    s = as_slice(p)
    cart, cart_table = _scan_lifts(s, "cartesian")
    cocart, cocart_table = _scan_lifts(s, "cocartesian")
    failures = tuple(sorted(cart + cocart, key=lambda f: s.total.idx(f.e)))
    return GrothendieckReport(
        not cart, not cocart, cart[0] if cart else None, cocart[0] if cocart else None,
        failures, s, cart_table, cocart_table,
    )


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
    every transition t from the fiber over src to the one over dst;
    names that collide raise DuplicateName.
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
    for (lo, hi), t in d.transitions.items():
        src, dst = (names[lo], names[hi]) if co else (names[hi], names[lo])
        pairs.extend(zip(src, (dst[v] for v in t.vals)))
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


@dataclass(frozen=True)
class BundleReport:
    """Local triviality over every minimal open set of the base.

    ``trivializations[b]`` matches the restriction over U_b with the
    product U_b x fiber(b); ``failed_at`` is the first base point with
    no such matching (a certified failure, the search is exhaustive),
    ``undecided_at`` the first point where a budget ran out.
    """

    status: str  # 'bundle' | 'not_bundle' | 'undecided'
    trivializations: dict[str, dict[str, str]]
    failed_at: Optional[str] = None
    undecided_at: Optional[str] = None


def is_fiber_bundle(p: MapLike, budget: Optional[int] = None) -> BundleReport:
    """Check local triviality base point by base point, in index order.

    Fibers over one U_b may differ from fiber(b) or sit in it the
    wrong way; the isomorphism-over-base search is exhaustive, so a
    miss is a proof.  With a budget, an exhausted search stops the
    scan and reports undecided.
    """
    s = as_slice(p)
    trivializations: dict[str, dict[str, str]] = {}
    for b in s.base.elements:
        rest = restrict_over(s, s.base.down_set(b))
        prod, to_base, _ = product(rest.base, s.fiber(b))
        try:
            iso = find_isomorphism_over_base(rest.map, to_base, budget)
        except SearchBudgetExhausted:
            return BundleReport("undecided", trivializations, undecided_at=b)
        if iso is None:
            return BundleReport("not_bundle", trivializations, failed_at=b)
        trivializations[b] = iso
    return BundleReport("bundle", trivializations)

