"""Hurewicz fibration verdicts: certificates, witnesses, honest unknowns.

The decision pipeline works per connected component of the base with a
nonempty preimage.  Removing down beat points of the map preserves the
Hurewicz property in both directions, so the map is first reduced to
its smallest such retract p0.  If p0 is not a Grothendieck bifibration
the map is certainly not a fibration (witnessed by a missing lift).
If the component has a minimum, bifibration of p0 is also sufficient;
if it has a maximum and height 1, p0 is presented as a retract of the
projection B x E -> B, built from its transport tables and checked;
if p0's cartesian transports show it isomorphic over the base to a
product projection, that is a certificate too.  Otherwise the verdict
is unknown and a battery of necessary conditions is reported, each
with a concrete witness when it fails.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .errors import EmptyDomain, InvariantViolated, PreconditionViolated
from .grothendieck import (
    GrothendieckReport,
    _defects,
    _scan_lifts,  # noqa: F401 -- perfbench/spans.py wraps it under this module
    classify_grothendieck,
)
from .posets import (
    MonotoneMap,
    Poset,
    _bits,
    _extremum,
    find_isomorphism_over_base,  # noqa: F401 -- perfbench/spans.py wraps it under this module
    pair_name,
    product,
)
from .slices import (
    MapLike,
    MapReduction,
    SliceMap,
    as_slice,
    restrict_over,
    restrict_over_component,  # noqa: F401 -- perfbench/spans.py wraps it under this module
    smallest_dbp_retract_of_map,
)
from .stong import BeatPointReport, beat_points, is_contractible, smallest_dbp_retract


def is_open_map(p: MapLike) -> tuple[bool, Optional[dict]]:
    """Check p(U_e) = U_{p(e)} for every e; witness the first miss.

    Openness is equivalent to every fiber below p(e) meeting U_e, and it
    is enough to ask this of the lower covers b' of p(e): one AND of U_e
    with the preimage of b' per pair.  By induction on U_e: a point
    b < p(e) lies below some lower cover b', U_e holds a point e' over
    b', e' < e, and U_{e'}, inside U_e, already maps onto U_{b'}, which
    holds b.  A failing map is scanned again point by point, so the
    witness names the first e in index order and the lowest base point
    p(U_e) misses.
    """
    s = as_slice(p)
    below, vals = s.total.below, s.map.vals
    lower = s.base._cover_table()[0]
    fib = s.fiber_masks
    if all(below[ei] & fib[b] for ei, v in enumerate(vals) for b in lower[v]):
        return True, None
    for ei, e in enumerate(s.total.elements):
        got = 0
        for j in _bits(below[ei]):
            got |= 1 << vals[j]
        miss = s.base.below[vals[ei]] & ~got
        if miss:
            b = s.base.elements[(miss & -miss).bit_length() - 1]
            return False, {"e": e, "missing": b}
    raise InvariantViolated("the lower-cover test failed but no point misses a base point")


def is_closed_map(p: MapLike) -> tuple[bool, Optional[dict]]:
    """Check p(F_e) = F_{p(e)} for every e; witness the first miss.

    Closed maps are the open maps between the opposite spaces, so this
    is the upper-cover test of ``is_open_map`` on the opposite map.
    """
    return is_open_map(as_slice(p).op())


class ConditionResult(NamedTuple):
    name: str
    passed: bool
    witness: Optional[dict]


class NecessaryReport(NamedTuple):
    """Conditions every Hurewicz fibration must satisfy.

    Evaluated per touched base component and aggregated; a failed
    condition carries the first witness found in component order.
    None of these is sufficient; all of them failing to fail is what
    keeps a verdict honestly unknown.
    """

    conditions: tuple[ConditionResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.conditions if not c.passed)


class _ComponentFacts:
    """One component and the facts several conditions read off it.

    Each fact is computed on first use and then shared, so openness,
    the beat points of E and B and the reduced map's lift report are
    found at most once per component, by the decision or a condition.

    The lift conditions read that report first.  When the reduced map
    p0 is a Grothendieck fibration, p is open and every U_e meets each
    fiber below p(e) in a contractible set; when p0 is an opfibration,
    up_reachability holds.  Only otherwise is E scanned.  Proof:

    (i) A cartesian lift of e over b < p(e) is the maximum of U_e in
    p^-1(b).  So U_e meets that fiber in a contractible set, and
    p(U_e) = U_{p(e)}.
    (ii) A cocartesian lift of e over b > p(e) lies in F_e and over b,
    and e is a point of its own fiber below e.
    (iii) Adding back a map down beat point x, with witness w over
    p(x), changes none of the three verdicts.  p(U_x) = p(U_w).  Any
    set U_e in F_b that holds x also holds w, and in it x is a down
    beat point with witness w.  A closure F_x lies inside F_w, with
    w <= x.  So what p0 passes by (i) and (ii), p passes too.
    """

    def __init__(self, pc: SliceMap):
        self.pc = pc

    @cached_property
    def reduction(self) -> MapReduction:
        return smallest_dbp_retract_of_map(self.pc)

    @cached_property
    def report(self) -> GrothendieckReport:
        return classify_grothendieck(self.reduction.reduced)

    @cached_property
    def open_miss(self) -> Optional[dict]:
        return None if self.report.is_fibration else is_open_map(self.pc)[1]

    @cached_property
    def total_beat_points(self) -> BeatPointReport:
        return beat_points(self.pc.total)

    @cached_property
    def base_beat_points(self) -> BeatPointReport:
        return beat_points(self.pc.base)


def _cond_open_map(f: _ComponentFacts) -> Optional[dict]:
    return f.open_miss


def _cond_down_fiber_nonempty(f: _ComponentFacts) -> Optional[dict]:
    # openness restated fiberwise: U_e must meet every fiber below p(e),
    # and the first fiber it misses is the first base point p(U_e) misses
    w = f.open_miss
    return None if w is None else {"e": w["e"], "b": w["missing"]}


def _cond_down_fiber_contractible(f: _ComponentFacts) -> Optional[dict]:
    """First e and b < p(e) with U_e in F_b empty or not contractible.

    None at once when p0 is a fibration (see ``_ComponentFacts``).  A
    point, or any set with a maximum, is contractible; any other set is
    reduced once, however many e share it.
    """
    if f.report.is_fibration:
        return None
    pc = f.pc
    below, above, fib = pc.total.below, pc.total.above, pc.fiber_masks
    contractible: dict[int, bool] = {}
    for ei, e in enumerate(pc.total.elements):
        pe = pc.map.vals[ei]
        # over p(e) itself the set has the maximum e, so it never fails there
        for bi in _bits(pc.base.below[pe] & ~(1 << pe)):
            m = below[ei] & fib[bi]
            if not m:
                return {"e": e, "b": pc.base.elements[bi], "reason": "empty"}
            if not m & (m - 1) or _extremum(below, above, m) is not None:
                continue
            if m not in contractible:
                contractible[m] = is_contractible(pc.total._sub_mask(m))
            if not contractible[m]:
                return {"e": e, "b": pc.base.elements[bi], "reason": "not_contractible"}
    return None


def _cond_up_reachability(f: _ComponentFacts) -> Optional[dict]:
    if f.report.is_opfibration:
        return None
    pc = f.pc
    below, above, vals, fib = pc.total.below, pc.total.above, pc.map.vals, pc.fiber_masks
    # every fiber above p(e) must meet the closure of some e' <= e in the
    # fiber of p(e); those closures together are the closures of the
    # minimal points of that fiber below e
    lows = [0] * pc.base.n  # lows[b]: the minimal points of the fiber over b
    for j, v in enumerate(vals):
        if below[j] & fib[v] == 1 << j:
            lows[v] |= 1 << j
    for ei, e in enumerate(pc.total.elements):
        pe = vals[ei]
        reach = 0
        for j in _bits(below[ei] & lows[pe]):
            reach |= above[j]
        for bi in _bits(pc.base.above[pe] & ~(1 << pe)):
            if not reach & fib[bi]:
                return {"e": e, "b": pc.base.elements[bi]}
    return None


def _reduced_witness(red: MapReduction, rep: GrothendieckReport) -> dict:
    w = (rep.fibration_failure or rep.opfibration_failure).as_dict()
    if red.trace.removed:
        w["removed"] = list(red.trace.removed)
    return w


def _cond_reduced_bifibration(f: _ComponentFacts) -> Optional[dict]:
    return None if f.report.is_bifibration else _reduced_witness(f.reduction, f.report)


def _cond_minimal_e_implies_minimal_b(f: _ComponentFacts) -> Optional[dict]:
    if not f.total_beat_points.is_minimal:
        return None
    bp = f.base_beat_points
    if bp.is_minimal:
        return None
    if bp.down:
        b = min(bp.down, key=f.pc.base.idx)
        return {"base_beat_point": b, "kind": "down"}
    b = min(bp.up, key=f.pc.base.idx)
    return {"base_beat_point": b, "kind": "up"}


def _cond_ed_inside_preimage_bd(f: _ComponentFacts) -> Optional[dict]:
    pc = f.pc
    # a down beat point of the map is one of E, and the smallest retract
    # E_d is reachable from every subspace on the way to it, so reducing
    # the map's reduced total space gives E_d itself, in E's index order
    ed = smallest_dbp_retract(f.reduction.reduced.total).result
    bd = smallest_dbp_retract(pc.base).result
    pre = pc.preimage(pc.base.mask(bd.elements))
    # ed keeps the index order of E, so its first stray has the lowest index
    stray = pc.total.mask(ed.elements) & ~pre
    # no stray: p^-1(B_d) reduces to E_d, as any P between E_d and E does.  The
    # retraction r: E -> E_d is <= id and fixes E_d, so each y < x in P, for x
    # minimal in P - E_d, has y = r(y) <= r(x) < x: r(x) witnesses x in P
    return {"stray": pc.total.elements[(stray & -stray).bit_length() - 1]} if stray else None


def _cond_beat_point_dichotomy(f: _ComponentFacts) -> Optional[dict]:
    pc, bp_e, bp_b = f.pc, f.total_beat_points, f.base_beat_points
    # a beat point of E is one of the map when its witness shares its fiber;
    # the up beat points count only when the map has no down beat point
    for kind, found, base_found in (("down", bp_e.down, bp_b.down), ("up", bp_e.up, bp_b.up)):
        map_has_one = False
        for e0, w in found.items():
            if pc.map(w) == pc.map(e0):
                map_has_one = True
            elif pc.map(e0) not in base_found:
                return {"e": e0, "kind": kind}
        if map_has_one:
            break
    return None


_CONDITION_FUNCS = {
    "open_map": _cond_open_map,
    "down_fiber_nonempty": _cond_down_fiber_nonempty,
    "down_fiber_contractible": _cond_down_fiber_contractible,
    "up_reachability": _cond_up_reachability,
    "reduced_bifibration": _cond_reduced_bifibration,
    "minimalE_implies_minimalB": _cond_minimal_e_implies_minimal_b,
    "Ed_inside_preimage_Bd": _cond_ed_inside_preimage_bd,
    "beat_point_dichotomy": _cond_beat_point_dichotomy,
}
CONDITION_NAMES = tuple(_CONDITION_FUNCS)


def necessary_conditions(p: MapLike) -> NecessaryReport:
    """Evaluate every necessary condition on every touched component.

    Results aggregate over components: a condition passes when it
    passes everywhere, and otherwise carries the first witness, tagged
    with its component.
    """
    s = as_slice(p)
    if s.is_empty:
        raise EmptyDomain("necessary conditions need a nonempty total space")
    return _evaluate_conditions([_ComponentFacts(restrict_over(s, c)) for c in s.touched_components()])


def _evaluate_conditions(facts: Sequence[_ComponentFacts]) -> NecessaryReport:
    """Run every condition over the components' facts."""
    results = []
    for name, func in _CONDITION_FUNCS.items():
        witness = None
        for f in facts:
            w = func(f)
            if w is not None:
                witness = dict(w)
                witness["component"] = list(f.pc.base.elements)
                break
        results.append(ConditionResult(name, witness is None, witness))
    return NecessaryReport(tuple(results))


class RetractCertificate(NamedTuple):
    """Presentation of a map as a retract of a product projection.

    The map p: E -> B is a retract of pi_X: X x Y -> X through
    i: E -> X x Y, r: X x Y -> E, j: B -> X, s: X -> B satisfying
    r i = Id_E, s j = Id_B, pi_X i = j p and p r = s pi_X.  Retracts
    of fibrations are fibrations and projections are fibrations, so a
    verified certificate proves the Hurewicz property.
    """

    x: Poset
    y: Poset
    i: MonotoneMap
    r: MonotoneMap
    j: MonotoneMap
    s: MonotoneMap


def _retract_fault(sl: SliceMap, cert: RetractCertificate, to_x: MonotoneMap) -> Optional[str]:
    """The first map of a well-shaped certificate that is not monotone, or its first failing identity."""
    for name, f in (("i", cert.i), ("r", cert.r), ("j", cert.j), ("s", cert.s)):
        if f._disorder() is not None:
            return f"{name} is not monotone"
    if cert.i.then(cert.r) != MonotoneMap.identity(sl.total):
        return "r i = Id_E fails"
    if cert.j.then(cert.s) != MonotoneMap.identity(sl.base):
        return "s j = Id_B fails"
    if cert.i.then(to_x) != sl.map.then(cert.j):
        return "pi_X i = j p fails"
    if cert.r.then(sl.map) != to_x.then(cert.s):
        return "p r = s pi_X fails"
    return None


def projection_retract_height1(rep: GrothendieckReport) -> RetractCertificate:
    """Constructive retract certificate over a height <= 1 base with maximum.

    ``rep`` is the ``classify_grothendieck`` report of the map p0; its
    transport tables give every lift.  With X = B and Y = E, the section
    is i(e) = (p(e), e), and r(p(e), e) = e.  Elsewhere the retraction
    first pushes (b, e) up into the fiber of the maximum (cocartesian
    transport), then back down into the fiber of b (cartesian
    transport).  Height 1 makes that composite monotone; preconditions
    are checked up front, and the result is checked on the B x E it was
    built on, monotonicity and every claimed identity included; a fault
    there is InvariantViolated.
    """
    s = rep.slice_map
    if s.is_empty:
        raise PreconditionViolated("certificate construction needs a nonempty total space")
    b0 = s.base.maximum()
    if b0 is None:
        raise PreconditionViolated("base has no maximum element")
    if s.base.height() > 1:
        raise PreconditionViolated("base height exceeds 1")
    if not rep.is_bifibration:
        raise PreconditionViolated("map is not a Grothendieck bifibration")

    cart, cocart = rep.cartesian, rep.cocartesian
    total, vals, b0i = s.total, s.map.vals, s.base.idx(b0)
    prod, to_x, _ = product(s.base, total)
    # product elements are base-major: index (b, e) -> b * |E| + e
    i = MonotoneMap(total, prod, tuple(v * total.n + ei for ei, v in enumerate(vals)))
    r_vals = [
        ei if v == bi else cart[cocart[ei][b0i]][bi]
        for bi in range(s.base.n) for ei, v in enumerate(vals)
    ]
    ident = MonotoneMap.identity(s.base)
    cert = RetractCertificate(s.base, total, i, MonotoneMap(prod, total, r_vals), ident, ident)
    fault = _retract_fault(s, cert, to_x)
    if fault is not None:
        raise InvariantViolated(f"constructed retract certificate fails: {fault}")
    return cert


def is_trivial_over_base(rep: GrothendieckReport) -> Optional["Certificate"]:
    """Isomorphism over the connected base B with the projection B x F -> B, if one exists.

    F is the fiber over the first base element b0.  Over a connected
    base, p is isomorphic to B x F over B exactly when it is a
    Grothendieck fibration whose transports are isomorphisms and whose
    holonomy is trivial.  The transports are isomorphisms when the base
    holds no ``_defects``.  Then F is carried along a spanning tree of
    B's Hasse diagram, phi_u alpha_{u<=w} = phi_w on each tree cover
    u < w, and every other cover must agree with it.  (<=) x -> (p(x),
    phi_{p(x)}(x)) is an isomorphism, by the argument of
    ``is_fiber_bundle`` with phi in place of alpha^-1.  (=>) The
    transports of B x F are identities, so conjugated by an isomorphism
    h they are h_u^-1 h_w, and phi_v = h_b0^-1 h_v agrees on every
    cover.

    ``rep`` is the ``classify_grothendieck`` report of p, whose
    cartesian table gives every transport; a base that is not connected
    is PreconditionViolated, and a map that is no Grothendieck fibration
    gets None.  The result is a trivial_over_base certificate about p
    itself: its ``point`` is b0 and its ``iso`` the isomorphism.
    """
    s = rep.slice_map
    total, base, masks = s.total, s.base, s.fiber_masks
    if len(base.components()) != 1:
        raise PreconditionViolated("base is not connected")
    if not rep.is_fibration:
        return None
    transports = rep.cartesian
    if _defects(s, transports):
        return None
    lower, upper, covers = base._cover_table()
    # phi[v] maps each point over v to its point of F
    phi: list[Optional[dict[int, int]]] = [None] * base.n
    phi[0] = {x: x for x in _bits(masks[0])}
    todo = [0]
    while todo:
        w = todo.pop()
        for u in lower[w]:
            if phi[u] is None:
                phi[u] = {transports[x][u]: y for x, y in phi[w].items()}
                todo.append(u)
        for v in upper[w]:
            if phi[v] is None:
                phi[v] = {x: phi[w][transports[x][w]] for x in _bits(masks[v])}
                todo.append(v)
    # trivial holonomy: every cover, tree or not, commutes with phi
    for u, w in covers:
        phi_u = phi[u]
        if any(phi_u[transports[x][u]] != y for x, y in phi[w].items()):
            return None
    iso = {
        total.elements[x]: pair_name(base.elements[v], total.elements[phi[v][x]])
        for x, v in enumerate(s.map.vals)
    }
    return Certificate("trivial_over_base", base.elements[0], iso=iso)


class Certificate(NamedTuple):
    """A machine-checkable reason a verdict is Fibration.

    ``point`` is the base minimum (minimum_base_bifibration), the base
    maximum (height1_max_retract) or the base point whose fiber is F
    (trivial_over_base); ``reduction`` is the down-beat-point reduction
    p0 the certificate speaks about (None when it speaks about the map
    itself, as from ``is_trivial_over_base``), ``iso`` the isomorphism
    of p0 with B x F over B, and ``retract`` presents p0 as a retract
    of the projection B x E -> B.  A field the kind does not use is
    None.
    """

    kind: str  # minimum_base_bifibration | height1_max_retract | trivial_over_base
    point: str
    reduction: Optional[MapReduction] = None
    iso: Optional[dict] = None
    retract: Optional[RetractCertificate] = None


class ComponentVerdict(NamedTuple):
    component: tuple[str, ...]
    status: str  # fibration | not_fibration | unknown
    certificate: Optional[Certificate] = None
    witness: Optional[dict] = None
    necessary: Optional[NecessaryReport] = None


class Verdict(NamedTuple):
    """Outcome of the Hurewicz decision.

    Overall status is not_fibration if any component fails, else
    unknown if any component is undecided, else fibration.  The
    top-level certificate is the single component's certificate when
    there is exactly one analyzed component; multi-component
    fibrations carry their certificates per component.
    """

    status: str
    components: tuple[ComponentVerdict, ...]
    skipped_components: tuple[tuple[str, ...], ...]
    certificate: Optional[Certificate] = None
    witness: Optional[dict] = None

    @property
    def exit_code(self) -> int:
        return {"fibration": 0, "not_fibration": 1, "unknown": 2}[self.status]


def _decide_component(facts: _ComponentFacts) -> ComponentVerdict:
    pc = facts.pc
    comp = pc.base.elements
    missing = pc.missed()
    if missing:
        return ComponentVerdict(
            comp,
            "not_fibration",
            witness={
                "condition": "surjective_over_component",
                "missing": missing[0],
                "component": list(comp),
            },
        )
    red, rep = facts.reduction, facts.report
    if not rep.is_bifibration:
        w = _reduced_witness(red, rep)
        w["condition"] = "reduced_bifibration"
        w["component"] = list(comp)
        return ComponentVerdict(comp, "not_fibration", witness=w)
    bottom = pc.base.minimum()
    if bottom is not None:
        cert = Certificate("minimum_base_bifibration", bottom, red)
        return ComponentVerdict(comp, "fibration", certificate=cert)
    top = pc.base.maximum()
    if top is not None and pc.base.height() <= 1:
        cert = Certificate("height1_max_retract", top, red, retract=projection_retract_height1(rep))
        return ComponentVerdict(comp, "fibration", certificate=cert)
    triv = is_trivial_over_base(rep)
    if triv is not None:
        return ComponentVerdict(comp, "fibration", certificate=triv._replace(reduction=red))
    report = _evaluate_conditions([facts])
    witness = {"condition": "undecided", "component": list(comp)}
    return ComponentVerdict(comp, "unknown", witness=witness, necessary=report)


def decide_hurewicz(p: MapLike) -> Verdict:
    """Three-valued Hurewicz decision with certificates and witnesses.

    Components of the base with empty preimage are skipped (nothing to
    lift into them).  The first failing component gives the witness of
    not_fibration, else the first undecided one that of unknown.
    """
    s = as_slice(p)
    if s.is_empty:
        raise EmptyDomain("the empty map is not analyzed; every lift is vacuous")
    # a component is skipped when every point of it is missed
    components, missed = s.base.components(), set(s.missed())
    touched = tuple(c for c in components if not missed.issuperset(c))
    skipped = tuple(c for c in components if missed.issuperset(c))
    parts = tuple(_decide_component(_ComponentFacts(restrict_over(s, c))) for c in touched)
    if any(c.status == "not_fibration" for c in parts):
        first = next(c for c in parts if c.status == "not_fibration")
        return Verdict("not_fibration", parts, skipped, witness=first.witness)
    if any(c.status == "unknown" for c in parts):
        first = next(c for c in parts if c.status == "unknown")
        return Verdict("unknown", parts, skipped, witness=first.witness)
    top = parts[0].certificate if len(parts) == 1 else None
    return Verdict("fibration", parts, skipped, certificate=top)
