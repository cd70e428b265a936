"""Hurewicz fibration verdicts: certificates, witnesses, honest unknowns.

The decision pipeline works per connected component of the base with a
nonempty preimage.  Removing down beat points of the map preserves the
Hurewicz property in both directions, so the map is first reduced to
its smallest such retract p0.  If p0 is not a Grothendieck bifibration
the map is certainly not a fibration (witnessed by a missing lift).
If the component has a minimum, bifibration of p0 is also sufficient;
if it has a maximum and height 1, an explicit retract-of-projection
certificate is constructed; if p0 is isomorphic over the base to a
product projection, that is a certificate too.  Otherwise the verdict
is unknown and a battery of necessary conditions is reported, each
with a concrete witness when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product as iproduct
from typing import Optional, Sequence

from .errors import EmptyDomain, InvariantViolated, PreconditionViolated, SearchBudgetExhausted
from .grothendieck import (
    GrothendieckReport,
    _scan_lifts,  # noqa: F401 -- perfbench/spans.py wraps it under this module
    classify_grothendieck,
)
from .posets import (
    DEFAULT_GUARD,
    MonotoneMap,
    Poset,
    _bits,
    _extremum,
    find_isomorphism_over_base,
    monotone_maps,
    product,
)
from .slices import (
    MapLike,
    MapReduction,
    SliceMap,
    as_slice,
    map_beat_points,
    restrict_over,
    restrict_over_component,  # noqa: F401 -- perfbench/spans.py wraps it under this module
    smallest_dbp_retract_of_map,
)
from .stong import BeatPointReport, beat_points, is_contractible, is_dbp_retract, smallest_dbp_retract


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
    fib = [s._fiber_masks.get(b, 0) for b in range(s.base.n)]
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


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    witness: Optional[dict] = None


@dataclass(frozen=True)
class NecessaryReport:
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
        return is_open_map(self.pc)[1]

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
    pc = f.pc
    for ei, e in enumerate(pc.total.elements):
        pe = pc.map.vals[ei]
        for bi in _bits(pc.base.below[pe]):
            b = pc.base.elements[bi]
            m = pc.total.below[ei] & pc.fiber_mask(b)
            if not m:
                return {"e": e, "b": b, "reason": "empty"}
            # a set with a maximum (e itself over p(e)) is contractible
            cone = _extremum(pc.total.below, pc.total.above, m) is not None
            if not cone and not is_contractible(pc.total._sub_mask(m)):
                return {"e": e, "b": b, "reason": "not_contractible"}
    return None


def _cond_up_reachability(f: _ComponentFacts) -> Optional[dict]:
    pc = f.pc
    # some e' <= e in the fiber of p(e) must have closure meeting
    # every fiber above p(e)
    for ei, e in enumerate(pc.total.elements):
        pe = pc.map.vals[ei]
        lower_same_fiber = pc.total.below[ei] & pc.fiber_mask(pc.base.elements[pe])
        for bi in _bits(pc.base.above[pe] & ~(1 << pe)):
            target = pc.fiber_mask(pc.base.elements[bi])
            if not any(pc.total.above[j] & target for j in _bits(lower_same_fiber)):
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


def _cond_beat_point_dichotomy(f: _ComponentFacts) -> Optional[dict]:
    pc, bp_e, bp_b = f.pc, f.total_beat_points, f.base_beat_points
    mbp = map_beat_points(pc)
    for e0 in sorted(bp_e.down, key=pc.total.idx):
        if pc.map(e0) not in bp_b.down and e0 not in mbp.down:
            return {"e": e0, "kind": "down"}
    if not mbp.down:
        for e0 in sorted(bp_e.up, key=pc.total.idx):
            if pc.map(e0) not in bp_b.up and e0 not in mbp.up:
                return {"e": e0, "kind": "up"}
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


@dataclass(frozen=True)
class RetractCertificate:
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


def verify_retract_certificate(
    p: MapLike, cert: RetractCertificate
) -> tuple[bool, Optional[str]]:
    """Re-check a retract certificate from scratch.

    Returns (True, None) or (False, reason), the reason naming the
    shape constraint or the first violated identity.
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
    if cert.i.then(cert.r) != MonotoneMap.identity(sl.total):
        return False, "r i = Id_E fails"
    if cert.j.then(cert.s) != MonotoneMap.identity(sl.base):
        return False, "s j = Id_B fails"
    if cert.i.then(to_x) != sl.map.then(cert.j):
        return False, "pi_X i = j p fails"
    if cert.r.then(sl.map) != to_x.then(cert.s):
        return False, "p r = s pi_X fails"
    return True, None


def projection_retract_height1(rep: GrothendieckReport) -> RetractCertificate:
    """Constructive retract certificate over a height <= 1 base with maximum.

    ``rep`` is the ``classify_grothendieck`` report of the map p0; its
    transport tables give every lift.  With X = B and Y = E, the section
    is i(e) = (p(e), e), and r(p(e), e) = e.  Elsewhere the retraction
    first pushes (b, e) up into the fiber of the maximum (cocartesian
    transport), then back down into the fiber of b (cartesian
    transport).  Height 1 makes that composite monotone; preconditions
    are checked up front and every claimed identity is validated on the
    result.
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
    total, base, vals = s.total, s.base, s.map.vals
    b0i = base.idx(b0)
    prod, _, _ = product(base, total)
    # product elements are base-major: index (bi, ei) -> bi * total.n + ei
    i = MonotoneMap(total, prod, tuple(vals[ei] * total.n + ei for ei in range(total.n)))
    r_vals = [0] * prod.n
    for k in range(prod.n):
        bi, ei = divmod(k, total.n)
        if vals[ei] == bi:
            r_vals[k] = ei
            continue
        mid = cocart[(ei, b0i)]
        if not total.below[mid] >> ei & 1:
            raise InvariantViolated("cocartesian transport to the maximum is not above its source")
        r_vals[k] = cart[(mid, bi)]
    r = MonotoneMap.build(
        prod, total, {prod.elements[k]: total.elements[r_vals[k]] for k in range(prod.n)}
    )
    # downward transport never leaves the minimal open of its argument
    for ei in range(total.n):
        for bi in _bits(base.below[vals[ei]]):
            if not total.below[ei] >> cart[(ei, bi)] & 1:
                raise InvariantViolated("cartesian transport left the minimal open of its source")
    cert = RetractCertificate(
        base, total, i, r, MonotoneMap.identity(base), MonotoneMap.identity(base)
    )
    ok, reason = verify_retract_certificate(s, cert)
    if not ok:
        raise InvariantViolated(f"constructed retract certificate fails: {reason}")
    return cert


def is_trivial_over_base(p: MapLike, budget: Optional[int] = None) -> Optional["Certificate"]:
    """Isomorphism over B with the projection B x F -> B, if one exists.

    F is the fiber over the first base element; a size mismatch rules
    the isomorphism out without searching.  The result is a
    trivial_over_base certificate about p itself: its ``point`` is that
    base element and its ``iso`` the isomorphism.
    """
    s = as_slice(p)
    if s.base.n == 0:
        return None
    b0 = s.base.elements[0]
    fiber = s.fiber(b0)
    if s.base.n * fiber.n != s.total.n:
        return None
    prod, to_base, _ = product(s.base, fiber)
    iso = find_isomorphism_over_base(s.map, to_base, budget)
    return None if iso is None else Certificate("trivial_over_base", b0, iso=iso)


def _all_labeled_posets(names: tuple[str, ...]):
    """Every partial order on the given labeled elements.

    Each element's up-set runs over the subsets of the others, counted
    in binary with the lowest other index as the top bit, and element 0
    varies slowest: the order of a scan over the relation pairs (i, j),
    i != j, row-major and absent before present.
    """
    n = len(names)
    ups = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        ups.append([
            (1 << i) | sum(1 << j for t, j in enumerate(others) if v >> (n - 2 - t) & 1)
            for v in range(1 << (n - 1))
        ])
    for above in iproduct(*ups):
        # an order: whatever lies strictly above i has its up-set inside
        # i's strict up-set (transitive, and never back down to i)
        strict = [row & ~(1 << i) for i, row in enumerate(above)]
        if any(above[j] & ~strict[i] for i in range(n) for j in _bits(strict[i])):
            continue
        below = [0] * n
        for i, row in enumerate(above):
            for j in _bits(row):
                below[j] |= 1 << i
        yield Poset(names, below, above)


def search_retract_certificate(
    p: MapLike, max_y: int = 3, guard: Optional[int] = DEFAULT_GUARD
) -> Optional[RetractCertificate]:
    """Bounded exhaustive search for a retract certificate with X = B.

    Enumerates every labeled poset Y with at most max_y elements,
    every monotone g: E -> Y making i = (p, g) injective, and every
    fiber-preserving monotone r with r i = Id.  The X side is pinned
    to the base with j = s = Id, the shape every certificate this
    engine emits has; None is an exhausted-search result for that
    shape, not a proof that wilder certificates cannot exist.
    """
    s = as_slice(p)
    for k in range(1, max_y + 1):
        names = tuple(f"y{t}" for t in range(k))
        for y in _all_labeled_posets(names):
            prod, to_x, _ = product(s.base, y)
            for g in monotone_maps(s.total, y, guard):
                i_vals = tuple(s.map.vals[ei] * y.n + g.vals[ei] for ei in range(s.total.n))
                if len(set(i_vals)) < s.total.n:
                    continue
                pins = {prod.elements[v]: s.total.elements[ei] for ei, v in enumerate(i_vals)}
                r = next(monotone_maps(prod, s.total, guard, over=(to_x, s.map), fixed=pins), None)
                if r is None:
                    continue
                i = MonotoneMap(s.total, prod, i_vals)
                cert = RetractCertificate(
                    s.base, y, i, r, MonotoneMap.identity(s.base), MonotoneMap.identity(s.base)
                )
                ok, reason = verify_retract_certificate(s, cert)
                if not ok:
                    raise InvariantViolated(f"found retract certificate fails: {reason}")
                return cert
    return None


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable reason a verdict is Fibration.

    ``point`` is the base minimum (minimum_base_bifibration), the base
    maximum (height1_max_retract) or the base point whose fiber is F
    (trivial_over_base); ``reduction`` is the down-beat-point reduction
    p0 the certificate speaks about (None when it speaks about the map
    itself, as from ``is_trivial_over_base``), ``iso`` the isomorphism
    of p0 with B x F over B, and ``retract`` presents p0 (or, for
    explicit_retract, the map itself) as a retract of a projection.  A
    field the kind does not use is None.
    """

    kind: str  # minimum_base_bifibration | height1_max_retract | trivial_over_base | explicit_retract
    point: Optional[str] = None
    reduction: Optional[MapReduction] = None
    iso: Optional[dict] = None
    retract: Optional[RetractCertificate] = None


@dataclass(frozen=True)
class ComponentVerdict:
    component: tuple[str, ...]
    status: str  # fibration | not_fibration | unknown
    certificate: Optional[Certificate] = None
    witness: Optional[dict] = None
    necessary: Optional[NecessaryReport] = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of the Hurewicz decision.

    Overall status is not_fibration if any component fails, else
    unknown if any component is undecided, else fibration.  The
    top-level certificate is the single component's certificate when
    there is exactly one analyzed component, or the explicit retract
    certificate that upgraded an unknown; multi-component fibrations
    carry their certificates per component.
    """

    status: str
    components: tuple[ComponentVerdict, ...]
    skipped_components: tuple[tuple[str, ...], ...] = ()
    certificate: Optional[Certificate] = None
    witness: Optional[dict] = None

    @property
    def exit_code(self) -> int:
        return {"fibration": 0, "not_fibration": 1, "unknown": 2}[self.status]


def _decide_component(facts: _ComponentFacts, budget: Optional[int]) -> ComponentVerdict:
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
    if pc.base.minimum() is not None:
        cert = Certificate("minimum_base_bifibration", pc.base.minimum(), red)
        return ComponentVerdict(comp, "fibration", certificate=cert)
    if pc.base.maximum() is not None and pc.base.height() <= 1:
        cert = Certificate(
            "height1_max_retract", pc.base.maximum(), red, retract=projection_retract_height1(rep)
        )
        return ComponentVerdict(comp, "fibration", certificate=cert)
    trivial_exhausted = False
    try:
        triv = is_trivial_over_base(red.reduced, budget)
    except SearchBudgetExhausted:
        triv = None
        trivial_exhausted = True
    if triv is not None:
        return ComponentVerdict(comp, "fibration", certificate=replace(triv, reduction=red))
    report = _evaluate_conditions([facts])
    witness = {"condition": "undecided", "component": list(comp)}
    if trivial_exhausted:
        witness["trivial_search"] = "budget_exhausted"
    return ComponentVerdict(comp, "unknown", witness=witness, necessary=report)


def decide_hurewicz(
    p: MapLike,
    *,
    budget: Optional[int] = None,
    certificate: Optional[RetractCertificate] = None,
) -> Verdict:
    """Three-valued Hurewicz decision with certificates and witnesses.

    Components of the base with empty preimage are skipped (nothing to
    lift into them).  A caller-supplied retract certificate is only
    consulted to upgrade an otherwise unknown verdict; it can never
    mask a refutation.
    """
    s = as_slice(p)
    if s.is_empty:
        raise EmptyDomain("the empty map is not analyzed; every lift is vacuous")
    touched = s.touched_components()
    skipped = tuple(c for c in s.base.components() if c not in touched)
    parts = tuple(
        _decide_component(_ComponentFacts(restrict_over(s, c)), budget) for c in touched
    )
    if any(c.status == "not_fibration" for c in parts):
        first = next(c for c in parts if c.status == "not_fibration")
        return Verdict("not_fibration", parts, skipped, witness=first.witness)
    if any(c.status == "unknown" for c in parts):
        if certificate is not None:
            ok, _ = verify_retract_certificate(s, certificate)
            if ok:
                cert = Certificate("explicit_retract", retract=certificate)
                return Verdict("fibration", parts, skipped, certificate=cert)
        first = next(c for c in parts if c.status == "unknown")
        return Verdict("unknown", parts, skipped, witness=first.witness)
    top = parts[0].certificate if len(parts) == 1 else None
    return Verdict("fibration", parts, skipped, certificate=top)
