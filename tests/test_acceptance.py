"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"criterion N: PASS" / "criterion N: FAIL" line (visible with -s).
Every instance stays at or below 30 elements and the whole file is
meant to finish well inside a minute.
"""

import itertools

from finfib.gallery import ENTRIES, gallery_map
from finfib.grothendieck import (
    classify_grothendieck,
    grothendieck_construction,
    is_fiber_bundle,
    reconstruct_over_base,
)
from finfib.posets import MonotoneMap, find_isomorphism, find_isomorphism_over_base
from finfib.slices import as_slice, map_beat_points, map_core, smallest_dbp_retract_of_map
from finfib.stong import (
    core,
    f_infinity,
    homotopy_equivalent,
    is_contractible,
    smallest_dbp_retract,
)
from finfib.verdict import (
    decide_hurewicz,
    is_closed_map,
    is_open_map,
    necessary_conditions,
)
from helpers import (
    GuardExceeded,
    all_dbp_retracts,
    endomaps_below_identity,
    homotopy_classes,
    is_dbp_retract,
    map_le,
    minimal_fiber_pool,
    rand_bundle,
    rand_fibration,
    rand_functor,
    rand_monotone,
    rand_poset,
    rescan_map_reduce,
    rescan_reduce,
    search_retract_certificate,
    seeded,
    shuffling_picker,
    trace_idempotent,
)
from test_grothendieck import assert_lifts_match_brute_force, collect_bifibrations


def report(n):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {n}: FAIL")
                raise
            print(f"criterion {n}: PASS")

        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run

    return wrap


@report(1)
def test_criterion_1_p1_verdict_and_openness():
    """p1 is a fibration via the minimum-base certificate, open, not closed; its opposite fails."""
    p1 = gallery_map("p1")
    v = decide_hurewicz(p1)
    assert v.status == "fibration"
    assert [c.certificate.kind for c in v.components] == ["minimum_base_bifibration"]
    assert is_open_map(p1)[0]
    assert not is_closed_map(p1)[0]
    p1op = gallery_map("p1op")
    assert decide_hurewicz(p1op).status == "not_fibration"
    assert "open_map" in necessary_conditions(p1op).failing()


@report(2)
def test_criterion_2_p2_witness():
    """p2 is refuted by the missing cocartesian lift at ((a,2), b)."""
    p2 = gallery_map("p2")
    v = decide_hurewicz(p2)
    assert v.status == "not_fibration"
    w = v.witness
    assert (w["side"], w["e"], w["b"]) == ("cocartesian", "(a,2)", "b")
    assert map_beat_points(p2).down == {}


@report(3)
def test_criterion_3_p3_stays_unknown():
    """p3 is a bifibration passing every necessary condition, yet undecided."""
    p3 = gallery_map("p3")
    assert classify_grothendieck(p3).is_bifibration
    assert necessary_conditions(p3).all_pass
    assert decide_hurewicz(p3).status == "unknown"
    assert search_retract_certificate(p3, max_y=3) is None
    s = as_slice(p3)
    shared = set(s.total.down_set("(c,0)")) & set(s.total.down_set("(d,0)"))
    assert not shared & set(s.fiber("a").elements)


@report(4)
def test_criterion_4_sierpinski_projection_fiber_retracts():
    """The projection over the two point space is a fibration although one-sided fiber retracts disagree."""
    pi = gallery_map("pi_sierpinski")
    assert classify_grothendieck(pi).is_bifibration
    assert decide_hurewicz(pi).status == "fibration"
    s = as_slice(pi)
    f0, f1 = s.fiber("0"), s.fiber("1")
    v_shape = smallest_dbp_retract(f0.op()).result.op()
    wedge = smallest_dbp_retract(f1).result
    assert v_shape.n == wedge.n == 3
    assert all(
        find_isomorphism(v_shape, f1.sub(keep)) is None for keep in all_dbp_retracts(f1)
    )
    assert all(
        find_isomorphism(wedge, f0.sub(keep)) is None for keep in all_dbp_retracts(f0.op())
    )


@report(5)
def test_criterion_5_minimal_bifibration_is_not_a_bundle():
    """p5: minimal bifibration, contractible fibers all fiberwise equivalent, still not a bundle."""
    p5 = gallery_map("p5_minimal_bifib")
    assert classify_grothendieck(p5).is_bifibration
    assert map_beat_points(p5).is_minimal
    assert is_fiber_bundle(p5).status == "not_bundle"
    s = as_slice(p5)
    fibers = [s.fiber(b) for b in s.base.elements]
    assert len(fibers) == 4
    assert all(is_contractible(f) for f in fibers)
    for x, y in itertools.combinations(fibers, 2):
        ok, _ = homotopy_equivalent(x, y)
        assert ok


@report(6)
def test_criterion_6_transport_identities_on_200_bifibrations():
    """Both transport adjunction laws, functoriality, and reconstruction on 200 bifibrations."""
    rng = seeded(2025)
    for _, proj, rep in collect_bifibrations(rng, 200):
        s = as_slice(proj)
        for lo in s.base.elements:
            assert rep.alpha.fibers[lo] == s.fiber(lo)
            assert rep.beta.fibers[lo] == s.fiber(lo)
            for hi in s.base.elements:
                if not s.base.lt(lo, hi):
                    continue
                al = rep.alpha.transitions[(lo, hi)]
                be = rep.beta.transitions[(lo, hi)]
                assert map_le(MonotoneMap.identity(s.fiber(lo)), be.then(al))
                assert map_le(al.then(be), MonotoneMap.identity(s.fiber(hi)))
                assert be.then(al).then(be) == be
                assert al.then(be).then(al) == al
                for mid in s.base.elements:
                    if s.base.lt(lo, mid) and s.base.lt(mid, hi):
                        assert rep.alpha.transitions[(mid, hi)].then(
                            rep.alpha.transitions[(lo, mid)]
                        ) == al
                        assert rep.beta.transitions[(lo, mid)].then(
                            rep.beta.transitions[(mid, hi)]
                        ) == be
        integ, phi = reconstruct_over_base(proj)
        assert phi.is_iso()
        assert phi.then(s.map) == integ.map


@report(7)
def test_criterion_7_reduction_is_order_invariant():
    """Shuffled removal orders agree on 200 random maps, ten orders each."""
    rng = seeded(2026)
    for _ in range(200):
        dom = rand_poset(rng, rng.randint(1, 6))
        cod = rand_poset(rng, rng.randint(1, 4), prefix="b")
        m = rand_monotone(rng, dom, cod)
        kept = set(smallest_dbp_retract_of_map(m).reduced.total.elements)
        reference = map_core(m).reduced
        for _ in range(10):
            picker = shuffling_picker(rng)
            again = rescan_map_reduce(m, ("down",), picker)
            assert set(again.total.elements) == kept
            shuffled_core = rescan_map_reduce(m, ("down", "up"), picker)
            assert find_isomorphism_over_base(shuffled_core.map, reference.map) is not None


@report(8)
def test_criterion_8_stong_reduction_laws():
    """Core uniqueness, minimal-space rigidity, stabilized iterates, the least descending idempotent."""
    rng = seeded(2027)
    rigidity_checked = 0
    for _ in range(100):
        p = rand_poset(rng, rng.randint(1, 8))
        base_core = core(p).result
        for _ in range(4):
            assert find_isomorphism(rescan_reduce(p, ("down", "up"), shuffling_picker(rng)).result, base_core)

        down_free = smallest_dbp_retract(p).result
        assert [f.values for f in endomaps_below_identity(down_free)] == [
            MonotoneMap.identity(down_free).values
        ]
        # up beat points and maps above the identity: their down duals on p.op()
        up_free = smallest_dbp_retract(p.op()).result
        assert [f.values for f in endomaps_below_identity(up_free)] == [
            MonotoneMap.identity(up_free).values
        ]
        try:
            classes = homotopy_classes(base_core, base_core, guard=10_000)
        except GuardExceeded:
            classes = None
        if classes is not None:
            ident = MonotoneMap.identity(base_core)
            (the_class,) = [c for c in classes if ident in c]
            assert the_class == [ident]
            rigidity_checked += 1

        for f in itertools.islice(endomaps_below_identity(p), 12):
            stable = f_infinity(f)
            assert stable.then(stable) == stable

        if p.n <= 6:
            least = trace_idempotent(smallest_dbp_retract(p))
            assert all(map_le(least, f) for f in endomaps_below_identity(p))
    assert rigidity_checked >= 90


@report(9)
def test_criterion_9_decisive_instances():
    """Generated fibrations are accepted; reduction and bundle theorems hold on random instances."""
    rng = seeded(2028)
    for _ in range(100):
        m = rand_fibration(rng)
        assert decide_hurewicz(m).status == "fibration"
        assert necessary_conditions(m).all_pass
        s = as_slice(m)
        e_d = smallest_dbp_retract(s.total).result
        b_d = smallest_dbp_retract(s.base).result
        basin = set(b_d.elements)
        preimage = [e for e in s.total.elements if s.map(e) in basin]
        assert set(e_d.elements) <= set(preimage)
        assert is_dbp_retract(s.total.sub(preimage), e_d.elements) is not None

    pool = minimal_fiber_pool()
    accepted = 0
    while accepted < 25:
        d = rand_functor(rng, fiber_pool=pool)
        proj = grothendieck_construction(d)
        if not classify_grothendieck(proj).is_bifibration:
            continue
        assert is_fiber_bundle(proj).status == "bundle"
        accepted += 1

    for _ in range(50):
        d, proj = rand_bundle(rng)
        reduced = map_core(proj).reduced
        assert is_fiber_bundle(reduced).status == "bundle"
        fiber_core = core(d.fibers[d.base.elements[0]]).result
        rs = as_slice(reduced)
        for b in rs.base.elements:
            assert find_isomorphism(rs.fiber(b), fiber_core) is not None


@report(10)
def test_criterion_10_lift_oracle_equivalence():
    """Closed-form lifts equal the brute-force extrema on gallery and random maps."""
    for entry in ENTRIES:
        if entry.kind == "map":
            assert_lifts_match_brute_force(entry.build())
    rng = seeded(2029)
    for _ in range(40):
        dom = rand_poset(rng, rng.randint(1, 6))
        cod = rand_poset(rng, rng.randint(1, 4), prefix="b")
        assert_lifts_match_brute_force(rand_monotone(rng, dom, cod))
