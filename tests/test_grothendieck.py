"""Lifts, transport functors, the construction, and bundle detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfib import grothendieck, verdict
from finfib.errors import FunctorialityViolated, NotGrothendieckOpfibration
from finfib.gallery import gallery_map
from finfib.grothendieck import (
    PosetFunctor,
    classify_grothendieck,
    grothendieck_construction,
    is_fiber_bundle,
    reconstruct_over_base,
)
from finfib.posets import MonotoneMap, Poset, pair_name, product
from finfib.slices import as_slice
from helpers import (
    brute_lift,
    hand_built_grothendieck_construction,
    map_le,
    rand_bundle,
    rand_functor,
    rand_monotone,
    rand_poset,
    seeded,
)


def all_gallery_maps():
    return [gallery_map(i) for i in ("p1", "p1op", "p2", "p3", "pi_sierpinski", "p5_minimal_bifib")]


def assert_lifts_match_brute_force(m):
    # the report's transport tables are the lifts every caller reads
    s = as_slice(m)
    rep = classify_grothendieck(s)
    for ei, e in enumerate(s.total.elements):
        for bi, b in enumerate(s.base.elements):
            if s.base.le(b, s.map(e)):
                want, _ = brute_lift(s, e, b, "cartesian")
                assert lift_name(s, rep.cartesian, ei, bi) == want
            if s.base.le(s.map(e), b):
                want, _ = brute_lift(s, e, b, "cocartesian")
                assert lift_name(s, rep.cocartesian, ei, bi) == want


def lift_name(s, table, ei, bi):
    """The table's lift of element ei over base point bi, by name, or None."""
    got = table.get((ei, bi))
    return None if got is None else s.total.elements[got]


def test_lifts_agree_with_brute_force_on_gallery_maps():
    for m in all_gallery_maps():
        assert_lifts_match_brute_force(m)


def test_lifts_agree_with_brute_force_on_random_maps():
    rng = seeded(97)
    for _ in range(40):
        dom = rand_poset(rng, rng.randint(1, 7), prefix="e")
        cod = rand_poset(rng, rng.randint(1, 4), prefix="b")
        assert_lifts_match_brute_force(rand_monotone(rng, dom, cod))


def test_trivial_lift_is_the_element_itself():
    p3 = gallery_map("p3")
    rep = classify_grothendieck(p3)
    for ei, bi in enumerate(p3.vals):
        assert rep.cartesian[(ei, bi)] == ei
        assert rep.cocartesian[(ei, bi)] == ei


def test_classification_of_gallery_maps():
    rep = classify_grothendieck(gallery_map("p1"))
    assert rep.is_fibration and not rep.is_opfibration
    assert rep.opfibration_failure.side == "cocartesian"
    rep = classify_grothendieck(gallery_map("p1op"))
    assert not rep.is_fibration and rep.is_opfibration
    fail = rep.fibration_failure
    assert (fail.e, fail.b, fail.reason) == ("(a,1)", "b", "no_maximum")
    rep = classify_grothendieck(gallery_map("p2"))
    assert rep.is_fibration and not rep.is_opfibration
    fail = rep.opfibration_failure
    assert (fail.e, fail.b, fail.reason) == ("(a,2)", "b", "no_minimum")
    assert classify_grothendieck(gallery_map("p3")).is_bifibration
    assert classify_grothendieck(gallery_map("p5_minimal_bifib")).is_bifibration


def test_reported_failure_is_the_first_in_index_order():
    rng = seeded(101)
    checked = 0
    for _ in range(60):
        dom = rand_poset(rng, rng.randint(1, 6), prefix="e")
        cod = rand_poset(rng, rng.randint(1, 4), prefix="b")
        m = rand_monotone(rng, dom, cod)
        s = as_slice(m)
        rep = classify_grothendieck(s)
        # every failing lift: e-major, cartesian before cocartesian, base-index-minor
        brute = []
        for e in s.total.elements:
            for side in ("cartesian", "cocartesian"):
                for b in s.base.elements:
                    related = (
                        s.base.le(b, s.map(e)) if side == "cartesian" else s.base.le(s.map(e), b)
                    )
                    if related:
                        el, why = brute_lift(s, e, b, side)
                        if el is None:
                            brute.append((side, e, b, why))
        got = [
            (f.side, f.e, f.b, "no_extremum" if f.stray is None else "stray")
            for f in rep.failures
        ]
        assert got == brute
        for side, fail in (
            ("cartesian", rep.fibration_failure),
            ("cocartesian", rep.opfibration_failure),
        ):
            first = next(((e, b) for sd, e, b, _ in brute if sd == side), None)
            if fail is None:
                assert first is None
            else:
                checked += 1
                assert (fail.e, fail.b) == first
    assert checked >= 20


def test_transport_functors_require_their_side():
    assert classify_grothendieck(gallery_map("p1op")).alpha is None
    rep = classify_grothendieck(gallery_map("p1"))
    assert rep.beta is None
    f = rep.opfibration_failure
    msg = f"no cocartesian lift of {f.e!r} over {f.b!r} ({f.reason})"
    with pytest.raises(NotGrothendieckOpfibration) as err:
        reconstruct_over_base(gallery_map("p1"))
    assert str(err.value) == msg
    assert err.value.witness == f


def collect_bifibrations(rng, count):
    """Random Grothendieck constructions filtered to bifibrations."""
    out = []
    while len(out) < count:
        d = rand_functor(rng)
        proj = grothendieck_construction(d)
        rep = classify_grothendieck(proj)
        assert rep.is_opfibration  # construction of a covariant functor
        if rep.is_bifibration:
            out.append((d, proj, rep))
    return out


def test_construction_fibers_realize_the_functor():
    rng = seeded(103)
    for _ in range(15):
        d = rand_functor(rng)
        s = grothendieck_construction(d)
        assert s.base == d.base
        for b in d.base.elements:
            fib = s.fiber(b)
            names = {pair_name(b, x): x for x in d.fibers[b].elements}
            assert set(fib.elements) == set(names)
            down = MonotoneMap.build(fib, d.fibers[b], names)
            assert down.is_iso()


def test_construction_cocartesian_transport_is_the_functor():
    rng = seeded(107)
    for _ in range(15):
        d = rand_functor(rng)
        s = grothendieck_construction(d)
        beta = classify_grothendieck(s).beta
        for lo, hi in d.base.covers():
            t = d.transitions[(lo, hi)]
            bt = beta.transitions[(lo, hi)]
            for x in d.fibers[lo].elements:
                assert bt(pair_name(lo, x)) == pair_name(hi, t(x))


def test_transport_identities_on_random_bifibrations():
    """The four adjunction clauses, on sixty random bifibrations."""
    rng = seeded(109)
    for _, proj, rep in collect_bifibrations(rng, 60):
        s = as_slice(proj)
        alpha, beta = rep.alpha, rep.beta
        for lo in s.base.elements:
            for hi in s.base.elements:
                if not s.base.lt(lo, hi):
                    continue
                al = alpha.transitions[(lo, hi)]
                be = beta.transitions[(lo, hi)]
                id_lo = MonotoneMap.identity(s.fiber(lo))
                id_hi = MonotoneMap.identity(s.fiber(hi))
                assert map_le(id_lo, be.then(al))
                assert map_le(al.then(be), id_hi)
                assert be.then(al).then(be) == be
                assert al.then(be).then(al) == al


def test_transports_are_the_pointwise_lifts():
    rng = seeded(113)
    for _, proj, rep in collect_bifibrations(rng, 25):
        s = as_slice(proj)
        for lo in s.base.elements:
            for hi in s.base.elements:
                if not s.base.lt(lo, hi):
                    continue
                al = rep.alpha.transitions[(lo, hi)]
                be = rep.beta.transitions[(lo, hi)]
                for e in s.fiber(hi).elements:
                    assert al(e) == brute_lift(s, e, lo, "cartesian")[0]
                for e in s.fiber(lo).elements:
                    assert be(e) == brute_lift(s, e, hi, "cocartesian")[0]


def test_transport_functoriality_along_chains():
    rng = seeded(127)
    for _, proj, rep in collect_bifibrations(rng, 25):
        s = as_slice(proj)
        for b in s.base.elements:
            assert rep.alpha.fibers[b] == s.fiber(b)
            assert rep.beta.fibers[b] == s.fiber(b)
        for lo in s.base.elements:
            for mid in s.base.elements:
                for hi in s.base.elements:
                    if s.base.lt(lo, mid) and s.base.lt(mid, hi):
                        assert rep.alpha.transitions[(mid, hi)].then(
                            rep.alpha.transitions[(lo, mid)]
                        ) == rep.alpha.transitions[(lo, hi)]
                        assert rep.beta.transitions[(lo, mid)].then(
                            rep.beta.transitions[(mid, hi)]
                        ) == rep.beta.transitions[(lo, hi)]


def test_integrating_beta_recovers_the_map():
    rng = seeded(131)
    for _, proj, _ in collect_bifibrations(rng, 40):
        integ, phi = reconstruct_over_base(proj)
        assert phi.is_iso()
        assert phi.then(as_slice(proj).map) == integ.map
    # and also for plain opfibrations, where only the beta side exists
    for _ in range(10):
        d = rand_functor(rng)
        reconstruct_over_base(grothendieck_construction(d))


def flipped(d):
    """A covariant d read as the contravariant functor it is over the opposite base."""
    transitions = {(hi, lo): t for (lo, hi), t in d.transitions.items()}
    return PosetFunctor(d.base.op(), "contravariant", d.fibers, transitions)


def assert_same_construction(got, want):
    assert got.total.elements == want.total.elements
    assert got.total.below == want.total.below
    assert got.total.above == want.total.above
    assert got.base == want.base
    assert got.map.vals == want.map.vals


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_construction_matches_the_hand_built_rows(seed):
    # both variances: a random covariant functor, the same data read
    # contravariantly over the opposite base, and the cartesian
    # transport of the construction when it is a fibration
    d = rand_functor(seeded(seed))
    proj = grothendieck_construction(d)
    assert_same_construction(proj, hand_built_grothendieck_construction(d))
    assert_same_construction(
        grothendieck_construction(flipped(d)), hand_built_grothendieck_construction(flipped(d))
    )
    alpha = classify_grothendieck(proj).alpha
    if alpha is not None:
        assert_same_construction(
            grothendieck_construction(alpha), hand_built_grothendieck_construction(alpha)
        )


def test_integrating_alpha_rebuilds_the_opposite_map():
    # the construction's docstring: integrating the cartesian functor of
    # a fibration p rebuilds p.op() over B^op via (b, x) -> x
    rng = seeded(149)
    fibrations = [m for m in all_gallery_maps() if classify_grothendieck(m).is_fibration]
    while len(fibrations) < 43:
        proj = grothendieck_construction(rand_functor(rng))
        if classify_grothendieck(proj).is_fibration:
            fibrations.append(proj)
    for p in fibrations:
        s = as_slice(p)
        integ = grothendieck_construction(classify_grothendieck(s).alpha)
        assert integ.base == s.base.op()
        phi = MonotoneMap.build(
            integ.total,
            s.total.op(),
            {pair_name(b, x): x for b in s.base.elements for x in s.fiber(b).elements},
        )
        assert phi.is_iso()
        assert phi.then(s.map.op()) == integ.map


def test_functor_build_composes_covers():
    base = Poset.chain(["u", "v", "w"])
    fib = Poset.chain(["0", "1"])
    flip = {"0": "0", "1": "1"}
    step = MonotoneMap.build(fib, fib, flip)
    d = PosetFunctor(
        base,
        "covariant",
        {b: fib for b in base.elements},
        {("u", "v"): step, ("v", "w"): step},
    )
    assert d.transitions[("u", "w")] == step.then(step)
    with pytest.raises(FunctorialityViolated):
        PosetFunctor(base, "covariant", {b: fib for b in base.elements}, {("u", "v"): step})
    # contravariant: fiber(w) -> fiber(v) -> fiber(u), composed in that order
    chain = Poset.chain(["0", "1", "2"])
    t_uv = MonotoneMap.build(chain, chain, {"0": "0", "1": "0", "2": "1"})
    t_vw = MonotoneMap.build(chain, chain, {"0": "1", "1": "2", "2": "2"})
    d = PosetFunctor(
        base,
        "contravariant",
        {b: chain for b in base.elements},
        {("u", "v"): t_uv, ("v", "w"): t_vw},
    )
    assert d.transitions[("u", "w")] == t_vw.then(t_uv)
    assert d.transitions[("u", "w")] != t_uv.then(t_vw)


def test_functor_build_rejects_path_dependence():
    diamond = Poset.build(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )
    fib = Poset.build(["0", "1"], [])
    ident = MonotoneMap.identity(fib)
    swap = MonotoneMap.build(fib, fib, {"0": "1", "1": "0"})
    # (bot, top) is composed through the lowest-indexed middle, l, so
    # the other middle is the one that disagrees
    with pytest.raises(FunctorialityViolated, match="along 'bot' <= 'r' <= 'top'"):
        PosetFunctor(
            diamond,
            "covariant",
            {b: fib for b in diamond.elements},
            {
                ("bot", "l"): ident,
                ("bot", "r"): ident,
                ("l", "top"): ident,
                ("r", "top"): swap,
            },
        )


def test_bundle_status_of_gallery_maps():
    expect = {
        "p1": ("not_bundle", "b"),
        "p1op": ("not_bundle", "a"),
        "p2": ("not_bundle", "b"),
        "p3": ("not_bundle", "c"),
        "pi_sierpinski": ("bundle", None),
        "p5_minimal_bifib": ("not_bundle", "c"),
    }
    for pid, (status, failed_at) in expect.items():
        rep = is_fiber_bundle(gallery_map(pid))
        assert rep.status == status
        assert rep.failed_at == failed_at


def test_bundle_trivializations_recheck():
    pi = gallery_map("pi_sierpinski")
    s = as_slice(pi)
    rep = is_fiber_bundle(pi)
    assert rep.status == "bundle"
    from finfib.slices import restrict_over

    for b, iso in rep.trivializations.items():
        rest = restrict_over(s, s.base.down_set(b))
        prod, to_base, _ = product(rest.base, s.fiber(b))
        phi = MonotoneMap.build(rest.total, prod, iso)
        assert phi.is_iso()
        assert phi.then(to_base) == rest.map


def test_automorphism_constructions_are_bundles():
    rng = seeded(137)
    for _ in range(20):
        d, proj = rand_bundle(rng)
        beta = classify_grothendieck(proj).beta
        assert all(t.is_iso() for t in beta.transitions.values())
        assert is_fiber_bundle(proj).status == "bundle"


def test_bundle_budget_runs_out_gracefully():
    rep = is_fiber_bundle(gallery_map("pi_sierpinski"), budget=0)
    assert rep.status == "undecided"
    assert rep.undecided_at == "0"
    assert rep.failed_at is None


def count_lift_scans(monkeypatch):
    """Record the side of every ``_scan_lifts`` call, through both bindings."""
    sides = []
    scan = grothendieck._scan_lifts

    def counted(s, side):
        sides.append(side)
        return scan(s, side)

    monkeypatch.setattr(grothendieck, "_scan_lifts", counted)
    monkeypatch.setattr(verdict, "_scan_lifts", counted)
    return sides


def test_one_lift_table_per_side_serves_every_caller(monkeypatch):
    vee = Poset.build(["a", "b", "c"], [("a", "c"), ("b", "c")])
    _, p, _ = product(vee, Poset.chain(["0", "1"]))
    sides = count_lift_scans(monkeypatch)
    v = verdict.decide_hurewicz(p)
    assert v.certificate.kind == "height1_max_retract"
    assert sorted(sides) == ["cartesian", "cocartesian"]
    sides.clear()
    rep = classify_grothendieck(p)
    assert rep.alpha is not None and rep.beta is not None
    assert sorted(sides) == ["cartesian", "cocartesian"]
    reconstruct_over_base(p)
    assert sorted(sides) == ["cartesian", "cartesian", "cocartesian", "cocartesian"]


def test_report_tables_hold_every_lift_the_trivial_ones_included():
    rng = seeded(223)
    for _ in range(30):
        s = as_slice(rand_monotone(rng, rand_poset(rng, 5), rand_poset(rng, 3, prefix="b")))
        rep = classify_grothendieck(s)
        for side, table in (("cartesian", rep.cartesian), ("cocartesian", rep.cocartesian)):
            rows = s.base.below if side == "cartesian" else s.base.above
            want = {}
            for ei, e in enumerate(s.total.elements):
                for bi in range(s.base.n):
                    if rows[s.map.vals[ei]] >> bi & 1:
                        got, _ = brute_lift(s, e, s.base.elements[bi], side)
                        if got is not None:
                            want[(ei, bi)] = s.total.idx(got)
            assert table == want
