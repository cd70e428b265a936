"""Lifts, transport functors, the construction, and bundle detection."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfib import grothendieck, verdict
from finfib.cli import main
from finfib.errors import FunctorialityViolated, NotGrothendieckOpfibration, UnknownElement
from finfib.gallery import gallery_entry
from finfib.grothendieck import (
    PosetFunctor,
    classify_grothendieck,
    grothendieck_construction,
    is_fiber_bundle,
    reconstruct_over_base,
)
from finfib.posets import MonotoneMap, Poset, isomorphisms, pair_name, product
from finfib.slices import as_slice
from helpers import (
    assert_trivializes,
    brute_lift,
    chain,
    crown_cover,
    deep_maps,
    hand_built_grothendieck_construction,
    insert_map_down_beat_point,
    linear_extremum,
    map_le,
    maps,
    minimal_fiber_pool,
    pairwise_scan_lifts,
    posets,
    rand_bundle,
    rand_fibration,
    rand_functor,
    rand_monotone,
    rand_poset,
    search_fiber_bundle,
    seeded,
    table_pairs,
    twisted_bundle,
)


def all_gallery_maps():
    return [gallery_entry(i).build() for i in ("p1", "p1op", "p2", "p3", "pi_sierpinski", "p5_minimal_bifib")]


def assert_lifts_match_brute_force(m):
    # the report's rows hold each point's lifts over its image and that
    # image's covers, and on a side that holds, the transport functor
    # composed from them gives the lift over every strictly related pair
    s = as_slice(m)
    rep = classify_grothendieck(s)
    lower, upper, _ = s.base._cover_table()
    for side, table, covers in (("cartesian", rep.cartesian, lower), ("cocartesian", rep.cocartesian, upper)):
        for ei, e in enumerate(s.total.elements):
            v = s.map.vals[ei]
            assert set(table[ei]) <= {v, *covers[v]}
            for bi in (v, *covers[v]):
                want, _ = brute_lift(s, e, s.base.elements[bi], side)
                assert lift_name(s, table, ei, bi) == want
    pairs = sum((row & ~(1 << b)).bit_count() for b, row in enumerate(s.base.below))
    for side, functor in (("cartesian", rep.alpha), ("cocartesian", rep.beta)):
        if functor is None:
            continue
        assert len(functor.transitions) == pairs
        for (lo, hi), t in functor.transitions.items():
            src, dst = (hi, lo) if side == "cartesian" else (lo, hi)
            for e in s.fiber(src).elements:
                assert t(e) == brute_lift(s, e, dst, side)[0]


def lift_name(s, table, ei, bi):
    """The table's lift of element ei over base point bi, by name, or None."""
    got = table[ei].get(bi)
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
    p3 = gallery_entry("p3").build()
    rep = classify_grothendieck(p3)
    for ei, bi in enumerate(p3.vals):
        assert rep.cartesian[ei][bi] == ei
        assert rep.cocartesian[ei][bi] == ei


def test_classification_of_gallery_maps():
    rep = classify_grothendieck(gallery_entry("p1").build())
    assert rep.is_fibration and not rep.is_opfibration
    assert rep.opfibration_failure.side == "cocartesian"
    rep = classify_grothendieck(gallery_entry("p1op").build())
    assert not rep.is_fibration and rep.is_opfibration
    fail = rep.fibration_failure
    assert (fail.e, fail.b, fail.reason) == ("(a,1)", "b", "no_maximum")
    rep = classify_grothendieck(gallery_entry("p2").build())
    assert rep.is_fibration and not rep.is_opfibration
    fail = rep.opfibration_failure
    assert (fail.e, fail.b, fail.reason) == ("(a,2)", "b", "no_minimum")
    assert classify_grothendieck(gallery_entry("p3").build()).is_bifibration
    assert classify_grothendieck(gallery_entry("p5_minimal_bifib").build()).is_bifibration


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
    assert classify_grothendieck(gallery_entry("p1op").build()).alpha is None
    rep = classify_grothendieck(gallery_entry("p1").build())
    assert rep.beta is None
    f = rep.opfibration_failure
    msg = f"no cocartesian lift of {f.e!r} over {f.b!r} ({f.reason})"
    with pytest.raises(NotGrothendieckOpfibration) as err:
        reconstruct_over_base(gallery_entry("p1").build())
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
    base = chain(["u", "v", "w"])
    fib = chain(["0", "1"])
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
    fib3 = chain(["0", "1", "2"])
    t_uv = MonotoneMap.build(fib3, fib3, {"0": "0", "1": "0", "2": "1"})
    t_vw = MonotoneMap.build(fib3, fib3, {"0": "1", "1": "2", "2": "2"})
    d = PosetFunctor(
        base,
        "contravariant",
        {b: fib3 for b in base.elements},
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
        rep = is_fiber_bundle(gallery_entry(pid).build())
        assert rep.status == status
        assert rep.failed_at == failed_at


def test_bundle_trivializations_recheck():
    pi = gallery_entry("pi_sierpinski").build()
    s = as_slice(pi)
    rep = is_fiber_bundle(pi)
    assert rep.status == "bundle"
    for b, iso in rep.trivializations.items():
        assert_trivializes(s, s.base.down_set(b), b, iso)


def test_automorphism_constructions_are_bundles():
    rng = seeded(137)
    for _ in range(20):
        d, proj = rand_bundle(rng)
        beta = classify_grothendieck(proj).beta
        assert all(t.is_iso() for t in beta.transitions.values())
        assert is_fiber_bundle(proj).status == "bundle"


def test_bundle_budget_runs_out_gracefully(capsys):
    # the check reads the lift table and searches nothing, so a budget of
    # 0 has nothing to run out of: the answer is the whole one
    rep = is_fiber_bundle(gallery_entry("pi_sierpinski").build())
    assert (rep.status, rep.failed_at) == ("bundle", None)
    assert main(["check", "bundle", "gallery:pi_sierpinski", "--budget", "0"]) == 0
    assert capsys.readouterr().out == "fiber bundle\n"
    assert main(["check", "bundle", "gallery:pi_sierpinski", "--budget", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["status"], doc["failed_at"], doc["undecided_at"]) == ("bundle", None, None)
    assert list(doc["trivializations"]) == list(rep.trivializations)


def test_a_negative_bundle_budget_is_refused(capsys):
    # --budget is still validated, so -1 is bad input, not a verdict
    assert main(["check", "bundle", "gallery:pi_sierpinski", "--budget", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget: budget must be 0 or more, got -1" in captured.err
    assert is_fiber_bundle(gallery_entry("pi_sierpinski").build()).status == "bundle"


def pairwise_trivialization(s, b):
    """U_b's trivialization x -> (p(x), y), y the point over b whose lift over p(x) is x.

    Read off the full table of ``pairwise_scan_lifts``, every lift
    searched on its own.
    """
    _, table = pairwise_scan_lifts(s, "cartesian")
    names, bnames, vals = s.total.elements, s.base.elements, s.map.vals
    down = [v for v in range(s.base.n) if s.base.le(bnames[v], b)]
    back = {table[(s.total.idx(y), v)]: s.total.idx(y) for y in s.fiber(b).elements for v in down}
    return {
        names[x]: pair_name(bnames[vals[x]], names[back[x]])
        for x in range(s.total.n)
        if vals[x] in down
    }


def assert_bundle_check_matches_the_search(p):
    """Status and failed_at as the search finds them, each trivialization valid.

    Each trivialization is also the one the pairwise lift table gives.
    """
    s = as_slice(p)
    got, want = is_fiber_bundle(s), search_fiber_bundle(s)
    assert (got.status, got.failed_at) == (want.status, want.failed_at)
    assert list(got.trivializations) == list(want.trivializations)
    for b, iso in got.trivializations.items():
        assert_trivializes(s, s.base.down_set(b), b, iso)
        assert iso == pairwise_trivialization(s, b)
    return got


@settings(max_examples=200, deadline=None)
@given(p=st.one_of(maps(), deep_maps()))
def test_bundle_check_matches_the_search_on_random_maps(p):
    # rand_monotone over bases of up to four points, disconnected ones
    # included, with up to two inserted map beat points, and maps onto
    # bases of height 2 or more, whose lifts below a cover are composed
    assert_bundle_check_matches_the_search(p)


def test_bundle_check_matches_the_search_on_generated_maps():
    rng = seeded(149)
    statuses = []
    for k in range(40):
        dom, cod = rand_poset(rng, rng.randint(1, 7)), rand_poset(rng, rng.randint(1, 4), prefix="b")
        for p in (
            rand_monotone(rng, dom, cod),
            rand_fibration(rng),
            rand_bundle(rng)[1],
            insert_map_down_beat_point(rng, rand_bundle(rng)[1], str(k)),
            grothendieck_construction(rand_functor(rng)),
            grothendieck_construction(rand_functor(rng, minimal_fiber_pool())),
        ):
            statuses.append(assert_bundle_check_matches_the_search(p).status)
    assert min(statuses.count("bundle"), statuses.count("not_bundle")) >= 40


def test_twisted_crowns_and_covers_are_bundles_as_the_search_finds():
    # the random generators build forest bases, whose holonomy is trivial;
    # these bundles go round crowns, with every symmetry of each fiber
    for fiber in minimal_fiber_pool():
        for aut in isomorphisms(fiber, fiber):
            for k, copies in ((2, 1), (3, 1), (2, 2)):
                rep = assert_bundle_check_matches_the_search(twisted_bundle(k, fiber, aut, copies))
                assert rep.status == "bundle"
    for d in (2, 3):
        for k in (2, 3, 4):
            assert assert_bundle_check_matches_the_search(crown_cover(d, k)).status == "bundle"


def test_a_bijective_transport_must_also_reflect_the_order():
    # x0 < y0 over v lie below the antichain x, y over b: every lift
    # exists and the transport x -> x0, y -> y0 is a monotone bijection,
    # but it is no isomorphism, so U_b is not U_b x F_b
    total = Poset.build(["x0", "y0", "x", "y"], [("x0", "y0"), ("x0", "x"), ("y0", "y")])
    p = MonotoneMap.build(total, chain(["v", "b"]), {"x0": "v", "y0": "v", "x": "b", "y": "b"})
    assert classify_grothendieck(p).is_fibration
    rep = assert_bundle_check_matches_the_search(p)
    assert (rep.status, rep.failed_at, list(rep.trivializations)) == ("not_bundle", "b", ["v"])


def chain_functor(variance, fibers, transitions):
    """A functor over the chain a < b < c with the given fibers and transitions."""
    return PosetFunctor(chain(["a", "b", "c"]), variance, fibers, transitions)


def test_a_functor_checks_its_fibers_before_it_composes():
    pt = Poset.build(["u"], [])
    # no fiber for c, so no transition into it either: the fibers are at fault
    with pytest.raises(UnknownElement, match="fibers must be indexed exactly by the base elements"):
        chain_functor("covariant", {"a": pt, "b": pt}, {("a", "b"): MonotoneMap.identity(pt)})


def test_a_functor_checks_its_variance_before_it_composes():
    two = chain(["u", "v"])
    three = chain(["x", "y", "z"])
    fibers = {"a": Poset.build(["o"], []), "b": two, "c": three}
    up = {
        ("a", "b"): MonotoneMap(fibers["a"], two, (0,)),
        ("b", "c"): MonotoneMap(two, three, (0, 1)),
    }
    # composing these the contravariant way would mismatch the fibers
    with pytest.raises(FunctorialityViolated, match="unknown variance 'sideways'"):
        chain_functor("sideways", fibers, up)
    assert chain_functor("covariant", fibers, up).transitions[("a", "c")].vals == (0,)


def test_a_functor_checks_the_shape_of_each_given_transition_before_it_composes():
    two = chain(["u", "v"])
    three = chain(["x", "y", "z"])
    fibers = {"a": Poset.build(["o"], []), "b": two, "c": three}
    # (a, b) lands in the fiber over c, so composing it with (b, c) would mismatch
    wrong = {
        ("a", "b"): MonotoneMap(fibers["a"], three, (0,)),
        ("b", "c"): MonotoneMap(two, three, (0, 1)),
    }
    with pytest.raises(FunctorialityViolated, match=r"transition for \('a', 'b'\) has the wrong fibers"):
        chain_functor("covariant", fibers, wrong)


def from_covers(d):
    """d rebuilt from its cover transitions alone."""
    covers = {c: d.transitions[c] for c in d.base.covers()}
    return PosetFunctor(d.base, d.variance, d.fibers, covers)


def test_a_functor_is_rebuilt_from_its_cover_transitions():
    # the one pass fills every other pair with the composite the full
    # functor holds, for both variances
    rng = seeded(181)
    checked = 0
    for _ in range(45):
        d = rand_functor(rng)
        for e in (d, flipped(d)):
            assert from_covers(e) == e
            checked += 1
        rep = classify_grothendieck(rand_fibration(rng))
        for e in (rep.alpha, rep.beta):
            assert e is not None
            assert from_covers(e) == e
            checked += 1
    assert checked == 180


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
    _, p, _ = product(vee, chain(["0", "1"]))
    sides = count_lift_scans(monkeypatch)
    v = verdict.decide_hurewicz(p)
    assert v.certificate.kind == "height1_max_retract"
    assert sorted(sides) == ["cartesian", "cocartesian"]
    sides.clear()
    # the cover check decides both sides without a table
    assert classify_grothendieck(p).is_bifibration
    assert sides == []
    rep = classify_grothendieck(p)
    assert rep.alpha is not None and rep.beta is not None
    assert sorted(sides) == ["cartesian", "cocartesian"]
    reconstruct_over_base(p)
    assert sorted(sides) == ["cartesian", "cocartesian", "cocartesian"]


def cover_pairs(s, side, want):
    """``pairwise_scan_lifts``' table ``want`` kept to each e over p(e) and the covers of p(e)."""
    lower, upper, _ = s.base._cover_table()
    covers = lower if side == "cartesian" else upper
    keep = {(ei, bi) for ei, v in enumerate(s.map.vals) for bi in (v, *covers[v])}
    return {k: i for k, i in want.items() if k in keep}


def test_report_tables_hold_every_lift_the_trivial_ones_included():
    # every lift over p(e) and a cover of p(e) there is, and no other
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
            assert len(table) == s.total.n
            assert table_pairs(table) == cover_pairs(s, side, want)


@settings(max_examples=300, deadline=None)
@given(p=deep_maps())
def test_lifts_composed_along_base_covers_match_the_pairwise_scan(p):
    # the same failures in the same order, the same lifts over the covers,
    # and on a side that holds the transport functor gives every other lift
    s = as_slice(p)
    rep = classify_grothendieck(s)
    for side, functor in (("cartesian", rep.alpha), ("cocartesian", rep.beta)):
        failures, table = grothendieck._scan_lifts(s, side)
        want_failures, want_table = pairwise_scan_lifts(s, side)
        assert [f.as_dict() for f in failures] == [f.as_dict() for f in want_failures]
        assert len(table) == s.total.n
        assert table_pairs(table) == cover_pairs(s, side, want_table)
        if functor is None:
            continue
        idx, names = s.total.index, s.total.elements
        for ei, bi in want_table:
            v, b = s.base.elements[s.map.vals[ei]], s.base.elements[bi]
            if v != b:
                t = functor.transitions[(b, v) if side == "cartesian" else (v, b)]
                assert idx[t(names[ei])] == want_table[(ei, bi)]


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(deep_maps(), maps()))
def test_the_cover_check_decides_each_side_and_the_lazy_report_reads_the_scans(p):
    # a side holds exactly when neither scan finds a failing lift, and a
    # report built lazily gives the tables and merged failures of an eager scan
    s = as_slice(p)
    rep = classify_grothendieck(s)
    scans = {}
    for side, holds in (("cartesian", rep.is_fibration), ("cocartesian", rep.is_opfibration)):
        scans[side] = grothendieck._scan_lifts(s, side)
        assert grothendieck._lifts_over_covers(s, side) is holds
        assert holds == (scans[side][0] == []) == (pairwise_scan_lifts(s, side)[0] == [])
    (cart, cart_rows), (cocart, cocart_rows) = scans["cartesian"], scans["cocartesian"]
    # sorted is stable, so for one e the cartesian failures stay first
    assert list(rep.failures) == sorted(cart + cocart, key=lambda f: s.total.idx(f.e))
    assert rep.fibration_failure == (cart[0] if cart else None)
    assert rep.opfibration_failure == (cocart[0] if cocart else None)
    assert (rep.cartesian, rep.cocartesian) == (cart_rows, cocart_rows)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(maps(), deep_maps()))
def test_a_side_that_holds_is_scanned_from_the_lifts_its_decision_kept(p):
    # the decision keeps the lifts of a side that holds on the slice, and a
    # later scan builds its rows from them: the rows of a scan of a fresh
    # slice, and the pairwise oracle's lifts over p(e) and its covers.  Each
    # scan builds its own rows, so a caller that changes them changes no other
    s = as_slice(p)
    rep = classify_grothendieck(s)
    for side, holds in (("cartesian", rep.is_fibration), ("cocartesian", rep.is_opfibration)):
        if not holds:
            continue
        failures, rows = grothendieck._scan_lifts(s, side)
        assert (failures, rows) == grothendieck._scan_lifts(as_slice(p), side)
        assert table_pairs(rows) == cover_pairs(s, side, pairwise_scan_lifts(s, side)[1])
        rows[0].clear()
        assert grothendieck._scan_lifts(s, side) == grothendieck._scan_lifts(as_slice(p), side)
        # the frame the lifts replaced is built again for any later reader
        assert grothendieck._lift_frame(s, side) == grothendieck._lift_frame(as_slice(p), side)


@settings(max_examples=200, deadline=None)
@given(p=deep_maps())
def test_a_row_and_its_failures_partition_the_covers_of_its_point(p):
    # rows[e] holds p(e) and the covers of p(e) e lifts over, the failures
    # the covers it does not, and together they are p(e) and its covers,
    # each once; e fails somewhere exactly when it fails over a cover or
    # a lift in its row fails somewhere
    s = as_slice(p)
    lower, upper, _ = s.base._cover_table()
    for side, covers in (("cartesian", lower), ("cocartesian", upper)):
        failures, rows = grothendieck._scan_lifts(s, side)
        failing = [0] * s.total.n
        for f in failures:
            ei, bit = s.total.idx(f.e), 1 << s.base.idx(f.b)
            assert not failing[ei] & bit
            failing[ei] |= bit
        assert len(rows) == s.total.n
        for ei, row in enumerate(rows):
            v = s.map.vals[ei]
            held = sum(1 << bi for bi in row)
            near = sum(1 << bi for bi in (v, *covers[v]))
            assert held & failing[ei] == 0
            assert held | failing[ei] & near == near
            deeper = any(failing[i] for i in row.values() if i != ei)
            assert bool(failing[ei]) == (held != near or deeper)


def test_one_extremum_search_per_lower_cover(monkeypatch):
    # over the chain c0 < ... < c5 each point above c0 searches its one
    # lower cover and keeps only that lift besides its own: 10 searches
    # and 12 + 10 entries, where all the lifts would be 42
    line = chain([f"c{i}" for i in range(6)])
    _, p, _ = product(line, Poset.build(["a", "b"], []))
    s = as_slice(p)
    calls = []
    search = grothendieck._closed_extremum

    def counted(size, d):
        calls.append(d)
        return search(size, d)

    monkeypatch.setattr(grothendieck, "_closed_extremum", counted)
    for side in ("cartesian", "cocartesian"):
        calls.clear()
        failures, table = grothendieck._scan_lifts(s, side)
        assert (failures, sum(map(len, table)), len(calls)) == ([], 22, 10)


@settings(max_examples=300, deadline=None)
@given(p=posets(max_size=8), data=st.data())
def test_the_size_class_lookup_finds_the_extremum_of_a_closed_mask(p, data):
    # a union of rows is closed, and its extremum is the one point of it
    # whose row is as large as the whole union; the empty union has none
    for rows in (p.below, p.above):
        size = [0] * (p.n + 1)
        for w, row in enumerate(rows):
            size[row.bit_count()] |= 1 << w
        picked = data.draw(st.lists(st.integers(0, p.n - 1), max_size=3) if p.n else st.just([]))
        d = 0
        for i in picked:
            d |= rows[i]
        assert grothendieck._closed_extremum(size, d) == linear_extremum(rows, d)
