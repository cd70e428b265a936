"""The Hurewicz decision pipeline, its conditions, and its certificates."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finfib.cli import main
from finfib.documents import map_to_doc
from finfib.errors import EmptyDomain, InvariantViolated, PreconditionViolated
from finfib.gallery import ENTRIES, gallery_entry
from finfib.grothendieck import (
    PosetFunctor,
    classify_grothendieck,
    grothendieck_construction,
    is_fiber_bundle,
)
from finfib.posets import MonotoneMap, Poset, find_isomorphism, isomorphisms, product
from finfib.slices import as_slice, map_core, restrict_over, smallest_dbp_retract_of_map
from finfib.stong import core, smallest_dbp_retract
from finfib.verdict import (
    CONDITION_NAMES,
    RetractCertificate,
    _ComponentFacts,
    _cond_beat_point_dichotomy,
    _cond_down_fiber_contractible,
    _cond_down_fiber_nonempty,
    _cond_ed_inside_preimage_bd,
    _cond_open_map,
    _cond_up_reachability,
    decide_hurewicz,
    is_closed_map,
    is_open_map,
    is_trivial_over_base,
    necessary_conditions,
    projection_retract_height1,
)
from helpers import (
    assert_trivializes,
    census_unknown,
    chain,
    crown_cover,
    crowns,
    elementwise_up_reachability,
    every_pair_down_fiber_contractible,
    fiberwise_down_fiber_nonempty,
    insert_map_down_beat_point,
    is_dbp_retract,
    maps,
    minimal_fiber_pool,
    posets,
    rand_bundle,
    rand_fibration,
    rand_functor,
    rand_monotone,
    rand_poset,
    rescan_reduce,
    scan_beat_point_dichotomy,
    scan_closed_map,
    scan_open_map,
    search_retract_certificate,
    search_trivial_over_base,
    seeded,
    shuffling_picker,
    twisted_bundle,
    unshared_ed_inside_preimage_bd,
    verify_retract_certificate,
)
from test_grothendieck import assert_bundle_check_matches_the_search, collect_bifibrations


def test_open_and_closed_on_gallery_maps():
    expect = {
        "p1": (True, False),
        "p1op": (False, True),
        "p2": (True, False),
        "p3": (True, True),
        "pi_sierpinski": (True, True),
        "p5_minimal_bifib": (True, True),
    }
    for pid, (op, cl) in expect.items():
        m = gallery_entry(pid).build()
        assert is_open_map(m)[0] == op
        assert is_closed_map(m)[0] == cl


def test_openness_witness_is_a_real_violation():
    rng = seeded(149)
    opens = 0
    for _ in range(60):
        dom = rand_poset(rng, rng.randint(1, 7), prefix="e")
        cod = rand_poset(rng, rng.randint(1, 4), prefix="b")
        m = rand_monotone(rng, dom, cod)
        ok, witness = is_open_map(m)
        # independent recheck: p is open iff every minimal open image
        # covers the minimal open of the image point
        brute = all(
            set(cod.down_set(m(e))) <= {m(x) for x in dom.down_set(e)} for e in dom.elements
        )
        assert ok == brute
        if ok:
            opens += 1
        else:
            e, missing = witness["e"], witness["missing"]
            assert cod.lt(missing, m(e))
            assert missing not in {m(x) for x in dom.down_set(e)}
        ok, witness = is_closed_map(m)
        brute = all(
            {b for b in cod.elements if cod.le(m(e), b)} <= {m(x) for x in dom.elements if dom.le(e, x)}
            for e in dom.elements
        )
        assert ok == brute
    assert opens >= 5


def test_a_minimal_total_space_over_a_base_with_a_beat_point_names_it():
    # the crown a, b < c, d is minimal; the chain 0 < 1 under it is not,
    # and 1 is its down beat point
    crown = Poset.build(list("abcd"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    m = MonotoneMap.build(crown, chain(["0", "1"]), {"a": "0", "b": "0", "c": "1", "d": "1"})
    (cond,) = [c for c in necessary_conditions(m).conditions if c.name == "minimalE_implies_minimalB"]
    assert not cond.passed
    assert cond.witness == {"base_beat_point": "1", "kind": "down", "component": ["0", "1"]}


def test_necessary_conditions_on_gallery_maps():
    assert necessary_conditions(gallery_entry("p1").build()).all_pass
    assert necessary_conditions(gallery_entry("p3").build()).all_pass
    assert necessary_conditions(gallery_entry("pi_sierpinski").build()).all_pass
    assert necessary_conditions(gallery_entry("p5_minimal_bifib").build()).all_pass
    rep = necessary_conditions(gallery_entry("p2").build())
    assert rep.failing() == ("up_reachability", "reduced_bifibration")
    (up,) = [c for c in rep.conditions if c.name == "up_reachability"]
    assert up.witness["e"] == "(a,2)"
    assert up.witness["b"] == "b"
    rep = necessary_conditions(gallery_entry("p1op").build())
    assert rep.failing() == (
        "open_map",
        "down_fiber_nonempty",
        "down_fiber_contractible",
        "reduced_bifibration",
        "Ed_inside_preimage_Bd",
    )


def test_condition_names_keep_their_order():
    assert CONDITION_NAMES == (
        "open_map",
        "down_fiber_nonempty",
        "down_fiber_contractible",
        "up_reachability",
        "reduced_bifibration",
        "minimalE_implies_minimalB",
        "Ed_inside_preimage_Bd",
        "beat_point_dichotomy",
    )


def test_condition_report_shape():
    rep = necessary_conditions(gallery_entry("p2").build())
    assert tuple(c.name for c in rep.conditions) == CONDITION_NAMES
    for c in rep.conditions:
        assert c.passed == (c.witness is None)
    with pytest.raises(EmptyDomain):
        necessary_conditions(MonotoneMap.build(Poset.build([], []), Poset.build(["u"], []), {}))


def test_necessary_conditions_hold_on_generated_fibrations():
    rng = seeded(151)
    for _ in range(25):
        p = rand_fibration(rng)
        assert necessary_conditions(p).all_pass


def test_decision_on_generated_fibrations():
    rng = seeded(157)
    for _ in range(30):
        p = rand_fibration(rng)
        v = decide_hurewicz(p)
        assert v.status == "fibration"
        assert v.certificate is not None
        assert v.certificate.kind == "minimum_base_bifibration"
        # the full core decides the same way
        again = decide_hurewicz(map_core(p).reduced)
        assert again.status == "fibration"


def test_total_dbp_reduction_lands_inside_the_base_one():
    """E reduced over itself sits inside the preimage of the reduced base."""
    rng = seeded(163)
    for _ in range(30):
        p = rand_fibration(rng)
        s = as_slice(p)
        ed = rescan_reduce(s.total, ("down",), shuffling_picker(rng)).result
        bd = rescan_reduce(s.base, ("down",), shuffling_picker(rng)).result
        pre = s.total.names(s.preimage(s.base.mask(bd.elements)))
        assert set(ed.elements) <= set(pre)
        trace = is_dbp_retract(s.total.sub(pre), ed.elements)
        assert trace is not None


def test_bifibrations_with_minimal_fibers_are_bundles():
    rng = seeded(167)
    pool = minimal_fiber_pool()
    found = 0
    while found < 15:
        d = rand_functor(rng, fiber_pool=pool)
        from finfib.grothendieck import classify_grothendieck, grothendieck_construction

        proj = grothendieck_construction(d)
        if not classify_grothendieck(proj).is_bifibration:
            continue
        found += 1
        assert is_fiber_bundle(proj).status == "bundle"


def test_core_of_a_bundle_is_a_bundle_with_core_fiber():
    rng = seeded(173)
    for _ in range(15):
        d, proj = rand_bundle(rng)
        fiber_core = core(d.fibers[d.base.elements[0]]).result
        reduced = map_core(proj).reduced
        assert is_fiber_bundle(reduced).status == "bundle"
        for b in reduced.base.elements:
            assert find_isomorphism(reduced.fiber(b), fiber_core) is not None


def test_verdicts_on_gallery_maps():
    v = decide_hurewicz(gallery_entry("p1").build())
    assert v.status == "fibration"
    assert v.certificate.kind == "minimum_base_bifibration"
    assert v.certificate.point == "a"
    assert v.exit_code == 0

    v = decide_hurewicz(gallery_entry("p1op").build())
    assert v.status == "not_fibration"
    assert v.exit_code == 1
    w = v.witness
    assert (w["side"], w["e"], w["b"]) == ("cartesian", "(a,1)", "b")
    assert w["condition"] == "reduced_bifibration"

    v = decide_hurewicz(gallery_entry("p2").build())
    assert v.status == "not_fibration"
    w = v.witness
    assert (w["side"], w["e"], w["b"], w["reason"]) == ("cocartesian", "(a,2)", "b", "no_minimum")

    v = decide_hurewicz(gallery_entry("p3").build())
    assert v.status == "unknown"
    assert v.exit_code == 2
    assert v.witness["condition"] == "undecided"
    (comp,) = v.components
    assert comp.necessary is not None
    assert comp.necessary.all_pass

    v = decide_hurewicz(gallery_entry("pi_sierpinski").build())
    assert v.status == "fibration"
    assert v.certificate.point == "0"

    v = decide_hurewicz(gallery_entry("p5_minimal_bifib").build())
    assert v.status == "unknown"
    assert v.components[0].necessary.all_pass


def test_components_are_decided_independently():
    # one fibration component, one missed component
    dom = Poset.build(["x"], [])
    cod = Poset.build(["u", "v"], [])
    v = decide_hurewicz(MonotoneMap(dom, cod, (cod.idx("u"),) * dom.n))
    assert v.status == "fibration"
    assert v.skipped_components == (("v",),)
    assert [c.component for c in v.components] == [("u",)]

    # partial image inside one component refutes
    dom2 = Poset.build(["x"], [])
    cod2 = chain(["u", "v"])
    v = decide_hurewicz(MonotoneMap(dom2, cod2, (cod2.idx("u"),) * dom2.n))
    assert v.status == "not_fibration"
    assert v.witness["condition"] == "surjective_over_component"
    assert v.witness["missing"] == "v"

    with pytest.raises(EmptyDomain):
        decide_hurewicz(MonotoneMap.build(Poset.build([], []), cod, {}))


def test_decision_is_invariant_under_down_reduction():
    rng = seeded(179)
    instances = [rand_fibration(rng) for _ in range(10)]
    instances += [
        rand_monotone(rng, rand_poset(rng, rng.randint(1, 7), prefix="e"), rand_poset(rng, rng.randint(1, 3), prefix="b"))
        for _ in range(25)
    ]
    for p in instances:
        red = smallest_dbp_retract_of_map(p).reduced
        assert decide_hurewicz(p).status == decide_hurewicz(red).status


def test_up_beat_points_of_the_map_are_not_safe_to_remove():
    """Removing an up beat point of the map can create lifts from nothing.

    Here the full map core is an isomorphism (hence a fibration), yet
    the original map has no cartesian lift of e1 over b0 even after
    down reduction.  This is why the decision pipeline reduces along
    down beat points only.
    """
    e = Poset.build(
        ["e0", "e1", "e2", "e3", "e4"],
        [("e1", "e2"), ("e1", "e4"), ("e1", "e3"), ("e0", "e4")],
    )
    b = chain(["b0", "b1"])
    p = MonotoneMap.build(
        e, b, {"e0": "b0", "e1": "b1", "e2": "b1", "e3": "b1", "e4": "b1"}
    )
    v = decide_hurewicz(p)
    assert v.status == "not_fibration"
    assert v.witness["condition"] == "reduced_bifibration"
    reduced = map_core(p).reduced
    assert reduced.total.n == 2
    assert decide_hurewicz(reduced).status == "fibration"


def test_height1_retract_certificate_on_reduced_maps():
    pi = gallery_entry("pi_sierpinski").build()
    red = smallest_dbp_retract_of_map(pi).reduced
    cert = projection_retract_height1(classify_grothendieck(red))
    ok, reason = verify_retract_certificate(red, cert)
    assert ok, reason
    assert cert.x == red.base

    p1red = smallest_dbp_retract_of_map(gallery_entry("p1").build()).reduced
    cert = projection_retract_height1(classify_grothendieck(p1red))
    assert verify_retract_certificate(p1red, cert)[0]


def test_height1_retract_certificate_preconditions():
    crown = gallery_entry("B5").build()
    _, to_crown, _ = product(crown, chain(["0", "1"]))
    with pytest.raises(PreconditionViolated):
        projection_retract_height1(classify_grothendieck(to_crown))  # no maximum
    tall = chain(["u", "v", "w"])
    with pytest.raises(PreconditionViolated):
        projection_retract_height1(classify_grothendieck(MonotoneMap.identity(tall)))  # height 2
    with pytest.raises(PreconditionViolated):
        projection_retract_height1(classify_grothendieck(gallery_entry("p1op").build()))  # not a bifibration
    empty = MonotoneMap.build(Poset.build([], []), chain(["u", "v"]), {})
    with pytest.raises(PreconditionViolated):
        projection_retract_height1(classify_grothendieck(empty))


def test_tampered_certificates_fail_with_the_right_reason():
    pi = gallery_entry("pi_sierpinski").build()
    red = smallest_dbp_retract_of_map(pi).reduced
    cert = projection_retract_height1(classify_grothendieck(red))
    # r squashed to a constant: r i = Id_E breaks first
    low = cert.r.cod.idx(red.total.elements[0])
    bad_r = MonotoneMap(cert.r.dom, cert.r.cod, (low,) * cert.r.dom.n)
    broken = RetractCertificate(cert.x, cert.y, cert.i, bad_r, cert.j, cert.s)
    ok, reason = verify_retract_certificate(red, broken)
    assert not ok and reason == "r i = Id_E fails"
    # wrong ambient shape
    other = RetractCertificate(cert.y, cert.x, cert.i, cert.r, cert.j, cert.s)
    ok, reason = verify_retract_certificate(red, other)
    assert not ok and "i must map" in reason


def test_a_retract_that_is_not_monotone_does_not_verify():
    # X = B and Y = E with the section i(e) = (p(e), e); r sends every
    # (b, e) off the section to the first point over b.  All four
    # identities hold, but r is not monotone, so it proves nothing
    p = as_slice(gallery_entry("p3").build())
    total, base, vals = p.total, p.base, p.map.vals
    prod, _, _ = product(base, total)
    i = MonotoneMap(total, prod, [vals[e] * total.n + e for e in range(total.n)])
    first = [(m & -m).bit_length() - 1 for m in p.fiber_masks]
    pairs = (divmod(k, total.n) for k in range(prod.n))
    r = MonotoneMap(prod, total, [e if vals[e] == b else first[b] for b, e in pairs])
    ident = MonotoneMap.identity(base)
    cert = RetractCertificate(base, total, i, r, ident, ident)
    assert verify_retract_certificate(p, cert) == (False, "r is not monotone")


@pytest.mark.parametrize("fault", ["s j = Id_B fails", "pi_X i = j p fails", "p r = s pi_X fails"])
def test_each_failing_retract_identity_is_named(fault):
    # X = B and Y = E, and r projects onto E, so r i = Id_E holds.  A
    # constant j and s break s j = Id_B; a section over one base point
    # breaks pi_X i = j p; the true section leaves p r = s pi_X to break,
    # since r forgets the base point of every pair off the section
    p = as_slice(gallery_entry("p1").build())
    total, base = p.total, p.base
    prod, _, _ = product(base, total)
    over = [0] * total.n if fault == "pi_X i = j p fails" else p.map.vals
    i = MonotoneMap(total, prod, [b * total.n + e for e, b in enumerate(over)])
    r = MonotoneMap(prod, total, [k % total.n for k in range(prod.n)])
    js = MonotoneMap(base, base, [0] * base.n if fault == "s j = Id_B fails" else range(base.n))
    cert = RetractCertificate(base, total, i, r, js, js)
    assert verify_retract_certificate(p, cert) == (False, fault)


def _vee_times_chain2():
    """The projection V x chain(2) -> V over the V-shaped base a, b < c."""
    vee = Poset.build(["a", "b", "c"], [("a", "c"), ("b", "c")])
    _, p, _ = product(vee, chain(["0", "1"]))
    return vee, p


@pytest.mark.parametrize(
    "table, source, over, target",
    [("cocartesian", "(a,0)", "c", "(c,1)"), ("cartesian", "(c,1)", "a", "(b,1)")],
    ids=["cocartesian", "cartesian"],
)
def test_a_faulty_retract_construction_is_an_internal_error(table, source, over, target):
    # pushing (a,0) up to (c,1), not to its cocartesian lift (c,0), keeps
    # every identity but breaks the monotonicity of r; so does pulling
    # (c,1) down over a to (b,1), which still lies below it.  A fault of
    # the engine, so InvariantViolated (exit 4), not NotMonotone (bad input)
    vee, p = _vee_times_chain2()
    rep = classify_grothendieck(p)
    total = as_slice(p).total
    getattr(rep, table)[total.idx(source)][vee.idx(over)] = total.idx(target)
    with pytest.raises(InvariantViolated, match="r is not monotone"):
        projection_retract_height1(rep)


def test_each_height1_certificate_builds_its_product_once(monkeypatch):
    import finfib.verdict as verdict

    calls = []
    build = verdict.product
    monkeypatch.setattr(verdict, "product", lambda x, y: calls.append((x, y)) or build(x, y))
    vee, p = _vee_times_chain2()
    cert = projection_retract_height1(classify_grothendieck(p))
    # the certificate is checked on the B x E it was built on, without its cover table
    assert calls == [(vee, as_slice(p).total)]
    assert cert.r.dom._covers is None


def test_trivial_over_base_detection():
    assert is_trivial_over_base(classify_grothendieck(gallery_entry("pi_sierpinski").build())) is not None
    assert is_trivial_over_base(classify_grothendieck(gallery_entry("p5_minimal_bifib").build())) is None
    found = is_trivial_over_base(classify_grothendieck(smallest_dbp_retract_of_map(gallery_entry("p1").build()).reduced))
    assert found is not None
    assert (found.kind, found.point, found.reduction, found.retract) == ("trivial_over_base", "a", None, None)
    assert found.iso == {"(a,0)": "(a,(a,0))", "(b,0)": "(b,(a,0))"}


def assert_triviality_matches_the_search(p):
    """Each base component's certificate or None, in order, checked against the search.

    Over each component the map is trivial exactly when the search finds
    an isomorphism, and then the certificate is valid; a disconnected
    base is refused as a whole.
    """
    s = as_slice(p)
    parts = s.base.components()
    if len(parts) != 1:
        with pytest.raises(PreconditionViolated, match="base is not connected"):
            is_trivial_over_base(classify_grothendieck(s))
    found = []
    for part in parts:
        rest = restrict_over(s, part)
        got = is_trivial_over_base(classify_grothendieck(rest))
        assert (got is None) == (search_trivial_over_base(rest) is None)
        if got is not None:
            assert (got.kind, got.point, got.reduction, got.retract) == (
                "trivial_over_base", rest.base.elements[0], None, None,
            )
            assert_trivializes(rest, rest.base.elements, got.point, got.iso)
        found.append(got)
    return found


@settings(max_examples=200, deadline=None)
@given(p=maps())
def test_triviality_matches_the_search_on_random_maps(p):
    # rand_monotone over bases of up to four points, disconnected ones
    # included, with up to two inserted map beat points
    assert_triviality_matches_the_search(p)


def test_triviality_matches_the_search_on_generated_maps():
    rng = seeded(151)
    trivial = []
    for k in range(40):
        for p in (
            rand_fibration(rng),
            rand_bundle(rng)[1],
            insert_map_down_beat_point(rng, rand_bundle(rng)[1], str(k)),
            grothendieck_construction(rand_functor(rng)),
            grothendieck_construction(rand_functor(rng, minimal_fiber_pool())),
        ):
            trivial += [got is not None for got in assert_triviality_matches_the_search(p)]
    assert min(trivial.count(True), trivial.count(False)) >= 40


def test_a_negative_budget_is_refused(capsys, tmp_path):
    # a crown over a base with neither minimum nor maximum reaches the
    # trivial_over_base stage; --budget is still validated, so -1 is bad
    # input, and 0 leaves the holonomy check its whole answer
    base = Poset.build(list("abcde"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "e")])
    _, _, p = product(crowns(2, 1, "f"), base)
    v = decide_hurewicz(p)
    assert (v.status, v.certificate.kind) == ("fibration", "trivial_over_base")
    target = tmp_path / "crown_times_fence.json"
    target.write_text(json.dumps(map_to_doc(p)))
    assert main(["check", "hurewicz", str(target), "--budget", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget: budget must be 0 or more, got -1" in captured.err
    assert main(["check", "hurewicz", str(target), "--budget", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["kind"] == "trivial_over_base"


def test_holonomy_decides_triviality_on_twisted_crowns_and_covers():
    # a bundle round a crown is trivial exactly when its twist is the
    # identity; over two crowns only the second is twisted
    for fiber in minimal_fiber_pool():
        for aut in isomorphisms(fiber, fiber):
            identity = all(a == x for a, x in aut.items())
            for k, copies in ((2, 1), (3, 1), (2, 2)):
                found = assert_triviality_matches_the_search(twisted_bundle(k, fiber, aut, copies))
                assert [got is not None for got in found] == [True] * (copies - 1) + [identity]
    for d in (2, 3):
        for k in (2, 3, 4):
            assert assert_triviality_matches_the_search(crown_cover(d, k)) == [None]


@pytest.mark.parametrize("twist", ["collapse", "swap"])
def test_the_cover_the_spanning_tree_leaves_out_is_checked_too(twist):
    # alpha is the identity on every cover of crown(3) but one, so one of
    # these maps carries the odd transport on the cover the spanning tree
    # of is_trivial_over_base leaves out: a collapse of the chain x < y,
    # no isomorphism, or the swap of the antichain x, y, an isomorphism
    # with nontrivial holonomy
    base = crowns(3, 1, "b")
    fiber = chain(["x", "y"]) if twist == "collapse" else Poset.build(["x", "y"], [])
    values = {"x": "x", "y": "x"} if twist == "collapse" else {"x": "y", "y": "x"}
    odd = MonotoneMap.build(fiber, fiber, values)
    for cover in base.covers():
        transitions = {c: MonotoneMap.identity(fiber) for c in base.covers()}
        transitions[cover] = odd
        d = PosetFunctor(base, "contravariant", {b: fiber for b in base.elements}, transitions)
        p = grothendieck_construction(d).op()
        assert p.base == base and classify_grothendieck(p).is_fibration
        bundle = assert_bundle_check_matches_the_search(p)
        want = ("not_bundle", cover[1]) if twist == "collapse" else ("bundle", None)
        assert (bundle.status, bundle.failed_at) == want
        assert assert_triviality_matches_the_search(p) == [None]


def test_a_fibration_whose_transport_is_a_bijection_but_no_isomorphism_is_not_trivial():
    total = Poset.build(["x0", "y0", "x", "y"], [("x0", "y0"), ("x0", "x"), ("y0", "y")])
    p = MonotoneMap.build(total, chain(["v", "b"]), {"x0": "v", "y0": "v", "x": "b", "y": "b"})
    assert assert_triviality_matches_the_search(p) == [None]


@pytest.mark.parametrize("k", [16, 100])
def test_double_covers_of_the_crown_are_decided_without_a_search(k):
    # crown(4k) -> crown(2k) at |E| = 64 and 400 is a covering map, so a
    # Hurewicz fibration, but nothing here certifies it.  Proving it is not
    # trivial over the base once took seconds at 64 points; no timing bound
    p = crown_cover(2, k)
    assert p.dom.n == 4 * k
    v = decide_hurewicz(p)
    assert v.status == "unknown"
    (comp,) = v.components
    assert len(comp.necessary.conditions) == 8 and comp.necessary.all_pass
    assert is_fiber_bundle(p).status == "bundle"
    assert is_trivial_over_base(classify_grothendieck(p)) is None


def test_certificate_search_finds_small_witnesses():
    p1red = smallest_dbp_retract_of_map(gallery_entry("p1").build()).reduced
    cert = search_retract_certificate(p1red)
    assert cert is not None
    assert verify_retract_certificate(p1red, cert)[0]
    assert cert.y.n <= 2
    # the engine alone finds no certificate for the census map, the search does
    m = census_unknown()
    v = decide_hurewicz(m)
    assert v.witness == {"condition": "undecided", "component": ["a", "b", "c", "d"]}
    assert v.components[0].necessary.all_pass
    cert = search_retract_certificate(m, max_y=3)
    assert cert is not None and verify_retract_certificate(m, cert)[0]


def test_certificate_search_exhausts_on_the_undecided_example():
    cert = search_retract_certificate(gallery_entry("p3").build(), max_y=2)
    assert cert is None


def test_unknown_verdicts_carry_the_necessary_report():
    for pid in ("p3", "p5_minimal_bifib"):
        v = decide_hurewicz(gallery_entry(pid).build())
        (comp,) = v.components
        assert comp.status == "unknown"
        assert tuple(c.name for c in comp.necessary.conditions) == CONDITION_NAMES
        # the verdict reuses its own reduction instead of rerunning it
        assert comp.necessary == necessary_conditions(gallery_entry(pid).build())


def test_verdict_on_random_bifibrations_never_contradicts_conditions():
    rng = seeded(181)
    for _, proj, _ in collect_bifibrations(rng, 30):
        v = decide_hurewicz(proj)
        rep = necessary_conditions(proj)
        if v.status == "fibration":
            assert rep.all_pass
        if not rep.all_pass:
            assert v.status == "not_fibration"


@settings(max_examples=300, deadline=None)
@given(total=posets(max_size=7), base=posets(max_size=4), seed=st.integers(0, 2**16))
def test_open_and_closed_conditions_agree_with_their_direct_scans(total, base, seed):
    # down_fiber_nonempty is openness restated fiberwise, and closedness
    # is openness between the opposite spaces: same verdicts, same witnesses
    if not base.n:
        return
    s = as_slice(rand_monotone(seeded(seed), total, base))
    assert is_open_map(s) == scan_open_map(s)
    assert is_closed_map(s) == scan_closed_map(s)
    assert _cond_down_fiber_nonempty(_ComponentFacts(s)) == fiberwise_down_fiber_nonempty(s)


def openness_inputs():
    """Random maps with and without a map beat point, fibrations, gallery maps."""
    rng = seeded(211)
    maps = []
    for k in range(60):
        dom = rand_poset(rng, rng.randint(1, 9), prefix="e")
        cod = rand_poset(rng, rng.randint(1, 5), prefix="b")
        m = rand_monotone(rng, dom, cod)
        maps += [m, insert_map_down_beat_point(rng, m, str(k))]
    maps += [rand_fibration(rng) for _ in range(30)]
    return maps + [gallery_entry(e.id).build() for e in ENTRIES if e.kind == "map"]


def test_openness_returns_the_point_by_point_scan_verdict_and_witness():
    # the lower-cover test decides; a failing map must still name the
    # scan's first point in index order and its lowest missing base point
    fails = {"open": 0, "closed": 0}
    for m in openness_inputs():
        for kind, got, want in (
            ("open", is_open_map(m), scan_open_map(m)),
            ("closed", is_closed_map(m), scan_open_map(as_slice(m).op())),
        ):
            assert got == want
            fails[kind] += not want[0]
    assert is_open_map(gallery_entry("p1op").build()) == (False, {"e": "(a,1)", "missing": "b"})
    assert min(fails.values()) >= 20


def test_a_shuffled_crown_times_chain_is_decided_at_1280_points():
    # the projection of the 10-point crown times a 128-chain onto the
    # crown, stored in a shuffled order; no timing bound, only verdicts
    base = crowns(5, 1, "b")
    prod, to_base, _ = product(base, chain([f"c{i}" for i in range(128)]))
    order = list(prod.elements)
    seeded(1280).shuffle(order)
    p = MonotoneMap.build(Poset.build(order, prod.covers()), base, to_base.values)
    assert p.dom.n == 1280
    v = decide_hurewicz(p)
    assert v.status == "fibration"
    assert v.certificate.kind == "trivial_over_base"
    assert necessary_conditions(p).all_pass
    assert is_fiber_bundle(p).status == "bundle"


@settings(max_examples=300, deadline=None)
@given(total=posets(max_size=7), base=posets(max_size=4), seed=st.integers(0, 2**16))
def test_down_fiber_contractible_skips_only_passing_pairs(total, base, seed):
    # pairs whose set has a maximum are skipped unreduced; the witness
    # is the one a reduction of every pair finds first
    if not base.n:
        return
    s = as_slice(rand_monotone(seeded(seed), total, base))
    assert _cond_down_fiber_contractible(_ComponentFacts(s)) == every_pair_down_fiber_contractible(s)


@settings(max_examples=300, deadline=None)
@given(p=maps())
@example(p=gallery_entry("p2").build())
def test_up_reachability_matches_the_elementwise_scan(p):
    # about one random map in five fails the condition; p2 fails it at ((a,2), b)
    s = as_slice(p)
    assert _cond_up_reachability(_ComponentFacts(s)) == elementwise_up_reachability(s)


def test_down_fiber_contractible_names_a_two_point_fiber():
    # U_e meets the fiber over b in the discrete two-point space
    total = Poset.build(["x", "y", "e"], [("x", "e"), ("y", "e")])
    base = chain(["b", "t"])
    s = as_slice(MonotoneMap.build(total, base, {"x": "b", "y": "b", "e": "t"}))
    want = {"e": "e", "b": "b", "reason": "not_contractible"}
    assert _cond_down_fiber_contractible(_ComponentFacts(s)) == want


def count_openness_and_beat_scans(monkeypatch, p):
    """necessary_conditions(p) and the arguments of its openness and beat-point scans."""
    import finfib.verdict as verdict

    seen = []
    open_map, beat = verdict.is_open_map, verdict.beat_points
    monkeypatch.setattr(verdict, "is_open_map", lambda p: seen.append(("open", p)) or open_map(p))
    monkeypatch.setattr(verdict, "beat_points", lambda x: seen.append(("beat", x)) or beat(x))
    rep = necessary_conditions(p)
    return rep, [x for kind, x in seen if kind == "open"], [x for kind, x in seen if kind == "beat"]


@pytest.mark.parametrize("pid", ["p3", "p5_minimal_bifib", "p1op"])
def test_conditions_compute_openness_and_beat_points_once_per_component(monkeypatch, pid):
    rep, opens, beat_args = count_openness_and_beat_scans(monkeypatch, gallery_entry(pid).build())
    # the reduced maps of p3 and p5 are fibrations, so openness is read off
    # their lifts; p1op's is none, and both openness conditions read one scan
    assert rep.all_pass == (pid != "p1op")
    assert len(opens) == (1 if pid == "p1op" else 0)
    assert len(beat_args) == len(set(beat_args)) == 2


def test_a_fibration_that_is_no_opfibration_scans_only_up_reachability(monkeypatch):
    # p2 reduces to a fibration: openness passes unscanned, while the
    # scan of up_reachability runs and fails at ((a,2), b)
    rep, opens, _ = count_openness_and_beat_scans(monkeypatch, gallery_entry("p2").build())
    assert opens == []
    by_name = {c.name: c for c in rep.conditions}
    assert by_name["open_map"].passed and by_name["down_fiber_contractible"].passed
    assert by_name["up_reachability"].witness == {"e": "(a,2)", "b": "b", "component": ["a", "b"]}


def test_lift_conditions_read_off_the_reduced_report_match_their_oracles():
    # maps with map down beat points added back over a bundle or a fibration:
    # each lift condition equals its scan, whether read off p0's report or
    # not, and most of these components do read it
    read = []

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**16), bundle=st.booleans(), inserts=st.integers(1, 3))
    def matches(seed, bundle, inserts):
        rng = seeded(seed)
        p = rand_bundle(rng)[1] if bundle else rand_fibration(rng)
        for k in range(inserts):
            p = insert_map_down_beat_point(rng, p, f"i{k}")
        s = as_slice(p)
        for c in s.touched_components():
            pc = restrict_over(s, c)
            f = _ComponentFacts(pc)
            assert _cond_open_map(f) == scan_open_map(pc)[1]
            assert _cond_down_fiber_nonempty(f) == fiberwise_down_fiber_nonempty(pc)
            assert _cond_down_fiber_contractible(f) == every_pair_down_fiber_contractible(pc)
            assert _cond_up_reachability(f) == elementwise_up_reachability(pc)
            read.append(f.report.is_bifibration)

    matches()
    assert sum(read) > 0.9 * len(read)


def test_an_undecided_component_classifies_its_reduced_map_once(monkeypatch):
    import finfib.verdict as verdict

    seen = []
    classify = verdict.classify_grothendieck
    monkeypatch.setattr(verdict, "classify_grothendieck", lambda p: seen.append(p) or classify(p))
    v = decide_hurewicz(gallery_entry("p3").build())
    # the decision and the reduced_bifibration condition share one report
    undecided = [c for c in v.components if c.status == "unknown"]
    assert undecided and len(seen) == len(undecided)
    for u in undecided:
        (c,) = [c for c in u.necessary.conditions if c.name == "reduced_bifibration"]
        assert c.passed


def count_table_builds(monkeypatch):
    """Counters of the lift frames and full-alive witness tables built, and of lift lookups.

    ``frames[(slice, side)]`` counts the distinct frames handed out for
    that slice and side, so a kept frame read again does not count;
    ``tables[rows]`` counts the witness tables ``_full_witnesses`` builds
    from one poset's rows; ``lookups`` counts every
    ``_closed_extremum`` call and ``held`` those made by scans that
    found no failure, that is scans of a side that holds.
    """
    from finfib import grothendieck, stong

    keep = []  # every counted object stays alive, so no id is reused
    seen = {"frames": {}, "tables": {}, "lookups": 0, "held": 0}
    frame, table = grothendieck._lift_frame, stong._full_witnesses
    closed, scan = grothendieck._closed_extremum, grothendieck._scan_lifts

    def counted_frame(s, side):
        got = frame(s, side)
        keep.append((s, got))
        seen["frames"].setdefault((id(s), side), set()).add(id(got))
        return got

    def counted_table(x, kind):
        if kind not in x._witnesses:
            rows = x.below if kind == "down" else x.above
            keep.append(rows)
            seen["tables"][id(rows)] = seen["tables"].get(id(rows), 0) + 1
        return table(x, kind)

    def counted_closed(size, d):
        seen["lookups"] += 1
        return closed(size, d)

    def counted_scan(s, side):
        before = seen["lookups"]
        failures, rows = scan(s, side)
        if not failures:
            seen["held"] += seen["lookups"] - before
        return failures, rows

    monkeypatch.setattr(grothendieck, "_lift_frame", counted_frame)
    monkeypatch.setattr(stong, "_full_witnesses", counted_table)
    monkeypatch.setattr(grothendieck, "_closed_extremum", counted_closed)
    monkeypatch.setattr(grothendieck, "_scan_lifts", counted_scan)
    return seen


def test_the_unknown_path_builds_each_frame_and_witness_table_once(monkeypatch):
    # the 32-point double cover reduces to itself, is a bifibration, and is
    # not trivial over its base: the reduced map's report shares the slice's
    # frames, the cartesian scan of the triviality check reads the lifts the
    # decision kept, and the conditions read the beat points of E and B off
    # the tables the reductions built; rebuilding them read 7 tables for 4,
    # the cartesian frame twice and 96 lookups
    seen = count_table_builds(monkeypatch)
    assert decide_hurewicz(crown_cover(2, 8)).status == "unknown"
    assert [len(ids) for ids in seen["frames"].values()] == [1, 1]
    assert list(seen["tables"].values()) == [1, 1, 1, 1]
    assert (seen["lookups"], seen["held"]) == (64, 0)


@pytest.mark.parametrize("pid", ["pi_sierpinski", "p3"])
def test_a_reduction_that_removes_points_builds_each_table_once(monkeypatch, pid):
    # pi_sierpinski's reduction removes two points; p3 gets a map down beat
    # point added, so its reduced map is a new slice on the unknown path
    p = gallery_entry(pid).build()
    if pid == "p3":
        p = insert_map_down_beat_point(seeded(5), p, "x")
    seen = count_table_builds(monkeypatch)
    v = decide_hurewicz(p)
    # a second reduction of the same map reads the tables the first one built
    assert smallest_dbp_retract_of_map(p).trace.removed
    assert v.status == ("fibration" if pid == "pi_sierpinski" else "unknown")
    assert seen["frames"] and all(len(ids) == 1 for ids in seen["frames"].values())
    assert seen["tables"] and set(seen["tables"].values()) == {1}
    assert seen["held"] == 0


@settings(max_examples=300, deadline=None)
@given(p=maps())
# random maps rarely reach the up half of the dichotomy; this one fails there at e0
@example(
    p=MonotoneMap.build(
        Poset.build(["e0", "e1", "e2"], [("e0", "e2"), ("e1", "e2")]),
        Poset.build(["b0", "b1", "b2", "b3"], [("b0", "b2"), ("b0", "b3"), ("b1", "b3")]),
        {"e0": "b0", "e1": "b2", "e2": "b2"},
    )
)
def test_beat_point_conditions_agree_with_their_own_scans_and_reductions(p):
    # the dichotomy reads the map's beat points off E's, and E_d is reduced
    # from what the map reduction left
    s = as_slice(p)
    for c in s.touched_components():
        f = _ComponentFacts(restrict_over(s, c))
        assert _cond_beat_point_dichotomy(f) == scan_beat_point_dichotomy(f)
        assert _cond_ed_inside_preimage_bd(f) == unshared_ed_inside_preimage_bd(f)


@settings(max_examples=300, deadline=None)
@given(p=maps())
def test_the_map_reduction_is_on_the_way_to_the_smallest_dbp_retract(p):
    ed = smallest_dbp_retract(as_slice(p).total).result
    assert ed == smallest_dbp_retract(smallest_dbp_retract_of_map(p).reduced.total).result
