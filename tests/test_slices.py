"""Maps as sliced objects: fibers, map beat points, reductions over a base."""

import pytest
from hypothesis import given, settings

from finfib.errors import NotAComponent
from finfib.posets import MonotoneMap, Poset, find_isomorphism_over_base
from finfib.slices import (
    SliceMap,
    as_slice,
    map_beat_points,
    map_core,
    restrict_over,
    restrict_over_component,
    smallest_dbp_retract_of_map,
)
from finfib.stong import beat_points
from finfib.gallery import gallery_entry
from helpers import (
    map_le,
    maps,
    rand_monotone,
    rand_poset,
    rescan_map_reduce,
    scan_map_beat_points,
    seeded,
    shuffling_picker,
    trace_idempotent,
)


def rand_map(rng, max_total=8, max_base=4):
    dom = rand_poset(rng, rng.randint(1, max_total), prefix="e")
    cod = rand_poset(rng, rng.randint(1, max_base), prefix="b")
    return rand_monotone(rng, dom, cod)


def test_fibers_partition_the_total_space():
    rng = seeded(61)
    for _ in range(20):
        s = as_slice(rand_map(rng))
        seen = []
        for b in s.base.elements:
            seen.extend(s.fiber(b).elements)
        assert sorted(seen) == sorted(s.total.elements)
        for b in s.base.elements:
            fib = s.fiber(b)
            for x in fib.elements:
                assert s.map(x) == b
                for y in fib.elements:
                    assert fib.le(x, y) == s.total.le(x, y)


def test_touched_and_missed():
    dom = Poset.build(["x"], [])
    cod = Poset.build(["u", "v"], [])
    s = as_slice(MonotoneMap(dom, cod, (cod.idx("u"),) * dom.n))
    assert s.fiber_masks == (1, 0)  # x over u, nothing over v
    assert s.missed() == ("v",)
    assert s.touched_components() == (("u",),)


def test_map_beat_points_need_the_witness_in_the_fiber():
    rng = seeded(67)
    for _ in range(40):
        s = as_slice(rand_map(rng))
        mbp = map_beat_points(s)
        bp = beat_points(s.total)
        for e, w in mbp.down.items():
            assert bp.down.get(e) == w
            assert s.map(e) == s.map(w)
        for e, w in mbp.up.items():
            assert bp.up.get(e) == w
            assert s.map(e) == s.map(w)
        # every space beat point with a same-fiber witness is one of the map
        for e, w in bp.down.items():
            assert (e in mbp.down) == (s.map(e) == s.map(w))
        for e, w in bp.up.items():
            assert (e in mbp.up) == (s.map(e) == s.map(w))


def test_map_beat_points_of_gallery_maps():
    assert map_beat_points(gallery_entry("p2").build()).down == {}
    assert map_beat_points(gallery_entry("p5_minimal_bifib").build()).is_minimal
    assert not map_beat_points(gallery_entry("p1").build()).is_minimal


def test_smallest_dbp_retract_of_map_is_order_independent():
    rng = seeded(71)
    for _ in range(50):
        m = rand_map(rng)
        reference = set(smallest_dbp_retract_of_map(m).reduced.total.elements)
        for _ in range(6):
            again = rescan_map_reduce(m, ("down",), shuffling_picker(rng))
            assert set(again.total.elements) == reference


def test_map_reductions_stay_over_the_base():
    rng = seeded(73)
    for _ in range(30):
        m = rand_map(rng)
        red = map_core(m)
        assert red.reduced.base == m.cod
        for e in red.reduced.total.elements:
            assert red.reduced.map(e) == m(e)
        assert red.trace.source == m.dom
        assert red.trace.result == red.reduced.total
        # retraction stays fiberwise
        for e in m.dom.elements:
            assert m(red.trace.retraction(e)) == m(e)


@settings(max_examples=200, deadline=None)
@given(p=maps())
def test_a_map_reduction_that_removes_nothing_hands_back_its_slice(p):
    # so the reduced map's lift report shares the slice's caches
    s = as_slice(p)
    for red in (smallest_dbp_retract_of_map(s), map_core(s)):
        assert (red.reduced is s) == (not red.trace.removed)
        assert red.reduced.map == s.map.restrict(red.trace.result)


def test_map_core_trace_replays_as_map_beat_point_removals():
    rng = seeded(79)
    for _ in range(30):
        m = rand_map(rng)
        red = map_core(m)
        cur = as_slice(m)
        for name, kind in red.trace.removed:
            mbp = map_beat_points(cur)
            assert name in (mbp.down if kind == "down" else mbp.up)
            keep = [e for e in cur.total.elements if e != name]
            cur = SliceMap(cur.map.restrict(cur.total.sub(keep)))
        assert cur.total == red.reduced.total
        assert map_beat_points(red.reduced).is_minimal


def test_map_cores_from_shuffled_orders_are_isomorphic_over_the_base():
    rng = seeded(83)
    for _ in range(40):
        m = rand_map(rng)
        one = map_core(m).reduced
        two = rescan_map_reduce(m, ("down", "up"), shuffling_picker(rng))
        assert find_isomorphism_over_base(one.map, two.map) is not None


def test_map_dbp_retract_membership():
    p1 = gallery_entry("p1").build()
    # (a,1) is the only down beat point of the map
    assert map_beat_points(p1).down == {"(a,1)": "(a,0)"}
    red = smallest_dbp_retract_of_map(p1)
    assert set(red.reduced.total.elements) == {"(a,0)", "(b,0)"}
    # the up beat point retract: the down one of the opposite map
    dual = smallest_dbp_retract_of_map(p1.op())
    assert map_beat_points(dual.reduced.op()).up == {}


def test_restrict_over_takes_the_preimage():
    p3 = gallery_entry("p3").build()
    down = restrict_over(p3, ["a"])
    assert down.base.elements == ("a",)
    assert set(down.total.elements) == {"(a,0)", "(a,1)", "(a,2)"}
    below_top = restrict_over(p3, ["a", "b", "c", "d"])
    assert below_top.total.n == 8
    assert below_top.fiber("c").elements == ("(c,0)", "(c,1)")
    with pytest.raises(NotAComponent):
        restrict_over_component(p3, ["a"])
    comp = restrict_over_component(p3, p3.cod.elements)
    assert comp.total == as_slice(p3).total


def test_reduction_idempotent_is_fiberwise_descending():
    rng = seeded(89)
    for _ in range(20):
        m = rand_map(rng)
        red = smallest_dbp_retract_of_map(m)
        idem = trace_idempotent(red.trace)
        assert map_le(idem, MonotoneMap.identity(m.dom))
        assert idem.then(MonotoneMap(m.dom, m.cod, m.vals)) == MonotoneMap(m.dom, m.cod, m.vals)


def test_preimage_is_the_union_of_the_fibers():
    rng = seeded(211)
    for _ in range(20):
        s = as_slice(rand_monotone(rng, rand_poset(rng, 6), rand_poset(rng, 4, prefix="b")))
        for base_mask in range(1 << s.base.n):
            over = [e for e in s.total.elements if base_mask >> s.base.idx(s(e)) & 1]
            assert s.preimage(base_mask) == s.total.mask(over)


@settings(max_examples=300, deadline=None)
@given(p=maps())
def test_map_beat_points_are_the_scan_with_the_fiber_filter(p):
    got, want = map_beat_points(p), scan_map_beat_points(p)
    assert list(got.down.items()) == list(want.down.items())
    assert list(got.up.items()) == list(want.up.items())
