"""Beat points, cores, descending endomaps, and the rigidity facts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfib.errors import NotDescending
from finfib.posets import MonotoneMap, Poset, _bits, _maximal, find_isomorphism, product
from finfib.stong import (
    _reduce,
    beat_points,
    core,
    f_infinity,
    homotopy_equivalent,
    is_contractible,
    smallest_dbp_retract,
)
from finfib.gallery import gallery_poset
from helpers import (
    all_dbp_retracts,
    crowns,
    endomaps_below_identity,
    homotopy_classes,
    is_beat_point_brute,
    is_dbp_retract,
    linear_extremum,
    map_le,
    posets,
    rand_poset,
    rescan_reduce,
    scan_witnesses,
    seeded,
    shuffling_picker,
    trace_idempotent,
)


def n_poset():
    # a < b > c < d, the smallest non-contractible-looking zigzag that
    # still collapses to a point
    return Poset.build(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])


def test_beat_points_on_known_spaces():
    bp = beat_points(n_poset())
    assert bp.down == {"d": "c"}
    assert bp.up == {"a": "b"}
    assert not bp.is_minimal
    crown = gallery_poset("B5")
    assert beat_points(crown).is_minimal
    b3 = gallery_poset("B3")
    assert beat_points(b3).down == {}
    assert beat_points(b3).up == {"c": "e", "d": "e"}


def test_beat_points_match_definition_on_random_posets():
    rng = seeded(23)
    for _ in range(40):
        x = rand_poset(rng, rng.randint(1, 8))
        bp = beat_points(x)
        # the same witnesses, in the same order, as a full rescan
        assert [list(bp.down.items()), list(bp.up.items())] == [list(d.items()) for d in scan_witnesses(x)]
        flagged = set(bp.down) | set(bp.up)
        for a in x.elements:
            assert (a in flagged) == is_beat_point_brute(x, a)
        for a, w in bp.down.items():
            assert x.lt(w, a)
            assert all(x.le(z, w) for z in x.elements if x.lt(z, a))
        for a, w in bp.up.items():
            assert x.lt(a, w)
            assert all(x.le(w, z) for z in x.elements if x.lt(a, z))


def test_core_trace_replays_as_beat_point_removals():
    rng = seeded(29)
    for _ in range(30):
        x = rand_poset(rng, rng.randint(1, 8))
        trace = core(x)
        cur = x
        for name, kind in trace.removed:
            bp = beat_points(cur)
            assert name in (bp.down if kind == "down" else bp.up)
            cur = cur.sub([e for e in cur.elements if e != name])
        assert cur == trace.result
        assert beat_points(trace.result).is_minimal


def test_core_retraction_is_a_retraction():
    rng = seeded(31)
    for _ in range(20):
        x = rand_poset(rng, rng.randint(1, 8))
        trace = core(x)
        assert trace.retraction.restrict(trace.result) == MonotoneMap.identity(trace.result)
        idem = trace_idempotent(trace)
        assert idem.then(idem) == idem


def test_cores_from_shuffled_orders_are_isomorphic():
    rng = seeded(37)
    for _ in range(60):
        x = rand_poset(rng, rng.randint(1, 8))
        reference = core(x).result
        shuffled = rescan_reduce(x, ("down", "up"), shuffling_picker(rng)).result
        assert find_isomorphism(reference, shuffled) is not None


def test_smallest_dbp_retract_is_order_independent():
    rng = seeded(41)
    for _ in range(40):
        x = rand_poset(rng, rng.randint(1, 8))
        reference = set(smallest_dbp_retract(x).result.elements)
        assert not beat_points(smallest_dbp_retract(x).result).down
        for _ in range(5):
            again = rescan_reduce(x, ("down",), shuffling_picker(rng))
            assert set(again.result.elements) == reference
        # the up beat point retract: the down one of the opposite
        dual = smallest_dbp_retract(x.op())
        assert not beat_points(dual.result.op()).up
        assert is_dbp_retract(x.op(), dual.result.elements) is not None


@settings(max_examples=200, deadline=None)
@given(x=posets(max_size=7))
def test_every_subspace_that_holds_the_smallest_dbp_retract_reduces_to_it(x):
    # the retraction r onto X_d is <= id and fixes X_d, so a minimal point
    # e of P - X_d is a down beat point of P witnessed by r(e)
    xd = smallest_dbp_retract(x).result
    rest = [e for e in x.elements if e not in xd.index]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            assert is_dbp_retract(x.sub([*xd.elements, *extra]), xd.elements) is not None


def test_dbp_retract_membership():
    x = n_poset()
    assert is_dbp_retract(x, ["a", "b", "c"]) is not None
    assert is_dbp_retract(x, ["a", "b", "d"]) is None
    assert all_dbp_retracts(x) == (("a", "b", "c", "d"), ("a", "b", "c"))
    assert set(all_dbp_retracts(x.op())) == {("a", "b", "c", "d"), ("b", "c", "d")}


def test_descending_endomaps_stabilize_onto_dbp_retracts():
    rng = seeded(43)
    for _ in range(25):
        x = rand_poset(rng, rng.randint(1, 6))
        maps = list(endomaps_below_identity(x))
        for f in rng.sample(maps, min(8, len(maps))):
            g = f_infinity(f)
            assert g.then(g) == g
            assert map_le(g, MonotoneMap.identity(x))
            # manual stabilization reaches the same map
            h = f
            for _ in range(x.n + 1):
                nxt = h.then(f)
                if nxt == h:
                    break
                h = nxt
            assert g == h
            assert is_dbp_retract(x, x.names(g.image_mask())) is not None


def test_f_infinity_rejects_non_descending_maps():
    two = Poset.chain(["0", "1"])
    up = MonotoneMap(two, two, (two.idx("1"),) * two.n)
    with pytest.raises(NotDescending):
        f_infinity(up)


def test_smallest_dbp_idempotent_is_minimum_below_identity():
    rng = seeded(47)
    checked = 0
    for _ in range(40):
        x = rand_poset(rng, rng.randint(1, 6))
        idem = trace_idempotent(smallest_dbp_retract(x))
        below = list(endomaps_below_identity(x))
        assert idem in below
        assert all(map_le(idem, f) for f in below)
        checked += 1
    assert checked == 40


def test_rigidity_below_identity_on_minimal_spaces():
    rng = seeded(53)
    for _ in range(40):
        x = core(rand_poset(rng, rng.randint(1, 8))).result
        ident = MonotoneMap.identity(x)
        assert list(endomaps_below_identity(x)) == [ident]
        # the maps above the identity, as maps below it on the opposite
        assert list(endomaps_below_identity(x.op())) == [ident.op()]


def test_rigidity_up_to_homotopy_on_minimal_spaces():
    rng = seeded(59)
    checked = 0
    for _ in range(40):
        x = core(rand_poset(rng, rng.randint(1, 8))).result
        try:
            classes = homotopy_classes(x, x, guard=10_000)
        except GuardExceeded:
            continue
        ident = MonotoneMap.identity(x)
        mine = next(c for c in classes if ident in c)
        assert mine == [ident]
        checked += 1
    assert checked >= 20


def test_one_sided_rigidity_needs_only_one_sided_minimality():
    # dbp-free but with up beat points: nothing below the identity
    x = smallest_dbp_retract(n_poset()).result
    assert not beat_points(x).down
    assert list(endomaps_below_identity(x)) == [MonotoneMap.identity(x)]


def test_contractibility_and_homotopy_equivalence():
    assert is_contractible(gallery_poset("B3"))
    assert is_contractible(n_poset())
    crown = gallery_poset("B5")
    assert not is_contractible(crown)
    point = Poset.build(["z"], [])
    eq, phi = homotopy_equivalent(n_poset(), point)
    assert eq
    assert phi is not None
    eq, phi = homotopy_equivalent(crown, point)
    assert not eq
    assert phi is None
    relabeled = Poset.build(["w", "x", "y", "z"], [("w", "y"), ("w", "z"), ("x", "y"), ("x", "z")])
    eq, phi = homotopy_equivalent(crown, relabeled)
    assert eq
    assert all(relabeled.le(phi[a], phi[b]) == crown.le(a, b) for a in crown for b in crown)


def test_core_of_gallery_posets():
    for pid, size in [("B1", 1), ("B3", 1), ("B4", 1), ("E3", 1), ("S", 1)]:
        assert core(gallery_poset(pid)).result.n == size
    for pid in ["B5", "E5"]:
        x = gallery_poset(pid)
        assert core(x).result == x


@settings(max_examples=300, deadline=None)
@given(
    x=posets(max_size=10),
    kinds=st.sampled_from([("down", "up"), ("down",), ("up",)]),
    data=st.data(),
)
def test_worklist_reduction_agrees_with_the_rescan_oracle(x, kinds, data):
    fiber_vals = data.draw(st.none() | st.lists(st.integers(0, 2), min_size=x.n, max_size=x.n))
    assert_reduce_agrees_with_the_rescan_oracle(x, kinds, fiber_vals)


def assert_reduce_agrees_with_the_rescan_oracle(x, kinds, fiber_vals):
    got = _reduce(x, kinds, fiber_vals)
    want = rescan_reduce(x, kinds, None, fiber_vals=fiber_vals)
    assert (got.removed, got.result, got.retraction) == (want.removed, want.result, want.retraction)


@pytest.mark.parametrize("k, m", list(itertools.product([1, 2, 3], range(1, 7))))
def test_worklist_reduction_agrees_with_the_rescan_oracle_on_crown_times_chain(k, m):
    # the shuffled projection of crown(k) x chain(m) onto the crown: many
    # witnessless points lie above the beat points the reduction removes
    prod, to_crown, _ = product(crowns(k, 1, "b"), Poset.chain([f"c{i}" for i in range(m)]))
    order = list(prod.elements)
    seeded(10 * k + m).shuffle(order)
    x = Poset.build(order, prod.covers())
    vals = [to_crown.vals[prod.idx(a)] for a in x.elements]
    for kinds in [("down", "up"), ("down",), ("up",)]:
        for fiber_vals in (None, vals):
            assert_reduce_agrees_with_the_rescan_oracle(x, kinds, fiber_vals)


@settings(max_examples=300, deadline=None)
@given(x=posets(max_size=10).filter(len), data=st.data())
def test_removing_a_point_changes_only_the_witnesses_of_the_minimal_points_above_it(x, data):
    # the lemma _reduce re-examines by: removing i changes the maximum (or
    # its lack) of an alive strict down-set D_j only where i is maximal in
    # D_j, so only for the minimal alive points above i; these are the
    # points i witnessed and the witnessless ones with nothing between
    i = data.draw(st.integers(0, x.n - 1))
    after = data.draw(st.integers(0, (1 << x.n) - 1)) & ~(1 << i)
    alive = after | 1 << i
    for rows, co in ((x.below, x.above), (x.above, x.below)):
        before = {j: linear_extremum(rows, rows[j] & alive & ~(1 << j)) for j in _bits(after)}
        changed = {j for j in _bits(after) if linear_extremum(rows, rows[j] & after & ~(1 << j)) != before[j]}
        redo = set(_bits(_maximal(co, rows, co[i] & after)))
        assert changed <= redo
        witnessed = {j for j, w in before.items() if w == i}
        lonely = {j for j, w in before.items() if w is None and rows[j] & co[i] & after == 1 << j}
        assert redo == witnessed | lonely


@pytest.mark.parametrize(
    "reduce, end",
    [
        (core, "c0"),
        (smallest_dbp_retract, "c0"),
        pytest.param(lambda x: smallest_dbp_retract(x.op()), "c1499", id="smallest_ubp_retract-c1499"),
    ],
)
def test_a_shuffled_1500_chain_reduces_to_a_point(reduce, end):
    names = [f"c{i}" for i in range(1500)]
    order = names[:]
    seeded(59).shuffle(order)
    trace = reduce(Poset.build(order, list(zip(names, names[1:]))))
    assert trace.result.elements == (end,)
    f = trace_idempotent(trace)
    assert f.then(f) == f
