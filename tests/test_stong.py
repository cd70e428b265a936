"""Beat points, cores, descending endomaps, and the rigidity facts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfib import posets as posets_module
from finfib.errors import NotDescending
from finfib.posets import MonotoneMap, Poset, _bits, _maximal, find_isomorphism, product
from finfib.slices import as_slice, restrict_over
from finfib.stong import (
    _reduce,
    beat_points,
    core,
    f_infinity,
    homotopy_equivalent,
    is_contractible,
    smallest_dbp_retract,
)
from finfib.gallery import gallery_entry
from helpers import (
    all_dbp_retracts,
    chain,
    crowns,
    endomaps_below_identity,
    generated_domains,
    homotopy_classes,
    is_beat_point_brute,
    is_dbp_retract,
    linear_extremum,
    map_le,
    maps,
    pair_walk_covers,
    pair_walk_sub,
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
    crown = gallery_entry("B5").build()
    assert beat_points(crown).is_minimal
    b3 = gallery_entry("B3").build()
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
    two = chain(["0", "1"])
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
    assert is_contractible(gallery_entry("B3").build())
    assert is_contractible(n_poset())
    crown = gallery_entry("B5").build()
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
        assert core(gallery_entry(pid).build()).result.n == size
    for pid in ["B5", "E5"]:
        x = gallery_entry(pid).build()
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
    prod, to_crown, _ = product(crowns(k, 1, "b"), chain([f"c{i}" for i in range(m)]))
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
    # removing i changes the maximum (or its lack) of an alive strict
    # down-set D_j only where i is maximal in D_j, so only for the minimal
    # alive points above i; these are the points i witnessed and the
    # witnessless ones with nothing between
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


@settings(max_examples=300, deadline=None)
@given(x=posets(max_size=10), first=st.sampled_from((("down",), ("up",), ("down", "up"), ("up", "down"))))
def test_a_poset_that_served_a_reduction_answers_as_a_fresh_one(x, first):
    # x keeps the full-alive witness tables the first reduction built, and
    # that reduction updated copies of them: beat points, cores and the
    # smallest retract read off x are those of x built afresh.  A reduction
    # that removes nothing hands back x and its identity
    trace = _reduce(x, first)
    if not trace.removed:
        assert trace.result is x and trace.retraction == MonotoneMap.identity(x)
    fresh = Poset.build(x.elements, x.covers())
    assert beat_points(x) == beat_points(fresh)
    assert core(x) == core(fresh)
    assert smallest_dbp_retract(x) == smallest_dbp_retract(fresh)


@settings(max_examples=300, deadline=None)
@given(x=posets(max_size=10), data=st.data())
def test_removing_a_beat_point_rewires_only_its_neighbours_covers(x, data):
    # the removal lemma of _reduce: removing a down beat point i with
    # witness w (its one lower cover) leaves the covers without i, plus
    # (w, y) for each upper cover y of i with no other lower cover above
    # w; dually for an up beat point
    alive = data.draw(st.integers(0, (1 << x.n) - 1))
    sub = pair_walk_sub(x, x.names(alive))
    covers = set(pair_walk_covers(sub))
    for i in sub:
        # w and y index a cover pair on the witness's and the far side; le is <= or its opposite
        for w, y, le in ((0, 1, sub.le), (1, 0, lambda a, b: sub.le(b, a))):
            near = [c[w] for c in covers if c[y] == i]
            if len(near) != 1:
                continue
            (wi,) = near
            want = {c for c in covers if i not in c}
            for yi in (c[y] for c in covers if c[w] == i):
                if not any(le(wi, c[w]) for c in covers if c[y] == yi and c[w] != i):
                    want.add((wi, yi) if w == 0 else (yi, wi))
            assert set(pair_walk_covers(pair_walk_sub(sub, [e for e in sub if e != i]))) == want


@settings(max_examples=300, deadline=None)
@given(x=posets(max_size=10).filter(len), data=st.data())
def test_removing_a_witness_hands_its_own_witness_on(x, data):
    # if i was the witness of j, then D_j without i is D_i, so j's
    # witness after removing i is i's witness, or none
    i = data.draw(st.integers(0, x.n - 1))
    alive = data.draw(st.integers(0, (1 << x.n) - 1)) | 1 << i
    after = alive & ~(1 << i)
    for rows in (x.below, x.above):
        w_i = linear_extremum(rows, rows[i] & alive & ~(1 << i))
        for j in _bits(after):
            if linear_extremum(rows, rows[j] & alive & ~(1 << j)) == i:
                assert linear_extremum(rows, rows[j] & after & ~(1 << j)) == w_i


def test_core_on_a_shuffled_chain_neither_climbs_nor_reads_the_cover_table(monkeypatch):
    # the reduction takes the chain's covers from the pairs it was built
    # from and rewires them at each removal: it never climbs the order
    # and never builds the cover table
    calls = {"_climb": 0, "_cover_table": 0}
    for owner, name in ((posets_module, "_climb"), (Poset, "_cover_table")):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    names = [f"c{i}" for i in range(200)]
    order = names[:]
    seeded(61).shuffle(order)
    trace = core(Poset.build(order, list(zip(names, names[1:]))))
    assert trace.result.elements == ("c0",)
    assert calls == {"_climb": 0, "_cover_table": 0}


@st.composite
def reduction_domains(draw):
    """(poset, fiber values or None): a ``generated_domains`` poset, or the total over a base component."""
    if draw(st.booleans()):
        x = draw(generated_domains())[1]
        return x, draw(st.none() | st.lists(st.integers(0, 2), min_size=x.n, max_size=x.n))
    s = as_slice(draw(maps()))
    part = restrict_over(s, draw(st.sampled_from(s.base.components())))
    return part.total, draw(st.sampled_from((None, part.map.vals)))


@settings(max_examples=300, deadline=None)
@given(case=reduction_domains(), kinds=st.sampled_from([("down", "up"), ("down",), ("up",)]))
def test_the_reduction_agrees_with_the_rescan_oracle_on_every_kind_of_domain(case, kinds):
    # built with transitive and repeated pairs, a product, an opposite, an
    # induced subposet without pairs, the total over a component: the
    # trace is the oracle's, and so are the result's up-rows (which
    # equality of posets does not compare) and its covers
    x, fiber_vals = case
    assert_reduce_agrees_with_the_rescan_oracle(x, kinds, fiber_vals)
    result = _reduce(x, kinds, fiber_vals).result
    assert result.above == pair_walk_sub(x, result.elements).above
    assert result.covers() == pair_walk_covers(result)


class _Unread(tuple):
    """Generating pairs that fail the test when anything walks them."""

    def __iter__(self):
        raise AssertionError("the generating pairs were read")


@pytest.mark.parametrize(
    "x, kinds, fiber_vals",
    [
        pytest.param(gallery_entry("B5").build(), ("down", "up"), None, id="crown"),
        pytest.param(chain([f"c{i}" for i in range(5)]), ("down", "up"), list(range(5)), id="chain-over-itself"),
        pytest.param(n_poset(), ("down",), [0, 0, 0, 1], id="n-down-split"),
    ],
)
def test_a_reduction_that_removes_nothing_builds_no_diagram(monkeypatch, x, kinds, fiber_vals):
    # the witness tables x keeps show no candidate, so neither the pairs
    # nor the cover table are read, and x itself comes back
    assert x._gens is not None
    x._gens = _Unread(x._gens)
    monkeypatch.setattr(Poset, "_cover_table", lambda self: pytest.fail("the cover table was read"))
    trace = _reduce(x, kinds, fiber_vals)
    assert trace.removed == () and trace.result is x
    assert trace.retraction == MonotoneMap.identity(x)


@pytest.mark.parametrize("n", [4, 6, 10, 16])
@pytest.mark.parametrize("seed", range(3))
def test_the_up_scan_after_down_removals_agrees_with_the_rescan_oracle(n, seed):
    # in a shuffled fence f0 < f1 > f2 < f3 ... < f(n-1) the top end is the
    # one down beat point; removing the down beat points makes new up beat
    # points and removing those new down ones, so the up table is built
    # after some down removals and then kept alongside the down table
    names = [f"f{i}" for i in range(n)]
    order = names[:]
    seeded(seed).shuffle(order)
    zigzag = [(names[i], names[i + 1]) if i % 2 == 0 else (names[i + 1], names[i]) for i in range(n - 1)]
    x = Poset.build(order, zigzag)
    kinds_removed = [kind for _, kind in _reduce(x, ("down", "up"), None).removed]
    assert kinds_removed[0] == "down" and "up" in kinds_removed
    for fiber_vals in (None, [i % 2 for i in range(n)], [int(e[1:]) // 3 for e in x.elements]):
        assert_reduce_agrees_with_the_rescan_oracle(x, ("down", "up"), fiber_vals)


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
