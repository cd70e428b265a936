"""Core poset machinery: order queries, products, map enumeration, isos."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfib.errors import (
    CodomainMismatch,
    CycleDetected,
    DuplicateName,
    NotMonotone,
    UnknownElement,
)
import finfib.posets
from finfib.grothendieck import grothendieck_construction
from finfib.posets import (
    MonotoneMap,
    Poset,
    _extremum,
    _joint_labels,
    _maximal,
    find_isomorphism,
    find_isomorphism_over_base,
    isomorphisms,
    pair_name,
    product,
)
from helpers import (
    GuardExceeded,
    all_pairs_monotone,
    brute_iso,
    chain,
    closure_rows,
    cover_scan_disorder,
    crowns,
    generated_domains,
    height_keyed_joint_labels,
    hom_poset,
    linear_extremum,
    matrix_labeled_posets,
    pair_walk_covers,
    pair_walk_heights,
    pair_walk_sub,
    posets,
    rand_functor,
    rand_monotone,
    rand_poset,
    rec_isomorphisms,
    rec_monotone_maps,
    seeded,
    shift_sum_product_rows,
    transpose,
    twisted_bundle,
)


def diamond():
    return Poset.build(["bot", "l", "r", "top"], [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])


def crown():
    return Poset.build(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def test_build_takes_transitive_closure():
    p = Poset.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.le("a", "c")
    assert p.lt("a", "c")
    assert not p.le("c", "a")
    assert p.down_set("c") == ("a", "b", "c")


@st.composite
def generating_pairs(draw, max_size=9):
    """(elements, pairs, index pairs): an acyclic relation with repeated and non-cover pairs."""
    n = draw(st.integers(0, max_size))
    names = [f"x{i}" for i in range(n)]
    rank = draw(st.permutations(range(n)))  # a linear extension, so no cycle
    pairs = []
    if n > 1:
        slot = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: rank[t[0]] < rank[t[1]])
        pairs = draw(st.lists(slot, max_size=3 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))  # repeated pairs
    return draw(st.permutations(names)), [(names[i], names[j]) for i, j in pairs], pairs


@settings(max_examples=300, deadline=None)
@given(case=generating_pairs())
def test_build_closes_generating_pairs_like_warshall(case):
    elements, pairs, index_pairs = case
    p = Poset.build(elements, pairs)
    # Warshall runs on the drawn indices; the poset lists its elements shuffled
    closed = closure_rows(len(elements), index_pairs)
    at = [int(e[1:]) for e in p.elements]
    assert p.below == tuple(sum(1 << k for k, j in enumerate(at) if closed[at[i]] >> j & 1) for i in range(p.n))
    assert p.above == transpose(p.below)


@pytest.mark.parametrize(
    "elements, pairs, error, message",
    [
        (["a", "a"], [("a", "z")], DuplicateName, "duplicate element name 'a'"),
        (["a", "a", "b"], [("b", "b")], DuplicateName, "duplicate element name 'a'"),
        (["a", 1], [], UnknownElement, "element names must be strings, got 1"),
        (["a", "b"], [("z", "a"), ("a", "y")], UnknownElement, "unknown element 'z' in relation pair"),
        (["a", "b"], [("a", "y"), ("z", "a")], UnknownElement, "unknown element 'y' in relation pair"),
        (["a", "b"], [("a", "a"), ("a", "z")], CycleDetected, "element 'a' declared below itself"),
        (["a", "b"], [("a", "z"), ("a", "a")], UnknownElement, "unknown element 'z' in relation pair"),
        (["a", "b"], [("a", "b"), ("b", "a"), ("b", "b")], CycleDetected, "element 'b' declared below itself"),
        (["a", "b"], [("a", "b"), ("b", "a"), ("a", "z")], UnknownElement, "unknown element 'z' in relation pair"),
        (["x", "a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "b")], CycleDetected,
         "relation has a cycle through 'b'"),
        # the first listed element left over by the topological sort, which
        # need not lie on the cycle itself
        (["d", "b", "c", "x"], [("b", "c"), ("c", "b"), ("c", "d")], CycleDetected,
         "relation has a cycle through 'd'"),
    ],
)
def test_build_errors_keep_their_precedence_and_messages(elements, pairs, error, message):
    with pytest.raises(error) as info:
        Poset.build(elements, pairs)
    assert str(info.value) == message


def test_build_rejects_cycles_and_duplicates():
    with pytest.raises(CycleDetected):
        Poset.build(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(DuplicateName):
        Poset.build(["a", "a"], [])
    with pytest.raises(UnknownElement):
        Poset.build(["a"], [("a", "z")])


def test_covers_regenerate_the_order():
    rng = seeded(11)
    for _ in range(30):
        p = rand_poset(rng, rng.randint(1, 8))
        q = Poset.build(p.elements, p.covers())
        assert q == p


def test_cover_relation_is_minimal():
    d = diamond()
    assert set(d.covers()) == {("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")}


def test_extrema_and_heights():
    d = diamond()
    assert d.minimum() == "bot"
    assert d.maximum() == "top"
    assert d.height() == 2
    c = crown()
    assert c.minimum() is None
    assert c.maximum() is None
    assert c.height() == 1


def test_components_and_connectivity():
    two = Poset.build(["a", "b", "c"], [("a", "b")])
    assert two.components() == (("a", "b"), ("c",))
    assert not len(two.components()) <= 1
    assert len(diamond().components()) <= 1
    assert Poset.build([], []).components() == ()


def test_op_swaps_the_order():
    d = diamond()
    o = d.op()
    assert o.le("top", "bot")
    assert o.op() == d
    assert set(o.covers()) == {(b, a) for a, b in d.covers()}


@settings(max_examples=200, deadline=None)
@given(p=posets(max_size=8))
def test_op_swaps_the_rows_it_already_has(p):
    # op() passes both rows on instead of transposing below again
    o = p.op()
    transposed = Poset(p.elements, p.above, transpose(p.above))
    assert (o.below, o.above) == (transposed.below, transposed.above) == (p.above, p.below)
    assert o == transposed and hash(o) == hash(transposed)


def assert_cover_queries_match_the_pair_walk(p):
    covers = pair_walk_covers(p)
    assert p.covers() == covers
    lower, upper, _ = p._cover_table()
    for i, a in enumerate(p.elements):
        assert tuple(p.elements[j] for j in lower[i]) == tuple(lo for lo, hi in covers if hi == a)
        assert tuple(p.elements[j] for j in upper[i]) == tuple(hi for lo, hi in covers if lo == a)
    assert p.heights() == pair_walk_heights(p)


@settings(max_examples=200, deadline=None)
@given(p=posets(max_size=10), q=posets(max_size=4), data=st.data())
def test_cover_table_matches_the_pair_walk(p, q, data):
    # op() both before and after p has built its cover table
    fresh_op = p.op()
    assert_cover_queries_match_the_pair_walk(p)
    keep = data.draw(st.lists(st.booleans(), min_size=p.n, max_size=p.n))
    derived = [fresh_op, p.op(), p.sub(e for e, k in zip(p.elements, keep) if k), product(p, q)[0]]
    for s in derived:
        assert_cover_queries_match_the_pair_walk(s)


def has_transposed_rows(p):
    return p.above == transpose(p.below)


@settings(max_examples=200, deadline=None)
@given(p=posets(max_size=8), q=posets(max_size=4), data=st.data())
def test_every_constructor_hands_over_the_transposed_rows(p, q, data):
    # each constructor builds above from its own data; none may drift
    # from the transpose of below
    assert has_transposed_rows(p)
    assert has_transposed_rows(p.op())
    keep = data.draw(st.lists(st.booleans(), min_size=p.n, max_size=p.n))
    assert has_transposed_rows(p.sub(e for e, k in zip(p.elements, keep) if k))
    assert has_transposed_rows(product(p, q)[0])
    d = rand_functor(seeded(data.draw(st.integers(0, 2**16))))
    assert has_transposed_rows(grothendieck_construction(d).total)


def test_enumerated_and_empty_posets_hand_over_the_transposed_rows():
    # every order on up to three labeled points, rebuilt from its covers
    for k in range(1, 4):
        for p in matrix_labeled_posets(tuple(f"y{t}" for t in range(k))):
            assert has_transposed_rows(Poset.build(p.elements, p.covers()))
    assert Poset.build([], []).above == Poset.build([], []).below == ()


@st.composite
def label_pairs(draw):
    """A poset of up to 20 points against a shuffled, renamed copy or an
    unrelated poset, with extra labels None or drawn from 0..3.
    """
    p = draw(posets(max_size=20))
    labelled = draw(st.booleans())
    extra_p = draw(st.lists(st.integers(0, 3), min_size=p.n, max_size=p.n)) if labelled else None
    if draw(st.booleans()):
        ren = {a: f"r{i}" for i, a in enumerate(p.elements)}
        order = draw(st.permutations(p.elements))
        q = Poset.build([ren[a] for a in order], [(ren[a], ren[b]) for a, b in p.covers()])
        extra_q = [extra_p[p.index[a]] for a in order] if labelled else None
    else:
        q = draw(posets(max_size=20))
        extra_q = draw(st.lists(st.integers(0, 3), min_size=q.n, max_size=q.n)) if labelled else None
    return p, q, extra_p, extra_q


@settings(max_examples=300, deadline=None)
@given(pair=label_pairs())
def test_refinement_without_height_keys_gives_the_same_colours(pair):
    # the stable partition separates heights and depths by itself
    assert _joint_labels(*pair) == height_keyed_joint_labels(*pair)


def test_sub_induces_the_order():
    d = diamond()
    s = d.sub(["bot", "l", "top"])
    assert s.le("bot", "top")
    assert s.covers() == (("bot", "l"), ("l", "top"))
    sub = d.sub(["bot", "top"])
    assert sub.le("bot", "top")
    assert sub.covers() == (("bot", "top"),)


@st.composite
def sub_masks(draw):
    """A poset and a mask on it: full, empty, one point, one run, fiber
    blocks, runs with gaps or random.
    """
    kind = draw(st.sampled_from(["full", "empty", "one", "run", "blocks", "runs", "random"]))
    if kind == "blocks":
        # whole fibers of a product over some base points, or each
        # fiber's bottom part, as restriction and reduction keep them
        base, fib = draw(posets(max_size=4)), draw(posets(max_size=8))
        p = product(base, fib)[0]
        width = draw(st.integers(0, fib.n))
        picked = draw(st.lists(st.booleans(), min_size=base.n, max_size=base.n))
        return p, sum(((1 << width) - 1) << x * fib.n for x, on in enumerate(picked) if on)
    p = draw(posets(max_size=16 if kind == "runs" else 10))
    full = (1 << p.n) - 1
    if kind == "full" or not p.n:
        return p, full
    if kind == "empty":
        return p, 0
    if kind == "one":
        return p, 1 << draw(st.integers(0, p.n - 1))
    if kind == "run":
        lo = draw(st.integers(0, p.n - 1))
        return p, ((1 << draw(st.integers(1, p.n - lo))) - 1) << lo
    if kind == "runs":
        mask, at = 0, draw(st.integers(0, 2))
        while at < p.n:
            width = draw(st.integers(1, 6))
            mask |= ((1 << width) - 1) << at
            at += width + draw(st.integers(1, 3))
        return p, mask & full
    return p, draw(st.integers(0, full))


@settings(max_examples=400, deadline=None)
@given(case=sub_masks())
def test_sub_agrees_with_the_pair_walk(case):
    p, mask = case
    keep = p.names(mask)
    got, want = p.sub(keep), pair_walk_sub(p, keep)
    assert got.elements == want.elements
    assert (got.below, got.above) == (want.below, want.above)
    assert p.sub(p.elements) is p


def test_max_min_of_subsets():
    c = crown()
    assert c.max_of_mask(c.mask(["a", "c"])) == "c"
    assert c.max_of_mask(c.mask(["c", "d"])) is None
    assert c.min_of_mask(c.mask(["a", "b"])) is None
    assert c.min_of_mask(c.mask(["a", "d"])) == "a"


@settings(max_examples=300, deadline=None)
@given(p=posets(max_size=8), data=st.data())
def test_extremum_search_agrees_with_the_linear_probe(p, data):
    full = (1 << p.n) - 1
    r = data.draw(st.integers(0, full))
    masks = [r]
    if p.n:
        # a down or up set keeps its generator, so extrema are common
        i = data.draw(st.integers(0, p.n - 1))
        masks += [p.below[i] & (r | 1 << i), p.above[i] & (r | 1 << i)]
    for m in masks:
        assert _extremum(p.below, p.above, m) == linear_extremum(p.below, m)
        assert _extremum(p.above, p.below, m) == linear_extremum(p.above, m)
        # i is maximal (minimal) in m when nothing else of m is above (below) it
        inside = [i for i in range(p.n) if m >> i & 1]
        assert _maximal(p.below, p.above, m) == sum(1 << i for i in inside if m & p.above[i] == 1 << i)
        assert _maximal(p.above, p.below, m) == sum(1 << i for i in inside if m & p.below[i] == 1 << i)


def test_product_is_x_major_with_pair_names():
    p = chain(["a", "b"])
    q = chain(["0", "1", "2"])
    prod, to_p, to_q = product(p, q)
    assert prod.n == 6
    # x runs slowest: index k = x * |q| + y
    assert prod.elements[0] == pair_name("a", "0")
    assert prod.elements[1] == pair_name("a", "1")
    assert prod.elements[3] == pair_name("b", "0")
    assert to_p(pair_name("b", "2")) == "b"
    assert to_q(pair_name("b", "2")) == "2"
    assert prod.le(pair_name("a", "0"), pair_name("b", "2"))
    assert not prod.le(pair_name("b", "0"), pair_name("a", "2"))


def test_product_order_is_componentwise():
    rng = seeded(5)
    p = rand_poset(rng, 3, prefix="p")
    q = rand_poset(rng, 3, prefix="q")
    prod, _, _ = product(p, q)
    for x1, y1 in itertools.product(p.elements, q.elements):
        for x2, y2 in itertools.product(p.elements, q.elements):
            expected = p.le(x1, x2) and q.le(y1, y2)
            assert prod.le(pair_name(x1, y1), pair_name(x2, y2)) == expected


@settings(max_examples=200, deadline=None)
@given(p=posets(max_size=6), q=posets(max_size=5))
def test_product_rows_match_the_shift_sum(p, q):
    prod, _, _ = product(p, q)
    assert (prod.below, prod.above) == shift_sum_product_rows(p, q)


def test_monotone_map_build_validates():
    p = chain(["a", "b"])
    q = chain(["0", "1"])
    with pytest.raises(NotMonotone):
        MonotoneMap.build(p, q, {"a": "1", "b": "0"})
    with pytest.raises(UnknownElement):
        MonotoneMap.build(p, q, {"a": "0"})
    m = MonotoneMap.build(p, q, {"a": "0", "b": "1"})
    assert m("a") == "0"
    assert m.values == {"a": "0", "b": "1"}


@st.composite
def values_to_check(draw):
    """(dom, cod, values) with cod a poset or a product of one.

    The values are random, or monotone and then changed at a few points.
    """
    dom = draw(posets(max_size=7))
    cod = draw(posets(max_size=6).filter(len))
    if draw(st.booleans()):
        cod = product(cod, draw(posets(max_size=3).filter(len)))[0]
    if draw(st.booleans()):
        return dom, cod, {x: draw(st.sampled_from(cod.elements)) for x in dom}
    values = rand_monotone(seeded(draw(st.integers(0, 2**16))), dom, cod).values
    for x in draw(st.lists(st.sampled_from(dom.elements), max_size=2)) if dom.n else ():
        values[x] = draw(st.sampled_from(cod.elements))
    return dom, cod, values


@settings(max_examples=400, deadline=None)
@given(case=values_to_check())
def test_build_refuses_exactly_the_maps_that_break_some_pair(case):
    dom, cod, values = case
    f = MonotoneMap(dom, cod, [cod.index[values[x]] for x in dom.elements])
    # the test on generating pairs and the cover scan it falls back on agree on every map
    assert f._disorder() == cover_scan_disorder(f)
    if all_pairs_monotone(dom, cod, values):
        # a monotone map on a domain that kept its pairs is accepted without its cover table
        fresh = Poset.build(dom.elements, dom.covers())
        assert MonotoneMap.build(fresh, cod, values) == f
        assert fresh._covers is None
        return
    with pytest.raises(NotMonotone) as info:
        MonotoneMap.build(dom, cod, values)
    # the message names the first cover, in covers() order, out of order
    lo, hi = (dom.elements[i] for i in cover_scan_disorder(f))
    assert str(info.value) == (
        f"{lo!r} <= {hi!r} in the domain but {values[lo]!r} <= {values[hi]!r} fails in the codomain"
    )


@settings(max_examples=400, deadline=None)
@given(case=generated_domains(), cod=posets(max_size=5).filter(len), data=st.data())
def test_generating_pairs_decide_monotonicity_and_give_the_covers(case, cod, data):
    way, dom = case
    # only an induced subposet that drops a point keeps no pairs
    assert dom._gens is not None or way == "sub"
    # the oracles and the drawing read a twin without pairs, so they build no cover table on dom
    twin = Poset(dom.elements, dom.below, dom.above)
    if data.draw(st.booleans()):
        values = {x: data.draw(st.sampled_from(cod.elements)) for x in dom}
    else:
        values = rand_monotone(seeded(data.draw(st.integers(0, 2**16))), twin, cod).values
        for x in data.draw(st.lists(st.sampled_from(dom.elements), max_size=2)) if dom.n else ():
            values[x] = data.draw(st.sampled_from(cod.elements))
    f = MonotoneMap(dom, cod, [cod.index[values[x]] for x in dom.elements])
    assert f._disorder() == cover_scan_disorder(MonotoneMap(twin, cod, f.vals))
    monotone = all_pairs_monotone(dom, cod, values)
    try:
        assert MonotoneMap.build(dom, cod, values) == f
        assert monotone
        # a domain with generating pairs accepts a monotone map without its cover table
        assert dom._gens is None or dom._covers is None
    except NotMonotone:
        assert not monotone
    assert_cover_queries_match_the_pair_walk(dom)


def test_composition_and_identity():
    rng = seeded(7)
    p = rand_poset(rng, 4, prefix="p")
    q = rand_poset(rng, 4, prefix="q")
    r = rand_poset(rng, 4, prefix="r")
    f = rand_monotone(rng, p, q)
    g = rand_monotone(rng, q, r)
    h = f.then(g)
    for a in p.elements:
        assert h(a) == g(f(a))
    assert f.then(MonotoneMap.identity(q)) == f
    assert MonotoneMap.identity(p).then(f) == f
    with pytest.raises(CodomainMismatch):
        f.then(f)


def test_image_and_injectivity_flags():
    p = chain(["a", "b"])
    q = chain(["0", "1"])
    const = MonotoneMap(p, q, (q.idx("0"),) * p.n)
    assert q.names(const.image_mask()) == ("0",)
    assert not const.is_surjective()
    assert not const.is_injective()
    iso = MonotoneMap.build(p, q, {"a": "0", "b": "1"})
    assert iso.is_iso()
    # the inverse as the README's removed-names table spells it
    inv = MonotoneMap(iso.cod, iso.dom, sorted(range(iso.dom.n), key=iso.vals.__getitem__))
    assert inv("1") == "b"


@settings(max_examples=300, deadline=None)
@given(p=posets(max_size=6), data=st.data())
def test_is_iso_agrees_with_the_pairwise_definition(p, data):
    # q is p shuffled with some covers dropped, so the identity on names
    # q -> p is a monotone bijection, an iso exactly when no relation is lost
    names = data.draw(st.permutations(p.elements))
    pairs = [c for c in p.covers() if data.draw(st.booleans())]
    q = Poset.build(names, pairs)
    f = MonotoneMap(q, p, [p.index[a] for a in q.elements])
    reflects = all(q.le(a, b) == p.le(a, b) for a in p.elements for b in p.elements)
    assert f.is_iso() == reflects
    if reflects:
        # the inverse as the README's removed-names table spells it
        inv = MonotoneMap(f.cod, f.dom, sorted(range(f.dom.n), key=f.vals.__getitem__))
        assert inv.then(f) == MonotoneMap.identity(p)
        assert f.then(inv) == MonotoneMap.identity(q)


def test_monotone_maps_match_raw_filtering():
    """Check the enumerating oracle against brute-force filtering of all functions."""
    rng = seeded(13)
    for _ in range(12):
        dom = rand_poset(rng, rng.randint(1, 3), prefix="d")
        cod = rand_poset(rng, rng.randint(1, 3), prefix="c")
        got = {m.vals for m in rec_monotone_maps(dom, cod)}
        want = set()
        for vals in itertools.product(range(cod.n), repeat=dom.n):
            if all(
                not dom.le(a, b) or cod.le(cod.elements[vals[dom.idx(a)]], cod.elements[vals[dom.idx(b)]])
                for a in dom.elements
                for b in dom.elements
            ):
                want.add(vals)
        assert got == want


def test_monotone_maps_respect_bounds_and_pins():
    d = diamond()
    pinned = list(rec_monotone_maps(d, d, fixed={"top": "bot"}))
    assert all(f("top") == "bot" for f in pinned)
    assert pinned == [MonotoneMap(d, d, (d.idx("bot"),) * d.n)]


def test_monotone_maps_over_a_base():
    base = chain(["u", "v"])
    dom = chain(["a", "b"])
    p = MonotoneMap.build(dom, base, {"a": "u", "b": "v"})
    q = MonotoneMap.identity(base)
    over = list(rec_monotone_maps(dom, base, over=(p, q)))
    assert over == [p]


def test_guard_limits_enumeration():
    big = Poset.build([f"x{i}" for i in range(6)], [])
    with pytest.raises(GuardExceeded):
        hom_poset(big, big, guard=1000)
    with pytest.raises(GuardExceeded):
        list(rec_monotone_maps(big, big, 1000))


def test_hom_poset_of_the_chain():
    two = chain(["0", "1"])
    h = hom_poset(two, two)
    assert len(h) == 3
    classes = h.comparability_classes()
    assert len(classes) == 1


def test_isomorphism_search_agrees_with_permutation_scan():
    rng = seeded(17)
    hits = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        p = rand_poset(rng, n, prefix="p")
        if rng.random() < 0.5:
            # relabeled copy, shuffled storage order
            perm = list(p.elements)
            rng.shuffle(perm)
            ren = {a: f"q{i}" for i, a in enumerate(p.elements)}
            pairs = [(ren[a], ren[b]) for a, b in p.covers()]
            q = Poset.build([ren[a] for a in perm], pairs)
        else:
            q = rand_poset(rng, rng.randint(1, 5), prefix="q")
        brute = brute_iso(p, q)
        fast = find_isomorphism(p, q)
        assert (brute is None) == (fast is None)
        if fast is not None:
            hits += 1
            assert all(
                p.le(a, b) == q.le(fast[a], fast[b]) for a in p.elements for b in p.elements
            )
    assert hits >= 10


def test_isomorphisms_enumerates_all_of_them():
    c = crown()
    found = list(isomorphisms(c, c))
    assert len(found) == 4
    ident = {a: a for a in c.elements}
    assert ident in found


def test_find_isomorphism_over_base_on_a_product():
    base = chain(["u", "v"])
    fib = Poset.build(["0", "1"], [])
    prod, to_base, _ = product(base, fib)
    # same projection presented twice must match over the base
    iso = find_isomorphism_over_base(to_base, to_base)
    assert iso is not None
    assert all(to_base(iso[e]) == to_base(e) for e in prod.elements)
    other = MonotoneMap(prod, base, (base.idx("u"),) * prod.n)
    assert find_isomorphism_over_base(other, to_base) is None


def test_empty_and_singleton_edge_cases():
    e = Poset.build([], [])
    assert e.n == 0
    assert list(e) == []
    one = Poset.build(["x"], [])
    assert one.height() == 0
    assert one.minimum() == "x"


def draw_search_pair(p, data, labels):
    """A poset q to search for isomorphisms p -> q, and extra labels or None.

    q is a relabeled copy in shuffled storage order, possibly with one
    relation pair toggled, or an unrelated poset.
    """
    ren = {a: f"q{i}" for i, a in enumerate(p.elements)}
    pairs = {(ren[a], ren[b]) for a, b in p.covers()}
    q = Poset.build([ren[a] for a in data.draw(st.permutations(p.elements))], sorted(pairs))
    shape = data.draw(st.sampled_from(["copy", "toggled", "unrelated"]))
    if shape == "toggled" and q.n > 1:
        # drop the cover a < b, or add it unless b < a already
        a, b = data.draw(st.permutations(q.elements))[:2]
        if (a, b) in pairs:
            pairs.remove((a, b))
        elif not q.le(b, a):
            pairs.add((a, b))
        q = Poset.build(q.elements, sorted(pairs))
    elif shape == "unrelated":
        q = data.draw(posets(max_size=8))
    extra_p = extra_q = None
    if data.draw(st.booleans()):
        extra_p = data.draw(st.lists(st.integers(0, labels - 1), min_size=p.n, max_size=p.n))
        extra_q = data.draw(st.lists(st.integers(0, labels - 1), min_size=q.n, max_size=q.n))
    return q, extra_p, extra_q


def search_nodes(p, q, cap=200, **labels):
    """The isomorphisms the search yields (at most ``cap``) and the nodes it visits.

    A node is the (p, q) name pairs assigned so far and the q names of
    the candidate mask for the next element, as ``rec_isomorphisms``
    reports its nodes to ``visit``.
    """
    nodes = []
    search = finfib.posets._backtrack

    def watched(order, cand):
        def candidates(k, vals):
            ok = cand(k, vals)
            nodes.append((tuple((p.elements[i], q.elements[vals[i]]) for i in order[:k]), q.names(ok)))
            return ok

        return search(order, candidates)

    finfib.posets._backtrack = watched
    try:
        found = list(itertools.islice(isomorphisms(p, q, **labels), cap))
    finally:
        finfib.posets._backtrack = search
    return found, nodes


def agrees_node_for_node(p, q, cap=200, **labels):
    """Compare yields and visited nodes with the recursive oracle; return the yields.

    Each candidate mask must hold exactly the values consistent with the
    assignment so far: a constraint the search drops or adds by mistake
    changes some mask even where it changes no yield.
    """
    want_nodes = []
    oracle = rec_isomorphisms(p, q, visit=lambda *node: want_nodes.append(node), **labels)
    got = search_nodes(p, q, cap, **labels)
    assert got == (list(itertools.islice(oracle, cap)), want_nodes)
    return got[0]


def agrees_with_the_recursive_oracle(p, data, labels):
    q, extra_p, extra_q = draw_search_pair(p, data, labels)
    agrees_node_for_node(p, q, extra_p=extra_p, extra_q=extra_q)


@settings(max_examples=300, deadline=None)
@given(p=posets(max_size=8), data=st.data())
def test_isomorphism_search_agrees_with_the_recursive_oracle(p, data):
    agrees_with_the_recursive_oracle(p, data, labels=2)


@settings(max_examples=300, deadline=None)
@given(p=posets(max_size=8), data=st.data())
def test_isomorphism_search_agrees_with_the_recursive_oracle_on_four_labels(p, data):
    # more colour classes, so more of them are mutually apart
    agrees_with_the_recursive_oracle(p, data, labels=4)


def test_refuted_candidates_agree_node_for_node_where_refinement_cannot_split():
    # every point of both posets gets one colour, so the search tries and
    # refutes many values before it proves there is no isomorphism; each
    # node's candidates are compared with the values the oracle has not
    # refuted
    one, two = crowns(4, 1, "a"), crowns(2, 2, "b")
    assert agrees_node_for_node(one, two) == []
    assert len(search_nodes(one, two)[1]) > 20


@pytest.mark.parametrize("opposite", [False, True])
def test_the_search_prunes_with_maximal_lower_and_minimal_upper_neighbours(opposite):
    # the crown's points share one colour on each level of the chain, so
    # the search meets earlier neighbours that refinement cannot tell
    # apart; checking only minimal earlier lower neighbours (or maximal
    # upper ones) instead of the maximal (minimal) ones leaves values in
    # a candidate mask that the oracle refutes
    prod, _, _ = product(crowns(2, 1, "a"), chain(["c0", "c1", "c2"]))
    p = prod.op() if opposite else prod
    for seed in range(3):
        order = list(p.elements)
        seeded(seed).shuffle(order)
        q = Poset.build(order, p.covers())
        assert len(agrees_node_for_node(p, q)) == 4


def crown_fibers():
    return [Poset.build(["x0", "x1"], []), Poset.build(["x0", "x1", "x2"], []), crowns(2, 1, "x")]


@pytest.mark.parametrize(
    "k, fiber, twist",
    [(2, 0, 1), (2, 1, 3), (2, 2, 1), (2, 2, 3), (3, 0, 1)],
)
def test_bundle_searches_agree_with_the_recursive_oracle_node_for_node(k, fiber, twist):
    # labels are base values, as in the search over the base, so the
    # colour classes over incomparable base points are mutually apart
    # and the search drops their constraints
    fib = crown_fibers()[fiber]
    aut = list(isomorphisms(fib, fib))[twist]
    s = twisted_bundle(k, fib, aut)
    prod, to_base, _ = product(s.base, fib)
    ren = {a: f"y{i}" for i, a in enumerate(s.total.elements)}
    order = list(s.total.elements)
    seeded(k * 10 + twist).shuffle(order)
    copy = Poset.build([ren[a] for a in order], [(ren[a], ren[b]) for a, b in s.total.covers()])
    copy_vals = [s.map.vals[s.total.index[a]] for a in order]
    for q, extra_q in ((prod, to_base.vals), (copy, copy_vals)):
        agrees_node_for_node(s.total, q, extra_p=s.map.vals, extra_q=extra_q)


def test_a_shuffled_1500_chain_has_no_search_ceiling():
    names = [f"c{i}" for i in range(1500)]
    order = names[:]
    seeded(61).shuffle(order)
    c = Poset.build(order, list(zip(names, names[1:])))

    def in_index_order(pairs):
        return tuple(sorted(pairs, key=lambda pair: c.index[pair[0]]))

    assert c.covers() == in_index_order(zip(names, names[1:]))
    assert c.heights() == tuple(int(a[1:]) for a in c.elements)
    assert c.op().covers() == in_index_order(zip(names[1:], names))
    assert find_isomorphism(c, c) == {a: a for a in names}
