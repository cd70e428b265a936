"""JSON documents and the text format: round trips and error paths."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfib.documents import (
    certificate_to_doc,
    detect_doc_kind,
    dumps,
    functor_from_doc,
    functor_to_doc,
    map_from_doc,
    map_to_doc,
    map_to_text,
    necessary_to_doc,
    parse_text,
    poset_from_doc,
    poset_to_doc,
    poset_to_text,
    retract_certificate_from_doc,
    retract_certificate_to_doc,
    verdict_to_doc,
)
from finfib.errors import ParseError, UnknownGalleryId
from finfib.gallery import gallery_map, gallery_poset
from finfib.grothendieck import PosetFunctor, classify_grothendieck, grothendieck_construction
from finfib.posets import MonotoneMap, Poset, find_isomorphism_over_base, product
from finfib.slices import smallest_dbp_retract_of_map
from finfib.verdict import (
    decide_hurewicz,
    necessary_conditions,
    projection_retract_height1,
    search_retract_certificate,
    verify_retract_certificate,
)
from helpers import census_unknown, posets, rand_functor, rand_monotone, rand_poset, seeded


def test_poset_doc_round_trip():
    rng = seeded(191)
    for _ in range(20):
        p = rand_poset(rng, rng.randint(0, 8))
        doc = poset_to_doc(p)
        assert set(doc) == {"elements", "covers"}
        assert poset_from_doc(doc) == p
        assert poset_from_doc(json.loads(json.dumps(doc))) == p


def test_map_doc_round_trip():
    rng = seeded(193)
    for _ in range(20):
        dom = rand_poset(rng, rng.randint(1, 6), prefix="e")
        cod = rand_poset(rng, rng.randint(1, 4), prefix="b")
        m = rand_monotone(rng, dom, cod)
        doc = map_to_doc(m)
        assert set(doc) == {"domain", "codomain", "values"}
        assert map_from_doc(doc) == m


def test_map_doc_resolves_gallery_references():
    doc = {
        "domain": "gallery:E1",
        "codomain": "gallery:B1",
        "values": gallery_map("p1").values,
    }
    assert map_from_doc(doc) == gallery_map("p1")
    with pytest.raises(UnknownGalleryId):
        map_from_doc({**doc, "domain": "gallery:nope"})


def test_functor_doc_round_trip():
    rng = seeded(197)
    for _ in range(10):
        d = rand_functor(rng)
        doc = functor_to_doc(d)
        back = functor_from_doc(doc)
        assert back == d
        assert back.variance == "covariant"
        # documents survive a JSON round trip including the pair keys
        assert functor_from_doc(json.loads(json.dumps(doc))) == d


def test_functor_doc_keys_use_the_pair_form():
    d = rand_functor(seeded(199))
    doc = functor_to_doc(d)
    for key in doc["transitions"]:
        assert "<=" in key


def two_point_functor(lo, hi):
    """Constant one-point functor over the chain lo < hi."""
    point = Poset.build(["0"], [])
    base = Poset.build([lo, hi], [(lo, hi)])
    ident = MonotoneMap.identity(point)
    return PosetFunctor(base, "covariant", {lo: point, hi: point}, {(lo, hi): ident})


@pytest.mark.parametrize(
    "lo, hi, bad", [("a<=x", "c", "a<=x"), (" a", "c", " a"), ("c", "a ", "a "), ("a\nb", "c", "a\nb")]
)
def test_functor_doc_names_the_base_element_its_keys_cannot_carry(lo, hi, bad):
    with pytest.raises(ParseError, match=re.escape(f"base element {bad!r}")):
        functor_to_doc(two_point_functor(lo, hi))


_KEY_NAMES = st.lists(st.sampled_from(["a", "<", "=", "<=", " ", "\n"]), min_size=1, max_size=4).map("".join)


@settings(max_examples=200, deadline=None)
@given(lo=_KEY_NAMES, hi=_KEY_NAMES)
def test_functor_doc_refuses_or_round_trips(lo, hi):
    if lo == hi:
        return
    d = two_point_functor(lo, hi)
    try:
        doc = functor_to_doc(d)
    except ParseError:
        return
    assert functor_from_doc(json.loads(json.dumps(doc))) == d


def test_retract_certificate_doc_round_trip():
    red = smallest_dbp_retract_of_map(gallery_map("pi_sierpinski")).reduced
    cert = projection_retract_height1(classify_grothendieck(red))
    doc = retract_certificate_to_doc(cert)
    back = retract_certificate_from_doc(json.loads(json.dumps(doc)), red)
    assert verify_retract_certificate(red, back)[0]
    assert back.x == cert.x and back.y == cert.y
    assert back.i == cert.i and back.r == cert.r


@pytest.mark.parametrize("field", ["i", "r", "j", "s"])
def test_retract_certificate_doc_refuses_malformed_maps(field):
    vee = Poset.build(["a", "b", "c"], [("a", "c"), ("b", "c")])
    _, p, _ = product(vee, Poset.chain(["0", "1"]))
    cert = projection_retract_height1(classify_grothendieck(p))
    doc = json.loads(json.dumps(retract_certificate_to_doc(cert)))
    good = doc[field]
    for bad in ({k: [v] for k, v in good.items()}, list(good.items()), "x", None, 3):
        with pytest.raises(ParseError, match=f"'{field}' must be an object mapping elements"):
            retract_certificate_from_doc({**doc, field: bad}, p)
    back = retract_certificate_from_doc(doc, p)
    assert (back.i, back.r, back.j, back.s) == (cert.i, cert.r, cert.j, cert.s)
    assert verify_retract_certificate(p, back)[0]


def test_verdict_doc_shapes():
    doc = verdict_to_doc(decide_hurewicz(gallery_map("p1")))
    assert doc["status"] == "fibration"
    assert doc["certificate"]["kind"] == "minimum_base_bifibration"
    assert doc["certificate"]["minimum"] == "a"
    assert doc["components"][0]["base_component"] == ["a", "b"]

    doc = verdict_to_doc(decide_hurewicz(gallery_map("p2")))
    assert doc["status"] == "not_fibration"
    assert doc["witness"]["e"] == "(a,2)"

    doc = verdict_to_doc(decide_hurewicz(gallery_map("p3")))
    assert doc["status"] == "unknown"
    necessary = doc["components"][0]["necessary"]
    assert all(v["passed"] for v in necessary.values())
    json.dumps(doc)  # serializable all the way down


def test_certificate_docs_write_each_kind_s_fields_in_order():
    fib = Poset.chain(["0", "1"])
    vee = Poset.build(["a", "b", "c"], [("a", "c"), ("b", "c")])
    fence = Poset.build(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])
    census = census_unknown()
    cases = [
        (gallery_map("p1"), {}, "minimum_base_bifibration", ["minimum", "reduction"]),
        (product(vee, fib)[1], {}, "height1_max_retract", ["maximum", "reduction", "retract"]),
        (product(fence, fib)[1], {}, "trivial_over_base", ["fiber_of", "iso", "reduction"]),
        (
            census,
            {"certificate": search_retract_certificate(census, max_y=3)},
            "explicit_retract",
            ["retract"],
        ),
    ]
    for m, kwargs, kind, keys in cases:
        doc = certificate_to_doc(decide_hurewicz(m, **kwargs).certificate)
        assert list(doc) == ["kind", *keys]
        assert doc["kind"] == kind
        assert json.loads(json.dumps(doc)) == doc


_STRINGS = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\U0001f600", "caf\xe9\n\t", "\u2028"])
_HUGE = st.integers(min_value=10**30) | st.integers(max_value=-(10**30))
_SCALARS = _STRINGS | st.integers() | _HUGE | st.booleans() | st.none()
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4)
    # the shapes the emitter writes by one join: cover lists and value maps
    | st.lists(st.lists(_STRINGS, max_size=3) | st.lists(_STRINGS, max_size=3).map(tuple), max_size=4)
    | st.dictionaries(_STRINGS, _STRINGS, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(doc=_DOCS)
def test_dumps_writes_what_the_stdlib_writes(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


def test_dumps_writes_floats_and_non_string_keys_as_the_stdlib_does():
    doc = {1: 1.5, None: float("inf"), True: [float("nan"), -0.0], 2.5: {"x": -1e300}, False: ()}
    assert dumps(doc) == json.dumps(doc, indent=2)


def _nested(depth):
    doc = []
    for _ in range(depth - 1):
        doc = [doc]
    return doc


def _nested_text(depth):
    opening = "".join("[\n" + "  " * k for k in range(1, depth))
    return opening + "[]" + "".join("\n" + "  " * k + "]" for k in reversed(range(depth - 1)))


def test_a_deeply_nested_list_emits_without_recursion():
    assert _nested_text(40) == json.dumps(_nested(40), indent=2)
    # three times the default recursion limit; the text grows with the
    # square of the depth, so this is 18 MB
    assert dumps(_nested(3_000)) == _nested_text(3_000)


@pytest.mark.parametrize(
    "doc",
    [[object()], {"a": {1, 2}}, {"a": ["b", b"c"]}, [["a"], ["b", 1j]], {(1, 2): "x"}, {"a": {frozenset(): 1}}],
)
def test_dumps_refuses_what_the_stdlib_refuses(doc):
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as got:
        dumps(doc)
    assert str(got.value) == str(want.value)


def test_necessary_doc_contains_every_condition():
    doc = necessary_to_doc(necessary_conditions(gallery_map("p2")))
    assert not doc["up_reachability"]["passed"]
    assert doc["up_reachability"]["witness"]["e"] == "(a,2)"
    assert doc["open_map"]["passed"]


def test_detect_doc_kind():
    assert detect_doc_kind(poset_to_doc(gallery_poset("B1"))) == "poset"
    assert detect_doc_kind(map_to_doc(gallery_map("p1"))) == "map"
    assert detect_doc_kind(functor_to_doc(rand_functor(seeded(211)))) == "functor"


def test_text_round_trip_for_posets_and_maps():
    rng = seeded(223)
    for _ in range(10):
        p = rand_poset(rng, rng.randint(1, 6))
        blocks = parse_text(poset_to_text("X", p))
        assert blocks == [("poset", "X", p)]
        dom = rand_poset(rng, rng.randint(1, 5), prefix="e")
        cod = rand_poset(rng, rng.randint(1, 3), prefix="b")
        m = rand_monotone(rng, dom, cod)
        parsed = parse_text(map_to_text("f", m))
        assert ("map", "f", m) in parsed


def test_text_format_accepts_comments_and_commas():
    text = """
    # a two point chain and a map onto it
    poset B { points: a, b; covers: a < b; }
    poset E { points: x, y, z; covers: x < y, x < z; }
    map p : E -> B { x -> a; y -> b; z -> b; }
    """
    blocks = parse_text(text)
    kinds = [(k, n) for k, n, _ in blocks]
    assert kinds == [("poset", "B"), ("poset", "E"), ("map", "p")]
    m = blocks[2][2]
    assert m("x") == "a"
    assert m.dom.le("x", "z")


def test_text_format_rejects_garbage():
    with pytest.raises(ParseError):
        parse_text("poset X { points: a; } trailing nonsense")
    with pytest.raises(ParseError):
        parse_text("map f : A -> B { x -> y; }")  # undefined domain
    with pytest.raises(ParseError):
        parse_text("")


def test_parenthesized_names_survive_the_text_format():
    p1 = gallery_map("p1")
    parsed = parse_text(map_to_text("p1", p1))
    assert ("map", "p1", p1) in parsed


@pytest.mark.parametrize("bad", ["a<b", "a;b", "a}b", "a,b", "(a", " a", "a#b"])
def test_text_emitters_name_the_element_they_cannot_write(bad):
    p = Poset.build(["(x,y)", bad, "c<d"], [])
    for emit in (lambda: poset_to_text("X", p), lambda: map_to_text("f", MonotoneMap.identity(p))):
        with pytest.raises(ParseError, match=re.escape(f"element {bad!r}")):
            emit()


@pytest.mark.parametrize("bad", ["my poset", "X{", "a#b", ""])
def test_text_emitters_name_the_block_they_cannot_write(bad):
    p = Poset.build(["x"], [])
    f = MonotoneMap.identity(p)
    for kind, emit in (
        ("poset", lambda: poset_to_text(bad, p)),
        ("map", lambda: map_to_text(bad, f)),
        ("poset", lambda: map_to_text("f", f, dom_name=bad)),
        ("poset", lambda: map_to_text("f", f, cod_name=bad)),
    ):
        with pytest.raises(ParseError, match=re.escape(f"{kind} name {bad!r}")):
            emit()


def test_map_text_refuses_poset_names_the_reader_resolves_elsewhere():
    p, q = Poset.build(["x"], []), Poset.build(["y"], [])
    # a poset header would read as a map header
    with pytest.raises(ParseError, match=re.escape("poset name 'a:b->c'")):
        poset_to_text("a:b->c", p)
    with pytest.raises(ParseError, match="gallery reference"):
        map_to_text("f", MonotoneMap.identity(p), dom_name="gallery:E1")
    with pytest.raises(ParseError, match="both the domain and the codomain"):
        map_to_text("f", MonotoneMap(p, q, (q.idx("y"),) * p.n), dom_name="P", cod_name="P")
    same = MonotoneMap.identity(p)
    text = map_to_text("f", same, "P", "P")
    assert text.count("poset P {") == 1  # the reader refuses a repeated block name
    assert parse_text(text)[-1] == ("map", "f", same)


_BLOCK_NAMES = st.lists(
    st.sampled_from(["a", ":", "->", "{", "}", "#", " ", "gallery:"]) | st.characters(), max_size=4
).map("".join)


@settings(max_examples=300, deadline=None)
@given(name=_BLOCK_NAMES, dom_name=_BLOCK_NAMES, cod_name=_BLOCK_NAMES)
def test_text_block_names_refuse_or_round_trip(name, dom_name, cod_name):
    p, q = Poset.build(["x", "y"], [("x", "y")]), Poset.build(["b"], [])
    try:
        text = poset_to_text(name, p)
    except ParseError:
        pass
    else:
        assert parse_text(text) == [("poset", name, p)]
    m = MonotoneMap(p, q, (q.idx("b"),) * p.n)
    try:
        text = map_to_text(name, m, dom_name, cod_name)
    except ParseError:
        return
    assert parse_text(text) == [("poset", dom_name, p), ("poset", cod_name, q), ("map", name, m)]


def test_map_text_refuses_what_splits_a_map_entry():
    # entries split at the first '->' and at newlines; poset blocks do not
    p = Poset.build(["x"], [])
    q = Poset.build(["a->b", "c"], [])
    r = Poset.build(["c\nd"], [])
    assert parse_text(poset_to_text("Q", q)) == [("poset", "Q", q)]
    assert parse_text(poset_to_text("R", r)) == [("poset", "R", r)]
    m = MonotoneMap(p, q, (q.idx("a->b"),) * p.n)
    assert parse_text(map_to_text("f", m))[-1] == ("map", "f", m)
    with pytest.raises(ParseError, match="'a->b'"):
        map_to_text("f", MonotoneMap.identity(q))
    with pytest.raises(ParseError, match=re.escape("'c\\nd'")):
        map_to_text("f", MonotoneMap(p, r, (r.idx("c\nd"),) * p.n))


# names built from the DSL's own tokens, with arbitrary characters mixed in
_DSL_NAMES = st.lists(
    st.sampled_from(["a", "b", "(", ")", ",", ";", "<", "->", "#", "{", "}", " ", "\n"])
    | st.characters(),
    max_size=4,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(p=posets(names=_DSL_NAMES, max_size=5), q=posets(names=_DSL_NAMES, max_size=3))
def test_text_emitters_refuse_or_round_trip(p, q):
    try:
        text = poset_to_text("X", p)
    except ParseError:
        pass
    else:
        assert parse_text(text) == [("poset", "X", p)]
    maps = [MonotoneMap.identity(p)] + [MonotoneMap(p, q, (q.idx(b),) * p.n) for b in q.elements[:1]]
    for m in maps:
        try:
            text = map_to_text("f", m)
        except ParseError:
            continue
        assert parse_text(text)[-1] == ("map", "f", m)


def test_functor_doc_feeds_the_construction():
    rng = seeded(227)
    d = rand_functor(rng)
    proj = grothendieck_construction(d)
    doc = functor_to_doc(classify_grothendieck(proj).beta)
    rebuilt = grothendieck_construction(functor_from_doc(doc))
    assert find_isomorphism_over_base(rebuilt.map, proj.map) is not None
