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
    map_from_doc,
    map_to_doc,
    necessary_to_doc,
    parse_text,
    poset_from_doc,
    poset_to_doc,
    retract_certificate_to_doc,
    verdict_to_doc,
)
from finfib.cli import main
from finfib.errors import FinfibError, ParseError, UnknownGalleryId
from finfib.gallery import gallery_entry
from finfib.grothendieck import classify_grothendieck, grothendieck_construction
from finfib.posets import MonotoneMap, Poset, find_isomorphism_over_base, product
from finfib.slices import smallest_dbp_retract_of_map
from finfib.verdict import decide_hurewicz, necessary_conditions, projection_retract_height1
from helpers import (
    chain,
    functor_to_doc,
    rand_functor,
    rand_monotone,
    rand_poset,
    retract_certificate_from_doc,
    seeded,
    verify_retract_certificate,
)


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
        "values": gallery_entry("p1").build().values,
    }
    assert map_from_doc(doc) == gallery_entry("p1").build()
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


def test_a_transition_key_splits_at_its_first_sign_and_trims_both_names():
    point = {"elements": ["0"], "covers": []}
    doc = {
        "base": {"elements": ["a", "x<=c"], "covers": [["a", "x<=c"]]},
        "variance": "covariant",
        "fibers": {"a": point, "x<=c": point},
        "transitions": {" a <= x<=c ": {"0": "0"}},
    }
    assert list(functor_from_doc(doc).transitions) == [("a", "x<=c")]
    # so a base name holding "<=" cannot stand left of the sign
    doc["base"] = {"elements": ["a<=x", "c"], "covers": [["a<=x", "c"]]}
    doc["fibers"] = {"a<=x": point, "c": point}
    doc["transitions"] = {"a<=x<=c": {"0": "0"}}
    with pytest.raises(ParseError, match=re.escape("transition 'a<=x<=c' names an unknown base element")):
        functor_from_doc(doc)


def test_retract_certificate_doc_round_trip():
    red = smallest_dbp_retract_of_map(gallery_entry("pi_sierpinski").build()).reduced
    cert = projection_retract_height1(classify_grothendieck(red))
    doc = retract_certificate_to_doc(cert)
    back = retract_certificate_from_doc(json.loads(json.dumps(doc)), red)
    assert verify_retract_certificate(red, back)[0]
    assert back.x == cert.x and back.y == cert.y
    assert back.i == cert.i and back.r == cert.r


def test_verdict_doc_shapes():
    doc = verdict_to_doc(decide_hurewicz(gallery_entry("p1").build()))
    assert doc["status"] == "fibration"
    assert doc["certificate"]["kind"] == "minimum_base_bifibration"
    assert doc["certificate"]["minimum"] == "a"
    assert doc["components"][0]["base_component"] == ["a", "b"]

    doc = verdict_to_doc(decide_hurewicz(gallery_entry("p2").build()))
    assert doc["status"] == "not_fibration"
    assert doc["witness"]["e"] == "(a,2)"

    doc = verdict_to_doc(decide_hurewicz(gallery_entry("p3").build()))
    assert doc["status"] == "unknown"
    necessary = doc["components"][0]["necessary"]
    assert all(v["passed"] for v in necessary.values())
    json.dumps(doc)  # serializable all the way down


def test_certificate_docs_write_each_kind_s_fields_in_order():
    fib = chain(["0", "1"])
    vee = Poset.build(["a", "b", "c"], [("a", "c"), ("b", "c")])
    fence = Poset.build(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])
    cases = [
        (gallery_entry("p1").build(), "minimum_base_bifibration", ["minimum", "reduction"]),
        (product(vee, fib)[1], "height1_max_retract", ["maximum", "reduction", "retract"]),
        (product(fence, fib)[1], "trivial_over_base", ["fiber_of", "iso", "reduction"]),
    ]
    for m, kind, keys in cases:
        doc = certificate_to_doc(decide_hurewicz(m).certificate)
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


@pytest.mark.parametrize("cell", ['"],["', '","', "\\", "\x00", "]\x00[", "a]", "[b"])
def test_rows_of_strings_holding_separator_lookalikes_write_what_the_stdlib_writes(cell):
    # rows are one encode with NUL separators, then two replaces: an
    # escaped quote forms "," and "],[" inside a string, a raw NUL never
    rows = [[cell], ["x", cell, cell + cell], (cell, "y")]
    for doc in (rows, {"removed": rows, "deeper": {"covers": rows}}):
        assert dumps(doc) == json.dumps(doc, indent=2)


def test_dumps_writes_floats_and_non_string_keys_as_the_stdlib_does():
    doc = {
        1: 1.5,
        None: float("inf"),
        True: [float("nan"), -0.0],
        2.5: {"x": -1e300},
        False: (),
        # 1 == True and 0 == False, with equal hashes: no constant table may write them
        "mixed": {"n": 1, "t": True, "z": 0, "f": False, "x": None},
    }
    assert dumps(doc) == json.dumps(doc, indent=2)


def test_dumps_copies_a_shared_container_at_its_new_depth_and_refuses_a_cycle():
    cert = {"kind": "k", "reduction": {"removed": [["x", "y"]], "base": ["a", 1]}}
    row = [1, [2, "three"]]
    doc = {"components": [{"certificate": cert}], "certificate": cert, "rows": [row, row, [row]]}
    assert dumps(doc) == json.dumps(doc, indent=2)
    assert dumps([row, row]) == json.dumps([row, row], indent=2)
    cycle = {"a": [1]}
    cycle["a"].append({"back": cycle})
    with pytest.raises(ValueError, match="Circular reference detected"):
        dumps({"first": cycle["a"], "cycle": cycle})


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
    doc = necessary_to_doc(necessary_conditions(gallery_entry("p2").build()))
    assert not doc["up_reachability"]["passed"]
    assert doc["up_reachability"]["witness"]["e"] == "(a,2)"
    assert doc["open_map"]["passed"]


def test_detect_doc_kind():
    assert detect_doc_kind(poset_to_doc(gallery_entry("B1").build())) == "poset"
    assert detect_doc_kind(map_to_doc(gallery_entry("p1").build())) == "map"
    assert detect_doc_kind(functor_to_doc(rand_functor(seeded(211)))) == "functor"


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


@pytest.mark.parametrize("read, what", [(map_from_doc, "map"), (functor_from_doc, "functor")])
def test_a_document_that_is_no_object_is_refused_by_its_reader(read, what):
    # the command line sends only objects here (detect_doc_kind refuses
    # the rest), so these refusals guard library callers
    with pytest.raises(ParseError, match=f"^{what} document must be an object$"):
        read(["domain", "codomain", "values", "base", "variance", "fibers"])


def test_text_format_rejects_garbage():
    with pytest.raises(ParseError):
        parse_text("poset X { points: a; } trailing nonsense")
    with pytest.raises(ParseError):
        parse_text("map f : A -> B { x -> y; }")  # undefined domain
    with pytest.raises(ParseError):
        parse_text("")


_P1_TEXT = """
poset E1 { points: (a,0), (b,0), (a,1); covers: (a,0) < (b,0), (a,0) < (a,1); }
poset B1 { points: a, b; covers: a < b; }
map p1 : E1 -> B1 { (a,0) -> a; (b,0) -> b; (a,1) -> a; }
"""


def test_parenthesized_names_survive_the_text_format():
    p1 = gallery_entry("p1").build()
    assert parse_text(_P1_TEXT) == [("poset", "E1", p1.dom), ("poset", "B1", p1.cod), ("map", "p1", p1)]


def test_poset_blocks_read_arrows_and_newlines_inside_point_names():
    # map entries split at newlines and at their first '->'; poset blocks do not
    q = Poset.build(["a->b", "c"], [("c", "a->b")])
    r = Poset.build(["c\nd"], [])
    text = "poset Q { points: a->b, c; covers: c < a->b; }\nposet R { points: c\nd; }\n"
    assert parse_text(text) == [("poset", "Q", q), ("poset", "R", r)]
    # an arrow after the first one belongs to the image point
    p = Poset.build(["x"], [])
    m = parse_text(text + "poset P { points: x; }\nmap f : P -> Q { x -> a->b; }")[-1]
    assert m == ("map", "f", MonotoneMap(p, q, (q.idx("a->b"),)))


def test_a_map_entry_whose_source_holds_an_arrow_is_refused_by_name(tmp_path, capsys):
    # the entry splits at its first '->', so a source point named 'a->b'
    # reads as the unknown point 'a' with an arrow left on its right side
    text = "poset Q { points: a->b, c; }\nposet P { points: z; }\nmap f : Q -> P { a->b -> z; c -> z; }\n"
    why = "map f: entry 'a->b -> z' has no domain point 'a'; a source cannot contain '->'"
    with pytest.raises(ParseError, match=re.escape(why)):
        parse_text(text)
    path = tmp_path / "arrow.txt"
    path.write_text(text)
    assert main(["info", str(path)]) == 3
    assert why in capsys.readouterr().err


def test_a_map_may_name_one_block_as_its_domain_and_codomain():
    p = chain(["x", "y"])
    text = "poset P { points: x, y; covers: x < y; }\nmap f : P -> P { x -> x; y -> y; }"
    assert parse_text(text) == [("poset", "P", p), ("map", "f", MonotoneMap.identity(p))]


def test_map_sides_may_be_gallery_references():
    p1 = gallery_entry("p1").build()
    text = "map p1 : gallery:E1 -> gallery:B1 { (a,0) -> a; (b,0) -> b; (a,1) -> a; }"
    assert parse_text(text) == [("map", "p1", p1)]
    local = _P1_TEXT.replace("map p1 : E1 -> B1", "map q : E1 -> gallery:B1")
    assert parse_text(local)[-1] == ("map", "q", p1)
    with pytest.raises(ParseError, match="is not a poset entry"):
        parse_text(text.replace("gallery:B1", "gallery:p1"))
    with pytest.raises(UnknownGalleryId):
        parse_text(text.replace("gallery:B1", "gallery:nope"))


# blocks of the DSL with clauses drawn from its names, or from its own
# tokens and arbitrary characters, and such fill between the blocks
_FILL = st.lists(
    st.sampled_from(["a", "b", "(a,b)", ",", ";", "<", "->", ":", "(", ")", "#", "{", "}", "\n", " ", "gallery:B1"])
    | st.characters(),
    max_size=6,
).map("".join)
_NAMES = st.sampled_from(["a", "b", "(a,b)"])
_POSETS = st.sampled_from(["X", "Y", "gallery:B1", "gallery:E1"])
_POINTS = st.lists(_NAMES, min_size=1, max_size=3).map(", ".join) | _FILL
_COVERS = st.lists(st.tuples(_NAMES, _NAMES).map(" < ".join), max_size=3).map(", ".join) | _FILL
_ENTRIES = st.lists(st.tuples(_NAMES, _NAMES).map(" -> ".join), max_size=3).map("; ".join) | _FILL
_BLOCKS = st.builds("poset {} {{ points: {}; covers: {}; }}".format, _POSETS, _POINTS, _COVERS) | st.builds(
    "map {} : {} -> {} {{ {} }}".format, st.sampled_from(["f", "g"]), _POSETS, _POSETS, _ENTRIES
)
_DSL_TEXTS = st.lists(_BLOCKS | _FILL, max_size=4).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(text=_DSL_TEXTS)
def test_a_text_of_dsl_tokens_parses_or_raises_a_finfib_error(text):
    try:
        blocks = parse_text(text)
    except FinfibError:
        return
    assert blocks and {kind for kind, _, _ in blocks} <= {"poset", "map"}


def test_functor_doc_feeds_the_construction():
    rng = seeded(227)
    d = rand_functor(rng)
    proj = grothendieck_construction(d)
    doc = functor_to_doc(classify_grothendieck(proj).beta)
    rebuilt = grothendieck_construction(functor_from_doc(doc))
    assert find_isomorphism_over_base(rebuilt.map, proj.map) is not None
