"""Built-in gallery of the worked examples.

Each entry rebuilds its poset or map from scratch on request and
carries the expected analysis results as plain data, so regression
tests and the command line can replay them.  Total spaces use
"(b,k)" names where b is the base point underneath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .errors import UnknownGalleryId
from .posets import MonotoneMap, Poset, product

GalleryObject = Union[Poset, MonotoneMap]


@dataclass(frozen=True)
class GalleryEntry:
    id: str
    kind: str  # poset | map
    note: str
    expected: dict
    build: Callable[[], GalleryObject]


def _b1() -> Poset:
    return Poset.chain(["a", "b"])


def _e1() -> Poset:
    return Poset.build(
        ["(a,0)", "(b,0)", "(a,1)"],
        [("(a,0)", "(b,0)"), ("(a,0)", "(a,1)")],
    )


def _p1() -> MonotoneMap:
    return MonotoneMap.build(
        _e1(), _b1(), {"(a,0)": "a", "(a,1)": "a", "(b,0)": "b"}
    )


def _e2() -> Poset:
    return Poset.build(
        ["(a,0)", "(a,2)", "(b,0)", "(a,1)"],
        [("(a,0)", "(b,0)"), ("(a,0)", "(a,1)"), ("(a,2)", "(a,1)")],
    )


def _p2() -> MonotoneMap:
    return MonotoneMap.build(
        _e2(), _b1(), {"(a,0)": "a", "(a,1)": "a", "(a,2)": "a", "(b,0)": "b"}
    )


def _b3() -> Poset:
    return Poset.build(
        ["a", "b", "c", "d", "e"],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "e"), ("d", "e")],
    )


def _e3() -> Poset:
    return Poset.build(
        ["(a,0)", "(a,1)", "(b,0)", "(a,2)", "(c,0)", "(d,0)", "(c,1)", "(d,1)", "(e,0)"],
        [
            ("(a,0)", "(a,2)"),
            ("(a,1)", "(a,2)"),
            ("(a,0)", "(c,0)"),
            ("(a,1)", "(d,0)"),
            ("(b,0)", "(c,0)"),
            ("(b,0)", "(d,0)"),
            ("(a,2)", "(c,1)"),
            ("(a,2)", "(d,1)"),
            ("(c,0)", "(c,1)"),
            ("(d,0)", "(d,1)"),
            ("(c,1)", "(e,0)"),
            ("(d,1)", "(e,0)"),
        ],
    )


def _p3() -> MonotoneMap:
    e3 = _e3()
    return MonotoneMap.build(e3, _b3(), {x: x[1] for x in e3.elements})


def _s() -> Poset:
    return Poset.chain(["0", "1"])


def _b4() -> Poset:
    return Poset.build(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])


def _pi_sierpinski() -> MonotoneMap:
    _, _, to_s = product(_b4(), _s())
    return to_s


def _b5() -> Poset:
    return Poset.build(
        ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )


def _e5() -> Poset:
    return Poset.build(
        ["(a,0)", "(a,1)", "(b,0)", "(b,1)", "(a,2)", "(b,2)",
         "(c,0)", "(d,0)", "(c,1)", "(c,2)", "(d,1)", "(d,2)"],
        [
            ("(a,0)", "(a,2)"),
            ("(a,1)", "(a,2)"),
            ("(b,0)", "(b,2)"),
            ("(b,1)", "(b,2)"),
            ("(a,0)", "(c,0)"),
            ("(b,0)", "(c,0)"),
            ("(a,1)", "(d,0)"),
            ("(b,1)", "(d,0)"),
            ("(c,0)", "(c,1)"),
            ("(c,0)", "(c,2)"),
            ("(d,0)", "(d,1)"),
            ("(d,0)", "(d,2)"),
            ("(a,2)", "(c,1)"),
            ("(a,2)", "(d,1)"),
            ("(b,2)", "(c,2)"),
            ("(b,2)", "(d,2)"),
        ],
    )


def _p5() -> MonotoneMap:
    e5 = _e5()
    return MonotoneMap.build(e5, _b5(), {x: x[1] for x in e5.elements})


def _poset_entry(id: str, note: str, build, size, height, minimal, contractible) -> GalleryEntry:
    expected = {
        "size": size,
        "height": height,
        "connected": True,
        "minimal": minimal,
        "contractible": contractible,
    }
    return GalleryEntry(id, "poset", note, expected, build)


ENTRIES: tuple[GalleryEntry, ...] = (
    GalleryEntry(
        "p1",
        "map",
        "fibration that is not an opfibration; open but not closed",
        {
            "hurewicz": "fibration",
            "certificate": "minimum_base_bifibration",
            "open": True,
            "closed": False,
            "fibration": True,
            "opfibration": False,
            "bifibration": False,
            "bundle": "not_bundle",
            "minimal_map": False,
            "map_core_size": 2,
        },
        _p1,
    ),
    GalleryEntry(
        "p1op",
        "map",
        "opposite of p1; the cartesian lift at ((a,1), b) is missing",
        {
            "hurewicz": "not_fibration",
            "witness": {"side": "cartesian", "e": "(a,1)", "b": "b"},
            "open": False,
            "closed": True,
            "fibration": False,
            "opfibration": True,
            "bifibration": False,
            "bundle": "not_bundle",
            "minimal_map": False,
            "map_core_size": 2,
        },
        lambda: _p1().op(),
    ),
    GalleryEntry(
        "p2",
        "map",
        "not a fibration: no point of the fiber below (a,2) reaches the fiber of b",
        {
            "hurewicz": "not_fibration",
            "witness": {"side": "cocartesian", "e": "(a,2)", "b": "b"},
            "open": True,
            "closed": False,
            "fibration": True,
            "opfibration": False,
            "bifibration": False,
            "bundle": "not_bundle",
            "minimal_map": False,
            "map_core_size": 2,
        },
        _p2,
    ),
    GalleryEntry(
        "p3",
        "map",
        "bifibration over a height-2 base whose Hurewicz status stays undecided",
        {
            "hurewicz": "unknown",
            "open": True,
            "closed": True,
            "fibration": True,
            "opfibration": True,
            "bifibration": True,
            "bundle": "not_bundle",
            "minimal_map": False,
            "map_core_size": 5,
        },
        _p3,
    ),
    GalleryEntry(
        "pi_sierpinski",
        "map",
        "product projection onto the Sierpinski space; a genuine fiber bundle",
        {
            "hurewicz": "fibration",
            "certificate": "minimum_base_bifibration",
            "open": True,
            "closed": True,
            "fibration": True,
            "opfibration": True,
            "bifibration": True,
            "bundle": "bundle",
            "minimal_map": False,
            "map_core_size": 2,
        },
        _pi_sierpinski,
    ),
    GalleryEntry(
        "p5_minimal_bifib",
        "map",
        "minimal bifibration, not a bundle; fibers homotopy equivalent, not isomorphic",
        {
            "hurewicz": "unknown",
            "open": True,
            "closed": True,
            "fibration": True,
            "opfibration": True,
            "bifibration": True,
            "bundle": "not_bundle",
            "minimal_map": True,
            "map_core_size": 12,
        },
        _p5,
    ),
    _poset_entry("B1", "two-point chain base of p1", _b1, 2, 1, False, True),
    _poset_entry("B2", "two-point chain base of p2", _b1, 2, 1, False, True),
    _poset_entry("B3", "height-2 base of p3 with maximum e", _b3, 5, 2, False, True),
    _poset_entry("B4", "N-shaped fiber of the Sierpinski projection", _b4, 4, 1, False, True),
    _poset_entry("B5", "four-point crown base of p5; a minimal space", _b5, 4, 1, True, False),
    _poset_entry("S", "Sierpinski space as a two-point chain", _s, 2, 1, False, True),
    _poset_entry("E1", "total space of p1", _e1, 3, 1, False, True),
    _poset_entry("E2", "total space of p2", _e2, 4, 1, False, True),
    _poset_entry("E3", "total space of p3; contractible, height 3", _e3, 9, 3, False, True),
    _poset_entry("E5", "total space of p5; a minimal space", _e5, 12, 2, True, False),
)

_BY_ID = {entry.id: entry for entry in ENTRIES}


def gallery_entry(id: str) -> GalleryEntry:
    try:
        return _BY_ID[id]
    except KeyError:
        raise UnknownGalleryId(f"no gallery entry named {id!r}") from None

