"""Built-in gallery of the worked examples.

Every poset and map is a block of one text in the DSL that
``documents.parse_text`` reads, the reader user files go through.  Each
entry rebuilds its poset or map from scratch on request, by reading
the text again, and carries the expected analysis results as plain
data, so regression tests and the command line can replay them.
Total spaces use "(b,k)" names where b is the base point underneath;
in the Sierpinski projection's domain B4 x S, (b,k) lies over k.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Union

from .errors import UnknownGalleryId
from .posets import MonotoneMap, Poset

GalleryObject = Union[Poset, MonotoneMap]


class GalleryEntry(NamedTuple):
    id: str
    kind: str  # poset | map
    note: str
    expected: dict
    build: Callable[[], GalleryObject]


_TEXT = """
poset B1 { points: a, b; covers: a < b; }

poset E1 {
  points: (a,0), (b,0), (a,1);
  covers: (a,0) < (b,0), (a,0) < (a,1);
}
map p1 : E1 -> B1 { (a,0) -> a; (a,1) -> a; (b,0) -> b; }

poset E2 {
  points: (a,0), (a,2), (b,0), (a,1);
  covers: (a,0) < (b,0), (a,0) < (a,1), (a,2) < (a,1);
}
map p2 : E2 -> B1 { (a,0) -> a; (a,1) -> a; (a,2) -> a; (b,0) -> b; }

poset B3 { points: a, b, c, d, e; covers: a < c, a < d, b < c, b < d, c < e, d < e; }
poset E3 {
  points: (a,0), (a,1), (b,0), (a,2), (c,0), (d,0), (c,1), (d,1), (e,0);
  covers: (a,0) < (a,2), (a,1) < (a,2), (a,0) < (c,0), (a,1) < (d,0),
          (b,0) < (c,0), (b,0) < (d,0), (a,2) < (c,1), (a,2) < (d,1),
          (c,0) < (c,1), (d,0) < (d,1), (c,1) < (e,0), (d,1) < (e,0);
}
map p3 : E3 -> B3 {
  (a,0) -> a; (a,1) -> a; (a,2) -> a; (b,0) -> b; (c,0) -> c;
  (c,1) -> c; (d,0) -> d; (d,1) -> d; (e,0) -> e;
}

poset B4 { points: a, b, c, d; covers: a < b, c < b, c < d; }
poset S { points: 0, 1; covers: 0 < 1; }
poset B4xS {
  points: (a,0), (a,1), (b,0), (b,1), (c,0), (c,1), (d,0), (d,1);
  covers: (a,0) < (b,0), (c,0) < (b,0), (c,0) < (d,0),
          (a,1) < (b,1), (c,1) < (b,1), (c,1) < (d,1),
          (a,0) < (a,1), (b,0) < (b,1), (c,0) < (c,1), (d,0) < (d,1);
}
map pi_sierpinski : B4xS -> S {
  (a,0) -> 0; (b,0) -> 0; (c,0) -> 0; (d,0) -> 0;
  (a,1) -> 1; (b,1) -> 1; (c,1) -> 1; (d,1) -> 1;
}

poset B5 { points: a, b, c, d; covers: a < c, a < d, b < c, b < d; }
poset E5 {
  points: (a,0), (a,1), (b,0), (b,1), (a,2), (b,2),
          (c,0), (d,0), (c,1), (c,2), (d,1), (d,2);
  covers: (a,0) < (a,2), (a,1) < (a,2), (b,0) < (b,2), (b,1) < (b,2),
          (a,0) < (c,0), (b,0) < (c,0), (a,1) < (d,0), (b,1) < (d,0),
          (c,0) < (c,1), (c,0) < (c,2), (d,0) < (d,1), (d,0) < (d,2),
          (a,2) < (c,1), (a,2) < (d,1), (b,2) < (c,2), (b,2) < (d,2);
}
map p5 : E5 -> B5 {
  (a,0) -> a; (a,1) -> a; (a,2) -> a; (b,0) -> b; (b,1) -> b; (b,2) -> b;
  (c,0) -> c; (c,1) -> c; (c,2) -> c; (d,0) -> d; (d,1) -> d; (d,2) -> d;
}
"""


def _block(name: str) -> GalleryObject:
    """The object of the text's block called name, read afresh."""
    # imported here: documents imports this module when it loads, since
    # every reader there resolves "gallery:ID" through gallery_entry
    from .documents import parse_text

    return next(obj for _, block, obj in parse_text(_TEXT) if block == name)


def _poset_entry(id: str, note: str, block: str, size, height, minimal, contractible) -> GalleryEntry:
    expected = {
        "size": size,
        "height": height,
        "connected": True,
        "minimal": minimal,
        "contractible": contractible,
    }
    return GalleryEntry(id, "poset", note, expected, partial(_block, block))


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
        partial(_block, "p1"),
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
        lambda: _block("p1").op(),
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
        partial(_block, "p2"),
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
        partial(_block, "p3"),
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
        partial(_block, "pi_sierpinski"),
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
        partial(_block, "p5"),
    ),
    _poset_entry("B1", "two-point chain base of p1", "B1", 2, 1, False, True),
    _poset_entry("B2", "two-point chain base of p2", "B1", 2, 1, False, True),
    _poset_entry("B3", "height-2 base of p3 with maximum e", "B3", 5, 2, False, True),
    _poset_entry("B4", "N-shaped fiber of the Sierpinski projection", "B4", 4, 1, False, True),
    _poset_entry("B5", "four-point crown base of p5; a minimal space", "B5", 4, 1, True, False),
    _poset_entry("S", "Sierpinski space as a two-point chain", "S", 2, 1, False, True),
    _poset_entry("E1", "total space of p1", "E1", 3, 1, False, True),
    _poset_entry("E2", "total space of p2", "E2", 4, 1, False, True),
    _poset_entry("E3", "total space of p3; contractible, height 3", "E3", 9, 3, False, True),
    _poset_entry("E5", "total space of p5; a minimal space", "E5", 12, 2, True, False),
)

_BY_ID = {entry.id: entry for entry in ENTRIES}


def gallery_entry(id: str) -> GalleryEntry:
    try:
        return _BY_ID[id]
    except KeyError:
        raise UnknownGalleryId(f"no gallery entry named {id!r}") from None

