"""Maps sliced over their codomain: fibers, map beat points, map cores.

A monotone map p: E -> B is studied through its fibers p^{-1}(b).  A
beat point of p is a beat point of E whose witness sits in the same
fiber; removing it is a fiberwise strong deformation retraction, i.e.
one over B.  Iterating yields cores of maps, unique up to isomorphism
over B, and the down-only variant has a genuine minimum among the
subspaces reachable that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import NotAComponent
from .posets import MonotoneMap, Poset, _bits
from .stong import BeatPointReport, Picker, ReductionTrace, _reduce, _witnesses


class SliceMap:
    """A monotone map bundled with its fiber decomposition.

    Wraps p: E -> B; ``total`` is E, ``base`` is B.  Fibers are cached
    sub-posets.  An empty total space is allowed and flagged, so that
    restrictions to untouched parts of the base stay representable.
    """

    __slots__ = ("map", "_fiber_masks", "_fibers")

    def __init__(self, m: MonotoneMap):
        self.map = m
        masks: dict[int, int] = {}
        for i, v in enumerate(m.vals):
            masks[v] = masks.get(v, 0) | 1 << i
        self._fiber_masks = masks
        self._fibers: dict[int, Poset] = {}

    @property
    def total(self) -> Poset:
        return self.map.dom

    @property
    def base(self) -> Poset:
        return self.map.cod

    @property
    def is_empty(self) -> bool:
        return self.total.n == 0

    def __repr__(self) -> str:
        return f"SliceMap({self.total!r} -> {self.base!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SliceMap):
            return NotImplemented
        return self.map == other.map

    def __hash__(self) -> int:
        return hash(self.map)

    def __call__(self, name: str) -> str:
        return self.map(name)

    def fiber_mask(self, b: str) -> int:
        return self._fiber_masks.get(self.base.idx(b), 0)

    def preimage(self, base_mask: int) -> int:
        """Mask of the total-space points over the base points in base_mask."""
        # the fibers are disjoint, so their sum is their union
        return sum(fm for bi, fm in self._fiber_masks.items() if base_mask >> bi & 1)

    def fiber_elements(self, b: str) -> tuple[str, ...]:
        return self.total.names(self.fiber_mask(b))

    def fiber(self, b: str) -> Poset:
        """The fiber over b as a sub-poset of the total space."""
        bi = self.base.idx(b)
        got = self._fibers.get(bi)
        if got is None:
            got = self.total._sub_mask(self._fiber_masks.get(bi, 0))
            self._fibers[bi] = got
        return got

    def touched(self) -> tuple[str, ...]:
        """Base elements with a nonempty fiber."""
        return tuple(b for i, b in enumerate(self.base.elements) if self._fiber_masks.get(i))

    def missed(self) -> tuple[str, ...]:
        return tuple(b for i, b in enumerate(self.base.elements) if not self._fiber_masks.get(i))

    def touched_components(self) -> tuple[tuple[str, ...], ...]:
        """Base components meeting the image of the map."""
        hit = set(self.touched())
        return tuple(c for c in self.base.components() if hit.intersection(c))

    def op(self) -> "SliceMap":
        return SliceMap(self.map.op())


MapLike = Union[SliceMap, MonotoneMap]


def as_slice(p: MapLike) -> SliceMap:
    return p if isinstance(p, SliceMap) else SliceMap(p)


def map_beat_points(p: MapLike) -> BeatPointReport:
    """Beat points of the total space whose witness shares the fiber.

    For a down beat point the witness max(strict down set) must have
    the same image; it is then automatically the maximum of the strict
    down set inside the fiber, and dually for up beat points.
    """
    s = as_slice(p)
    return BeatPointReport(*_witnesses(s.total, s.map.vals))


@dataclass(frozen=True)
class MapReduction:
    """A beat-point reduction of a map, staying over the same base.

    ``reduced`` is the restricted map; ``trace.retraction`` retracts
    the total space onto the surviving one fiberwise.
    """

    reduced: SliceMap
    trace: ReductionTrace


def _map_reduce(p: MapLike, kinds: tuple[str, ...], picker: Optional[Picker]) -> MapReduction:
    s = as_slice(p)
    trace = _reduce(s.total, kinds, picker, fiber_vals=s.map.vals)
    reduced = SliceMap(s.map.restrict(trace.result))
    return MapReduction(reduced, trace)


def map_core(p: MapLike, *, picker: Optional[Picker] = None) -> MapReduction:
    """Reduce a map until it has no beat points (a minimal map).

    Kind-major default policy as for spaces: down beat points of the
    map first, lowest index first.  Results agree up to isomorphism
    over the base.
    """
    return _map_reduce(p, ("down", "up"), picker)


def smallest_dbp_retract_of_map(p: MapLike, *, picker: Optional[Picker] = None) -> MapReduction:
    """Greedy removal of down beat points of the map.

    Order-independent: the family of subspaces reachable by removing
    down beat points of the map has a minimum, and the greedy sweep
    lands on it.
    """
    return _map_reduce(p, ("down",), picker)


def restrict_over(p: MapLike, base_part: Iterable[str]) -> SliceMap:
    """Restrict a map to the preimage of a subset of the base.

    The whole base gives back the map itself, as a slice.
    """
    s = as_slice(p)
    base_mask = s.base.mask(base_part)
    part = s.base._sub_mask(base_mask)
    if part is s.base:
        return s
    pre = s.preimage(base_mask)
    at = {b: k for k, b in enumerate(_bits(base_mask))}
    vals = tuple(at[s.map.vals[i]] for i in _bits(pre))
    return SliceMap(MonotoneMap(s.total._sub_mask(pre), part, vals))


def restrict_over_component(p: MapLike, component: Iterable[str]) -> SliceMap:
    """Restrict to a connected component of the base, validated as such."""
    s = as_slice(p)
    want = tuple(sorted(component))
    for c in s.base.components():
        if tuple(sorted(c)) == want:
            return restrict_over(s, c)
    raise NotAComponent(f"{want!r} is not a connected component of the base")
