"""Maps sliced over their codomain: fibers, map beat points, map cores.

A monotone map p: E -> B is studied through its fibers p^{-1}(b).  A
beat point of p is a beat point of E whose witness sits in the same
fiber; removing it is a fiberwise strong deformation retraction, i.e.
one over B.  Iterating yields cores of maps, unique up to isomorphism
over B, and the down-only variant has a genuine minimum among the
subspaces reachable that way.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

from .errors import NotAComponent
from .posets import MonotoneMap, Poset, _bits
from .stong import BeatPointReport, ReductionTrace, _reduce, beat_points


class SliceMap:
    """A monotone map bundled with its fiber decomposition.

    Wraps p: E -> B; ``total`` is E, ``base`` is B.  ``fiber_masks[bi]``
    is the mask of the points over base index bi; fibers are cached
    sub-posets.  ``_frames`` and ``_lifts`` are the per-side caches of
    ``grothendieck``: the lift frame, and once the side is found to
    hold the lifts over the base covers in its place.  An empty total
    space is allowed and flagged, so that restrictions to untouched
    parts of the base stay representable.
    """

    __slots__ = ("map", "fiber_masks", "_fibers", "_frames", "_lifts")

    def __init__(self, m: MonotoneMap):
        self.map = m
        masks = [0] * m.cod.n
        for i, v in enumerate(m.vals):
            masks[v] |= 1 << i
        self.fiber_masks = tuple(masks)
        self._fibers: dict[int, Poset] = {}
        self._frames: dict[str, tuple] = {}
        self._lifts: dict[str, list[int]] = {}

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

    def preimage(self, base_mask: int) -> int:
        """Mask of the total-space points over the base points in base_mask."""
        # the fibers are disjoint, so their sum is their union
        return sum(self.fiber_masks[bi] for bi in _bits(base_mask))

    def fiber(self, b: str) -> Poset:
        """The fiber over b as a sub-poset of the total space."""
        bi = self.base.idx(b)
        got = self._fibers.get(bi)
        if got is None:
            got = self._fibers[bi] = self.total._sub_mask(self.fiber_masks[bi])
        return got

    def missed(self) -> tuple[str, ...]:
        return tuple(b for b, fm in zip(self.base.elements, self.fiber_masks) if not fm)

    def touched_components(self) -> tuple[tuple[str, ...], ...]:
        """Base components meeting the image of the map."""
        hit = {b for b, fm in zip(self.base.elements, self.fiber_masks) if fm}
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
    bp, vals, at = beat_points(s.total), s.map.vals, s.total.index
    down, up = ({e: w for e, w in d.items() if vals[at[e]] == vals[at[w]]} for d in (bp.down, bp.up))
    return BeatPointReport(down, up)


class MapReduction(NamedTuple):
    """A beat-point reduction of a map, staying over the same base.

    ``reduced`` is the restricted map, the input slice itself (and its
    caches) when nothing was removed; ``trace.retraction`` retracts
    the total space onto the surviving one fiberwise.
    """

    reduced: SliceMap
    trace: ReductionTrace


def _map_reduce(p: MapLike, kinds: tuple[str, ...]) -> MapReduction:
    s = as_slice(p)
    trace = _reduce(s.total, kinds, s.map.vals)
    return MapReduction(SliceMap(s.map.restrict(trace.result)) if trace.removed else s, trace)


def map_core(p: MapLike) -> MapReduction:
    """Reduce a map until it has no beat points (a minimal map).

    Kind-major order as for spaces: down beat points of the map first,
    lowest index first.  Any other order gives a result isomorphic over
    the base.
    """
    return _map_reduce(p, ("down", "up"))


def smallest_dbp_retract_of_map(p: MapLike) -> MapReduction:
    """Greedy removal of down beat points of the map.

    Order-independent: the family of subspaces reachable by removing
    down beat points of the map has a minimum, and the greedy sweep
    lands on it.
    """
    return _map_reduce(p, ("down",))


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
