"""Beat points, cores and homotopy of finite T0 spaces.

A point is a down beat point when its strict down set has a maximum,
an up beat point when its strict up set has a minimum.  Removing a
beat point is a strong deformation retraction, and iterating until
none are left lands on a core: a space without beat points, unique up
to homeomorphism.  Two finite spaces are homotopy equivalent exactly
when their cores are isomorphic, which turns homotopy questions into
the finite searches implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import CodomainMismatch, InvariantViolated, NotDescending, UnknownElement
from .posets import MonotoneMap, Poset, _bits, _extremum, find_isomorphism

# A picker receives the ordered candidate tuple ((element, kind), ...)
# and returns one entry; the default policy takes the first, i.e. the
# lowest-indexed down beat point, falling back to up beat points only
# when no down beat point is left.
Picker = Callable[[tuple[tuple[str, str], ...]], tuple[str, str]]


@dataclass(frozen=True)
class BeatPointReport:
    """Beat points of a space, each with its witness.

    ``down[e]`` is max of the strict down set of e, ``up[e]`` the min
    of the strict up set.
    """

    down: dict[str, str]
    up: dict[str, str]

    @property
    def is_minimal(self) -> bool:
        return not self.down and not self.up


@dataclass(frozen=True)
class ReductionTrace:
    """Record of successive beat-point removals.

    ``removed`` lists (element, kind) in removal order; ``retraction``
    is the composite strong deformation retraction source -> result,
    each removed element going to its witness at removal time.
    """

    source: Poset
    result: Poset
    removed: tuple[tuple[str, str], ...]
    retraction: MonotoneMap


def _beat_candidates(
    x: Poset, alive: int, kinds: tuple[str, ...], fiber_vals: Optional[Sequence[int]] = None
) -> list[tuple[int, str, int]]:
    """Beat points of the subspace induced on ``alive``.

    Returns (index, kind, witness index) tuples ordered kind-major
    (order of ``kinds``), index-minor.  With ``fiber_vals`` given, only
    beat points whose witness has the same value survive; these are
    the beat points of the map those values describe.
    """
    out = []
    for kind in kinds:
        rows, co = (x.below, x.above) if kind == "down" else (x.above, x.below)
        for i in _bits(alive):
            wi = _extremum(rows, co, rows[i] & alive & ~(1 << i))
            if wi is not None and (fiber_vals is None or fiber_vals[wi] == fiber_vals[i]):
                out.append((i, kind, wi))
    return out


def _witnesses(x: Poset, fiber_vals: Optional[Sequence[int]] = None) -> tuple[dict, dict]:
    """Down and up beat points of x by name, each mapped to its witness."""
    down: dict[str, str] = {}
    up: dict[str, str] = {}
    for i, kind, wi in _beat_candidates(x, (1 << x.n) - 1, ("down", "up"), fiber_vals):
        (down if kind == "down" else up)[x.elements[i]] = x.elements[wi]
    return down, up


def beat_points(x: Poset) -> BeatPointReport:
    return BeatPointReport(*_witnesses(x))


def _reduce(
    x: Poset,
    kinds: tuple[str, ...],
    picker: Optional[Picker],
    keep: int = 0,
    fiber_vals: Optional[Sequence[int]] = None,
) -> ReductionTrace:
    """Greedy beat-point removal engine shared by all reductions.

    ``keep`` masks elements that must not be removed; ``fiber_vals``
    switches to beat points of a map.  One scan finds every point's
    witness per kind (for kind down, the maximum of its alive strict
    down-set).  The removal of i then re-examines only

    - the points whose witness was i; any other witness survives;
    - the lonely points j (alive, no witness) just above i, with nothing
      alive strictly between: ``rows[j] & co[i] & alive`` is j alone.
      The alive strict down-set D of a lonely j is empty or has two or
      more maximal elements.  Removing an i of D that lies below some z
      of D keeps them all, so only an i maximal in D can give D a
      maximum, and a j with i outside D keeps D as it is.

    The beat points are kept as one bitmask per kind and offered
    kind-major, index-minor, as ``_beat_candidates`` lists them, so the
    picker sees what a full rescan would offer.  Each removed point is
    redirected to its witness, and the composite retraction is resolved
    at the end.
    """
    n = x.n
    alive = (1 << n) - 1
    removable = alive & ~keep
    ks = range(len(kinds))
    cones = [(x.below, x.above) if kind == "down" else (x.above, x.below) for kind in kinds]
    wit: list[list[Optional[int]]] = [[None] * n for _ in ks]
    witnessed = [[0] * n for _ in ks]  # witnessed[k][w]: points whose witness is w
    lonely = [0 for _ in ks]  # alive points without a witness
    cands = [0 for _ in ks]

    def forget(k: int, j: int) -> None:
        bit = 1 << j
        if wit[k][j] is not None:
            witnessed[k][wit[k][j]] &= ~bit
        lonely[k] &= ~bit
        cands[k] &= ~bit

    def examine(k: int, j: int) -> None:
        forget(k, j)
        bit = 1 << j
        rows, co = cones[k]
        w = wit[k][j] = _extremum(rows, co, rows[j] & alive & ~bit)
        if w is None:
            lonely[k] |= bit
            return
        witnessed[k][w] |= bit
        if removable & bit and (fiber_vals is None or fiber_vals[w] == fiber_vals[j]):
            cands[k] |= bit

    for k in ks:
        for j in range(n):
            examine(k, j)
    steps: list[tuple[int, int, int]] = []  # (removed point, kind, witness)
    while any(cands):
        if picker is None:
            k = next(k for k in ks if cands[k])
            i = (cands[k] & -cands[k]).bit_length() - 1
        else:
            offered = [(i, k) for k in ks for i in _bits(cands[k])]
            names = tuple((x.elements[i], kinds[k]) for i, k in offered)
            choice = picker(names)
            if choice not in names:
                raise UnknownElement(f"picker returned {choice!r}, not a candidate")
            i, k = offered[names.index(choice)]
        bit = 1 << i
        alive &= ~bit
        steps.append((i, k, wit[k][i]))
        for k in ks:
            forget(k, i)
            rows, co = cones[k]
            redo = witnessed[k][i]
            up = co[i] & lonely[k]
            if up:
                between = co[i] & alive
                while up:
                    b = up & -up
                    if rows[b.bit_length() - 1] & between == b:
                        redo |= b
                    up ^= b
            for j in _bits(redo):
                examine(k, j)
    to = list(range(n))
    for i, _, wi in reversed(steps):
        to[i] = to[wi]
    result = x._sub_mask(alive)
    retraction = MonotoneMap(x, result, tuple(result.index[x.elements[to[j]]] for j in range(n)))
    removed = tuple((x.elements[i], kinds[k]) for i, k, _ in steps)
    return ReductionTrace(x, result, removed, retraction)


def core(x: Poset, *, picker: Optional[Picker] = None) -> ReductionTrace:
    """Reduce to a core by removing beat points.

    Default policy is kind-major: all down beat points are consumed,
    lowest index among the current ones first, before any up beat
    point is touched.  Any other policy gives an isomorphic result.
    """
    return _reduce(x, ("down", "up"), picker)


def is_contractible(x: Poset) -> bool:
    return core(x).result.n == 1


def homotopy_equivalent(x: Poset, y: Poset) -> tuple[bool, Optional[dict[str, str]]]:
    """Homotopy equivalence test via core isomorphism."""
    iso = find_isomorphism(core(x).result, core(y).result)
    return iso is not None, iso


def smallest_dbp_retract(x: Poset, *, picker: Optional[Picker] = None) -> ReductionTrace:
    """Greedy removal of down beat points only.

    The result is the minimum element of the family of subspaces
    reachable by such removals, so it does not depend on the order;
    the trace's retraction, followed by the inclusion of the result, is
    the unique descending idempotent onto it, which is also the minimum
    of the maps below the identity.
    """
    return _reduce(x, ("down",), picker)


def is_dbp_retract(x: Poset, keep: Sequence[str]) -> Optional[ReductionTrace]:
    """Trace showing ``keep`` is reachable by down beat point removals.

    Greedy is complete here: removing any down beat point outside a
    subspace reachable this way keeps it reachable, so a stuck state
    not equal to ``keep`` certifies absence (returns None).
    """
    keep_mask = x.mask(keep)
    trace = _reduce(x, ("down",), None, keep=keep_mask)
    return trace if trace.result.n == keep_mask.bit_count() else None


def f_infinity(f: MonotoneMap) -> MonotoneMap:
    """Stabilized iterate of a descending endomap.

    For f <= Id the pointwise images can only go down, so some power
    satisfies f^N = f^(N+1); that power is idempotent and has the same
    stable image as every later one.
    """
    if f.dom != f.cod:
        raise CodomainMismatch("f_infinity needs an endomap")
    for i, v in enumerate(f.vals):
        if not f.dom.below[i] >> v & 1:
            raise NotDescending(f"f({f.dom.elements[i]!r}) = {f.dom.elements[v]!r} is not <= it")
    g = f
    for _ in range(f.dom.n + 1):
        nxt = g.then(f)
        if nxt == g:
            if g.then(g) != g:
                raise InvariantViolated("stabilized iterate is not idempotent")
            return g
        g = nxt
    raise InvariantViolated("descending endomap failed to stabilize")
