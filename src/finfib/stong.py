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
from typing import Optional, Sequence

from .errors import CodomainMismatch, InvariantViolated, NotDescending
from .posets import MonotoneMap, Poset, _bits, _extremum, _maximal, find_isomorphism


@dataclass(frozen=True)
class BeatPointReport:
    """Beat points of a space, each with its witness.

    ``down[e]`` is max of the strict down set of e, ``up[e]`` the min
    of the strict up set; each dict lists its points in index order.
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


def beat_points(x: Poset) -> BeatPointReport:
    """Every beat point of x, with the witness ``_reduce`` examines it by."""
    down: dict[str, str] = {}
    up: dict[str, str] = {}
    for found, rows, co in ((down, x.below, x.above), (up, x.above, x.below)):
        for i, row in enumerate(rows):
            wi = _extremum(rows, co, row & ~(1 << i))
            if wi is not None:
                found[x.elements[i]] = x.elements[wi]
    return BeatPointReport(down, up)


def _reduce(x: Poset, kinds: tuple[str, ...], fiber_vals: Optional[Sequence[int]] = None) -> ReductionTrace:
    """Greedy beat-point removal engine shared by all reductions.

    It removes the lowest-indexed beat point of the first kind that has
    one; ``fiber_vals`` switches to beat points of a map.  One scan
    finds every point's witness per kind (for kind down, the maximum of
    its alive strict down-set D_j), and each removal re-examines only
    the points this lemma leaves:

    Removing i changes D_j only for j above i.  If a surviving z of D_j
    lies above i, the maximal elements of D_j stay the same, so D_j
    keeps its maximum or its lack of one.  Only the j in which i is
    maximal, the minimal alive points above i, need a fresh look; they
    are the points whose witness was i and the witnessless points with
    nothing alive between i and them.

    Each removed point is redirected to its witness, and the composite
    retraction is resolved at the end.
    """
    n = x.n
    alive = (1 << n) - 1
    ks = range(len(kinds))
    cones = [(x.below, x.above) if kind == "down" else (x.above, x.below) for kind in kinds]
    wit: list[list[Optional[int]]] = [[None] * n for _ in ks]
    cands = [0 for _ in ks]

    def examine(k: int, j: int) -> None:
        bit = 1 << j
        rows, co = cones[k]
        w = wit[k][j] = _extremum(rows, co, rows[j] & alive & ~bit)
        if w is not None and (fiber_vals is None or fiber_vals[w] == fiber_vals[j]):
            cands[k] |= bit
        else:
            cands[k] &= ~bit

    for k in ks:
        for j in range(n):
            examine(k, j)
    steps: list[tuple[int, int, int]] = []  # (removed point, kind, witness)
    while any(cands):
        k = next(k for k in ks if cands[k])
        i = (cands[k] & -cands[k]).bit_length() - 1
        alive &= ~(1 << i)
        steps.append((i, k, wit[k][i]))
        for k in ks:
            cands[k] &= ~(1 << i)
            rows, co = cones[k]
            for j in _bits(_maximal(co, rows, co[i] & alive)):
                examine(k, j)
    to = list(range(n))
    for i, _, wi in reversed(steps):
        to[i] = to[wi]
    result = x._sub_mask(alive)
    retraction = MonotoneMap(x, result, tuple(result.index[x.elements[to[j]]] for j in range(n)))
    removed = tuple((x.elements[i], kinds[k]) for i, k, _ in steps)
    return ReductionTrace(x, result, removed, retraction)


def core(x: Poset) -> ReductionTrace:
    """Reduce to a core by removing beat points.

    The order is kind-major: all down beat points are consumed, lowest
    index among the current ones first, before any up beat point is
    touched.  Any other order gives an isomorphic result.
    """
    return _reduce(x, ("down", "up"))


def is_contractible(x: Poset) -> bool:
    return core(x).result.n == 1


def homotopy_equivalent(x: Poset, y: Poset) -> tuple[bool, Optional[dict[str, str]]]:
    """Homotopy equivalence test via core isomorphism."""
    iso = find_isomorphism(core(x).result, core(y).result)
    return iso is not None, iso


def smallest_dbp_retract(x: Poset) -> ReductionTrace:
    """Greedy removal of down beat points only.

    The result is the minimum element of the family of subspaces
    reachable by such removals, so it does not depend on the order;
    the trace's retraction, followed by the inclusion of the result, is
    the unique descending idempotent onto it, which is also the minimum
    of the maps below the identity.
    """
    return _reduce(x, ("down",))


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
