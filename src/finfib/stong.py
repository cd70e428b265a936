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

from typing import NamedTuple, Optional, Sequence

from .errors import CodomainMismatch, InvariantViolated, NotDescending
from .posets import MonotoneMap, Poset, _bits, _extremum, _maximal, find_isomorphism


class BeatPointReport(NamedTuple):
    """Beat points of a space, each with its witness.

    ``down[e]`` is max of the strict down set of e, ``up[e]`` the min
    of the strict up set; each dict lists its points in index order.
    """

    down: dict[str, str]
    up: dict[str, str]

    @property
    def is_minimal(self) -> bool:
        return not self.down and not self.up


class ReductionTrace(NamedTuple):
    """Record of successive beat-point removals.

    ``removed`` lists (element, kind) in removal order; ``retraction``
    is the composite strong deformation retraction source -> result,
    each removed element going to its witness at removal time.
    """

    source: Poset
    result: Poset
    removed: tuple[tuple[str, str], ...]
    retraction: MonotoneMap


def _witness_table(rows: Sequence[int], alive: int) -> list[Optional[int]]:
    """Each alive point's witness (the maximum of its alive strict down-set), by row lookup.

    With rows = above it is the minimum of the strict up-set.  D_j, the
    alive points strictly below j, has a maximum w exactly when
    rows[w] & alive == D_j, and the rows restricted to alive are
    distinct, by antisymmetry; so one dict from restricted rows to
    points answers each point with one lookup.  With every point alive
    the rows themselves are the keys.  Dead points read None.
    """
    if alive == (1 << len(rows)) - 1:
        look = {row: w for w, row in enumerate(rows)}
        return [look.get(row ^ (1 << j)) for j, row in enumerate(rows)]
    keys = {w: rows[w] & alive for w in _bits(alive)}
    look = {key: w for w, key in keys.items()}
    wit: list[Optional[int]] = [None] * len(rows)
    for j, key in keys.items():
        wit[j] = look.get(key ^ (1 << j))
    return wit


def _full_witnesses(x: Poset, kind: str) -> tuple[Optional[int], ...]:
    """x's witness table of one kind with every point alive, built on first use and kept on x."""
    got = x._witnesses.get(kind)
    if got is None:
        rows = x.below if kind == "down" else x.above
        got = x._witnesses[kind] = tuple(_witness_table(rows, (1 << x.n) - 1))
    return got


def beat_points(x: Poset) -> BeatPointReport:
    """Every beat point of x, with the witness ``_reduce`` examines it by, off the tables x keeps."""
    down, up = (
        {x.elements[j]: x.elements[w] for j, w in enumerate(_full_witnesses(x, kind)) if w is not None}
        for kind in ("down", "up")
    )
    return BeatPointReport(down, up)


def _reduce(x: Poset, kinds: tuple[str, ...], fiber_vals: Optional[Sequence[int]] = None) -> ReductionTrace:
    """Greedy beat-point removal engine shared by all reductions.

    It removes the lowest-indexed beat point of the first kind that has
    one; ``fiber_vals`` switches to beat points of a map, whose witness
    must share the fiber.  Per kind it keeps every alive point's witness
    (for kind down, the maximum of its alive strict down-set D_j) and
    the mask of candidates, and each removal re-examines only the points
    this lemma leaves:

    Removing i changes D_j only for j above i.  If a surviving z of D_j
    lies above i, the maximal elements of D_j stay the same, so D_j
    keeps its maximum or its lack of one.  Only the j in which i is
    maximal, the minimal alive points above i, need a fresh look; they
    are the points whose witness was i and the witnessless points with
    nothing alive between i and them.

    Three more lemmas find the witnesses without climbing the order:

    1. Row lookup.  D_j has a maximum w exactly when rows[w] & alive ==
       D_j, so ``_witness_table`` reads every witness off one dict.
    2. Hand-over.  If i was j's witness, then D_j without i is D_i, so
       j's new witness is i's own, or none.  Of the points above i only
       the witnessless ones are searched again.
    3. Kind by kind.  A kind's table is built, at the alive set of that
       moment, only once every earlier kind has no candidates left.
       Nothing reads it before, so the picks are those of a table kept
       from the start.  Built with every point alive, it is a copy of
       the one x keeps (``_full_witnesses``), which ``beat_points``
       reads too.

    Each removed point is redirected to its witness, and the composite
    retraction is resolved at the end.
    """
    n = x.n
    everything = alive = (1 << n) - 1
    cones = [(x.below, x.above) if kind == "down" else (x.above, x.below) for kind in kinds]
    vals = fiber_vals or [0] * n  # a space is a map to a point
    wit: list[list[Optional[int]]] = []  # one table per kind scanned so far
    cands: list[int] = []
    steps: list[tuple[int, int, int]] = []  # (removed point, kind, witness)
    while True:
        for k, c in enumerate(cands):
            if c:
                break
        else:
            if len(wit) == len(kinds):
                break
            if alive == everything:
                table = list(_full_witnesses(x, kinds[len(wit)]))
            else:
                table = _witness_table(cones[len(wit)][0], alive)
            wit.append(table)
            cands.append(sum(1 << j for j, w in enumerate(table) if w is not None and vals[w] == vals[j]))
            continue
        bit = c & -c
        i = bit.bit_length() - 1
        alive ^= bit
        steps.append((i, k, wit[k][i]))
        for k, table in enumerate(wit):
            rows, co = cones[k]
            c = cands[k] & ~bit
            for j in _bits(_maximal(co, rows, co[i] & alive)):
                w = table[j] = table[i] if table[j] == i else _extremum(rows, co, rows[j] & alive & ~(1 << j))
                if w is not None and vals[w] == vals[j]:
                    c |= 1 << j
                else:
                    c &= ~(1 << j)
            cands[k] = c
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
