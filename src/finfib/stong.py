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

from heapq import heappop, heappush
from typing import NamedTuple, Optional, Sequence

from .errors import CodomainMismatch, InvariantViolated, NotDescending
from .posets import MonotoneMap, Poset, find_isomorphism


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


def _full_witnesses(x: Poset, kind: str) -> tuple[Optional[int], ...]:
    """x's beat-point witness table of one kind, built on first use and kept on x.

    The witness of j is the maximum of its strict down-set D_j (with
    kind up, the minimum of its strict up-set), or None.  D_j has a
    maximum w exactly when rows[w] == D_j, and rows are distinct, by
    antisymmetry; so one dict from rows to points answers each point
    with one lookup.
    """
    got = x._witnesses.get(kind)
    if got is None:
        rows = x.below if kind == "down" else x.above
        look = {row: w for w, row in enumerate(rows)}
        got = x._witnesses[kind] = tuple([look.get(row ^ (1 << j)) for j, row in enumerate(rows)])
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
    must share the fiber.  A point is a down beat point exactly when it
    has one lower cover, its witness (an up beat point: one upper
    cover).  So the engine keeps each alive point's lower and upper
    covers, from the generating pairs (from the cover table if x has
    none), and never climbs the order.  A kind's candidates are listed
    once no earlier kind has one, since nothing reads them before, and
    are kept up to date from then on.  If the tables x keeps
    (``_full_witnesses``) show no candidate, it returns x and its
    identity without building any of this.

    Removal lemma.  Remove i, a down beat point with witness w (up is
    dual).  The covers left are the old ones without i, plus (w, y) for
    each upper cover y of i such that no other lower cover of y lies
    above w.  Proof: a cover without i stays one, as its interval only
    shrinks.  A new cover (a, b) had i alone strictly inside, so a is a
    lower cover of i, that is w, and b an upper cover y of i.  A point
    strictly between w and y other than i lies below a lower cover z of
    y other than i (z = i would put it between w and i), and such a z
    above w is one itself; so (w, y) is a cover exactly when no such z
    lies above w, one row bit per lower cover of y.  Only the y change
    their lower covers and only w its upper ones, so candidacy of i's
    kind is read again at the y, of the other kind at w.

    Each removed point is redirected to its witness, and the composite
    retraction is resolved at the end.  The result's rows are ORed
    along the surviving covers in a linear extension, and it keeps
    those covers as its generating pairs.
    """
    n = x.n
    vals = fiber_vals or [0] * n  # a space is a map to a point
    for kind in kinds:
        if any(w is not None and vals[w] == vals[j] for j, w in enumerate(_full_witnesses(x, kind))):
            break
    else:
        return ReductionTrace(x, x, (), MonotoneMap.identity(x))
    below, above = x.below, x.above
    if x._gens is None:
        lower, upper = ([list(c) for c in side] for side in x._cover_table()[:2])
    else:
        lower, upper = [[] for _ in range(n)], [[] for _ in range(n)]
        for lo, hi in set(x._gens):
            if (below[hi] & above[lo]).bit_count() == 2:
                lower[hi].append(lo)
                upper[lo].append(hi)
    sides = [(lower, upper, below) if kind == "down" else (upper, lower, above) for kind in kinds]
    marks: list[bytearray] = []  # per kind scanned so far, its candidates
    heaps: list[list[int]] = []  # and a heap of them, whose stale entries are unmarked
    steps: list[tuple[int, int, int]] = []  # (removed point, kind, witness)
    while True:
        for k, heap in enumerate(heaps):
            mark = marks[k]
            while heap and not mark[heap[0]]:
                heappop(heap)
            if heap:
                break
        else:
            if len(heaps) == len(kinds):
                break
            own = sides[len(heaps)][0]  # a removed point has no covers left, so it is no candidate
            marks.append(bytearray([len(c) == 1 and vals[c[0]] == vals[j] for j, c in enumerate(own)]))
            heaps.append([j for j, m in enumerate(marks[-1]) if m])
            continue
        i = heappop(heap)
        own, far, rows = sides[k]
        (w,) = own[i]
        steps.append((i, k, w))
        far[w].remove(i)
        for y in far[i]:
            ys = own[y]
            ys.remove(i)
            for z in ys:
                if rows[z] >> w & 1:
                    break
            else:
                ys.append(w)
                far[w].append(y)
            now = len(ys) == 1 and vals[ys[0]] == vals[y]
            if now and not mark[y]:
                heappush(heap, y)
            mark[y] = now
        own[i], far[i] = [], []
        for (side, _, _), other, pending in zip(sides, marks, heaps):
            other[i] = 0
            if side is far:
                now = len(side[w]) == 1 and vals[side[w][0]] == vals[w]
                if now and not other[w]:
                    heappush(pending, w)
                other[w] = now
    to = list(range(n))
    for i, _, wi in reversed(steps):
        to[i] = to[wi]
    gone = {i for i, _, _ in steps}
    kept = [j for j in range(n) if j not in gone]
    pos = dict(zip(kept, range(len(kept))))
    rising = sorted(kept, key=lambda j: below[j].bit_count())
    new_rows = []
    for covers, order in ((lower, rising), (upper, reversed(rising))):
        out = [0] * len(kept)
        for j in order:
            row = 1 << pos[j]
            for z in covers[j]:
                row |= out[pos[z]]
            out[pos[j]] = row
        new_rows.append(out)
    result = Poset([x.elements[j] for j in kept], *new_rows)
    result._gens = tuple([(pos[z], pos[j]) for j in kept for z in lower[j]])
    retraction = MonotoneMap(x, result, [pos[to[j]] for j in range(n)])
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
