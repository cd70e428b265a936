"""Finite partial orders viewed as T0 topological spaces.

A finite T0 space is the same thing as a finite poset: the minimal open
set of a point is its down set, the closure of a point is its up set,
and a function between two such spaces is continuous exactly when it is
order preserving.  Everything downstream trades on this dictionary, so
the whole engine is plain combinatorics on posets.

Order rows are stored as bitmasks (one int per element), which keeps
closure, reduction and the various intersections cheap without any
third-party dependency.  Element identity is the name (a string);
derived posets generate deterministic composite names such as "(a,0)".
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    CodomainMismatch,
    CycleDetected,
    DuplicateName,
    NotMonotone,
    UnknownElement,
)


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _climb(co: Sequence[int], m: int) -> int:
    """A maximal element of the non-empty mask m, climbing co = above (minimal with co = below).

    Each probe leaves the points of m strictly beyond it.  Probing the
    lowest and the highest index in turn ends within two probes when the
    indices follow a linear extension or its reverse.
    """
    cand, low = m, True
    while True:
        w = ((cand & -cand) if low else cand).bit_length() - 1
        cand = (cand & co[w]) ^ (1 << w)  # drops w, which co[w] holds
        if not cand:
            return w
        low = not low


def _extremum(rows: Sequence[int], co: Sequence[int], m: int) -> Optional[int]:
    """The maximum of mask m (minimum with rows = above), or None."""
    if not m:
        return None
    w = _climb(co, m)
    return None if m & ~rows[w] else w


def _maximal(rows: Sequence[int], co: Sequence[int], m: int) -> int:
    """Mask of the maximal elements of m (minimal with rows = above).

    Climb to one, keep it and clear its down-set; the rest has nothing
    below it, so its maximal elements are maximal in m.
    """
    out = 0
    while m:
        w = _climb(co, m)
        out |= 1 << w
        m &= ~rows[w]
    return out


class Poset:
    """Finite poset with named elements.

    ``below[i]`` is the bitmask of indices j with j <= i (the minimal
    open set of element i), ``above[i]`` the bitmask of j >= i (its
    closure).  Callers hand over both rows, each constructor building
    the one it lacks from data it already holds, and the rows are
    trusted as given.  ``_gens`` holds index pairs (lo, hi) whose
    closure is the order, those ``build`` closed or ``product`` and
    ``op`` derive, or a reduction's surviving covers for its result
    (the raw constructor and ``_sub_mask`` keep None).
    Cover lemma: every generating set holds each cover, and a pair of
    it is a cover iff its interval ``below[hi] & above[lo]`` has two
    points.  So the Hasse diagram, one cover table built on first use
    that every cover query reads, comes from the generating pairs, or
    without them from the maximal elements of each strict down-set.
    ``_witnesses`` keeps, per kind, the beat-point witness table
    ``stong`` builds with every point alive, also on first use.
    Instances are immutable and hashable; equality is on the element
    tuple plus the order, so it is equality of spaces, not of
    isomorphism classes.
    """

    __slots__ = ("elements", "index", "below", "above", "_gens", "_covers", "_witnesses")

    def __init__(self, elements: Sequence[str], below: Sequence[int], above: Sequence[int]):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.below = tuple(below)
        self.above = tuple(above)
        self._gens: Optional[tuple[tuple[int, int], ...]] = None
        self._covers = None
        self._witnesses: dict[str, tuple[Optional[int], ...]] = {}

    # -- construction ------------------------------------------------

    @classmethod
    def build(cls, elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Poset":
        """Build a poset from named elements and strict relation pairs.

        ``pairs`` lists (lo, hi) with lo < hi; they may be covers or any
        generating set, the reflexive-transitive closure is taken.  A
        closure that is not antisymmetric raises CycleDetected, since
        the corresponding finite space would not be T0.
        """
        names = list(elements)
        seen = set()
        for name in names:
            if not isinstance(name, str):
                raise UnknownElement(f"element names must be strings, got {name!r}")
            if name in seen:
                raise DuplicateName(f"duplicate element name {name!r}")
            seen.add(name)
        index = {e: i for i, e in enumerate(names)}
        n = len(names)
        up: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n  # a repeated pair adds one here per copy and takes it back per copy below
        gens = []
        for lo, hi in pairs:
            if lo not in index:
                raise UnknownElement(f"unknown element {lo!r} in relation pair")
            if hi not in index:
                raise UnknownElement(f"unknown element {hi!r} in relation pair")
            if lo == hi:
                raise CycleDetected(f"element {lo!r} declared below itself")
            i, j = index[lo], index[hi]
            up[i].append(j)
            indeg[j] += 1
            gens.append((i, j))
        # Kahn order, read as it grows, pushing each complete down-set up; leftovers mean a cycle
        below, above = [1 << i for i in range(n)], [1 << i for i in range(n)]
        topo = [i for i in range(n) if not indeg[i]]
        for i in topo:
            for j in up[i]:
                below[j] |= below[i]
                indeg[j] -= 1
                if not indeg[j]:
                    topo.append(j)
        if len(topo) != n:
            stuck = min(i for i in range(n) if indeg[i] > 0)
            raise CycleDetected(f"relation has a cycle through {names[stuck]!r}")
        for i in reversed(topo):
            for j in up[i]:
                above[i] |= above[j]
        p = cls(names, below, above)
        p._gens = tuple(gens)
        return p

    # -- basics ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, name: object) -> bool:
        return name in self.index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self.below == other.below
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.below))

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements)"

    def idx(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownElement(f"element {name!r} is not in this poset") from None

    def names(self, mask: int) -> tuple[str, ...]:
        """Element names of a bitmask, in index order."""
        return tuple(self.elements[i] for i in _bits(mask))

    def mask(self, names: Iterable[str]) -> int:
        m = 0
        for name in names:
            m |= 1 << self.idx(name)
        return m

    # -- order -------------------------------------------------------

    def le(self, a: str, b: str) -> bool:
        return bool(self.below[self.idx(b)] >> self.idx(a) & 1)

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.le(a, b)

    def down_set(self, a: str) -> tuple[str, ...]:
        """Minimal open set U_a = {x : x <= a}."""
        return self.names(self.below[self.idx(a)])

    def _cover_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Lower and upper covers of each element, as rising indices, and the cover pairs."""
        if self._covers is None:
            below, above = self.below, self.above
            # by rising hi, then lo, or by rising lo, then hi: either fills both sides' rows rising
            if self._gens is None:
                pairs = [(j, i) for i, row in enumerate(below) for j in _bits(_maximal(below, above, row & ~(1 << i)))]
            else:
                pairs = sorted({(j, i) for j, i in self._gens if (below[i] & above[j]).bit_count() == 2})
            lower: list[list[int]] = [[] for _ in range(self.n)]
            upper: list[list[int]] = [[] for _ in range(self.n)]
            for j, i in pairs:
                lower[i].append(j)
                upper[j].append(i)
            pairs = [(j, i) for j, row in enumerate(upper) for i in row]
            self._covers = (tuple(map(tuple, lower)), tuple(map(tuple, upper)), tuple(pairs))
        return self._covers

    def _cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Index pairs (lo, hi) of the covers, in rising (lo, hi) order."""
        return self._cover_table()[2]

    def _linear_extension(self) -> list[int]:
        """Indices by rising |U_x|, which strictly grows along the order."""
        return sorted(range(self.n), key=lambda i: (self.below[i].bit_count(), i))

    def covers(self) -> tuple[tuple[str, str], ...]:
        """Hasse relation (transitive reduction), as (lo, hi) pairs."""
        return tuple([(self.elements[j], self.elements[i]) for j, i in self._cover_pairs()])

    def max_of_mask(self, m: int) -> Optional[str]:
        i = _extremum(self.below, self.above, m)
        return None if i is None else self.elements[i]

    def min_of_mask(self, m: int) -> Optional[str]:
        i = _extremum(self.above, self.below, m)
        return None if i is None else self.elements[i]

    def maximum(self) -> Optional[str]:
        return self.max_of_mask((1 << self.n) - 1) if self.n else None

    def minimum(self) -> Optional[str]:
        return self.min_of_mask((1 << self.n) - 1) if self.n else None

    def heights(self) -> tuple[int, ...]:
        """Longest chain length (in edges) ending at each element."""
        lower = self._cover_table()[0]
        h = [0] * self.n
        for i in self._linear_extension():
            h[i] = 1 + max((h[j] for j in lower[i]), default=-1)
        return tuple(h)

    def height(self) -> int:
        """Length of the longest chain; -1 for the empty poset."""
        return max(self.heights(), default=-1)

    # -- connectivity ------------------------------------------------

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components, each listed in index order.

        Connectedness of a finite space is connectedness of the
        comparability graph (which also equals path-connectedness).
        """
        seen = 0
        out = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp = 1 << start
            frontier = comp
            while frontier:
                grown = 0
                for i in _bits(frontier):
                    grown |= self.below[i] | self.above[i]
                frontier = grown & ~comp
                comp |= grown
            seen |= comp
            out.append(self.names(comp))
        return tuple(out)

    # -- derived posets ----------------------------------------------

    def op(self) -> "Poset":
        """Opposite poset: same elements, order reversed, generating pairs too."""
        q = Poset(self.elements, self.above, self.below)
        q._gens = self._gens and tuple([(j, i) for i, j in self._gens])
        return q

    def sub(self, keep: Iterable[str]) -> "Poset":
        """Subposet induced on the given elements, relative order kept.

        Keeping every element returns this poset itself.
        """
        return self._sub_mask(self.mask(keep))

    def _sub_mask(self, keep: int) -> "Poset":
        """Subposet induced on the bitmask keep; this poset if it keeps all.

        Each kept comparable pair is moved bit by bit to its new index.
        """
        if keep == (1 << self.n) - 1:
            return self
        kept = list(_bits(keep))
        pos = {i: k for k, i in enumerate(kept)}
        below, above = [], []
        for i in kept:
            lo = hi = 0
            for j in _bits(self.below[i] & keep):
                lo |= 1 << pos[j]
            for j in _bits(self.above[i] & keep):
                hi |= 1 << pos[j]
            below.append(lo)
            above.append(hi)
        return Poset(tuple(self.elements[i] for i in kept), below, above)


def pair_name(x: str, y: str) -> str:
    return f"({x},{y})"


def product(p: Poset, q: Poset) -> tuple[Poset, "MonotoneMap", "MonotoneMap"]:
    """Product poset with componentwise order, plus its two projections.

    Elements are named "(x,y)"; x runs slowest, so the order of the
    element list is deterministic.
    """
    names = [pair_name(x, y) for x in p.elements for y in q.elements]
    nq = q.n

    def rows(p_rows: Sequence[int], q_rows: Sequence[int]) -> list[int]:
        # (x, y)'s row is y's row times sum(2 ** (a |Q|)) over a in x's row: disjoint copies
        spread = [sum(1 << a * nq for a in _bits(p_row)) for p_row in p_rows]
        return [q_row * s for s in spread for q_row in q_rows]

    prod = Poset(names, rows(p.below, q.below), rows(p.above, q.above))
    # (x, y) < (x', y) and (x, y) < (x, y') for generating pairs x < x', y < y' (covers if none kept)
    gp, gq = (x._gens if x._gens is not None else x._cover_pairs() for x in (p, q))
    prod._gens = tuple([(a * nq + y, b * nq + y) for a, b in gp for y in range(nq)]
                       + [(x * nq + a, x * nq + b) for x in range(p.n) for a, b in gq])
    to_p = MonotoneMap(prod, p, tuple(i for i in range(p.n) for _ in range(nq)))
    to_q = MonotoneMap(prod, q, tuple(j for _ in range(p.n) for j in range(nq)))
    return prod, to_p, to_q


class MonotoneMap:
    """Order-preserving map between two posets.

    Monotonicity is checked at construction (via ``build``); the raw
    constructor trusts its input and is used internally where the
    property holds by design.
    """

    __slots__ = ("dom", "cod", "vals")

    def __init__(self, dom: Poset, cod: Poset, vals: Sequence[int]):
        self.dom = dom
        self.cod = cod
        self.vals = tuple(vals)

    @classmethod
    def build(cls, dom: Poset, cod: Poset, values: dict[str, str]) -> "MonotoneMap":
        try:
            vals = [cod.index[values[e]] for e in dom.elements]
        except KeyError:  # the loop names the first element without a value, or its unknown value
            for e in dom.elements:
                if e not in values:
                    raise UnknownElement(f"no value assigned to element {e!r}") from None
                cod.idx(values[e])
            raise
        if len(values) > dom.n:  # every element of dom is a key, so the rest are not in dom
            raise UnknownElement(f"values assigned to unknown elements {sorted(set(values) - set(dom.elements))}")
        f = cls(dom, cod, vals)
        bad = f._disorder()
        if bad is not None:
            lo, hi = bad
            raise NotMonotone(
                f"{dom.elements[lo]!r} <= {dom.elements[hi]!r} in the domain but "
                f"{cod.elements[vals[lo]]!r} <= {cod.elements[vals[hi]]!r} fails in the codomain"
            )
        return f

    def _disorder(self) -> Optional[tuple[int, int]]:
        """The first cover (lo, hi) of the domain whose images are out of order, or None.

        Generator lemma: a map is monotone iff p(lo) <= p(hi) for each
        pair of a set generating the domain's order, by transitivity in
        B.  So one bit test per generating pair decides; only a map that
        fails it, or a domain without pairs, scans the domain's covers
        (which generate too) to name the first bad one.
        """
        rows, vals, gens = self.cod.below, self.vals, self.dom._gens
        if gens is not None and all(rows[vals[hi]] >> vals[lo] & 1 for lo, hi in gens):
            return None
        for lo, hi in self.dom._cover_pairs():
            if not rows[vals[hi]] >> vals[lo] & 1:
                return lo, hi
        return None

    @classmethod
    def identity(cls, p: Poset) -> "MonotoneMap":
        return cls(p, p, range(p.n))

    def __call__(self, name: str) -> str:
        return self.cod.elements[self.vals[self.dom.idx(name)]]

    @property
    def values(self) -> dict[str, str]:
        return {e: self.cod.elements[v] for e, v in zip(self.dom.elements, self.vals)}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonotoneMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.vals == other.vals
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.vals))

    def __repr__(self) -> str:
        return f"MonotoneMap({self.dom.n}->{self.cod.n} elements)"

    def then(self, g: "MonotoneMap") -> "MonotoneMap":
        """Composite g o self."""
        if g.dom != self.cod:
            raise CodomainMismatch("composite needs matching middle poset")
        return MonotoneMap(self.dom, g.cod, tuple(g.vals[v] for v in self.vals))

    def image_mask(self) -> int:
        m = 0
        for v in self.vals:
            m |= 1 << v
        return m

    def is_surjective(self) -> bool:
        return self.image_mask() == (1 << self.cod.n) - 1

    def is_injective(self) -> bool:
        return len(set(self.vals)) == self.dom.n

    def is_iso(self) -> bool:
        """Bijective with monotone inverse, i.e. a homeomorphism."""
        if self.dom.n != self.cod.n or not self.is_injective():
            return False
        inv = sorted(range(self.dom.n), key=self.vals.__getitem__)
        return MonotoneMap(self.cod, self.dom, inv)._disorder() is None

    def restrict(self, sub_dom: Poset) -> "MonotoneMap":
        """Restriction to a subposet of the domain (same names)."""
        return MonotoneMap(sub_dom, self.cod, tuple(self.vals[self.dom.idx(e)] for e in sub_dom.elements))

    def op(self) -> "MonotoneMap":
        """The same function, seen between the opposite posets."""
        return MonotoneMap(self.dom.op(), self.cod.op(), self.vals)


# -- isomorphism search ------------------------------------------------


def _backtrack(order: Sequence[int], cand: Callable[[int, list[int]], int]) -> Iterator[list[int]]:
    """Depth-first search over value assignments, on an explicit stack.

    Position k of the non-empty ``order`` assigns element ``order[k]``;
    ``cand(k, vals)`` returns the bitmask of values consistent with the
    values already assigned in ``vals`` (indexed by element), and they
    are tried in rising index order.  The same ``vals`` list is yielded
    for every complete assignment, so callers copy what they keep.
    """
    vals = [-1] * len(order)
    last = len(order) - 1
    stack = [cand(0, vals)]
    while stack:
        ok = stack[-1]
        if not ok:
            stack.pop()
            continue
        low = ok & -ok
        stack[-1] = ok ^ low
        k = len(stack) - 1
        vals[order[k]] = low.bit_length() - 1
        if k == last:
            yield vals
        else:
            stack.append(cand(k + 1, vals))


def _joint_labels(
    p: Poset,
    q: Poset,
    extra_p: Optional[Sequence[object]],
    extra_q: Optional[Sequence[object]],
) -> tuple[list[int], list[int]]:
    """Integer colour refinement on the disjoint union of p and q.

    An element starts from (|U|, |F|, extra label); each round
    recolours it by its colour and the sorted colours of its lower and
    upper covers, until a round splits no class.  Equal final colours
    give equal lower-cover colours, so by induction equal heights, and
    dually equal depths.  Elements that can correspond under an
    isomorphism (respecting the extra labels) end with equal colours;
    the converse fails in general, the backtracking handles the rest.
    Only the final partition matters, so colours are numbered in order
    of first appearance.
    """
    keys: list[object] = []
    dn: list[list[int]] = []
    up: list[list[int]] = []
    for s, extra in ((p, extra_p), (q, extra_q)):
        shift = len(keys)
        keys += [
            (s.below[i].bit_count(), s.above[i].bit_count(), None if extra is None else extra[i])
            for i in range(s.n)
        ]
        for adj, rows in zip((dn, up), s._cover_table()):
            adj += [[j + shift for j in row] for row in rows]
    classes = 0
    while True:
        ids: dict[object, int] = {}
        colour = [ids.setdefault(k, len(ids)) for k in keys]
        if len(ids) == classes:
            return colour[: p.n], colour[p.n :]
        classes = len(ids)
        keys = [
            (colour[v], tuple(sorted(colour[u] for u in dn[v])), tuple(sorted(colour[u] for u in up[v])))
            for v in range(len(colour))
        ]


def isomorphisms(
    p: Poset,
    q: Poset,
    *,
    extra_p: Optional[Sequence[object]] = None,
    extra_q: Optional[Sequence[object]] = None,
) -> Iterator[dict[str, str]]:
    """Yield order isomorphisms p -> q as name dictionaries.

    Candidates are pruned by colour refinement and searched by
    backtracking on an explicit stack, with deterministic index-order
    tie-breaking and no recursion limit on the size.  The search is
    exhaustive, so absence of output is a proof that none exists.
    """
    if p.n != q.n:
        return
    if p.n == 0:
        yield {}
        return
    lab_p, lab_q = _joint_labels(p, q, extra_p, extra_q)
    if sorted(lab_p) != sorted(lab_q):
        return
    n = p.n
    by_label: dict[int, int] = {}
    for j, l in enumerate(lab_q):
        by_label[l] = by_label.get(l, 0) | 1 << j
    # assign elements in order of rising candidate count, then index
    order = sorted(range(n), key=lambda i: (by_label[lab_p[i]].bit_count(), i))

    # a value j for i must relate to the value j2 of every earlier i2
    # as i relates to i2: above j2 when i2 < i, below it when i2 > i and
    # apart from it otherwise.  j2 is used, so q's own rows serve as the
    # strict up- and down-set tables.
    ups, downs = q.above, q.below
    # per colour class: the values strictly comparable to one of its
    # values, and the elements of p it colours
    reach = dict.fromkeys(by_label, 0)
    for j, l in enumerate(lab_q):
        reach[l] |= (ups[j] | downs[j]) ^ 1 << j
    members = dict.fromkeys(by_label, 0)
    for i, l in enumerate(lab_p):
        members[l] |= 1 << i
    # per class: the elements of the classes that reach one of its values.
    # An apart i2 outside them rules out only its own value, which
    # ``used`` already removes.
    reached_by: dict[int, int] = {}
    # per position: its colour class, the maximal earlier elements below
    # it, the minimal ones above it (earlier values already relate as
    # their elements do) and the earlier ones apart from it that matter
    classes, lows, highs, aparts = [], [], [], []
    earlier = 0
    for i in order:
        l = lab_p[i]
        cls = by_label[l]
        lo, hi = p.below[i] & earlier, p.above[i] & earlier
        rest = earlier & ~(lo | hi)
        if rest:
            if l not in reached_by:
                reached_by[l] = sum(members[l2] for l2 in by_label if reach[l2] & cls)
            rest &= reached_by[l]
        classes.append(cls)
        lows.append(_maximal(p.below, p.above, lo))
        highs.append(_maximal(p.above, p.below, hi))
        aparts.append(rest)
        earlier |= 1 << i
    full = (1 << n) - 1
    apart_of = [full ^ (ups[j] | downs[j]) for j in range(n)] if any(aparts) else []
    used = [0] * n  # values taken by the positions before each depth

    def candidates(k: int, vals: list[int]) -> int:
        if k:
            used[k] = used[k - 1] | 1 << vals[order[k - 1]]
        ok = classes[k] & ~used[k]
        for m, table in ((lows[k], ups), (highs[k], downs), (aparts[k], apart_of)):
            while m and ok:
                b = m & -m
                ok &= table[vals[b.bit_length() - 1]]
                m ^= b
        return ok

    for vals in _backtrack(order, candidates):
        yield {p.elements[i]: q.elements[vals[i]] for i in range(n)}


def find_isomorphism(p: Poset, q: Poset) -> Optional[dict[str, str]]:
    """First isomorphism p -> q in deterministic search order, or None."""
    return next(isomorphisms(p, q), None)


def find_isomorphism_over_base(p: MonotoneMap, q: MonotoneMap) -> Optional[dict[str, str]]:
    """Isomorphism h: dom(p) -> dom(q) with q o h = p, or None.

    Both maps must share their codomain; the base value of each element
    is folded into the search labels, so h automatically commutes.
    """
    if p.cod != q.cod:
        raise CodomainMismatch("isomorphism over a base needs a common codomain")
    return next(isomorphisms(p.dom, q.dom, extra_p=p.vals, extra_q=q.vals), None)
