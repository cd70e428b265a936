"""Output checks, straight from the definitions.

Each check takes the parsed JSON an op printed and returns a problem
string, or None when the output is right.  They recompute what they
need with ``order`` (never with finfib), and only assert what the
instance's construction fixes.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from order import Map, Order, bits, pair_name

Check = Callable[[dict], Optional[str]]

CONDITION_NAMES = {
    "open_map",
    "down_fiber_nonempty",
    "down_fiber_contractible",
    "up_reachability",
    "reduced_bifibration",
    "minimalE_implies_minimalB",
    "Ed_inside_preimage_Bd",
    "beat_point_dichotomy",
}


def _iso_problem(
    m: Map, iso: dict, target: dict[str, tuple[int, int]], le: Callable[[tuple, tuple], bool]
) -> Optional[str]:
    """iso must be a bijection total -> target that commutes and preserves order both ways.

    ``target`` maps each target name to (base index, fiber key).
    """
    if set(iso) != set(m.total.names):
        return "isomorphism domain is not the total space"
    if sorted(iso.values()) != sorted(target):
        return "isomorphism is not a bijection onto the product"
    img = [target[iso[x]] for x in m.total.names]
    for i in range(m.total.n):
        if img[i][0] != m.vals[i]:
            return f"isomorphism does not commute over the base at {m.total.names[i]!r}"
        for j in range(m.total.n):
            if m.total.le(i, j) != le(img[i], img[j]):
                return f"isomorphism breaks the order at {m.total.names[i]!r}, {m.total.names[j]!r}"
    return None


def _reduced(m: Map, reduction: dict) -> Optional[Map]:
    if sorted(reduction["source"]) != sorted(m.total.names):
        return None
    keep = [m.total.index[x] for x in reduction["result"]]
    if len(set(keep)) != len(keep):
        return None
    gone = set(m.total.names) - set(reduction["result"])
    if {x for x, _ in reduction["removed"]} != gone or len(reduction["removed"]) != len(gone):
        return None
    return m.restrict(keep)


def trivial_iso_problem(m: Map, cert: dict) -> Optional[str]:
    """A trivial-over-base certificate: reduced total ~ base x fiber over the base."""
    r = _reduced(m, cert["reduction"])
    if r is None:
        return "certificate reduction does not match the input"
    b0 = r.base.index[cert["fiber_of"]]
    fiber = [k for k in range(r.total.n) if r.vals[k] == b0]
    target = {
        pair_name(r.base.names[b], r.total.names[f]): (b, f) for b in range(r.base.n) for f in fiber
    }
    return _iso_problem(
        r, cert["iso"], target, lambda u, v: r.base.le(u[0], v[0]) and r.total.le(u[1], v[1])
    )


def lift_fails(m: Map, side: str, e: str, b: str) -> bool:
    """Brute force: the (co)cartesian lift of e over b does not exist."""
    ei, bi = m.total.index[e], m.base.index[b]
    if side == "cartesian":
        if not m.base.le(bi, m.vals[ei]) or bi == m.vals[ei]:
            return False
        pool = [x for x in range(m.total.n) if m.total.le(x, ei) and m.base.le(m.vals[x], bi)]
        ext = [w for w in pool if all(m.total.le(x, w) for x in pool)]
    else:
        if not m.base.le(m.vals[ei], bi) or bi == m.vals[ei]:
            return False
        pool = [x for x in range(m.total.n) if m.total.le(ei, x) and m.base.le(bi, m.vals[x])]
        ext = [w for w in pool if all(m.total.le(w, x) for x in pool)]
    return not ext or m.vals[ext[0]] != bi


def verdict_check(m: Map, status: str, stage: str, expect: Optional[dict] = None) -> Check:
    """check hurewicz: the status and deciding stage the construction fixes."""

    def check(out: dict) -> Optional[str]:
        if out["status"] != status:
            return f"status {out['status']!r}, expected {status!r}"
        if status == "fibration":
            cert = out["certificate"]
            if cert is None or cert["kind"] != stage:
                return f"certificate {cert and cert['kind']!r}, expected {stage!r}"
            for key, want in (expect or {}).items():
                if cert.get(key) != want:
                    return f"certificate {key} {cert.get(key)!r}, expected {want!r}"
            if stage == "trivial_over_base":
                return trivial_iso_problem(m, cert)
            return None
        w = out["witness"]
        if w["condition"] != stage:
            return f"witness condition {w['condition']!r}, expected {stage!r}"
        if stage == "reduced_bifibration":
            reduction = {
                "source": m.total.names,
                "result": [x for x in m.total.names if x not in {y for y, _ in w.get("removed", ())}],
                "removed": w.get("removed", []),
            }
            r = _reduced(m, reduction)
            if r is None or not lift_fails(r, w["side"], w["e"], w["b"]):
                return f"witness {w['side']} lift at ({w['e']}, {w['b']}) exists in the reduced map"
        if stage == "undecided":
            comp = next(c for c in out["components"] if c["status"] == "unknown")
            if set(comp["necessary"] or ()) != CONDITION_NAMES:
                return "unknown verdict without the necessary-conditions report"
        return None

    return check


def core_check(
    x: Order,
    vals: Optional[Sequence[int]] = None,
    base: Optional[Sequence[str]] = None,
    result_size: Optional[int] = None,
    min_removed: int = 0,
    max_removed: Optional[int] = None,
) -> Check:
    """check core / map-core: a beat-point-free result and a retraction onto it.

    With ``vals`` (a map's base indices) beat points are those of the
    map and the retraction must stay in its fiber.
    """

    def check(out: dict) -> Optional[str]:
        if sorted(out["source"]) != sorted(x.names):
            return "source is not the input space"
        result = out["result"]
        if not set(result) <= set(x.names) or len(set(result)) != len(result):
            return "result is not a subset of the input"
        if result_size is not None and len(result) != result_size:
            return f"core has {len(result)} points, expected {result_size}"
        removed = out["removed"]
        if {e for e, _ in removed} != set(x.names) - set(result) or len(removed) + len(result) != x.n:
            return "removed list does not match source minus result"
        if len(removed) < min_removed or (max_removed is not None and len(removed) > max_removed):
            return f"{len(removed)} points removed, outside [{min_removed}, {max_removed}]"
        if base is not None and out["base"] != list(base):
            return "map core changed the base"
        keep = [x.index[e] for e in result]
        same = None if vals is None else [vals[i] for i in keep]
        sub = x.sub(keep)
        if sub.has_beat_point("down", same) or sub.has_beat_point("up", same):
            return "result still has a beat point"
        r = [x.index[out["retraction"][e]] for e in x.names]
        kept = set(keep)
        for i in range(x.n):
            if r[i] not in kept or (i in kept and r[i] != i):
                return f"retraction is not idempotent onto the result at {x.names[i]!r}"
            if vals is not None and vals[r[i]] != vals[i]:
                return f"retraction leaves the fiber at {x.names[i]!r}"
            for j in bits(x.below[i]):
                if not x.le(r[j], r[i]):
                    return f"retraction is not monotone at {x.names[j]!r} <= {x.names[i]!r}"
        return None

    return check


def bundle_check(m: Map, failed_at: Optional[str]) -> Check:
    """check bundle: trivializations over each U_b, or the first base point that fails."""

    def check(out: dict) -> Optional[str]:
        status = "bundle" if failed_at is None else "not_bundle"
        if out["status"] != status or out["failed_at"] != failed_at:
            return f"bundle status {out['status']!r} at {out['failed_at']!r}, expected {status!r} at {failed_at!r}"
        for b, iso in out["trivializations"].items():
            bi = m.base.index[b]
            down = list(bits(m.base.below[bi]))
            rest = m.restrict([i for i in range(m.total.n) if m.vals[i] in down])
            fiber = [k for k in range(rest.total.n) if rest.vals[k] == bi]
            target = {
                pair_name(m.base.names[v], rest.total.names[f]): (v, f) for v in down for f in fiber
            }
            problem = _iso_problem(
                rest, iso, target, lambda u, v: m.base.le(u[0], v[0]) and rest.total.le(u[1], v[1])
            )
            if problem:
                return f"trivialization over {b!r}: {problem}"
        if failed_at is None and len(out["trivializations"]) != m.base.n:
            return "bundle verdict without a trivialization over every base point"
        return None

    return check


def groth_check(m: Map, fibration: bool, opfibration: bool) -> Check:
    """check groth: both lift sides as fixed, each failure a real missing lift."""

    def check(out: dict) -> Optional[str]:
        got = (out["fibration"], out["opfibration"], out["bifibration"])
        if got != (fibration, opfibration, fibration and opfibration):
            return f"classification {got}, expected {(fibration, opfibration)}"
        for key in ("fibration_failure", "opfibration_failure"):
            f = out[key]
            if f is not None and not lift_fails(m, f["side"], f["e"], f["b"]):
                return f"{key}: the {f['side']} lift at ({f['e']}, {f['b']}) exists"
        return None

    return check


def construct_check(total: Map) -> Check:
    """construct: the emitted total space and projection are the construction."""
    names = total.total.names
    covers = {(names[j], names[i]) for j, i in total.total.covers()}
    values = {x: total.base.names[v] for x, v in zip(names, total.vals)}

    def check(out: dict) -> Optional[str]:
        if sorted(out["total"]["elements"]) != sorted(names):
            return "total space has the wrong points"
        if {tuple(c) for c in out["total"]["covers"]} != covers:
            return "total space has the wrong order"
        proj = out["projection"]
        if proj["values"] != values or proj["codomain"]["elements"] != total.base.names:
            return "projection is not the construction's"
        return None

    return check
