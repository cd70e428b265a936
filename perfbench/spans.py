"""Per-layer spans and counters, recorded from outside the program.

``Tracer.patched()`` swaps wrappers in for the public and cross-module
entry points of each finfib module, at the name each caller looks up
(``verdict`` imports ``_scan_lifts`` by name, so wrapping only
``grothendieck._scan_lifts`` would miss its calls).  A span's self
time is its duration minus the spans that run inside it.

Functions that consume lazy generators (``find_isomorphism*``) are
wrapped, never the generators: a generator returns at once and its
work would be billed to whoever iterates it.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import defaultdict
from time import perf_counter

STAGES = (
    "minimum_base_bifibration",
    "height1_max_retract",
    "trivial_over_base",
    "reduced_bifibration",
    "surjective_over_component",
    "undecided",
)

_TO_DOC = (
    "bundle_to_doc",
    "groth_to_doc",
    "map_reduction_to_doc",
    "map_to_doc",
    "necessary_to_doc",
    "poset_to_doc",
    "trace_to_doc",
    "verdict_to_doc",
)

# span -> (module, attribute) pairs, module names relative to finfib
SPANS: dict[str, list[tuple[str, str]]] = {
    "cli.main": [],  # opened by the benchmark around each op
    "documents.load": [("cli", "_load_target")],
    "documents.emit": [("cli", name) for name in _TO_DOC] + [("cli", "json.dumps")],
    "documents.functor": [("cli", "functor_from_doc")],
    "posets.build": [("posets", "Poset.build"), ("posets", "MonotoneMap.build")],
    "posets.product": [("verdict", "product"), ("grothendieck", "product")],
    "posets.find_isomorphism": [
        ("stong", "find_isomorphism"),
        ("verdict", "find_isomorphism_over_base"),
        ("grothendieck", "find_isomorphism_over_base"),
    ],
    "stong.reduce": [("stong", "_reduce"), ("slices", "_reduce")],
    "slices.restrict": [
        ("slices", "restrict_over"),
        ("grothendieck", "restrict_over"),
        ("slices", "restrict_over_component"),
        ("verdict", "restrict_over_component"),
    ],
    "grothendieck.scan_lifts": [("grothendieck", "_scan_lifts"), ("verdict", "_scan_lifts")],
    "grothendieck.transport": [("grothendieck", "_transport_functor")],
    "grothendieck.construction": [
        ("grothendieck", "grothendieck_construction"),
        ("cli", "grothendieck_construction"),
    ],
    "grothendieck.bundle": [("cli", "is_fiber_bundle")],
    "verdict.decide": [("cli", "decide_hurewicz")],
    "verdict.necessary": [("verdict", "necessary_conditions"), ("cli", "necessary_conditions")],
    "verdict.retract": [("verdict", "projection_retract_height1")],
}

COUNTERS = (
    "stong.reduce.removed",
    "grothendieck.scan_lifts.requests",
    "posets.find_isomorphism.found",
    "posets.find_isomorphism.budget_exhausted",
) + tuple(f"verdict.stage.{s}" for s in STAGES)


def _count_reduce(args, kwargs, result, counts):
    counts["stong.reduce.removed"] += len(result.removed)


def _count_lifts(args, kwargs, result, counts):
    s, side = args
    rows = s.base.below if side == "cartesian" else s.base.above
    counts["grothendieck.scan_lifts.requests"] += sum(
        (rows[v] & ~(1 << v)).bit_count() for v in s.map.vals
    )


def _count_iso(args, kwargs, result, counts):
    if result is not None:
        counts["posets.find_isomorphism.found"] += 1


def _count_stages(args, kwargs, result, counts):
    for c in result.components:
        stage = c.certificate.kind if c.certificate else c.witness["condition"]
        counts[f"verdict.stage.{stage}"] += 1


_OBSERVE = {
    "stong.reduce": _count_reduce,
    "grothendieck.scan_lifts": _count_lifts,
    "posets.find_isomorphism": _count_iso,
    "verdict.decide": _count_stages,
}


class _JsonProxy:
    """Stands in for ``cli.json`` so only the CLI's ``json.dumps`` is wrapped."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Span self times, call counts and counters, summed over traced ops.

    Create it after the final import of finfib: it binds that import's
    modules and exception class.
    """

    def __init__(self):
        self._exhausted = sys.modules["finfib.errors"].SearchBudgetExhausted
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []  # child time of each open span

    def span(self, name: str, fn):
        observe = _OBSERVE.get(name)
        exhausted = self._exhausted if name == "posets.find_isomorphism" else ()

        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except exhausted:
                self.counts["posets.find_isomorphism.budget_exhausted"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = self._stack.pop()
                self.self_s[name] += dt - child
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += dt
            if observe is not None:
                observe(args, kwargs, result, self.counts)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper; restore the originals on exit."""
        undo = []
        try:
            for name, sites in SPANS.items():
                for module, attr in sites:
                    mod = sys.modules[f"finfib.{module}"]
                    owner_name, _, attr = attr.rpartition(".")
                    if owner_name == "json":
                        undo.append((mod, "json", mod.json))
                        mod.json = _JsonProxy(self.span(name, json.dumps))
                    elif owner_name:
                        owner = getattr(mod, owner_name)
                        orig = owner.__dict__[attr]  # a classmethod
                        undo.append((owner, attr, orig))
                        setattr(owner, attr, classmethod(self.span(name, orig.__func__)))
                    else:
                        orig = getattr(mod, attr)
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, self.span(name, orig))
            yield
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)
