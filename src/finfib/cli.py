"""Command line front end.

Targets are either file paths (JSON or the text DSL) or gallery
references like "gallery:p2".  Exit codes: 0 = property holds /
fibration, 1 = property fails / not a fibration, 2 = undecided,
3 = input error, 4 = internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional, Union

from .documents import (
    bundle_to_doc,
    detect_doc_kind,
    dumps,
    functor_from_doc,
    groth_to_doc,
    map_from_doc,
    map_reduction_to_doc,
    map_to_doc,
    necessary_to_doc,
    parse_text,
    poset_from_doc,
    poset_to_doc,
    trace_to_doc,
    unique_keys,
    verdict_to_doc,
)
from .errors import (
    CodomainMismatch,
    CycleDetected,
    DuplicateName,
    EmptyDomain,
    FinfibError,
    FunctorialityViolated,
    NotMonotone,
    ParseError,
    UnknownElement,
    UnknownGalleryId,
)
from .gallery import ENTRIES, gallery_entry
from .grothendieck import classify_grothendieck, grothendieck_construction, is_fiber_bundle
from .posets import MonotoneMap, Poset
from .slices import as_slice, map_beat_points, map_core
from .stong import beat_points, core, is_contractible
from .verdict import decide_hurewicz, is_closed_map, is_open_map, necessary_conditions

_INPUT_ERRORS = (
    ParseError,
    OSError,
    UnicodeDecodeError,
    json.JSONDecodeError,
    UnknownGalleryId,
    UnknownElement,
    DuplicateName,
    CycleDetected,
    NotMonotone,
    CodomainMismatch,
    FunctorialityViolated,
    EmptyDomain,
)

_CERT_NAMES = {
    "minimum_base_bifibration": "minimum-base bifibration",
    "height1_max_retract": "height-1-maximum retract",
    "trivial_over_base": "trivial over base",
}


def _read_json(target: str, text: str):
    """Decode JSON with unique keys; a document nested too deeply to decode is bad input."""
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ParseError(f"{target}: JSON nested too deeply to decode") from None


def _load_target(target: str) -> Union[Poset, MonotoneMap]:
    if target.startswith("gallery:"):
        return gallery_entry(target[len("gallery:") :]).build()
    text = Path(target).read_text()
    if text.lstrip().startswith(("{", "[")):
        doc = _read_json(target, text)
        kind = detect_doc_kind(doc)
        if kind == "poset":
            return poset_from_doc(doc)
        if kind == "map":
            return map_from_doc(doc)
        raise ParseError(f"{target}: a functor document only works with 'construct'")
    objects = parse_text(text)
    maps = [obj for kind, _, obj in objects if kind == "map"]
    if len(maps) == 1:
        return maps[0]
    if not maps and len(objects) == 1:
        return objects[0][2]
    raise ParseError(f"{target}: expected exactly one map (or a single poset)")


def _load_map(target: str) -> MonotoneMap:
    obj = _load_target(target)
    if isinstance(obj, Poset):
        raise ParseError(f"{target}: names a poset where a map is required")
    return obj


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.json:
        print(dumps(doc))
    else:
        for line in text_lines:
            print(line)


def _poset_info(p: Poset) -> dict:
    bp = beat_points(p)
    comps = p.components()
    summary = [
        f"{p.n} element{'s' if p.n != 1 else ''}",
        f"height {p.height()}" if p.n else "empty",
        "connected" if len(comps) <= 1 else f"{len(comps)} components",
        "minimal" if bp.is_minimal else "not minimal",
    ]
    return {
        "kind": "poset",
        "summary": ", ".join(summary),
        "elements": list(p.elements),
        "covers": [list(c) for c in p.covers()],
        "height": p.height(),
        "connected": len(comps) <= 1,
        "components": [list(c) for c in comps],
        "minimal": bp.is_minimal,
        "contractible": is_contractible(p),
        "beat_points": {"down": dict(bp.down), "up": dict(bp.up)},
    }


def cmd_info(args) -> int:
    obj = _load_target(args.target)
    if isinstance(obj, Poset):
        doc = _poset_info(obj)
        lines = [doc["summary"]]
        if args.verbose:
            lines.append("elements: " + ", ".join(obj.elements))
            lines.append(
                "covers: " + (", ".join(f"{lo} < {hi}" for lo, hi in obj.covers()) or "none")
            )
            lines.append(f"down beat points: {doc['beat_points']['down'] or 'none'}")
            lines.append(f"up beat points: {doc['beat_points']['up'] or 'none'}")
        _emit(args, doc, lines)
        return 0
    s = as_slice(obj)
    mbp = map_beat_points(s)
    doc = {
        "kind": "map",
        "domain": _poset_info(s.total),
        "codomain": _poset_info(s.base),
        "values": dict(s.map.values),
        "surjective": s.map.is_surjective(),
        "fibers": {b: list(s.total.names(fm)) for b, fm in zip(s.base.elements, s.fiber_masks)},
        "map_beat_points": {"down": dict(mbp.down), "up": dict(mbp.up)},
    }
    lines = [
        f"map with {s.total.n} -> {s.base.n} elements, "
        + ("surjective" if s.map.is_surjective() else "not surjective"),
        "domain: " + doc["domain"]["summary"],
        "codomain: " + doc["codomain"]["summary"],
    ]
    if args.verbose:
        for b in s.base.elements:
            lines.append(f"fiber({b}): " + (", ".join(doc["fibers"][b]) or "empty"))
    _emit(args, doc, lines)
    return 0


def _check_openness(args, closed: bool) -> int:
    m = _load_map(args.target)
    ok, witness = is_closed_map(m) if closed else is_open_map(m)
    prop = "closed" if closed else "open"
    if ok:
        _emit(args, {"holds": True, "witness": None}, [prop])
        return 0
    text = f"not {prop} (witness: e={witness['e']}, unreached {witness['missing']})"
    _emit(args, {"holds": False, "witness": witness}, [text])
    return 1


def _lift_phrase(w: dict) -> str:
    return f"{w['side']} lift missing at ({w['e']}, {w['b']})"


def _check_groth(args) -> int:
    m = _load_map(args.target)
    rep = classify_grothendieck(m)
    doc = groth_to_doc(rep)
    lines = []
    for label, holds, fail in (
        ("fibration", rep.is_fibration, rep.fibration_failure),
        ("opfibration", rep.is_opfibration, rep.opfibration_failure),
    ):
        if holds:
            lines.append(f"{label}: yes")
        else:
            lines.append(f"{label}: no ({_lift_phrase(fail.as_dict())})")
    lines.append(f"bifibration: {'yes' if rep.is_bifibration else 'no'}")
    if args.verbose:
        failures = [f.as_dict() for f in rep.failures]
        doc["all_failures"] = failures
        for f in failures:
            lines.append("  " + _lift_phrase(f) + f" [{f['reason']}]")
    _emit(args, doc, lines)
    return 0 if rep.is_bifibration else 1


def _check_bundle(args) -> int:
    m = _load_map(args.target)
    rep = is_fiber_bundle(m)
    doc = bundle_to_doc(rep)
    if rep.status == "bundle":
        _emit(args, doc, ["fiber bundle"])
        return 0
    _emit(args, doc, [f"not a fiber bundle (fails over {rep.failed_at})"])
    return 1


def _witness_phrase(w: dict) -> str:
    # a not_fibration witness fails surjectivity or the reduced bifibration
    if w["condition"] == "surjective_over_component":
        return f"fiber over {w['missing']} is empty"
    return _lift_phrase(w)


def _check_hurewicz(args) -> int:
    m = _load_map(args.target)
    verdict = decide_hurewicz(m)
    doc = verdict_to_doc(verdict)
    if verdict.status == "fibration":
        kinds = [c.certificate.kind for c in verdict.components if c.certificate]
        if verdict.certificate is not None:
            kinds = [verdict.certificate.kind]
        shown = ", ".join(_CERT_NAMES[k] for k in dict.fromkeys(kinds))
        lines = [f"fibration (certificate: {shown})"]
    elif verdict.status == "not_fibration":
        lines = [f"not a fibration (witness: {_witness_phrase(verdict.witness)})"]
    else:
        lines = ["unknown"]
    if args.verbose:
        for c in verdict.components:
            detail = f"component {list(c.component)}: {c.status}"
            if c.necessary is not None:
                failing = c.necessary.failing()
                detail += (
                    "; necessary conditions all pass"
                    if not failing
                    else "; failing: " + ", ".join(failing)
                )
            lines.append("  " + detail)
    _emit(args, doc, lines)
    return verdict.exit_code


def _check_core(args) -> int:
    obj = _load_target(args.target)
    space = obj if isinstance(obj, Poset) else as_slice(obj).total
    trace = core(space)
    doc = trace_to_doc(trace)
    doc["contractible"] = trace.result.n == 1
    lines = [
        "core: " + ", ".join(trace.result.elements),
        "removed: " + (", ".join(f"{e} ({k})" for e, k in trace.removed) or "nothing"),
    ]
    _emit(args, doc, lines)
    return 0


def _check_map_core(args) -> int:
    m = _load_map(args.target)
    red = map_core(m)
    doc = map_reduction_to_doc(red)
    lines = [
        "map core total: " + ", ".join(red.reduced.total.elements),
        "removed: " + (", ".join(f"{e} ({k})" for e, k in red.trace.removed) or "nothing"),
    ]
    _emit(args, doc, lines)
    return 0


def _check_necessary(args) -> int:
    m = _load_map(args.target)
    report = necessary_conditions(m)
    doc = necessary_to_doc(report)
    doc["all_pass"] = report.all_pass
    if report.all_pass:
        lines = ["all necessary conditions pass"]
        if args.verbose:
            lines += [f"  {c.name}: pass" for c in report.conditions]
    else:
        lines = []
        for c in report.conditions:
            if not c.passed:
                lines.append(f"{c.name}: FAIL {c.witness}")
            elif args.verbose:
                lines.append(f"  {c.name}: pass")
    _emit(args, doc, lines)
    return 0 if report.all_pass else 1


_CHECKS = {
    "open": lambda args: _check_openness(args, closed=False),
    "closed": lambda args: _check_openness(args, closed=True),
    "groth": _check_groth,
    "bundle": _check_bundle,
    "hurewicz": _check_hurewicz,
    "core": _check_core,
    "map-core": _check_map_core,
    "necessary": _check_necessary,
}


def cmd_check(args) -> int:
    return _CHECKS[args.which](args)


def cmd_construct(args) -> int:
    text = Path(args.target).read_text()
    if not text.lstrip().startswith(("{", "[")):
        raise ParseError(f"{args.target}: functor documents are JSON only")
    doc = _read_json(args.target, text)
    if detect_doc_kind(doc) != "functor":
        raise ParseError(f"{args.target}: not a functor document")
    functor = functor_from_doc(doc)
    integrated = grothendieck_construction(functor)
    total_doc = poset_to_doc(integrated.total)
    proj_doc = map_to_doc(integrated)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "total.json").write_text(dumps(total_doc) + "\n")
        (out / "projection.json").write_text(dumps(proj_doc) + "\n")
        print(f"wrote {out / 'total.json'} and {out / 'projection.json'}")
    else:
        print(dumps({"total": total_doc, "projection": proj_doc}))
    return 0


def cmd_gallery(args) -> int:
    if args.action == "list":
        doc = [{"id": e.id, "kind": e.kind, "note": e.note} for e in ENTRIES]
        lines = [f"{e.id:18} {e.kind:6} {e.note}" for e in ENTRIES]
        _emit(args, doc, lines)
        return 0
    entry = gallery_entry(args.id)
    built = entry.build()
    doc = {
        "id": entry.id,
        "kind": entry.kind,
        "note": entry.note,
        "expected": entry.expected,
        "document": poset_to_doc(built) if entry.kind == "poset" else map_to_doc(built),
    }
    print(dumps(doc))
    return 0


def _budget(text: str) -> int:
    """A node budget: an int that is 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"budget must be 0 or more, got {n}")
    return n


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: argparse looks sys.stdout/sys.stderr up
    # when it prints, not when it is built
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--verbose", action="store_true", help="more detail")
    # validated for the callers that pass it; no check runs a search it could bound
    common.add_argument("--budget", type=_budget, default=None, metavar="N",
                        help="accepted and validated (0 or more), but bounds nothing")

    parser = argparse.ArgumentParser(
        prog="finfib",
        description="Fibration analysis for monotone maps between finite T0 spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", parents=[common], help="summarize a poset or map")
    p_info.add_argument("target", help="file path or gallery:ID")
    p_info.set_defaults(func=cmd_info)

    p_check = sub.add_parser("check", parents=[common], help="run one analysis")
    p_check.add_argument("which", choices=sorted(_CHECKS))
    p_check.add_argument("target", help="file path or gallery:ID")
    p_check.set_defaults(func=cmd_check)

    p_construct = sub.add_parser(
        "construct", parents=[common], help="integrate a functor document"
    )
    p_construct.add_argument("target", help="functor JSON file")
    p_construct.add_argument("--out", metavar="DIR", help="write documents here")
    p_construct.set_defaults(func=cmd_construct)

    p_gallery = sub.add_parser("gallery", parents=[common], help="built-in examples")
    gsub = p_gallery.add_subparsers(dest="action", required=True)
    g_list = gsub.add_parser("list", parents=[common])
    g_list.set_defaults(func=cmd_gallery)
    g_emit = gsub.add_parser("emit", parents=[common])
    g_emit.add_argument("id")
    g_emit.set_defaults(func=cmd_gallery)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        return 0 if exc.code in (0, None) else 3
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FinfibError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        # a resource limit or a bug is never a verdict, so it must not exit 1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
