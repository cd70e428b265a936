"""Command line front end.

Targets are either file paths (JSON or the text DSL) or gallery
references like "gallery:p2".  Exit codes: 0 = property holds /
fibration, 1 = property fails / not a fibration, 2 = undecided,
3 = input error, 4 = internal error.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace
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
from .grothendieck import PosetFunctor, classify_grothendieck, grothendieck_construction, is_fiber_bundle
from .posets import MonotoneMap, Poset
from .slices import as_slice, map_beat_points, map_core
from .stong import beat_points, core, is_contractible
from .verdict import decide_hurewicz, is_closed_map, is_open_map, necessary_conditions

_INPUT_ERRORS = (
    ParseError,
    OSError,
    UnicodeDecodeError,
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


def _load_target(target: str, kinds: tuple[str, ...]) -> Union[Poset, MonotoneMap, PosetFunctor]:
    """The poset, map or functor a target names, refused unless its kind is one of kinds.

    A target is a gallery:ID reference, a JSON document or a DSL text; a
    gallery entry or document of the wrong kind is refused unbuilt.
    """
    if target.startswith("gallery:"):
        entry = gallery_entry(target[len("gallery:") :])
        kind, build = entry.kind, entry.build
    elif (text := Path(target).read_text()).lstrip().startswith(("{", "[")):
        try:
            doc = json.loads(text, object_pairs_hook=unique_keys)
        except RecursionError:
            raise ParseError(f"{target}: JSON nested too deeply to decode") from None
        except ValueError as exc:  # malformed, or a number too long to convert
            raise ParseError(f"{target}: {str(exc).partition('; use sys.set_int_max_str_digits()')[0]}") from None
        kind = detect_doc_kind(doc)
        read = {"poset": poset_from_doc, "map": map_from_doc, "functor": functor_from_doc}[kind]
        build = functools.partial(read, doc)
    else:
        objects = parse_text(text)
        maps = [obj for kind, _, obj in objects if kind == "map"]
        if len(maps) == 1:
            kind, obj = "map", maps[0]
        elif not maps and len(objects) == 1:
            kind, obj = "poset", objects[0][2]
        else:
            raise ParseError(f"{target}: expected exactly one map (or a single poset)")
        build = lambda: obj
    if kind in kinds:
        return build()
    if kind == "functor":
        raise ParseError(f"{target}: a functor document only works with 'construct'")
    if "functor" in kinds:
        raise ParseError(f"{target}: not a functor document")
    raise ParseError(f"{target}: names a poset where a map is required")


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
    obj = _load_target(args.target, ("poset", "map"))
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
    m = _load_target(args.target, ("map",))
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
    m = _load_target(args.target, ("map",))
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
    m = _load_target(args.target, ("map",))
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
    m = _load_target(args.target, ("map",))
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
    obj = _load_target(args.target, ("poset", "map"))
    space = obj if isinstance(obj, Poset) else as_slice(obj).total
    trace = core(space)
    doc = trace_to_doc(trace)
    doc["contractible"] = trace.result.n == 1
    lines = [] if args.json else [
        "core: " + ", ".join(trace.result.elements),
        "removed: " + (", ".join(f"{e} ({k})" for e, k in trace.removed) or "nothing"),
    ]
    _emit(args, doc, lines)
    return 0


def _check_map_core(args) -> int:
    m = _load_target(args.target, ("map",))
    red = map_core(m)
    doc = map_reduction_to_doc(red)
    lines = [] if args.json else [
        "map core total: " + ", ".join(red.reduced.total.elements),
        "removed: " + (", ".join(f"{e} ({k})" for e, k in red.trace.removed) or "nothing"),
    ]
    _emit(args, doc, lines)
    return 0


def _check_necessary(args) -> int:
    m = _load_target(args.target, ("map",))
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
    functor = _load_target(args.target, ("functor",))
    integrated = grothendieck_construction(functor)
    proj_doc = map_to_doc(integrated)
    total_doc = proj_doc["domain"]
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "total.json").write_text(dumps(total_doc) + "\n")
        (out / "projection.json").write_text(dumps(proj_doc) + "\n")
        files = {"total": str(out / "total.json"), "projection": str(out / "projection.json")}
        _emit(args, files, [f"wrote {files['total']} and {files['projection']}"])
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
        raise ParseError(f"argument --budget: invalid int value: {text!r}") from None
    if n < 0:
        raise ParseError(f"argument --budget: budget must be 0 or more, got {n}")
    return n


# command -> (what runs it, its positionals, its options that take a value,
# each with its metavar); every command also takes -h/--help, --json,
# --verbose and --budget N, which is validated but bounds nothing
_COMMANDS = {
    "info": (cmd_info, ("target",), {}),
    "check": (cmd_check, ("which", "target"), {}),
    "construct": (cmd_construct, ("target",), {"--out": "DIR"}),
    "gallery": (cmd_gallery, ("action",), {}),
}
# the positionals that have choices -> each choice and the positionals it adds
_CHOICES = {
    "command": {name: entry[1] for name, entry in _COMMANDS.items()},
    "which": dict.fromkeys(sorted(_CHECKS), ()),
    "action": {"list": (), "emit": ("id",)},
}
_COMMON = ("--help", "--json", "--verbose", "--budget")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's: such a token is a positional


def _help() -> str:
    """The one help text, built from the command table."""
    lines = ["usage: finfib COMMAND ... [--json] [--verbose] [--budget N]", "", "commands:"]
    for name, (_, positionals, values) in _COMMANDS.items():
        words = [name, *map(str.upper, positionals), *(f"[{o} {metavar}]" for o, metavar in values.items())]
        lines.append("  finfib " + " ".join(words))
    lines.append("")
    for positional in ("which", "action"):
        choices = [" ".join([choice, *map(str.upper, more)]) for choice, more in _CHOICES[positional].items()]
        lines.append(f"{positional.upper()} is one of: {', '.join(choices)}")
    lines += [
        "TARGET is a file path (JSON or the text DSL) or gallery:ID.",
        "",
        "Every command takes --json (machine-readable output), --verbose (more",
        "detail) and --budget N (0 or more; validated, but it bounds nothing).",
        "Options may follow the command anywhere, a long option may be cut to",
        "a unique prefix, and -- ends the options.",
    ]
    return "\n".join(lines)


def _option(token: str, names: tuple[str, ...]) -> Optional[tuple[Optional[str], Optional[str]]]:
    """How token reads where the long options are names, as argparse read it.

    None for a positional ("-", a negative number, a word with a space);
    otherwise (option, value), where option is None for an unknown option
    and value is what follows "=" (or None).
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    if token == "-h":
        return "--help", None
    name, eq, value = token.partition("=")
    if token[1] == "-":
        found = [option for option in names if option.startswith(name)]
        if len(found) > 1:
            raise ParseError(f"ambiguous option: {name} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[:2] == "-h":  # -hX and -h=X give -h the value X; -hh is -h twice
        return "--help", value if name == "-h" else token[2:].strip("h") or None
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _read_argv(argv: list[str]) -> Optional[SimpleNamespace]:
    """argv read against _COMMANDS in one pass, or None when it asks for help.

    Left to right, as argparse read it: help, a bad choice and a bad option
    stop the pass where they stand, while a missing positional and a token
    that nothing reads are refused at the end.  The first "--" ends the
    options.  Options between "gallery" and its action count too.
    """
    args = {"json": False, "verbose": False, "budget": None}
    wanted = ["command"]  # positionals still to read
    names = ("--help",)  # the long options known before the command
    end = argv.index("--") if "--" in argv else len(argv)
    extra = []  # tokens that nothing reads
    last = None  # the positional the token before filled
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if i - 1 == end:
            # with nothing left to read, only the positional just before
            # "--" takes it in, as in argparse, unless that was gallery's
            # action (read by the parser above the action's)
            if not wanted and last in (None, "action"):
                extra.append(token)
            continue
        kind = None if i > end else _option(token, names)
        last = None
        if kind is None:
            if not wanted:
                extra.append(token)
                continue
            slot = last = wanted.pop(0)
            choices = _CHOICES.get(slot)
            if choices is not None:
                if token not in choices:
                    shown = ", ".join(map(repr, choices))
                    raise ParseError(f"argument {slot}: invalid choice: {token!r} (choose from {shown})")
                wanted += choices[token]
            args[slot] = token
            if slot == "command":
                values = _COMMANDS[token][2]
                args.update(dict.fromkeys(v[2:] for v in values))
                names = _COMMON + tuple(values)
            continue
        option, value = kind
        if option is None:
            extra.append(token)
        elif option in ("--help", "--json", "--verbose"):
            if value is not None:
                raise ParseError(f"argument {option}: ignored explicit argument {value!r}")
            if option == "--help":
                return None
            args[option[2:]] = True
        else:
            if value is None:
                if i >= end or _option(argv[i], names) is not None:
                    raise ParseError(f"argument {option}: expected one argument")
                value = argv[i]
                i += 1
            args[option[2:]] = _budget(value) if option == "--budget" else value
    if wanted:
        raise ParseError(f"the following arguments are required: {', '.join(wanted)}")
    if extra:
        raise ParseError(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(**args)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_help())
            return 0
        return _COMMANDS[args.command][0](args)
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
