"""Document formats: canonical JSON plus a small text DSL.

JSON is the machine format; every analysis result serializes to plain
dicts, which ``dumps`` writes byte for byte as ``json.dumps(doc,
indent=2)`` does, only faster.  The text DSL covers posets and maps only;
hand-written files and the built-in gallery are written in it:

    # a comment
    poset B1 {
      points: a, b;
      covers: a < b;
    }
    map p1 : E1 -> B1 {
      (a,0) -> a; (a,1) -> a; (b,0) -> b;
    }

Element names may contain commas and parentheses; separators split
only at top level.  Map domains and codomains name a poset defined
earlier in the same text or use a "gallery:ID" reference.  The DSL
and functor documents are read only; nothing writes them.
"""

from __future__ import annotations

import json
import re
from itertools import chain, repeat
from typing import Optional, Union

from .errors import ParseError
from .gallery import gallery_entry
from .grothendieck import BundleReport, GrothendieckReport, PosetFunctor
from .posets import MonotoneMap, Poset
from .slices import MapLike, MapReduction, as_slice
from .stong import ReductionTrace
from .verdict import Certificate, NecessaryReport, RetractCertificate, Verdict

Doc = Union[dict, list, str, int, bool, None]

_encode = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
# rows of strings in one pass of the C encoder when there is one; a raw NUL
# is never inside ensure_ascii text, so it marks the separators to indent
_ROWS = json.JSONEncoder(separators=("\x00", ":"), check_circular=False)
# each encode call makes a new C encoder, which costs more than a join per
# row below this many rows (CPython 3.11: 3.5 against 2.0 us for one row)
_ENCODE_FROM = 7


def _flat(value: Doc, nl: str) -> Optional[str]:
    """JSON text of value at line prefix nl, or None for a container to open.

    An object of strings, true, false and null, or a list of strings,
    is one join; a list of non-empty lists of strings is a join per row
    when it is short and otherwise one encode, whose NUL separators are
    then replaced: between rows first, then between strings.  A
    constant is told by identity before its text is looked up: 1 ==
    True, and the two hash alike, so the lookup alone would write 1 as
    true.
    """
    if isinstance(value, str):
        return _encode(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)  # a number, or TypeError for what JSON cannot hold
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = nl + "  "
    sep = "," + inner
    try:
        if isinstance(value, dict):
            body = sep.join([
                _encode(k) + ": " + (_CONSTANTS[v] if v is None or v is True or v is False else _encode(v))
                for k, v in value.items()
            ])
            return "{" + inner + body + nl + "}"
        if all(isinstance(v, (list, tuple)) and v for v in value):
            deep = inner + "  "
            if len(value) < _ENCODE_FROM:
                rows = ["[" + deep + ("," + deep).join(map(_encode, v)) + inner + "]" for v in value]
                return "[" + inner + sep.join(rows) + nl + "]"
            if not all(map(isinstance, chain.from_iterable(value), repeat(str))):
                return None
            text = _ROWS.encode(value)[2:-2].replace("]\x00[", inner + "]," + inner + "[" + deep)
            return "[" + inner + "[" + deep + text.replace("\x00", "," + deep) + inner + "]" + nl + "]"
        return "[" + inner + sep.join(map(_encode, value)) + nl + "]"
    except TypeError:
        return None


def dumps(doc: Doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, on an explicit stack of open containers.

    A container met again once it is closed is not walked twice: its
    text is copied with its old line prefix swapped for the new one.
    That is exact, as every newline in the text starts a line at least
    that deep (strings hold none; ``_encode`` escapes them).  Only
    closed containers are copied, so a circular one still raises.
    """
    out: list[str] = []
    done: dict[int, tuple[int, int, str]] = {}  # id -> start and end in out, line prefix
    stack = [(iter((("", doc),)), "\n", "", None, 0)]  # items, their line prefix, closing text, id, start
    while stack:
        items, nl, close, _, _ = stack[-1]
        for lead, value in items:
            out.append(lead)
            text = _flat(value, nl)
            if text is not None:
                out.append(text)
                continue
            mark, inner = id(value), nl + "  "
            if mark in done:
                start, end, was = done[mark]
                out.append("".join(out[start:end]).replace(was, nl))
                continue
            if any(mark == frame[3] for frame in stack):
                raise ValueError("Circular reference detected")
            leads, brackets = chain((inner,), repeat("," + inner)), "[]"
            if isinstance(value, dict):
                # the stdlib writes (or refuses) other keys: '{"1": 0}'[1:-2] == '"1": '
                keys = (_encode(k) + ": " if type(k) is str else json.dumps({k: 0})[1:-2] for k in value)
                value, leads, brackets = value.values(), map(str.__add__, leads, keys), "{}"
            stack.append((zip(leads, value), inner, nl + brackets[1], mark, len(out)))
            out.append(brackets[0])
            break
        else:
            _, nl, close, mark, start = stack.pop()
            out.append(close)
            done[mark] = (start, len(out), nl[:-2])
    return "".join(out)


def poset_to_doc(p: Poset) -> dict:
    return {"elements": list(p.elements), "covers": [list(c) for c in p.covers()]}


def poset_from_doc(doc: Doc) -> Poset:
    if not isinstance(doc, dict):
        raise ParseError("poset document must be an object")
    if "elements" not in doc:
        raise ParseError("poset document needs an 'elements' list")
    elements = doc["elements"]
    covers = doc.get("covers", [])
    if not isinstance(elements, list) or not all(map(isinstance, elements, repeat(str))):
        raise ParseError("'elements' must be a list of strings")
    if not isinstance(covers, list):
        raise ParseError("'covers' must be a list of pairs")
    pairs = []
    for c in covers:
        if isinstance(c, (list, tuple)) and len(c) == 2:
            lo, hi = c
            if isinstance(lo, str) and isinstance(hi, str):
                pairs.append((lo, hi))
                continue
        raise ParseError(f"cover {c!r} is not a pair of names")
    return Poset.build(elements, pairs)


def _element_map(doc: Doc, field: str) -> dict[str, str]:
    """``doc`` as a name -> name mapping; ParseError if it is not one."""
    if not isinstance(doc, dict) or not all(isinstance(v, str) for v in doc.values()):
        raise ParseError(f"{field} must be an object mapping elements to elements")
    return doc


def _resolve_poset(doc: Doc, field: str) -> Poset:
    if isinstance(doc, str):
        if doc.startswith("gallery:"):
            entry = gallery_entry(doc[len("gallery:") :])
            if entry.kind != "poset":
                raise ParseError(f"{field}: {doc!r} is not a poset entry")
            return entry.build()
        raise ParseError(f"{field}: expected a poset object or 'gallery:ID'")
    return poset_from_doc(doc)


def map_to_doc(m: MapLike) -> dict:
    m = as_slice(m).map
    return {
        "domain": poset_to_doc(m.dom),
        "codomain": poset_to_doc(m.cod),
        "values": m.values,
    }


def map_from_doc(doc: Doc) -> MonotoneMap:
    if not isinstance(doc, dict):
        raise ParseError("map document must be an object")
    for key in ("domain", "codomain", "values"):
        if key not in doc:
            raise ParseError(f"map document needs a {key!r} field")
    dom = _resolve_poset(doc["domain"], "domain")
    cod = _resolve_poset(doc["codomain"], "codomain")
    return MonotoneMap.build(dom, cod, _element_map(doc["values"], "'values'"))


_PAIR_KEY = re.compile(r"^(.*?)<=(.*)$")


def functor_from_doc(doc: Doc) -> PosetFunctor:
    if not isinstance(doc, dict):
        raise ParseError("functor document must be an object")
    for key in ("base", "variance", "fibers"):
        if key not in doc:
            raise ParseError(f"functor document needs a {key!r} field")
    base = _resolve_poset(doc["base"], "base")
    variance = doc["variance"]
    if variance not in ("covariant", "contravariant"):
        raise ParseError("'variance' must be 'covariant' or 'contravariant'")
    fibers_doc = doc["fibers"]
    if not isinstance(fibers_doc, dict):
        raise ParseError("'fibers' must map base elements to posets")
    fibers = {b: _resolve_poset(f, f"fibers[{b}]") for b, f in fibers_doc.items()}
    transitions_doc = doc.get("transitions", {})
    if not isinstance(transitions_doc, dict):
        raise ParseError("'transitions' must map 'b<=b2' keys to element mappings")
    transitions, keys = {}, {}
    for key, mapping in transitions_doc.items():
        m = _PAIR_KEY.match(key)
        if not m:
            raise ParseError(f"transition key {key!r} must look like 'b<=b2'")
        lo, hi = m.group(1).strip(), m.group(2).strip()
        if lo not in fibers or hi not in fibers:
            raise ParseError(f"transition {key!r} names an unknown base element")
        if (lo, hi) in keys:
            raise ParseError(f"transition keys {keys[lo, hi]!r} and {key!r} name the same pair")
        keys[lo, hi] = key
        src, dst = (lo, hi) if variance == "covariant" else (hi, lo)
        mapping = _element_map(mapping, f"transition {key!r}")
        transitions[(lo, hi)] = MonotoneMap.build(fibers[src], fibers[dst], mapping)
    return PosetFunctor(base, variance, fibers, transitions)


def groth_to_doc(rep: GrothendieckReport) -> dict:
    return {
        "fibration": rep.is_fibration,
        "opfibration": rep.is_opfibration,
        "bifibration": rep.is_bifibration,
        "fibration_failure": rep.fibration_failure and rep.fibration_failure.as_dict(),
        "opfibration_failure": rep.opfibration_failure and rep.opfibration_failure.as_dict(),
    }


def bundle_to_doc(rep: BundleReport) -> dict:
    return {
        "status": rep.status,
        "trivializations": {b: dict(t) for b, t in rep.trivializations.items()},
        "failed_at": rep.failed_at,
        # the check always decides; the key keeps the document's shape
        "undecided_at": None,
    }


def trace_to_doc(trace: ReductionTrace) -> dict:
    return {
        "source": list(trace.source.elements),
        "result": list(trace.result.elements),
        "removed": [list(step) for step in trace.removed],
        "retraction": trace.retraction.values,
    }


def map_reduction_to_doc(red: MapReduction) -> dict:
    doc = trace_to_doc(red.trace)
    doc["base"] = list(red.reduced.base.elements)
    return doc


def necessary_to_doc(report: NecessaryReport) -> dict:
    return {
        c.name: {"passed": c.passed, "witness": c.witness} for c in report.conditions
    }


def retract_certificate_to_doc(cert: RetractCertificate) -> dict:
    return {
        "x": poset_to_doc(cert.x),
        "y": poset_to_doc(cert.y),
        "i": cert.i.values,
        "r": cert.r.values,
        "j": cert.j.values,
        "s": cert.s.values,
    }


_POINT_KEYS = {
    "minimum_base_bifibration": "minimum",
    "height1_max_retract": "maximum",
    "trivial_over_base": "fiber_of",
}


def certificate_to_doc(cert: Certificate) -> dict:
    fields = (
        (_POINT_KEYS.get(cert.kind), cert.point, str),
        ("iso", cert.iso, dict),
        ("reduction", cert.reduction, map_reduction_to_doc),
        ("retract", cert.retract, retract_certificate_to_doc),
    )
    return {"kind": cert.kind} | {key: emit(v) for key, v, emit in fields if v is not None}


def verdict_to_doc(v: Verdict) -> dict:
    # a certificate the verdict repeats at the top is one shared document
    certs = {id(c.certificate): certificate_to_doc(c.certificate) for c in v.components if c.certificate}
    components = [
        {
            "base_component": list(c.component),
            "status": c.status,
            "certificate": certs.get(id(c.certificate)),
            "witness": c.witness,
            "necessary": necessary_to_doc(c.necessary) if c.necessary else None,
        }
        for c in v.components
    ]
    top = v.certificate
    return {
        "status": v.status,
        "components": components,
        "skipped_components": [list(c) for c in v.skipped_components],
        "certificate": certs.get(id(top)) or (certificate_to_doc(top) if top else None),
        "witness": v.witness,
    }


def unique_keys(pairs: list[tuple[str, Doc]]) -> dict:
    """The pairs as a dict; ParseError on a key that comes twice (json.loads hook)."""
    out = dict(pairs)
    if len(out) < len(pairs):  # walk the pairs only to name the first repeated key
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"repeated key {key!r}")
            seen.add(key)
    return out


def detect_doc_kind(doc: Doc) -> str:
    """Classify a parsed JSON object as poset, map, or functor."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if "fibers" in doc:
        return "functor"
    if "values" in doc or "domain" in doc:
        return "map"
    if "elements" in doc:
        return "poset"
    raise ParseError("document is none of poset, map, or functor")


def _split_top(text: str, seps: str) -> list[str]:
    """Split on separator characters not nested inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch in seps and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


_BLOCK = re.compile(
    r"(poset|map)\s+(\S+?)\s*(?::\s*(\S+)\s*->\s*(\S+))?\s*\{([^}]*)\}", re.S
)


def _strip_comments(text: str) -> str:
    return re.sub(r"#[^\n]*", "", text)


def _dsl_poset(name: str, body: str) -> Poset:
    points: list[str] = []
    covers: list[tuple[str, str]] = []
    parts = (clause.partition(":") for clause in _split_top(body, ";"))
    clauses = unique_keys([(key.strip(), rest) for key, _, rest in parts])
    for key, rest in clauses.items():
        if key == "points":
            points = _split_top(rest, ",")
        elif key == "covers":
            for item in _split_top(rest, ","):
                sides = _split_top(item, "<")
                if len(sides) != 2:
                    raise ParseError(f"poset {name}: cover {item!r} must be 'x < y'")
                covers.append((sides[0], sides[1]))
        else:
            raise ParseError(f"poset {name}: unknown clause {key!r}")
    if not points:
        raise ParseError(f"poset {name}: no points clause")
    return Poset.build(points, covers)


def _dsl_map(
    name: str, dom_name: str, cod_name: str, body: str, posets: dict[str, Poset]
) -> MonotoneMap:
    def resolve(ref: str) -> Poset:
        if ref.startswith("gallery:"):
            return _resolve_poset(ref, f"map {name}")
        if ref not in posets:
            raise ParseError(f"map {name}: unknown poset {ref!r}")
        return posets[ref]

    dom = resolve(dom_name)
    values = []
    for item in _split_top(body.replace("\n", ";"), ";,"):
        src, arrow, dst = (part.strip() for part in item.partition("->"))
        if not arrow:
            raise ParseError(f"map {name}: entry {item!r} must be 'x -> y'")
        if src not in dom and "->" in dst:
            raise ParseError(f"map {name}: entry {item!r} has no domain point {src!r}; a source cannot contain '->'")
        values.append((src, dst))
    return MonotoneMap.build(dom, resolve(cod_name), unique_keys(values))


def parse_text(text: str) -> list[tuple[str, str, Union[Poset, MonotoneMap]]]:
    """Parse the text DSL; returns (kind, name, object) in file order."""
    clean = _strip_comments(text)
    out: list[tuple[str, str, Union[Poset, MonotoneMap]]] = []
    posets: dict[str, Poset] = {}
    consumed = 0
    for m in _BLOCK.finditer(clean):
        if clean[consumed : m.start()].strip():
            raise ParseError(f"unparsed text: {clean[consumed:m.start()].strip()!r}")
        kind, name, dom_name, cod_name, body = m.groups()
        if any((k, n) == (kind, name) for k, n, _ in out):
            raise ParseError(f"repeated {kind} name {name!r}")
        if kind == "poset":
            if dom_name is not None:
                raise ParseError(f"poset {name}: unexpected '->' header")
            p = _dsl_poset(name, body)
            posets[name] = p
            out.append(("poset", name, p))
        else:
            if dom_name is None:
                raise ParseError(f"map {name}: missing ': DOM -> COD' header")
            out.append(("map", name, _dsl_map(name, dom_name, cod_name, body, posets)))
        consumed = m.end()
    if clean[consumed:].strip():
        raise ParseError(f"unparsed text: {clean[consumed:].strip()!r}")
    if not out:
        raise ParseError("no poset or map blocks found")
    return out

