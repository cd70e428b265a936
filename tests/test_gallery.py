"""Every gallery entry recomputed from scratch against its frozen data."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from finfib.cli import _CHECKS, main
from finfib.documents import map_from_doc, parse_text, poset_from_doc
from finfib.errors import UnknownGalleryId
from finfib.gallery import _TEXT, ENTRIES, gallery_entry
from finfib.grothendieck import classify_grothendieck, is_fiber_bundle
from finfib.slices import map_beat_points, map_core
from finfib.stong import beat_points, is_contractible
from finfib.verdict import decide_hurewicz, is_closed_map, is_open_map


def test_ids_are_unique_and_resolvable():
    ids = [entry.id for entry in ENTRIES]
    assert len(ids) == len(set(ids)) == len(ENTRIES)
    for i in ids:
        entry = gallery_entry(i)
        assert entry.id == i
        assert entry.kind in ("poset", "map")
        assert entry.note
        built = entry.build()
        assert built == entry.build()  # rebuilding is deterministic


def test_lookup_errors():
    # a gallery reference of the wrong kind is refused where it is read:
    # see documents' "is not a poset entry" and the CLI's "names a poset
    # where a map is required"
    with pytest.raises(UnknownGalleryId, match="no gallery entry named 'nope'"):
        gallery_entry("nope")


@pytest.mark.parametrize("entry", [e for e in ENTRIES if e.kind == "poset"], ids=lambda e: e.id)
def test_poset_expectations(entry):
    p = entry.build()
    want = entry.expected
    assert p.n == want["size"]
    assert p.height() == want["height"]
    assert (len(p.components()) <= 1) == want["connected"]
    assert beat_points(p).is_minimal == want["minimal"]
    assert is_contractible(p) == want["contractible"]


@pytest.mark.parametrize("entry", [e for e in ENTRIES if e.kind == "map"], ids=lambda e: e.id)
def test_map_expectations(entry):
    m = entry.build()
    want = entry.expected
    assert is_open_map(m)[0] == want["open"]
    assert is_closed_map(m)[0] == want["closed"]
    rep = classify_grothendieck(m)
    assert rep.is_fibration == want["fibration"]
    assert rep.is_opfibration == want["opfibration"]
    assert rep.is_bifibration == want["bifibration"]
    assert is_fiber_bundle(m).status == want["bundle"]
    assert map_beat_points(m).is_minimal == want["minimal_map"]
    assert map_core(m).reduced.total.n == want["map_core_size"]
    v = decide_hurewicz(m)
    assert v.status == want["hurewicz"]
    if "certificate" in want:
        assert v.certificate.kind == want["certificate"]
    if "witness" in want:
        for key, value in want["witness"].items():
            assert v.witness[key] == value


def test_every_map_relates_gallery_posets():
    pairs = {
        "p1": ("E1", "B1"),
        "p2": ("E2", "B2"),
        "p3": ("E3", "B3"),
        "p5_minimal_bifib": ("E5", "B5"),
    }
    for pid, (dom, cod) in pairs.items():
        m = gallery_entry(pid).build()
        assert m.dom == gallery_entry(dom).build()
        assert m.cod == gallery_entry(cod).build()
    assert gallery_entry("p1op").build().dom == gallery_entry("E1").build().op()
    pi = gallery_entry("pi_sierpinski").build()
    assert pi.cod == gallery_entry("S").build()
    assert pi.dom.n == 8


def test_every_block_of_the_text_is_read_and_every_emitted_document_reads_back():
    # a block is some entry's object or a side of a map block; the text
    # names no gallery entry, since reading one builds from this text
    assert "gallery:" not in _TEXT
    blocks = parse_text(_TEXT)
    built = [entry.build() for entry in ENTRIES]
    sides = [side for kind, _, m in blocks if kind == "map" for side in (m.dom, m.cod)]
    assert [name for _, name, obj in blocks if obj not in built and obj not in sides] == []
    for entry in ENTRIES:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["gallery", "emit", entry.id]) == 0
        doc = json.loads(out.getvalue())["document"]
        read = poset_from_doc(doc) if entry.kind == "poset" else map_from_doc(doc)
        assert read == entry.build(), entry.id


# -- CLI output snapshot ------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden" / "gallery_cli.json"
MODES = ((), ("--verbose",), ("--json", "--verbose"))


def gallery_cli_runs():
    """Exit code, stdout and stderr of in-process ``cli.main`` runs.

    ``info`` on every gallery entry and every gallery map under every
    check, each in the three output modes; ``gallery list`` as text and
    JSON, and ``gallery emit`` of every entry.
    """
    argvs = [["info", f"gallery:{e.id}", *mode] for e in ENTRIES for mode in MODES]
    argvs += [
        ["check", which, f"gallery:{e.id}", *mode]
        for e in ENTRIES
        if e.kind == "map"
        for which in sorted(_CHECKS)
        for mode in MODES
    ]
    argvs += [["gallery", "list"], ["gallery", "list", "--json"]]
    argvs += [["gallery", "emit", e.id] for e in ENTRIES]
    runs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        runs.append({"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return runs


def test_gallery_cli_output_matches_the_snapshot():
    want = json.loads(GOLDEN.read_text())
    got = gallery_cli_runs()
    assert [r["argv"] for r in got] == [r["argv"] for r in want]
    for g, w in zip(got, want):
        assert g == w, g["argv"]


if __name__ == "__main__":
    # regenerate the snapshot, one run per line: PYTHONPATH=src python tests/test_gallery.py
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in gallery_cli_runs()) + "\n]\n")
