"""Command-line behavior: output text, JSON documents, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from finfib import cli
from finfib.cli import main
from finfib.documents import functor_to_doc, map_from_doc, poset_from_doc
from finfib.errors import InvariantViolated
from finfib.gallery import ENTRIES, gallery_map
from finfib.grothendieck import classify_grothendieck
from finfib.posets import find_isomorphism_over_base


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_hurewicz_fibration(capsys):
    code, out, _ = run(capsys, "check", "hurewicz", "gallery:p1")
    assert code == 0
    assert out.strip() == "fibration (certificate: minimum-base bifibration)"


def test_check_hurewicz_refuted(capsys):
    code, out, _ = run(capsys, "check", "hurewicz", "gallery:p2")
    assert code == 1
    assert out.strip() == "not a fibration (witness: cocartesian lift missing at ((a,2), b))"


def test_check_hurewicz_unknown(capsys):
    code, out, _ = run(capsys, "check", "hurewicz", "gallery:p3")
    assert code == 2
    assert out.strip() == "unknown"


def test_check_hurewicz_verbose_and_json(capsys):
    code, out, _ = run(capsys, "check", "hurewicz", "gallery:p3", "--verbose")
    assert code == 2
    assert "necessary conditions all pass" in out
    code, out, _ = run(capsys, "check", "hurewicz", "gallery:p3", "--json")
    doc = json.loads(out)
    assert doc["status"] == "unknown"
    assert doc["components"][0]["status"] == "unknown"


def test_info_poset_summary(capsys):
    code, out, _ = run(capsys, "info", "gallery:B3")
    assert code == 0
    assert out.strip() == "5 elements, height 2, connected, not minimal"
    code, out, _ = run(capsys, "info", "gallery:B3", "--verbose")
    assert "covers: a < c, a < d, b < c, b < d, c < e, d < e" in out
    assert "up beat points: {'c': 'e', 'd': 'e'}" in out


def test_info_singleton(capsys, tmp_path):
    f = tmp_path / "one.json"
    f.write_text(json.dumps({"elements": ["x"], "covers": []}))
    code, out, _ = run(capsys, "info", str(f))
    assert code == 0
    assert out.startswith("1 element, height 0, connected, minimal")


def test_info_map(capsys):
    code, out, _ = run(capsys, "info", "gallery:pi_sierpinski", "--verbose")
    assert code == 0
    assert "map with 8 -> 2 elements, surjective" in out
    assert "fiber(0):" in out
    code, out, _ = run(capsys, "info", "gallery:p1", "--json")
    doc = json.loads(out)
    assert doc["kind"] == "map"
    assert doc["map_beat_points"]["down"] == {"(a,1)": "(a,0)"}


def test_check_open_closed(capsys):
    code, out, _ = run(capsys, "check", "open", "gallery:p1")
    assert (code, out.strip()) == (0, "open")
    code, out, _ = run(capsys, "check", "open", "gallery:p1op")
    assert code == 1
    assert out.startswith("not open (witness: e=")
    code, out, _ = run(capsys, "check", "closed", "gallery:p1op")
    assert (code, out.strip()) == (0, "closed")


def test_check_groth(capsys):
    code, out, _ = run(capsys, "check", "groth", "gallery:p3")
    assert code == 0
    assert out.splitlines() == ["fibration: yes", "opfibration: yes", "bifibration: yes"]
    code, out, _ = run(capsys, "check", "groth", "gallery:p2")
    assert code == 1
    assert "opfibration: no (cocartesian lift missing at ((a,2), b))" in out
    code, out, _ = run(capsys, "check", "groth", "gallery:p2", "--verbose")
    assert "[no_minimum]" in out


def test_check_groth_verbose_lists_every_failing_lift(capsys):
    expected = {
        "p1": [{"side": "cocartesian", "e": "(a,1)", "b": "b", "reason": "no_minimum"}],
        "p1op": [{"side": "cartesian", "e": "(a,1)", "b": "b", "reason": "no_maximum"}],
        "p2": [
            {"side": "cocartesian", "e": "(a,2)", "b": "b", "reason": "no_minimum"},
            {"side": "cocartesian", "e": "(a,1)", "b": "b", "reason": "no_minimum"},
        ],
    }
    for gid, failures in expected.items():
        code, out, _ = run(capsys, "check", "groth", f"gallery:{gid}", "--verbose", "--json")
        assert code == 1
        assert json.loads(out)["all_failures"] == failures


def test_check_groth_verbose_failures_carry_the_stray_extremum(capsys, tmp_path):
    # E = {x < e} over the chain a < b < c with x -> a, e -> c: both lifts
    # over b find their extremum in the wrong fiber
    doc = tmp_path / "stray.json"
    doc.write_text(json.dumps({
        "domain": {"elements": ["x", "e"], "covers": [["x", "e"]]},
        "codomain": {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]},
        "values": {"x": "a", "e": "c"},
    }))
    code, out, _ = run(capsys, "check", "groth", str(doc), "--verbose", "--json")
    assert code == 1
    got = json.loads(out)
    assert got["all_failures"] == [
        {"side": "cocartesian", "e": "x", "b": "b", "reason": "minimum_outside_fiber", "stray": "e"},
        {"side": "cartesian", "e": "e", "b": "b", "reason": "maximum_outside_fiber", "stray": "x"},
    ]
    assert got["all_failures"] == [got["opfibration_failure"], got["fibration_failure"]]


def test_check_bundle(capsys):
    code, out, _ = run(capsys, "check", "bundle", "gallery:pi_sierpinski")
    assert (code, out.strip()) == (0, "fiber bundle")
    code, out, _ = run(capsys, "check", "bundle", "gallery:p3")
    assert code == 1
    assert out.strip() == "not a fiber bundle (fails over c)"
    code, out, _ = run(capsys, "check", "bundle", "gallery:pi_sierpinski", "--budget", "0")
    assert code == 2
    assert out.strip() == "undecided (budget exhausted over 0)"


def test_a_negative_budget_is_a_usage_error(capsys):
    # the budget counts attempted assignments, so -1 is bad input, not a verdict
    for which in ("bundle", "hurewicz"):
        code, out, err = run(capsys, "check", which, "gallery:p1", "--budget", "-1")
        assert (code, out) == (3, "")
        assert "argument --budget: budget must be 0 or more, got -1" in err
    # 0 is a budget: the search that needs one runs out at once
    assert run(capsys, "check", "bundle", "gallery:p1", "--budget", "0")[:2] == (
        2,
        "undecided (budget exhausted over a)\n",
    )
    assert run(capsys, "check", "hurewicz", "gallery:p1", "--budget", "0")[0] == 0


def test_check_core_and_map_core(capsys):
    code, out, _ = run(capsys, "check", "core", "gallery:B3")
    assert code == 0
    assert "core: " in out and "removed: " in out
    code, out, _ = run(capsys, "check", "map-core", "gallery:p1")
    assert code == 0
    assert "map core total: (a,0), (b,0)" in out
    assert "removed: (a,1) (down)" in out


def test_check_necessary(capsys):
    code, out, _ = run(capsys, "check", "necessary", "gallery:p3")
    assert (code, out.strip()) == (0, "all necessary conditions pass")
    code, out, _ = run(capsys, "check", "necessary", "gallery:p2")
    assert code == 1
    assert "up_reachability: FAIL" in out
    code, out, _ = run(capsys, "check", "necessary", "gallery:p2", "--json")
    doc = json.loads(out)
    assert doc["all_pass"] is False


def test_gallery_list_and_emit(capsys):
    code, out, _ = run(capsys, "gallery", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(ENTRIES) >= 7
    assert any(line.startswith("p2 ") for line in lines)
    code, out, _ = run(capsys, "gallery", "emit", "p2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["document"]["domain"]["elements"]) == 4
    assert len(doc["document"]["codomain"]["elements"]) == 2
    assert doc["expected"]["hurewicz"] == "not_fibration"
    code, _, err = run(capsys, "gallery", "emit", "nope")
    assert code == 3
    assert "error:" in err


def test_file_inputs_text_and_json(capsys, tmp_path):
    text = tmp_path / "p.txt"
    text.write_text(
        "poset E { points: x, y; covers: x < y; }\n"
        "poset B { points: a, b; covers: a < b; }\n"
        "map p : E -> B { x -> a; y -> b; }\n"
    )
    code, out, _ = run(capsys, "check", "hurewicz", str(text))
    assert code == 0
    jf = tmp_path / "m.json"
    jf.write_text(json.dumps({"domain": "gallery:E2", "codomain": "gallery:B2",
                              "values": gallery_map("p2").values}))
    code, out, _ = run(capsys, "check", "hurewicz", str(jf))
    assert code == 1


def test_input_errors_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "info", str(bad))[0] == 3
    assert run(capsys, "info", str(tmp_path / "missing.json"))[0] == 3
    assert run(capsys, "check", "hurewicz", "gallery:B1")[0] == 3  # poset, not a map
    assert run(capsys, "check", "hurewicz", "gallery:zzz")[0] == 3
    cyc = tmp_path / "cyc.json"
    cyc.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}))
    assert run(capsys, "info", str(cyc))[0] == 3
    notmono = tmp_path / "nm.json"
    notmono.write_text(json.dumps({
        "domain": {"elements": ["x", "y"], "covers": [["x", "y"]]},
        "codomain": "gallery:B1",
        "values": {"x": "b", "y": "a"},
    }))
    assert run(capsys, "check", "groth", str(notmono))[0] == 3


@pytest.mark.parametrize(
    "command, doc",
    [
        (["info"], {"elements": ["a", "b"], "covers": [[["a"], "b"]]}),
        (
            ["check", "hurewicz"],
            {"domain": {"elements": ["a"]}, "codomain": {"elements": ["b"]}, "values": {"a": ["b"]}},
        ),
        (
            ["construct"],
            {
                "base": {"elements": ["0"]},
                "variance": "covariant",
                "fibers": {"0": {"elements": ["u"]}},
                "transitions": [],
            },
        ),
    ],
    ids=["list_in_cover", "list_as_map_value", "transitions_not_an_object"],
)
def test_malformed_documents_exit_3(capsys, tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_invariant_violation_exits_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolated("injected")

    monkeypatch.setattr(cli, "decide_hurewicz", broken)
    code, out, err = run(capsys, "check", "hurewicz", "gallery:p1")
    assert (code, out) == (4, "")
    assert err == "internal error: injected\n"


def test_any_other_exception_exits_4(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "core", overflow)
    code, out, err = run(capsys, "check", "core", "gallery:B1")
    assert (code, out) == (4, "")
    assert err == "internal error: RecursionError('maximum recursion depth exceeded')\n"


def test_module_entry_point_keeps_the_exit_codes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "finfib", *argv], capture_output=True, text=True, env=env
        )

    done = run_module("check", "hurewicz", "gallery:p2")
    assert done.returncode == 1
    assert done.stdout.startswith("not a fibration")
    assert run_module("check", "hurewicz", "gallery:nope").returncode == 3


def test_usage_errors_exit_3(capsys):
    assert run(capsys, "check", "frobnicate", "gallery:p1")[0] == 3
    assert run(capsys, "nonsense")[0] == 3
    assert run(capsys)[0] == 3
    assert run(capsys, "--help")[0] == 0


def test_construct_round_trips_p3(capsys, tmp_path):
    p3 = gallery_map("p3")
    doc = functor_to_doc(classify_grothendieck(p3).beta)
    f = tmp_path / "beta.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "construct", str(f), "--out", str(tmp_path / "built"))
    assert code == 0
    assert "wrote" in out
    rebuilt = map_from_doc(json.loads((tmp_path / "built" / "projection.json").read_text()))
    assert rebuilt.cod == p3.cod
    assert find_isomorphism_over_base(rebuilt, p3) is not None


def test_construct_inline_output(capsys, tmp_path):
    # constant functor over the two point chain: the construction is a product
    doc = {
        "base": {"elements": ["0", "1"], "covers": [["0", "1"]]},
        "variance": "covariant",
        "fibers": {
            "0": {"elements": ["u", "v"], "covers": [["u", "v"]]},
            "1": {"elements": ["u", "v"], "covers": [["u", "v"]]},
        },
        "transitions": {"0<=1": {"u": "u", "v": "v"}},
    }
    f = tmp_path / "const.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "construct", str(f))
    assert code == 0
    built = json.loads(out)
    total = poset_from_doc(built["total"])
    assert total.n == 4
    proj = map_from_doc(built["projection"])
    assert proj.is_surjective()
    assert {proj(e) for e in total.elements} == {"0", "1"}


def test_construct_rejects_non_functor_input(capsys, tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"elements": ["a"], "covers": []}))
    code, _, err = run(capsys, "construct", str(f))
    assert code == 3
    assert "not a functor document" in err
    g = tmp_path / "func.json"
    g.write_text(json.dumps({
        "base": {"elements": ["0", "1"], "covers": [["0", "1"]]},
        "variance": "covariant",
        "fibers": {
            "0": {"elements": ["u", "v"], "covers": [["u", "v"]]},
            "1": {"elements": ["u"], "covers": []},
        },
        "transitions": {"0<=1": {"u": "u", "v": "v"}},
    }))
    assert run(capsys, "construct", str(g))[0] == 3
    code, _, err = run(capsys, "check", "groth", str(g))
    assert code == 3
    assert "construct" in err


def test_construct_refuses_colliding_pair_names(capsys, tmp_path):
    # base point a with fiber point "b,c" and base point "a,b" with fiber
    # point c both name the pair "(a,b,c)"
    f = tmp_path / "collide.json"
    f.write_text(json.dumps({
        "base": {"elements": ["a", "a,b"], "covers": []},
        "variance": "covariant",
        "fibers": {
            "a": {"elements": ["b,c"], "covers": []},
            "a,b": {"elements": ["c"], "covers": []},
        },
    }))
    code, out, err = run(capsys, "construct", str(f), "--json")
    assert code == 3
    assert out == ""
    assert "duplicate element name '(a,b,c)'" in err


def test_gallery_target_reaches_every_check(capsys):
    for which in ("open", "closed", "groth", "bundle", "hurewicz", "core", "map-core", "necessary"):
        code, out, _ = run(capsys, "check", which, "gallery:pi_sierpinski")
        assert code == 0
        assert out.strip()


def test_json_mode_everywhere(capsys):
    for argv in (
        ["info", "gallery:B5", "--json"],
        ["check", "groth", "gallery:p1", "--json"],
        ["check", "bundle", "gallery:p5_minimal_bifib", "--json"],
        ["check", "core", "gallery:E3", "--json"],
        ["check", "map-core", "gallery:p3", "--json"],
        ["gallery", "list", "--json"],
    ):
        _, out, _ = run(capsys, *argv)
        json.loads(out)
