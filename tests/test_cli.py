"""Command-line behavior: output text, JSON documents, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finfib import cli
from finfib.cli import main
from finfib.documents import map_from_doc, map_to_doc, poset_from_doc
from finfib.errors import InvariantViolated, ParseError
from finfib.gallery import ENTRIES, gallery_entry
from finfib.grothendieck import classify_grothendieck
from finfib.posets import Poset, find_isomorphism_over_base, product
from helpers import argparse_reader, crown_cover, crowns, functor_to_doc


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


def test_check_hurewicz_names_an_empty_fiber(capsys, tmp_path):
    # x -> 1 misses 0, so the map fails surjectivity over its component
    path = tmp_path / "miss.json"
    path.write_text(json.dumps({"domain": {"elements": ["x"]}, "codomain": "gallery:S", "values": {"x": "1"}}))
    code, out, _ = run(capsys, "check", "hurewicz", str(path))
    assert (code, out) == (1, "not a fibration (witness: fiber over 0 is empty)\n")


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


def test_a_negative_budget_is_a_usage_error(capsys):
    # the option is still validated, so -1 is bad input, not a verdict
    for which in ("bundle", "hurewicz"):
        code, out, err = run(capsys, "check", which, "gallery:p1", "--budget", "-1")
        assert (code, out) == (3, "")
        assert "argument --budget: budget must be 0 or more, got -1" in err


def test_the_budget_changes_no_byte_of_the_output(capsys, tmp_path):
    # both checks read triviality off the lift table and search nothing,
    # so even a budget of 0 leaves every verdict, document and exit code
    crown_times_fence = tmp_path / "crown_times_fence.json"
    base = Poset.build(list("abcde"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "e")])
    crown_times_fence.write_text(json.dumps(map_to_doc(product(crowns(2, 1, "f"), base)[2])))
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(map_to_doc(crown_cover(2, 4))))
    targets = ["gallery:pi_sierpinski", "gallery:p1", "gallery:p3", str(crown_times_fence), str(cover)]
    codes = {}
    for target in targets:
        for which in ("bundle", "hurewicz"):
            for extra in ([], ["--json"], ["--verbose"]):
                plain = run(capsys, "check", which, target, *extra)
                for budget in ("0", "1", "1000"):
                    assert run(capsys, "check", which, target, *extra, "--budget", budget) == plain
                codes[(target, which)] = plain[0]
    # a crown over a base with neither minimum nor maximum reaches the
    # trivial_over_base stage, and a cover of the crown goes past it to unknown
    assert [codes[(t, "hurewicz")] for t in targets] == [0, 0, 2, 0, 2]
    assert [codes[(t, "bundle")] for t in targets] == [0, 1, 1, 0, 0]
    doc = json.loads(run(capsys, "check", "hurewicz", str(crown_times_fence), "--json")[1])
    assert doc["certificate"]["kind"] == "trivial_over_base"


def test_a_document_that_is_not_utf8_is_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"elements": []}')
    for argv in (["info"], ["check", "hurewicz"], ["construct"]):
        code, out, err = run(capsys, *argv, str(bad))
        assert (code, out) == (3, "")
        assert err.startswith("error: ")


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
                              "values": gallery_entry("p2").build().values}))
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


_E_B = "poset E { points: x, y; covers: x < y; }\nposet B { points: a, b; covers: a < b; }\n"
_FUNCTOR = '"base": {"elements": ["0"]}, "fibers": {"0": {"elements": ["u"]}}, "transitions": {}'


@pytest.mark.parametrize(
    "command, text, repeat",
    [
        (["info"], _E_B + "map p : E -> B { x -> a; y -> b; x -> b; }\n", "repeated key 'x'"),
        (
            ["info"],
            "poset E { points: x; points: x, y; covers: x < y; }\n",
            "repeated key 'points'",
        ),
        (
            ["check", "hurewicz"],
            "poset E { points: z; }\n" + _E_B + "map p : E -> B { x -> a; y -> b; }\n",
            "repeated poset name 'E'",
        ),
        (
            ["info"],
            '{"domain": "gallery:E2", "codomain": "gallery:B2", "values": {"(a,0)": "a", "(a,1)": "a",'
            ' "(a,2)": "b", "(b,0)": "b", "(a,0)": "b"}}',
            "repeated key '(a,0)'",
        ),
        (
            ["construct"],
            '{"variance": "contravariant", "variance": "covariant", ' + _FUNCTOR + "}",
            "repeated key 'variance'",
        ),
    ],
    ids=["map_entry", "clause", "block_name", "json_map_value", "json_functor_key"],
)
def test_a_repeated_key_entry_clause_or_block_is_bad_input(capsys, tmp_path, command, text, repeat):
    # the repeat used to replace what came before it without a word
    path = tmp_path / "doc.txt"
    path.write_text(text)
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (3, "")
    assert repeat in err


@pytest.mark.parametrize("command", [["info"], ["check", "bundle"], ["construct"]])
@pytest.mark.parametrize("brackets", ["[]", "{}"])
def test_a_document_nested_too_deeply_to_decode_is_bad_input(capsys, tmp_path, command, brackets):
    # the decoder gives up on 100,000 levels with a RecursionError; that is
    # the document's fault, while one from the engine still exits 4
    deep = tmp_path / "deep.json"
    opening = "[" if brackets == "[]" else '{"a": '
    deep.write_text(opening * 100_000 + "0" + brackets[1] * 100_000)
    code, out, err = run(capsys, *command, str(deep))
    assert (code, out) == (3, "")
    assert err == f"error: {deep}: JSON nested too deeply to decode\n"


@pytest.mark.parametrize("command", [["info"], ["check", "groth"], ["construct"]])
def test_a_number_too_long_to_convert_is_bad_input(capsys, tmp_path, command):
    # the decoder refuses a 5,000-digit integer with a ValueError, which
    # used to reach the catch-all and exit 4
    big = tmp_path / "big.json"
    big.write_text('{"elements": ' + "1" * 5000 + "}")
    code, out, err = run(capsys, *command, str(big))
    assert (code, out) == (3, "")
    limit = "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits"
    assert err == f"error: {big}: {limit}\n"


_E1_TO_B1 = {"domain": "gallery:E1", "codomain": "gallery:B1"}
_CHAIN_FUNCTOR = {"base": {"elements": ["a", "b"], "covers": [["a", "b"]]}, "variance": "covariant"}
_ONE_POINT_FIBERS = {"fibers": {"a": {"elements": ["u"]}, "b": {"elements": ["u"]}}}

# each refusal of the readers: (command, the target's text or document, or
# a gallery reference, and the error line after "error: "; {path} is the file)
_REFUSALS = {
    "poset_not_an_object": (["info"], {"domain": ["x"], "codomain": "gallery:B1", "values": {}},
                            "poset document must be an object"),
    "poset_without_elements": (["info"], {"domain": {"covers": []}, "codomain": "gallery:B1", "values": {}},
                               "poset document needs an 'elements' list"),
    "elements_not_a_list": (["info"], {"elements": "ab"}, "'elements' must be a list of strings"),
    "covers_not_a_list": (["info"], {"elements": ["a"], "covers": {}}, "'covers' must be a list of pairs"),
    "poset_by_bare_name": (["info"], {"domain": "E1", "codomain": "gallery:B1", "values": {}},
                           "domain: expected a poset object or 'gallery:ID'"),
    "map_entry_as_poset": (["info"], {"domain": "gallery:p1", "codomain": "gallery:B1", "values": {}},
                           "domain: 'gallery:p1' is not a poset entry"),
    "map_without_codomain": (["info"], {"domain": "gallery:E1", "values": {}},
                             "map document needs a 'codomain' field"),
    "values_off_the_domain": (["check", "groth"],
                              {**_E1_TO_B1, "values": {"(a,0)": "a", "(a,1)": "a", "(b,0)": "b", "z": "a"}},
                              "values assigned to unknown elements ['z']"),
    "functor_without_variance": (["construct"], {"base": "gallery:B1", **_ONE_POINT_FIBERS},
                                 "functor document needs a 'variance' field"),
    "unknown_variance": (["construct"], {**_CHAIN_FUNCTOR, "variance": "both", **_ONE_POINT_FIBERS},
                         "'variance' must be 'covariant' or 'contravariant'"),
    "fibers_not_an_object": (["construct"], {**_CHAIN_FUNCTOR, "fibers": []},
                             "'fibers' must map base elements to posets"),
    "transition_key_without_le": (["construct"], {**_CHAIN_FUNCTOR, **_ONE_POINT_FIBERS,
                                                  "transitions": {"ab": {"u": "u"}}},
                                  "transition key 'ab' must look like 'b<=b2'"),
    "malformed_json": (["info"], "{not json",
                       "{path}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "json_too_deep": (["info"], "[" * 100_000 + "]" * 100_000, "{path}: JSON nested too deeply to decode"),
    "number_too_long": (["info"], '{"elements": ' + "1" * 5000 + "}",
                        "{path}: Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits"),
    "document_not_an_object": (["info"], "[1]", "document must be a JSON object"),
    "document_of_no_kind": (["info"], {"points": []}, "document is none of poset, map, or functor"),
    "functor_outside_construct": (["check", "groth"], {**_CHAIN_FUNCTOR, **_ONE_POINT_FIBERS},
                                  "{path}: a functor document only works with 'construct'"),
    "map_document_to_construct": (["construct"], {**_E1_TO_B1, "values": {}}, "{path}: not a functor document"),
    "gallery_map_to_construct": (["construct"], "gallery:p1", "gallery:p1: not a functor document"),
    "dsl_to_construct": (["construct"], "poset E { points: x; }", "{path}: not a functor document"),
    "gallery_poset_as_map": (["check", "hurewicz"], "gallery:B1",
                             "gallery:B1: names a poset where a map is required"),
    "dsl_poset_as_map": (["check", "hurewicz"], "poset E { points: x; }",
                         "{path}: names a poset where a map is required"),
    "dsl_two_maps": (["info"], _E_B + "map p : E -> B { x -> a; y -> b; }\nmap q : E -> B { x -> a; y -> a; }",
                     "{path}: expected exactly one map (or a single poset)"),
    "dsl_unknown_clause": (["info"], "poset E { points: x; pts: y; }", "poset E: unknown clause 'pts'"),
    "dsl_poset_with_arrow": (["info"], "poset E : A -> B { points: x; }", "poset E: unexpected '->' header"),
    "dsl_map_without_header": (["info"], _E_B + "map p { x -> a; }", "map p: missing ': DOM -> COD' header"),
}


@pytest.mark.parametrize("command, target, line", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_each_reader_refusal_exits_3_with_its_error_line(capsys, tmp_path, command, target, line):
    path = target
    if not (isinstance(target, str) and target.startswith("gallery:")):
        path = tmp_path / "target"
        path.write_text(target if isinstance(target, str) else json.dumps(target))
    code, out, err = run(capsys, *command, str(path))
    assert (code, out, err) == (3, "", "error: " + line.replace("{path}", str(path)) + "\n")


def test_a_dsl_target_holding_one_poset_is_that_poset(capsys, tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("poset E { points: x, y; covers: x < y; }")
    code, out, _ = run(capsys, "info", str(path))
    assert (code, out) == (0, "2 elements, height 1, connected, not minimal\n")


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
    # each refusal is one error line on stderr, with no usage text or traceback
    for argv in (
        [],
        ["nonsense"],
        ["check", "frobnicate", "gallery:p1"],
        ["check", "hur", "gallery:p1"],
        ["check", "hurewicz"],
        ["check", "hurewicz", "gallery:p1", "extra"],
        ["check", "hurewicz", "gallery:p1", "--budget"],
        ["check", "hurewicz", "gallery:p1", "--budget", "x"],
        ["check", "hurewicz", "gallery:p1", "--budget=-1"],
        ["check", "hurewicz", "gallery:p1", "--json=yes"],
        ["check", "hurewicz", "gallery:p1", "--out", "d"],
        ["check", "hurewicz", "gallery:p1", "-x"],
        ["check", "hurewicz", "gallery:p1", "--=x"],
        ["--json", "check", "hurewicz", "gallery:p1"],
        ["info", "gallery:B1", "--json", "--"],
        ["gallery"],
        ["gallery", "show"],
        ["gallery", "emit"],
        ["gallery", "list", "p1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)


def test_help_names_every_command_and_check(capsys):
    for argv in (["--help"], ["check", "hurewicz", "--help"], ["gallery", "-h", "nonsense"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        for word in [*cli._COMMANDS, *cli._CHECKS, "list", "emit", "--json", "--verbose", "--budget", "--out"]:
            assert word in out, (argv, word)
    # left to right, as argparse read the command line: a bad check name
    # before the help flag is refused, one after it is never read
    assert run(capsys, "check", "-h", "frobnicate")[0] == 0
    assert run(capsys, "check", "frobnicate", "-h")[0] == 3
    assert run(capsys, "check", "hurewicz", "gallery:p1", "--budget", "-1", "-h")[0] == 3


def test_gallery_options_may_stand_before_the_action(capsys):
    # argparse reset options given between "gallery" and its action, so
    # "gallery --json list" printed text; it now prints what
    # "gallery list --json" prints
    before = run(capsys, "gallery", "--json", "list")
    after = run(capsys, "gallery", "list", "--json")
    assert before == after
    assert [entry["id"] for entry in json.loads(before[1])] == [e.id for e in ENTRIES]
    assert run(capsys, "gallery", "--js", "emit", "p2") == run(capsys, "gallery", "emit", "p2")
    code, out, err = run(capsys, "gallery", "--budget", "-1", "list")
    assert (code, out) == (3, "")
    assert "argument --budget: budget must be 0 or more, got -1" in err


def test_the_package_never_imports_argparse():
    done = subprocess.run(
        [sys.executable, "-c", "import finfib.cli, sys; print('argparse' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_importing_the_cli_adds_neither_dataclasses_nor_inspect():
    # measured against what the bare interpreter already holds, since a
    # site hook may load either before the package does
    code = (
        "import sys; bare = set(sys.modules); import finfib.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert (done.returncode, done.stdout) == (0, "[]\n")


# the argv alphabet: commands, gallery actions, check names and prefixes of
# them, the options and their unique prefixes with the one ambiguous
# prefix "--=", "=" forms, negative numbers, "-", unknown options, "--",
# stray words and words with a space.  Left out, because argparse's
# releases may read them differently (CI runs Python 3.10 and 3.12): a
# negative number with "_" ("-1_0"), "-h=h", and the forms that
# argparse_outcome_may_vary names.
COMMANDS = ("info", "check", "construct", "gallery")
VALUED = ("--budget", "--bud", "--b", "--out", "--ou", "--o")
ARGV_WORDS = (
    *COMMANDS, "list", "emit", "emi", *sorted(cli._CHECKS), "hur", "c", "map",
    "--json", "--js", "--verbose", "--v", *VALUED, "-h", "--help", "--he", "--=x",
    "--json=1", "--js=", "--budget=5", "--bud=-1", "--budget=x", "--o=D", "--he=x", "-h=x", "-h=", "-hh", "-hx", "-h y",
    "5", "0", "-5", "-1", "-1.5", "-", "-x", "-x y", "--a b", "--", "p", "gallery:p1", "a b", "",
)


def argparse_outcome_may_vary(argv):
    """Whether argparse's releases may read argv differently.

    Python 3.10 and 3.11 refuse an ambiguous option before reading anything,
    newer releases where it stands, so "--=x" behind a help flag may differ.
    So may a "--" that is the second one, stands where an option's value
    should be, or comes before the command or between "gallery" and its
    action: 3.10 and 3.11 take that one for the sub-command's name, newer
    releases drop it.
    """
    if "--=x" in argv and any(word in ("-h", "--help", "--he", "-hh") for word in argv[: argv.index("--=x")]):
        return True
    if "--" not in argv:
        return False
    k = argv.index("--")
    if k == 0 or argv.count("--") > 1 or argv[k - 1] in VALUED or argv[0] not in COMMANDS:
        return True
    return argv[0] == "gallery" and not {"list", "emit"} & set(argv[1:k])


def argparse_outcome(argv):
    """("help",), ("refused",) or ("parsed", fields) as the argparse oracle reads argv."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = argparse_reader().parse_args(argv)
    except SystemExit as exc:
        return ("help",) if exc.code == 0 else ("refused",)
    fields = vars(args)
    del fields["func"]
    return "parsed", fields


def reader_outcome(argv):
    try:
        args = cli._read_argv(argv)
    except ParseError:
        return ("refused",)
    return ("help",) if args is None else ("parsed", vars(args))


argvs = st.one_of(
    st.lists(st.sampled_from(ARGV_WORDS), max_size=6),
    st.builds(lambda c, rest: [c, *rest], st.sampled_from(COMMANDS), st.lists(st.sampled_from(ARGV_WORDS), max_size=7)),
    st.builds(lambda c, rest: ["check", c, *rest], st.sampled_from(sorted(cli._CHECKS)), st.lists(st.sampled_from(ARGV_WORDS), max_size=6)),
)


@settings(max_examples=2000, deadline=None)
@given(argvs)
@example(["check", "-h", "frobnicate"])
@example(["check", "frobnicate", "-h"])
@example(["check", "hurewicz", "--bud", "-1", "p"])
@example(["construct", "p", "--o", "-"])
@example(["check", "hurewicz", "p", "--json", "--"])
@example(["gallery", "--json", "--budget=5", "emit", "p2", "--verbose"])
def test_the_reader_reads_argv_as_argparse_did(argv):
    assume(not argparse_outcome_may_vary(argv))
    got = reader_outcome(argv)
    want = argparse_outcome(argv)
    assert got[0] == want[0], argv
    if got[0] == "parsed" and argv[0] == "gallery":
        # the one difference: options between "gallery" and its action
        # count, as if they followed the action
        k = next(i for i, word in enumerate(argv) if word in ("list", "emit"))
        want = argparse_outcome([argv[0], argv[k], *argv[1:k], *argv[k + 1 :]])
    assert got == want, argv


def test_construct_round_trips_p3(capsys, tmp_path):
    p3 = gallery_entry("p3").build()
    doc = functor_to_doc(classify_grothendieck(p3).beta)
    f = tmp_path / "beta.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "construct", str(f), "--out", str(tmp_path / "built"))
    assert code == 0
    assert "wrote" in out
    rebuilt = map_from_doc(json.loads((tmp_path / "built" / "projection.json").read_text()))
    assert rebuilt.cod == p3.cod
    assert find_isomorphism_over_base(rebuilt, p3) is not None


def test_construct_out_names_its_two_files_in_json_under_json(capsys, tmp_path):
    doc = functor_to_doc(classify_grothendieck(gallery_entry("p3").build()).beta)
    f = tmp_path / "beta.json"
    f.write_text(json.dumps(doc))
    built = tmp_path / "built"
    code, out, _ = run(capsys, "construct", str(f), "--json", "--out", str(built))
    assert code == 0
    files = {"total": str(built / "total.json"), "projection": str(built / "projection.json")}
    assert json.loads(out) == files
    written = {key: Path(path).read_text() for key, path in files.items()}
    # without --json the files are the same and the line stays plain text
    code, out, _ = run(capsys, "construct", str(f), "--out", str(built))
    assert code == 0
    assert out == f"wrote {files['total']} and {files['projection']}\n"
    assert {key: Path(path).read_text() for key, path in files.items()} == written


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


def test_construct_names_a_reversed_transition_key(capsys, tmp_path):
    # "b<=a" over a < b is a pair the base does not order that way
    f = tmp_path / "reversed.json"
    f.write_text(json.dumps({
        "base": {"elements": ["a", "b"], "covers": [["a", "b"]]},
        "variance": "covariant",
        "fibers": {"a": {"elements": ["u"], "covers": []}, "b": {"elements": ["u"], "covers": []}},
        "transitions": {"b<=a": {"u": "u"}},
    }))
    code, out, err = run(capsys, "construct", str(f))
    assert code == 3
    assert out == ""
    assert "transition pair ('b', 'a') is not strictly related" in err


def test_construct_refuses_a_transition_pair_given_twice(capsys, tmp_path):
    # each side of a key is trimmed, so both keys name ('a', 'b'); the
    # later mapping used to replace the earlier without a word
    f = tmp_path / "twice.json"
    f.write_text(json.dumps({
        "base": {"elements": ["a", "b"], "covers": [["a", "b"]]},
        "variance": "covariant",
        "fibers": {"a": {"elements": ["u", "v"]}, "b": {"elements": ["u", "v"]}},
        "transitions": {"a<=b": {"u": "u", "v": "v"}, "a <= b": {"u": "v", "v": "u"}},
    }))
    code, out, err = run(capsys, "construct", str(f))
    assert (code, out) == (3, "")
    assert err == "error: transition keys 'a<=b' and 'a <= b' name the same pair\n"


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
