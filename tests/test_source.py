"""Static checks on the package source."""

import ast
import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import finfib


def package_trees():
    for path in sorted(Path(finfib.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so engine checks must raise
    # InvariantViolated instead
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_no_function_calls_itself_by_name():
    # the recursion limit must not set the size ceiling, so searches
    # keep an explicit stack
    found = []
    for name, tree in package_trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == fn.name:
                    found.append(f"{name}:{node.lineno} {fn.name}")
    assert found == []


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_private_definition_is_used():
    # a private helper that nothing names any more has outlived its callers
    trees = dict(package_trees())
    uses = Counter(_name_of(node) for tree in trees.values() for node in ast.walk(tree))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            inside = sum(_name_of(sub) == node.name for sub in ast.walk(node))
            if node.name.startswith("_") and uses[node.name] == inside:
                found.append(f"{module}:{node.lineno} {node.name}")
    assert found == []


def test_every_benchmark_patch_site_resolves():
    # perfbench wraps these names from outside the package; a renamed or
    # dropped binding would only show up in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for span, sites in spans.SPANS.items():
        for module, attr in sites:
            mod = importlib.import_module(f"finfib.{module}")
            owner_name, _, name = attr.rpartition(".")
            if owner_name == "json":
                ok = getattr(mod, "json", None) is json and callable(getattr(json, name))
            elif owner_name:
                owner = getattr(mod, owner_name, None)
                ok = owner is not None and isinstance(owner.__dict__.get(name), classmethod)
            else:
                ok = callable(getattr(mod, name, None))
            if not ok:
                missing.append(f"{span}: finfib.{module}.{attr}")
    assert missing == []
