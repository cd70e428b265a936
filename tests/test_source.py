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


# public names that nothing in the package calls, each with the reason it stays
PUBLIC_KEEP = {
    "f_infinity": "README: Stong's stabilized iterate of a descending endomap",
    "homotopy_equivalent": "README: homotopy equivalence via core isomorphism",
    "reconstruct_over_base": "README: the round trip that rebuilds a map from its covariant transport",
    "functor_to_doc": "README: JSON round trips for every object, the functor documents construct reads",
    "map_to_text": "README: the text emitters and the names they refuse",
    "gallery_ids": "the gallery's lookup by id",
    "gallery_map": "the gallery's lookup by id; the README's Library example",
    "gallery_poset": "the gallery's lookup by id",
    "search_retract_certificate": "ROADMAP: the planned certify command runs this search",
    "retract_certificate_from_doc": "ROADMAP: the planned certify and --certificate read certificates back",
    "restrict_over_component": "perfbench/spans.py wraps it where verdict imports it",
}


def test_every_public_definition_is_used_or_kept_for_a_reason():
    # a public name that only tests and the __init__ re-exports reach is
    # API nothing needs; it goes, or it is kept above with its reason
    trees = dict(package_trees())
    programs = [tree for module, tree in trees.items() if module != "__init__.py"]
    uses = Counter(_name_of(node) for tree in programs for node in ast.walk(tree))
    unused = set()
    for tree in programs:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            inside = sum(_name_of(sub) == node.name for sub in ast.walk(node))
            if not node.name.startswith("_") and uses[node.name] == inside:
                unused.add(node.name)
    assert sorted(unused - set(PUBLIC_KEEP)) == []
    # a kept name that gained a caller or was deleted leaves the list
    assert sorted(set(PUBLIC_KEEP) - unused) == []


# public class members that nothing in the package reads, each with the reason it stays
MEMBER_KEEP = {
    "GrothendieckReport.alpha": "README: the removed-names table gives .alpha for alpha_functor",
    "Poset.sub": "README: the removed-names table gives p.sub(keep) for sub_poset",
}


def _attribute_reads(tree, modules):
    """Names read as attributes in tree, except attributes of the imported modules."""
    return [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id in modules)
    ]


def test_every_public_member_is_used_or_kept_for_a_reason():
    # the rule above, for the methods, properties and classmethods of every
    # class.  A member is reached as an attribute, so re.sub does not use
    # Poset.sub; a name that another attribute shares (dict.get) still hides
    # a member from this count.
    trees = [tree for module, tree in package_trees() if module != "__init__.py"]
    modules = [
        {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        for tree in trees
    ]
    uses = Counter(name for tree, mods in zip(trees, modules) for name in _attribute_reads(tree, mods))
    unused = set()
    for tree, mods in zip(trees, modules):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
                    continue
                if uses[fn.name] == _attribute_reads(fn, mods).count(fn.name):
                    unused.add(f"{cls.name}.{fn.name}")
    assert sorted(unused - set(MEMBER_KEEP)) == []
    assert sorted(set(MEMBER_KEEP) - unused) == []


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
