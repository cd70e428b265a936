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


def load_spans():
    """The benchmark's ``perfbench/spans.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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


# defaulted parameters that no package call sets, each with the reason it stays
OPTION_KEEP = {
    "main.argv": "perfbench and the tests drive the command line in-process",
    "map_to_text.dom_name": "README: map_to_text names the domain block",
    "map_to_text.cod_name": "README: map_to_text names the codomain block",
}


def _options(fn, bound):
    """(position, name) of each defaulted parameter; keyword-only ones have position None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(k - bound if k >= bound else None, a.arg) for k, a in enumerate(positional) if k >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def test_every_option_is_set_by_a_package_call_or_kept_for_a_reason():
    # a defaulted parameter that no call in the package sets, by keyword or
    # by position, is a knob only tests turn; a call to a class sets the
    # options of its __init__.  Like the rules above, calls match by name.
    trees = [tree for _, tree in package_trees()]
    passed = {}  # callee name -> (most positional arguments, keywords)
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = _name_of(call.func)
            most, keywords = passed.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            most = max(most, float("inf") if starred else len(call.args))
            keywords = keywords | {kw.arg for kw in call.keywords}
            passed[name] = most, keywords
    unset = set()
    for tree in trees:
        scopes = [(None, node) for node in tree.body]
        scopes += [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
        for owner, fn in scopes:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(_name_of(d) == "staticmethod" for d in fn.decorator_list)
            bound = 1 if owner and not static else 0
            callee = owner if fn.name == "__init__" else fn.name
            most, keywords = passed.get(callee, (0, set()))
            if None in keywords:  # **kwargs
                continue
            for position, arg in _options(fn, bound):
                if arg not in keywords and (position is None or position >= most):
                    unset.add(f"{owner}.{fn.name}.{arg}" if owner else f"{fn.name}.{arg}")
    assert sorted(unset - set(OPTION_KEEP)) == []
    assert sorted(set(OPTION_KEEP) - unset) == []


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
    "SearchBudgetExhausted": "perfbench/spans.py binds it in Tracer.__init__; goes with ROADMAP item 1",
    "restrict_over_component": "perfbench/spans.py wraps it where verdict imports it",
    "find_isomorphism_over_base": "perfbench/spans.py wraps it where verdict and grothendieck import it; "
    "the tests use it as the over-base oracle",
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
    "Poset.down_set": "README: the removed-names table gives p.down_set(a) for strict_down_set and the minimal test",
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
    # a member from this count, so SHARED_MEMBERS below lists those.
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


# public members whose name another package class or a builtin type also
# has, each with a package use checked by hand, since the count above
# cannot tell their reads apart
SHARED_MEMBERS = {
    "Poset.build": "documents.poset_from_doc and the gallery build posets",
    "MonotoneMap.build": "documents.map_from_doc and functor_from_doc build maps",
    "GalleryEntry.build": "cli._load_target builds gallery:ID targets",
    "Poset.op": "grothendieck_construction of a contravariant functor projects to d.base.op()",
    "MonotoneMap.op": "SliceMap.op and the gallery's p1op entry",
    "SliceMap.op": "verdict.is_closed_map tests openness of the opposite map",
    "Poset.components": "SliceMap.touched_components and decide_hurewicz (Verdict.components is a field)",
    "MonotoneMap.values": "the map, functor, trace and certificate documents (dict.values)",
    "SliceMap.base": "every slice reader, e.g. verdict and grothendieck (PosetFunctor.base is a slot)",
    "_ComponentFacts.reduction": "the decision and the conditions read facts.reduction (Certificate.reduction is a field)",
}

_BUILTIN_TYPES = (dict, list, tuple, str, set, int)


def _class_attributes(cls):
    """Names a class body defines: methods, fields, class attributes and slots."""
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    names.update(ast.literal_eval(node.value))
                elif isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def test_every_shared_member_name_was_checked_by_hand():
    # the member rule counts names, so a member whose name another class or a
    # builtin type shares needs its use checked by hand: a new shared name
    # fails until it is listed, and a listed name that is no longer shared leaves
    classes = [node for _, tree in package_trees() for node in tree.body if isinstance(node, ast.ClassDef)]
    attributes = {id(cls): _class_attributes(cls) for cls in classes}
    shared = set()
    for cls in classes:
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
                continue
            if any(other is not cls and fn.name in attributes[id(other)] for other in classes) or any(
                hasattr(t, fn.name) for t in _BUILTIN_TYPES
            ):
                shared.add(f"{cls.name}.{fn.name}")
    assert sorted(shared - set(SHARED_MEMBERS)) == []
    assert sorted(set(SHARED_MEMBERS) - shared) == []


def test_every_import_is_used_or_a_benchmark_patch_site():
    # no linter runs on the package: an import its module never reads is
    # left over, unless it carries "# noqa: F401" and perfbench/spans.py
    # wraps it under that module.  The __init__ imports are the exports.
    sites = {site for sites in load_spans().SPANS.values() for site in sites}
    found = []
    for name, tree in package_trees():
        if name == "__init__.py":
            continue
        lines = (Path(finfib.__file__).parent / name).read_text().splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                kept = "# noqa: F401" in lines[alias.lineno - 1] and (name[:-3], bound) in sites
                if bound not in read and not kept:
                    found.append(f"{name}:{alias.lineno} {bound}")
    assert found == []


def test_every_benchmark_patch_site_resolves():
    # perfbench wraps these names from outside the package; a renamed or
    # dropped binding would only show up in a traced benchmark run, and
    # so would a name the tracer binds when it is made
    spans = load_spans()
    spans.Tracer()
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
