"""The README's examples run as written."""

import ast
import builtins
import contextlib
import importlib
import inspect
import io
import pkgutil
import re
from pathlib import Path

import finfib

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_prints_what_its_comments_say():
    # a name the README uses and the package no longer has fails here
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines()[:2] == ["True", "unknown"]


def removed_rows():
    """The (removed name, use instead) cells of each row of the removed-names table."""
    table = README.read_text().split("| removed name | use instead |\n", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[1:]  # below the header's rule
    return [row.strip("| ").split(" | ", 1) for row in rows]


def removed_names():
    """The backticked names in the first column of the removed-names table."""
    return [name for removed, _ in removed_rows() for name in re.findall(r"`([^`]+)`", removed)]


def package_modules():
    return [finfib] + [
        importlib.import_module(f"finfib.{m.name}")
        for m in pkgutil.iter_modules(finfib.__path__)
        if m.name != "__main__"  # importing it runs the command line
    ]


def names_back(names, modules):
    """The removed names that the given modules bind again."""
    found = []
    for entry in names:
        name, _, args = entry.partition("(")
        keywords = re.findall(r"(\w+)=", args)
        if keywords:
            # a removed option of a function that stays
            params = inspect.signature(getattr(finfib, name)).parameters
            found += [f"{name}({k}=)" for k in keywords if k in params]
        elif "." in name:
            owner, member = name.split(".")
            # an owner that no module binds brings no member back
            owners = {getattr(m, owner) for m in modules if hasattr(m, owner)}
            if any(hasattr(cls, member) for cls in owners):
                found.append(name)
        else:
            found += [f"{m.__name__}.{name}" for m in modules if hasattr(m, name)]
    return found


def test_no_name_in_the_removed_names_table_is_back():
    names = removed_names()
    assert len(names) > 30
    assert names_back(names, package_modules()) == []


def test_a_removed_member_of_an_owner_no_module_binds_is_not_back():
    # no module imports dataclasses, so dataclasses.replace is gone; a
    # member of a live class is back, and the two cases mix
    modules = package_modules()
    assert not any(hasattr(m, "dataclasses") for m in modules)
    assert names_back(["dataclasses.replace"], modules) == []
    assert names_back(["dataclasses.replace", "Poset.sub"], modules) == ["Poset.sub"]


def test_every_keyword_call_the_removed_names_table_suggests_is_live():
    # a replacement must not send the reader to an option or a function
    # the package no longer has; builtins such as sorted(key=) pass
    modules = package_modules()
    found = []
    for _, instead in removed_rows():
        for code in re.findall(r"`([^`]+)`", instead):
            try:
                tree = ast.parse(code, mode="eval")
            except SyntaxError:
                continue  # a statement such as rep = ..., or prose
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call) or not call.keywords:
                    continue
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if hasattr(builtins, name):
                    continue
                live = {getattr(m, name) for m in modules if callable(getattr(m, name, None))}
                if len(live) != 1:
                    found.append(f"{code}: {name} is no finfib function")
                    continue
                params = inspect.signature(live.pop()).parameters
                found += [f"{code}: {name}({kw.arg}=)" for kw in call.keywords if kw.arg not in params]
    assert found == []
