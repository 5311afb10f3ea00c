"""The package's public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spodnet


@pytest.mark.parametrize("name", ["spodnet"] + [
    f"spodnet.{m.name}" for m in pkgutil.iter_modules(spodnet.__path__)])
def test_star_import_gives_every_name_in_all(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # a stale entry raises AttributeError
    assert set(importlib.import_module(name).__all__) <= namespace.keys()


def _autodiff_names_used(path) -> set:
    """The names a module reads from ``spodnet.autodiff``: those it imports
    from it and the attributes it reads off a name bound to it."""
    tree = ast.parse(Path(path).read_text())
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "autodiff":
                used.update(a.name for a in node.names)
            elif node.module is None:
                aliases.update(a.asname or a.name for a in node.names
                               if a.name == "autodiff")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_autodiff_exports_only_what_the_package_runs():
    package = Path(spodnet.__file__).parent
    used = set().union(*(_autodiff_names_used(path) for path in package.glob("*.py")
                         if path.name != "autodiff.py"))
    assert set(spodnet.autodiff.__all__) <= used
