"""The package's public names."""

import importlib
import pkgutil

import pytest

import spodnet


@pytest.mark.parametrize("name", ["spodnet"] + [
    f"spodnet.{m.name}" for m in pkgutil.iter_modules(spodnet.__path__)])
def test_star_import_gives_every_name_in_all(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # a stale entry raises AttributeError
    assert set(importlib.import_module(name).__all__) <= namespace.keys()
