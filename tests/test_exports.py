"""Every levyham module exports only names it defines."""

import importlib
import pkgutil

import pytest

import levyham

MODULES = ["levyham"] + [f"levyham.{m.name}" for m in pkgutil.iter_modules(levyham.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
