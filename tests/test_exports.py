"""Every levyham module exports only names it defines, and each public name has a caller."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import levyham

MODULES = ["levyham"] + [f"levyham.{m.name}" for m in pkgutil.iter_modules(levyham.__path__)]

# Public names that nothing in src/ calls, kept on purpose.
KEPT_WITHOUT_CALLER = {
    # the paper's contraction inequality and its closed-form cross-check, kept
    # for a verify suite that evaluates them (ROADMAP item 1); ContractionCheck
    # is not listed, as contraction_inequality_check builds it
    "psi", "correction_bound", "contraction_inequality_check", "coupling_profile_drift",
    # the product rule's cross term alone, next to correction_bound, its envelope;
    # product_rule_residual forms it from the jumped values it shares with L(HG)
    "product_correction_term",
    # the one public window step; the benchmark's self-test reads it
    "step_pair",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_every_public_name_has_a_caller_in_src():
    # a public top-level function or class must be named somewhere in src/
    # outside its own definition; __all__ lists strings, which do not count
    defined, used = set(), set()
    for path in pathlib.Path(levyham.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.add(own)
            used |= {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    assert sorted(defined - used - KEPT_WITHOUT_CALLER) == []
    # the exceptions stay exact: each is defined, and leaves the set once called
    assert sorted(KEPT_WITHOUT_CALLER - (defined - used)) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    # src/ reaches another module only through its public names: no
    # `from module import _name`, and no `_name` read off an imported name
    found = []
    for path in sorted(pathlib.Path(levyham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
                found += [f"{path.name}:{node.lineno}: import {a.name}" for a in node.names
                          if isinstance(node, ast.ImportFrom) and _private(a.name)]
        found += [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in imported and _private(node.attr)]
    assert found == []
