"""Properties of the package source as a whole."""

import ast
import importlib
import re
from pathlib import Path

import cagekit


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    # python -O strips assert, so no certification step may rest on one;
    # a failed self-check raises RuntimeError, which the CLI exits 3 on
    sources = sorted(Path(cagekit.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Raise) and node.exc is not None
                  and _raises_assertion_error(node)]
    assert found == []


def test_readme_public_surface_is_exported():
    # every name README lists as public is exported, so a deleted name
    # cannot linger in the documentation
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("The public surface is exported")
    names = re.findall(r"`([^`]+)`", readme[start:readme.index("\n\n", start)])
    assert len(names) > 20
    for name in names:
        if name.startswith("cagekit."):
            importlib.import_module(name)
    missing = [name for name in names if not name.startswith("cagekit.")
               and name not in cagekit.__all__]
    assert missing == []


def test_no_unused_imports_in_package():
    # a deletion must not leave a stale import behind; only __init__
    # imports names to export them
    sources = sorted(p for p in Path(cagekit.__file__).parent.glob("*.py")
                     if p.name != "__init__.py")
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert found == []


def test_no_fraction_built_on_the_element_path():
    # every element, a rational included, is built from integer numerators
    # over one denominator, so elimination, validation, inscription and
    # the rank path construct no Fraction
    package = Path(cagekit.__file__).parent
    found = []
    for name in ("linalg.py", "cage.py", "inscribe.py", "verify.py"):
        tree = ast.parse((package / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = (func.id if isinstance(func, ast.Name) else
                          func.attr if isinstance(func, ast.Attribute)
                          else None)
                if called == "Fraction":
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def test_residue_maps_stay_inside_linalg():
    # every residue image comes from linalg._images, so no other module
    # reads the residue maps or reduces a field element mod p itself
    sources = sorted(p for p in Path(cagekit.__file__).parent.glob("*.py")
                     if p.name != "linalg.py")
    assert sources
    private = {"_residue_maps", "_reducer", "_mod_p"}
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = ({node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute)
                     else {a.name for a in node.names}
                     if isinstance(node, ast.ImportFrom) else set())
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names & private]
    assert found == []
