"""Source hygiene: every module uses each name it imports and takes no other
module's private names, and every top-level definition is used or exported."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polysem"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_another_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = {(path.stem, (node.module or "").split(".")[-1], alias.name)
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_") and node.module != "__future__"}
    assert private == set()


# Top-level definitions that no module of the package uses and __init__ does
# not export, kept because the tests use them: a builder.
UNUSED_ALLOWED = {("inductives", "finite_set")}


def test_every_definition_is_used_or_exported():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = set()  # every name read anywhere, except by the definition of that name itself
    for tree in trees.values():
        for top in tree.body:
            own = getattr(top, "name", None)
            used |= {node.id for node in ast.walk(top) if isinstance(node, ast.Name) and node.id != own}
            used |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute) and node.attr != own}
    unused = {(stem, top.name) for stem, tree in trees.items() for top in tree.body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name not in used | exported}
    assert unused - UNUSED_ALLOWED == set()
