"""Source hygiene: every module uses each name it imports and takes no other
module's private names, every top-level definition is used or exported, and
every exported name is read outside the tests or is a documented entry point."""

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


def _reads(paths) -> set[str]:
    """Every name read in the files, as a name or an attribute, except by the
    top-level definition of that name itself."""
    used = set()
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            used |= {node.id for node in ast.walk(top) if isinstance(node, ast.Name) and node.id != own}
            used |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute) and node.attr != own}
    return used


def _exported() -> set[str]:
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_definition_is_used_or_exported():
    used, exported = _reads(MODULES), _exported()
    unused = {(path.stem, top.name) for path in MODULES for top in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name not in used | exported}
    assert unused == set()


# Exported names that no caller outside the tests reads: documented entry points of the library.
ENTRY_POINTS = {
    "numeral": "builds the Goedel-T numeral of n for a library user, the inverse of numeral_value",
    "parse_formula": "the documented formula reader (README, Grammars), the inverse of print_formula",
}


def test_every_export_is_read_outside_the_tests():
    root = SRC.parent.parent
    callers = MODULES + [path for folder in ("perfbench", "scripts") for path in sorted((root / folder).glob("*.py"))
                         if not path.name.startswith("test_")]
    assert _exported() - _reads(callers) == set(ENTRY_POINTS)
