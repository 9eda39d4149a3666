"""Source hygiene: every module uses each name it imports, and takes no
other module's private names but a listed few."""

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


# The underscore names one module may still take from another.  A name leaves
# this list when its module gives it a public form; none may join it.
PRIVATE_IMPORTS = {
    ("cli", "composer", "_compose_with_failures"),
    ("composer", "syntax", "_SexprNode"),
    ("composer", "syntax", "_type_from_sexpr"),
    ("hol", "syntax", "_SexprNode"),
    ("hol", "syntax", "_type_from_sexpr"),
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_another_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = {(path.stem, (node.module or "").split(".")[-1], alias.name)
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_") and node.module != "__future__"}
    assert private - PRIVATE_IMPORTS == set()
