"""Every module of the library uses each name it imports.

The check reads each module's syntax tree: a name bound by an import must
be read somewhere as a plain name (an attribute access like module.name
reads the module's name).  __init__.py is left out, since its imports are
the package's public names.
"""

import ast
from pathlib import Path

import pytest

import bivariant

MODULES = sorted(p for p in Path(bivariant.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_a_stale_import():
    source = "from __future__ import annotations\nimport os.path\nfrom .m import a, b as c\nos.sep\nc()\n"
    assert unused_imports(source) == ["a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []
