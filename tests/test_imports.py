"""Every module of the library uses each name it imports, and every private
name that the library defines is read somewhere in the library.

The checks read each module's syntax tree.  A name bound by an import must
be read somewhere as a plain name (an attribute access like module.name
reads the module's name).  __init__.py is left out of that check, since its
imports are the package's public names.  A private name (one leading
underscore) bound at module level or in a class body, a method included,
must be read as a plain name or as an attribute in some module of the
package, so a deletion leaves no helper behind.

Importing the command line module loads no dataclasses and no inspect:
each CLI command is a fresh process, so every module loaded at import is
paid for by every command.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bivariant

PACKAGE = sorted(Path(bivariant.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _bound(node) -> list[str]:
    """The names a module-level or class-body statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_private_names(sources: dict) -> list[str]:
    """The private names that the sources (module name -> source) bind at
    module level or in a top-level class body and that no source reads,
    as module.name or module.Class.name, sorted."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [(module, tree.body)]
        scopes += [(f"{module}.{node.name}", node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
        defined += [(f"{owner}.{name}", name) for owner, body in scopes for node in body for name in _bound(node) if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(where for where, name in defined if name not in read)


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": "def _used():\n    pass\ndef _stale():\n    pass\n_TABLE = {}\nclass C:\n    _cache = None\n    def _method(self):\n        return _used()\n    def _dead(self):\n        self._cache = 1\n    def __len__(self):\n        return 0\n",
        "b": "from .a import C\nC()._method()\n",
    }
    assert unread_private_names(sources) == ["a.C._cache", "a.C._dead", "a._TABLE", "a._stale"]


def test_every_private_name_is_read_in_the_package():
    assert unread_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


# modules that importing the CLI may not load: dataclasses imports inspect,
# which brings ast, dis and tokenize
HEAVY = ("dataclasses", "inspect")

PROBE = """
import sys
before = set(sys.modules)
import bivariant.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    src = str(Path(bivariant.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    added = out.stdout.split()
    assert "bivariant.cli" in added
    assert [name for name in HEAVY if name in added] == []
