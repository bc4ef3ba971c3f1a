"""Every module of the library uses each name it imports, and every private
name that the library defines is read somewhere in the library.

The checks read each module's syntax tree.  A name bound by an import must
be read somewhere as a plain name (an attribute access like module.name
reads the module's name).  __init__.py is left out of that check, since its
imports are the package's public names.  A private name (one leading
underscore) bound at module level or in a class body, a method included,
must be read as a plain name or as an attribute in some module of the
package, so a deletion leaves no helper behind.

No Frozen subclass writes an __init__ that only stores its arguments with
setfield: record.Frozen generates that constructor from _fields, so the
field names are written once.

Importing the command line module loads no dataclasses and no inspect:
each CLI command is a fresh process, so every module loaded at import is
paid for by every command.

Each op_* / coop_* twin is one famsolve function bound at a variance, and
operational.py defines no function but the four class-operation forwarders.

No function of workbench.py tests a name against the site's objects or
morphisms: the constructors check every name of an instance once.
"""

import ast
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import bivariant
from bivariant import cooperational, famsolve, operational

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


def _stores_its_argument(stmt) -> bool:
    """Whether stmt is setfield(self, "name", name)."""
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "setfield"):
        return False
    args = call.args
    return (
        len(args) == 3
        and isinstance(args[1], ast.Constant)
        and isinstance(args[2], ast.Name)
        and args[1].value == args[2].id
    )


def storing_constructors(source: str) -> list[str]:
    """The Frozen subclasses of the source whose __init__ only stores its
    arguments with setfield, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id == "Frozen" for b in node.bases):
            inits = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            found += [node.name for f in inits if all(map(_stores_its_argument, f.body))]
    return sorted(found)


def test_the_check_finds_a_constructor_that_only_stores_its_arguments():
    source = (
        "class A(Frozen):\n    def __init__(self, x, y):\n        setfield(self, 'x', x)\n        setfield(self, 'y', y)\n"
        "class B(Frozen):\n    def __init__(self, x):\n        setfield(self, 'x', abs(x))\n"
        "class C(Frozen):\n    def __init__(self, x):\n        check(x)\n        setfield(self, 'x', x)\n"
        "class D:\n    def __init__(self, x):\n        setfield(self, 'x', x)\n"
    )
    assert storing_constructors(source) == ["A"]


def test_no_record_writes_the_constructor_frozen_generates():
    assert [name for p in MODULES for name in storing_constructors(p.read_text())] == []


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


# (operational name, co-operational name, the famsolve function both bind)
TWINS = [
    ("op_group", "coop_group", "variance_group"),
    ("op_unit", "coop_unit", "variance_unit"),
    ("op_hom", "coop_hom", "comparison_map"),
    ("op_image_transfer", "coop_image_transfer", "image_transfer"),
    ("verify_op_axioms", "verify_coop_axioms", "verify_family_axioms"),
    ("verify_op_transform_identities", "verify_coop_transform_identities", "verify_comparison_identities"),
    ("verify_point_isomorphism", "verify_identity_isomorphism", "verify_comparison_isomorphism"),
]


@pytest.mark.parametrize("op_name, coop_name, engine", TWINS, ids=[t[0] for t in TWINS])
def test_each_twin_binds_one_famsolve_function_at_its_variance(op_name, coop_name, engine):
    fn = getattr(famsolve, engine)
    for module, name, variance in ((operational, op_name, "cov"), (cooperational, coop_name, "contra")):
        bound = vars(module)[name]
        assert isinstance(bound, partial) and bound.func is fn
        assert bound.args == (variance,) and not bound.keywords


def traced_names() -> list[tuple[str, str]]:
    """(module, name) of every module-level function that the benchmark's
    tracer wraps in operational or cooperational."""
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "tracing.py").read_text())
    value = next(n.value for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "TARGETS")
    return [(module, path) for _, module, path in ast.literal_eval(value) if module in ("operational", "cooperational") and "." not in path]


def test_every_traced_name_is_its_own_object():
    # the tracer wraps every namespace holding a target's object, so two
    # names bound to one object would nest their spans
    names = traced_names()
    assert len(names) == 19
    objects = [vars(getattr(bivariant, module))[name] for module, name in names]
    assert len({id(obj) for obj in objects}) == len(objects)


FORWARDERS = ["op_product", "op_pullback", "op_pushforward", "op_transport"]


def test_operational_defines_only_the_four_forwarders():
    tree = ast.parse(Path(operational.__file__).read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert sorted(getattr(node, "name", "<lambda>") for node in functions) == FORWARDERS


# names that hold a site's objects or morphism names, or the tables of a Site
SITE_NAMES = {"objects", "morphisms", "names", "objset", "_mor", "_identity"}


def site_name_tests(source: str) -> list[str]:
    """The tests in source of a value against a site's names: an in or not
    in whose right side is a name or attribute in SITE_NAMES, and every call
    of has_morphism or has_object, as source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [right for op, right in zip(node.ops, node.comparators) if isinstance(op, (ast.In, ast.NotIn))]
            hit = any(getattr(side, "id", getattr(side, "attr", None)) in SITE_NAMES for side in sides)
        else:
            hit = isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("has_morphism", "has_object")
        if hit:
            found.append(ast.get_source_segment(source, node))
    return found


def test_the_check_finds_a_test_against_site_names():
    source = (
        "def read(doc, site, sources, m, name, obj):\n"
        "    objects = doc['objects']\n"
        "    names = {m[0] for m in doc['morphisms']}\n"
        "    ok = m['src'] in objects and name not in names and obj in site.objects\n"
        "    ok = ok and site.has_morphism(name) and doc['src'] in sources\n"
    )
    assert site_name_tests(source) == ["m['src'] in objects", "name not in names", "obj in site.objects", "site.has_morphism(name)"]


def test_the_reader_tests_no_name_against_the_site():
    assert site_name_tests((Path(bivariant.__file__).parent / "workbench.py").read_text()) == []
