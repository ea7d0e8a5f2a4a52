"""Import hygiene of the package modules, checked on their syntax trees.

A top-level import that the module never reads hides the real
dependencies between the layers, and a package import inside a function
hides them from anyone reading the module's head.  A top-level
definition, method, property or dataclass field that nothing reads is
dead code.  No linter ships with the project, so these tests walk the
source with `ast`.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "ontofocus")
MODULES = sorted(
    p for p in glob.glob(os.path.join(PACKAGE, "*.py")) if os.path.basename(p) != "__init__.py"
)


def _tree(path):
    with open(path) as f:
        return ast.parse(f.read(), path)


def _bound_names(node):
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_top_level_import_is_read(path):
    tree = _tree(path)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update(_bound_names(node))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not imported - read, "imported but never read: %s" % sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_package_import_inside_a_function(path):
    lines = {
        node.lineno
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert not lines, "function-local package imports at lines %s" % sorted(lines)


def _reads(tree):
    """Names read anywhere in tree: as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


READERS = [
    p
    for d in ("src/ontofocus", "tests", "perfbench")
    for p in glob.glob(os.path.join(ROOT, d, "*.py"))
]


def test_every_top_level_definition_is_read():
    read = {name for p in READERS for name in _reads(_tree(p))}
    dead = sorted(
        "%s.%s" % (os.path.basename(p)[:-3], name)
        for p in MODULES
        for name in _defined(_tree(p))
        if name not in read and not name.startswith("__")
    )
    assert not dead, "defined but never read: %s" % dead


def _members(tree):
    """Methods, properties and dataclass fields of the top-level classes."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield cls.name, node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield cls.name, node.target.id


def test_every_class_member_is_read():
    read = set()
    for p in READERS:
        for node in ast.walk(_tree(p)):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.keyword):
                read.add(node.arg)
    dead = sorted(
        "%s.%s" % (cls, name)
        for p in MODULES
        for cls, name in _members(_tree(p))
        if name not in read and not name.startswith("__")
    )
    assert not dead, "defined but never read: %s" % dead
