"""Every top-level import of a shotrope module is used: read by name in the
module's own code, or re-exported through its `__all__`."""

import ast
import glob
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "shotrope")


def _bound_names(node):
    """The names an import statement binds: `import a.b` binds a."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """The names source's top-level imports bind that nothing reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    imports = [
        node for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ]
    return sorted(name for node in imports for name in _bound_names(node) if name not in read)


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nfrom . import a, b as B\n__all__ = ['a']\n"
        "def f(x: B):\n    return x\n"
    )
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_every_top_level_import_is_used(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_the_engine_imports_no_multiprocessing():
    """multiprocessing loads only when a sampling or training call forks a
    worker, and mmap only when a training call makes the worker's shared
    arena, so importing the engine costs no more than before it had them."""
    code = ("import sys, shotrope.engine; "
            "sys.exit(bool({'multiprocessing', 'mmap'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.path.join(SRC, os.pardir)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
