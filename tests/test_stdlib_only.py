"""The runtime stays stdlib-only.

``pyproject.toml`` declares no dependencies, so every import in
``src/superinv`` must be relative (a module of the package) or name a
top-level module of the standard library.  pytest and hypothesis are test
dependencies only; an import of either in the package fails here.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "superinv"
MODULES = sorted(SRC.glob("*.py"))


def _foreign_imports(path):
    """(line, module) of each absolute import in path outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_the_package_has_modules():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_relative_or_stdlib(path):
    assert _foreign_imports(path) == []
