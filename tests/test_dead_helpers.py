"""Every module-level function of the package has a caller in the package.

A function that only tests call belongs in the tests (``tests/oracles.py``
holds the shared ones), and one that nothing calls is deleted.  A
reference counts when its name appears, as a name or an attribute,
anywhere in ``src/superinv`` outside the function's own ``def``.
``__init__.py`` is not scanned: a re-export is not a use.

Attributes follow the same rule: every ``self.<name>`` that an
``__init__`` of the package assigns is read, as an attribute, somewhere in
``src/superinv`` outside that ``__init__``.

The same holds one level out: every function of ``tests/oracles.py`` is
named by some ``tests/test_*.py`` or by another oracle, so a reference
that leaves the package does not become dead test code.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "superinv"

# name -> why it stays without a caller
ALLOWED = {
    "is_Q_poly": "the q(n) Harish-Chandra verdict in hc will call it (ROADMAP item 8)",
}


def _modules():
    return {
        path.name: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _referenced_names(trees):
    """(name, enclosing top-level statement) for every name and attribute read."""
    refs = set()
    for tree in trees.values():
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    refs.add((node.attr, owner))
    return refs


def _has_caller(name, refs):
    return any(ref == name and owner != name for ref, owner in refs)


def test_every_module_level_function_has_a_caller():
    trees = _modules()
    refs = _referenced_names(trees)
    unused = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name in ALLOWED:
                continue
            if not _has_caller(stmt.name, refs):
                unused.append("%s:%d %s" % (module, stmt.lineno, stmt.name))
    assert not unused, "functions no package code calls: %s" % ", ".join(unused)


def test_allowlisted_functions_still_have_no_caller():
    # an entry goes once package code calls its function, so no entry
    # outlives its reason
    refs = _referenced_names(_modules())
    called = sorted(name for name in ALLOWED if _has_caller(name, refs))
    assert not called, "allowlisted but called in the package: %s" % ", ".join(called)


def test_allowlist_names_only_existing_functions():
    defined = {
        stmt.name
        for tree in _modules().values()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
    }
    assert set(ALLOWED) <= defined


def test_every_attribute_an_init_assigns_is_read():
    trees = _modules()
    reads = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for module, tree in trees.items():
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for init in cls.body:
                if not isinstance(init, ast.FunctionDef) or init.name != "__init__":
                    continue
                inside = set(map(id, ast.walk(init)))
                assigned = {
                    node.attr
                    for node in ast.walk(init)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                }
                unread += [
                    "%s:%d %s.%s" % (module, init.lineno, cls.name, name)
                    for name in sorted(assigned)
                    if not any(r.attr == name and id(r) not in inside for r in reads)
                ]
    assert not unread, "attributes no package code reads: %s" % ", ".join(unread)


def test_every_oracle_is_named_by_a_test_or_another_oracle():
    oracles = {"oracles.py": ast.parse((TESTS / "oracles.py").read_text())}
    tests = {path.name: ast.parse(path.read_text()) for path in TESTS.glob("test_*.py")}
    refs = _referenced_names(oracles) | _referenced_names(tests)
    unused = [
        "oracles.py:%d %s" % (stmt.lineno, stmt.name)
        for stmt in oracles["oracles.py"].body
        if isinstance(stmt, ast.FunctionDef) and not _has_caller(stmt.name, refs)
    ]
    assert not unused, "oracles no test names: %s" % ", ".join(unused)
