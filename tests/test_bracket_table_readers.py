"""The bracket table is read in one derivation and one rewrite rule, and the
split projection in one loop.

``algebras._ad_word`` is the one derivation ad_y of a word: the Lie
closure of the generating set and the U(g) supercommutator both bracket
through it.  Outside ``algebras.py`` the
only other reader of ``Algebra.bracket_table`` is the PBW rewrite
x y -> (-1)^{|x||y|} y x + [x, y] of ``enveloping.pbw_normalize``.
``Algebra.pi_table`` has no reader outside ``algebras.py``: the bracket
table, ``project_tensor`` and ``generator_matrix`` all project through the
one pi_tilde loop ``Algebra._pi_tilde``.  This test fails on any other read
of either table in ``src/superinv``, so a further copy of the derivation or
of the pi_tilde loop cannot land unnoticed.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "superinv"

# table -> {(module, qualified function name): why it reads the table itself}
ALLOWED = {
    "bracket_table": {
        ("enveloping.py", "pbw_normalize"): "the PBW rewrite of one out-of-order pair is "
        "a bracket, not a derivation",
    },
    "pi_table": {},
}


def _readers(table):
    """(module, qualified function name) of each ``.<table>`` read outside algebras.py."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == table:
                found.add((module, ".".join(scope)))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "algebras.py":
            visit(ast.parse(path.read_text()), path.name, [])
    return found


@pytest.mark.parametrize("table", sorted(ALLOWED))
def test_only_allowlisted_functions_read_the_table_outside_algebras(table):
    hits = sorted("%s %s" % hit for hit in _readers(table) - set(ALLOWED[table]))
    assert not hits, "reads %s outside algebras.py: %s" % (table, ", ".join(hits))


@pytest.mark.parametrize("table", sorted(ALLOWED))
def test_allowlisted_readers_still_read_the_table(table):
    stale = sorted("%s %s" % hit for hit in set(ALLOWED[table]) - _readers(table))
    assert not stale, "allowlisted but no longer reading %s: %s" % (table, ", ".join(stale))
