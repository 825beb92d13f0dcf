"""The bracket table is read in one derivation and one rewrite rule.

``algebras._ad_word`` is the one derivation ad_y of a word: the Lie
closure of the generating set, the adjoint action on T(g) and S(g) and the
U(g) supercommutator all bracket through it.  Outside ``algebras.py`` the
only other reader of ``Algebra.bracket_table`` is the PBW rewrite
x y -> (-1)^{|x||y|} y x + [x, y] of ``enveloping.pbw_normalize``.  This
test fails on any other ``.bracket_table`` read in ``src/superinv``, so a
further copy of the derivation cannot land unnoticed.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "superinv"

# (module, qualified function name) -> why it reads the table itself
ALLOWED = {
    ("enveloping.py", "pbw_normalize"): "the PBW rewrite of one out-of-order pair is "
    "a bracket, not a derivation",
}


def _readers():
    """(module, qualified function name) of each ``.bracket_table`` read outside algebras.py."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "bracket_table":
                found.add((module, ".".join(scope)))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "algebras.py":
            visit(ast.parse(path.read_text()), path.name, [])
    return found


def test_only_the_pbw_rewrite_reads_the_bracket_table_outside_algebras():
    hits = sorted("%s %s" % hit for hit in _readers() - set(ALLOWED))
    assert not hits, "reads bracket_table (bracket through algebras._ad_word): %s" % ", ".join(
        hits
    )


def test_allowlisted_readers_still_read_the_bracket_table():
    stale = sorted("%s %s" % hit for hit in set(ALLOWED) - _readers())
    assert not stale, "allowlisted but no longer reading bracket_table: %s" % ", ".join(stale)
