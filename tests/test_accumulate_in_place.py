"""No loop in the package rebuilds a sum by rebinding it.

Inside a ``for`` or ``while`` loop, ``out = out + x`` copies the whole
running sum on every pass, so a sum of n terms costs n^2 copies.  Sums
accumulate into one dict instead (``sparse.add_terms``, ``add_into``).
This test fails on ``name = name + ...`` or ``name = name - ...`` inside a
loop in ``src/superinv``, where ``name`` is the leftmost operand of the
right-hand side.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "superinv"

# qualified function name -> why its rebuilt sum stays
ALLOWED = {
    "eta_prime": "its + is the only call of PBWElement.__add__ on the pn-trivial "
    "benchmark workload, whose must_call lists it (ROADMAP item 3)",
}


def _leftmost(node):
    while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        node = node.left
    return node


def _rebuilt_sums():
    """(module, line, qualified function name) of every rebinding sum in a loop."""
    found = []

    def visit(node, module, scope, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                # a nested def starts outside any loop of its own
                visit(child, module, scope + [child.name], False)
                continue
            if (
                in_loop
                and isinstance(child, ast.Assign)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
                and isinstance(child.value, ast.BinOp)
                and isinstance(child.value.op, (ast.Add, ast.Sub))
            ):
                left = _leftmost(child.value)
                if isinstance(left, ast.Name) and left.id == child.targets[0].id:
                    found.append((module, child.lineno, ".".join(scope)))
            visit(child, module, scope, in_loop or isinstance(child, (ast.For, ast.While)))

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, [], False)
    return found


def test_no_loop_rebuilds_a_sum():
    hits = ["%s:%d %s" % hit for hit in _rebuilt_sums() if hit[2] not in ALLOWED]
    assert not hits, "sums rebuilt term by term (accumulate with add_terms): %s" % ", ".join(
        hits
    )


def test_allowlisted_functions_still_rebuild_a_sum():
    # an entry goes once its function accumulates in place, so no entry
    # outlives its reason
    matching = {name for _, _, name in _rebuilt_sums()}
    stale = sorted(set(ALLOWED) - matching)
    assert not stale, "allowlisted but no longer rebuilding a sum: %s" % ", ".join(stale)
