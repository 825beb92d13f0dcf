"""The package stays below its line budget of 3,000 lines.

The open verdicts of ROADMAP.md (the span ranks, the T(g)/S(g) checks and
the invariant counts) are meant to land inside this budget, each at tens
of lines; a change that overruns it fails here rather than unnoticed.
"""

import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "superinv"
MAX_LINES = 3000


def test_package_stays_below_its_line_budget():
    # the count of `wc -l src/superinv/*.py`
    total = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert total < MAX_LINES, "src/superinv/*.py has %d lines" % total
