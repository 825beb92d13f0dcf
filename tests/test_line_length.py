"""No line of the package or its tests is wider than 96 columns."""

import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MAX_COLUMNS = 96
FILES = sorted((ROOT / "src" / "superinv").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_no_line_over_96_columns(path):
    long = [
        "%s:%d (%d columns)" % (path.name, number, len(line))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert not long, long
