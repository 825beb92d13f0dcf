import json

import pytest

from superinv import brauer
from superinv.cli import main, parse_permutation, parse_shifts, type_label
from superinv.signs import Permutation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_permutation():
    assert parse_permutation("()", 3).is_identity()
    assert parse_permutation("(1 2)", 3) == Permutation((2, 1, 3))
    assert parse_permutation("(2 3)(4 5)", 6) == Permutation.from_cycles(
        [(2, 3), (4, 5)], 6
    )
    assert parse_permutation("[1,3,2]", 3) == Permutation((1, 3, 2))
    # cycles apply rightmost first
    assert parse_permutation("(1 2)(2 3)", 3) == Permutation((2, 3, 1))
    from superinv.cli import UsageError

    with pytest.raises(UsageError):
        parse_permutation("(1 7)", 3)
    with pytest.raises(UsageError):
        parse_permutation("[1,2]", 3)


def test_parse_shifts():
    vals = parse_shifts("1,-2/3", 2)
    assert [str(v.re) for v in vals] == ["1", "-2/3"]
    assert all(v.is_zero() for v in parse_shifts("", 3))


def test_type_label():
    assert type_label((1, 1, 2)) == "1^2 2^1"
    assert type_label((3,)) == "3^1"


def test_invariant_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariant",
        "--family",
        "gl",
        "--m",
        "1",
        "--n",
        "1",
        "--k",
        "2",
        "--perm",
        "(1 2)",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["central"] is True
    assert doc["perm"] == [2, 1]
    assert doc["theta"]["entries"]


def test_invariant_p_zero(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "--family", "p", "--n", "2", "--k", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["z"] == {"terms": []}
    assert doc["z_is_scalar"] is True


def test_invalid_family_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "invariant", "--family", "xx", "--k", "1")
    assert exc.value.code == 2


def test_hc_command(capsys):
    code, out, _ = run_cli(
        capsys, "hc", "--family", "gl", "--m", "1", "--n", "1", "--k", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["poly"] == "1*h1 + 1*h'1"
    assert doc["supersymmetric"] is True
    code, _, err = run_cli(capsys, "hc", "--family", "q", "--n", "2", "--k", "1")
    assert code == 2
    assert "HC unsupported" in err


def test_brauer_command(capsys):
    code, out, _ = run_cli(capsys, "brauer", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["1^3"] == 1 and doc["1^1 2^1"] == 6 and doc["3^1"] == 8
    assert doc["total"] == 15 and doc["matches_formula"] is True


def test_keylemma_command(capsys):
    code, out, _ = run_cli(capsys, "keylemma", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 24
    assert doc["all_sign_products_minus_one"] is True
    assert all(w["sign_product"] == -1 for w in doc["witnesses"])
    code, out, _ = run_cli(capsys, "keylemma", "--k", "4", "--per-type")
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_pn_trivial_command(capsys):
    code, out, _ = run_cli(capsys, "pn-trivial", "--n", "2", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "all_scalar": True,
        "all_zero": True,
        "family": "p",
        "k": 2,
        "n": 2,
        "reps": 3,
    }


def test_relations_command(capsys):
    code, out, _ = run_cli(
        capsys, "relations", "--family", "osp", "--m", "1", "--n", "1", "--k", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_relations_hold"] is True
    assert doc["delta_measured"] == "-1"


def test_sergeev_command(capsys):
    code, out, _ = run_cli(capsys, "sergeev", "--n", "2", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["central"] is True
    assert doc["matches_2^(k-1)_z_cycle"] is True


def test_molev_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "molev",
        "--family",
        "gl",
        "--m",
        "1",
        "--n",
        "1",
        "--k",
        "2",
        "--perm",
        "(1 2)",
        "--u",
        "1,1/2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["central"] is True
    assert doc["shifts"] == ["1", "1/2"]


def test_sweep_command(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--family", "gl", "--m", "1", "--n", "1", "--k", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["rows"]) == 2
    assert "sweep" in err


def test_deterministic_output(capsys):
    args = ["invariant", "--family", "q", "--n", "2", "--k", "2", "--perm", "(1 2)"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code, out, _ = run_cli(
        capsys, "brauer", "--k", "2", "--out", str(target)
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["total"] == 3


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--perm", "[1,1]"),
        ("--perm", "(a b)"),
        ("--perm", '[1,"x"]'),
        ("--perm", "(1 2) junk"),
        ("--perm", "x(1 2)"),
        ("--perm", "(1 2)("),
        ("--u", "1/0,1"),
        ("--u", "x,1"),
    ],
)
def test_malformed_input_exits_2(capsys, flag, value):
    base = ["molev", "--family", "gl", "--m", "1", "--n", "1", "--k", "2"]
    extra = ["--perm", "(1 2)"] if flag == "--u" else []
    code, out, err = run_cli(capsys, *base, *extra, flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_internal_error_exits_3(capsys, monkeypatch):
    def crash(k):
        raise RuntimeError("forced")

    monkeypatch.setattr(brauer, "count_by_type", crash)
    code, out, err = run_cli(capsys, "brauer", "--k", "2")
    assert code == 3 and out == ""
    assert "internal error" in err and "forced" in err


def test_sweep_p_degree_bound_exits_2(capsys):
    code, out, err = run_cli(capsys, "sweep", "--family", "p", "--n", "1", "--k", "5")
    assert code == 2 and out == ""
    assert "--k must be in 1..4" in err


def test_subcommands_reject_flags_they_do_not_read(capsys):
    for argv in (
        ["brauer", "--k", "2", "--perm", "(1 2)"],
        ["keylemma", "--k", "2", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv)
        assert exc.value.code == 2
