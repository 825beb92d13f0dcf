import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superinv import brauer, schurweyl
from superinv.cli import (
    COMMANDS,
    FLAGS,
    MAX_DIM,
    MAX_SHIFT_CHARS,
    UsageError,
    _perm_degree,
    admit,
    build_parser,
    main,
    parse_permutation,
    parse_shifts,
    type_label,
)
from superinv.signs import Permutation
from superinv.spaces import FAMILIES, SuperSpace

MAX_RELATION_WORDS = COMMANDS["relations"].words
MOLEV_K_MAX = COMMANDS["molev"].k_max


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_permutation():
    assert parse_permutation("()", 3) == Permutation.identity(3)
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
    for family in (["--family", "xx"], []):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "invariant", *family, "--k", "1")
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
    assert "hc supports --family gl|osp, not q" in err


def test_brauer_command(capsys):
    code, out, _ = run_cli(capsys, "brauer", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["1^3"] == 1 and doc["1^1 2^1"] == 6 and doc["3^1"] == 8
    assert doc["total"] == 15 and doc["matches_formula"] is True


def test_brauer_command_at_its_bound(capsys):
    code, out, _ = run_cli(capsys, "brauer", "--k", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["matches_formula"] is True
    assert doc["total"] == brauer.double_factorial(23)


def test_keylemma_command(capsys):
    code, out, _ = run_cli(capsys, "keylemma", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 24
    assert doc["all_sign_products_minus_one"] is True
    assert all(w["sign_product"] == -1 for w in doc["witnesses"])
    # one witness per cycle type: the partitions of k
    for k, types in (("4", 5), ("5", 7)):
        code, out, _ = run_cli(capsys, "keylemma", "--k", k, "--per-type")
        assert code == 0
        assert json.loads(out)["count"] == types


def test_keylemma_reports_a_failing_witness(capsys, monkeypatch):
    # with no fallback, a reflection of sign product +1 is reported, not replaced
    monkeypatch.setattr(
        brauer, "_circle_reflection", lambda circle, k: Permutation.identity(2 * k)
    )
    code, out, _ = run_cli(capsys, "keylemma", "--k", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_sign_products_minus_one"] is False
    assert all(w["verified"] is False for w in doc["witnesses"])


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


@pytest.mark.parametrize(
    "size",
    ["--family gl --m 1 --n 1", "--family osp --m 3 --n 1",
     "--family q --n 2", "--family p --n 2"],
)
def test_a_false_relation_is_reported_and_exits_1(monkeypatch, capsys, size):
    # s1 = 1 is false on V^(x 2): the swap is not the identity
    names = schurweyl._relation_names
    monkeypatch.setattr(
        schurweyl, "_relation_names", lambda family, k: names(family, k) + ["s1 = 1"]
    )
    code, out, _ = run_cli(capsys, "relations", *size.split(), "--k", "2")
    doc = json.loads(out)
    assert [r["name"] for r in doc["relations"] if not r["holds"]] == ["s1 = 1"]
    assert doc["relations"][-1] == {"name": "s1 = 1", "holds": False}
    assert doc["all_relations_hold"] is False
    assert code == 1


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


# sha256 of stdout on jobs no golden job covers: molev; the relations and
# invariant jobs whose operators invariant_tensor builds for every family;
# sweep on each family, whose rows rerun the commands they repeat; and
# sergeev at an even k, which reports Z_k with no verdicts
STDOUT_PINS = {
    'molev --family gl --m 1 --n 1 --k 2 --perm "(1 2)" --u "1,1/2"':
        "960cce325ac93d79879b479e827ee80f0dcfa3f0baa26cc80b64a5fa97070556",
    'molev --family gl --m 2 --n 1 --k 3 --perm "[2,3,1]" --u "1,-1/2,2"':
        "7abc5412903e65745d50f75fc7671a63c0218d6c939ed7526dff3ca07d173330",
    'molev --family osp --m 1 --n 1 --k 2 --perm "[1,3,2,4]" --u "1,1/2"':
        "980879bccfb57addef03eb03b67a815a01988c20190f1ef60a0b96a167d91826",
    'molev --family osp --m 3 --n 0 --k 2 --perm "[1,4,2,3]" --u "1,1/2"':
        "415b48eeb0dff17ed67342e461376c6fcc25723c412f2bc490fa4cd44cc4353e",
    "relations --family p --n 1 --k 4":
        "21bdfed1eb2d270679ff697c915bbc258b433d11ee005516ccd2d39050524e2f",
    "relations --family osp --m 1 --n 1 --k 4":
        "668d61bc095d70d246ff8768ab46e35413ef5bdfe2fb42aeaa3d20e2699d0115",
    "relations --family osp --m 2 --n 1 --k 3":
        "4b2dd3d3c031866a2442d1dd5c4d94ba646166708acd25cb01b7965a57f0647e",
    "relations --family gl --m 2 --n 1 --k 3":
        "753b9796354777ce4afbb7030050e99aec3c22fc7cd6ee549b589ca814c9d09c",
    "relations --family q --n 1 --k 4":
        "1b28ccb1c61a8b9893d00dedc2b03528a3deae3e41623713b6d6be932725954a",
    'invariant --family q --n 2 --k 3 --perm "[2,3,1]"':
        "d56bd338986ff1affbb348d66f738e95fd11ad5af1891b8fc734edb7d2fd85f0",
    'invariant --family osp --m 1 --n 1 --k 2 --perm "[1,4,2,3]"':
        "3dd0e67724f459640563ecccd0863e0ad65015e731420182615ee15d2877e38a",
    'invariant --family p --n 1 --k 2 --perm "[1,4,2,3]"':
        "15f52ab721bbee0078f8d0a4feda3fa8c5851a7746ef5b84cd73c4b0a9add08e",
    "sweep --family gl --m 1 --n 1 --k 3":
        "53793e65a2aee7a9f1df9a8b76e628803d5e3ebf75008a33588f4b8b6006114f",
    "sweep --family osp --m 1 --n 1 --k 2":
        "e89f59b0376dc7065750a6518b46fc09d6a0d786662a8b66aee7bb7b9ef13f5e",
    "sweep --family q --n 1 --k 2":
        "09ad6ae065c70077cf6eeb253cbf7f2dc8018f491a01e6fb33cebbf05d4bd400",
    "sweep --family p --n 1 --k 3":
        "a4367bea3ad185ec215965f84f5c9a7995268b4451951914e8a6b5b82094f934",
    "sergeev --n 2 --k 4":
        "479bd2292995f6944cbfccdb2bbc1a9589bad321100a3d3c2964b2dd499ee4cc",
}


@pytest.mark.parametrize("job", sorted(STDOUT_PINS))
def test_stdout_is_pinned(capsys, job):
    code, out, _ = run_cli(capsys, *shlex.split(job))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_PINS[job]


def test_sweep_command(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--family", "gl", "--m", "1", "--n", "1", "--k", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["rows"]) == 2
    assert "sweep" in err


def test_sweep_p_rows_repeat_pn_trivial(capsys):
    # row k gates on both verdicts pn-trivial --k k reports
    code, out, _ = run_cli(capsys, "sweep", "--family", "p", "--n", "1", "--k", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["all_scalar"] for row in rows] == [True, True]
    for row in rows:
        _, pn_out, _ = run_cli(capsys, "pn-trivial", "--n", "1", "--k", str(row["k"]))
        pn = json.loads(pn_out)
        assert (row["all_zero"], row["all_scalar"]) == (pn["all_zero"], pn["all_scalar"])
        assert row["element"] == "eta_pi_theta over %d reps" % pn["reps"]


def test_sweep_osp_rows_repeat_hc(capsys):
    # row k gates on the verdicts hc --k 2k reports
    osp11 = ("--family", "osp", "--m", "1", "--n", "1")
    code, out, _ = run_cli(capsys, "sweep", *osp11, "--k", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["k"] for row in rows] == [1, 2]
    verdicts = ("central", "J", "poly")
    for row in rows:
        degree = str(2 * row["k"])
        _, hc_out, _ = run_cli(capsys, "hc", *osp11, "--k", degree)
        hc = json.loads(hc_out)
        assert [row[v] for v in verdicts] == [hc[v] for v in verdicts]
        assert set(row) == {"k", "element", *verdicts}
        assert row["element"] == "str_gelfand(%s)" % degree


def test_sweep_q_rows_repeat_sergeev(capsys):
    # row k gates on the verdicts sergeev --k 2k-1 reports
    code, out, _ = run_cli(capsys, "sweep", "--family", "q", "--n", "1", "--k", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["k"] for row in rows] == [1, 2]
    verdicts = ("central", "matches_2^(k-1)_z_cycle")
    for row in rows:
        degree = str(2 * row["k"] - 1)
        _, sergeev_out, _ = run_cli(capsys, "sergeev", "--n", "1", "--k", degree)
        sergeev = json.loads(sergeev_out)
        assert [row[v] for v in verdicts] == [sergeev[v] for v in verdicts]
        assert set(row) == {"k", "element", *verdicts}
        assert row["element"] == "sergeev_Z(%s)" % degree


@pytest.mark.parametrize("job", [
    "sweep --family gl --m 1 --n 1 --k 2",
    "sweep --family osp --m 1 --n 1 --k 1",
    "sweep --family q --n 1 --k 2",
    "hc --family gl --m 1 --n 1 --k 2",
    "sergeev --n 1 --k 3",
])
def test_a_non_central_element_fails_its_command_and_sweep_rows(capsys, monkeypatch, job):
    monkeypatch.setattr("superinv.cli.is_central", lambda u: False)
    code, out, _ = run_cli(capsys, *job.split())
    assert code == 1
    doc = json.loads(out)
    if job.startswith("sweep"):
        assert doc["all_pass"] is False
        assert [row["central"] for row in doc["rows"]] == [False] * len(doc["rows"])
    else:
        assert doc["central"] is False


@pytest.mark.parametrize("job", ["pn-trivial --n 2 --k 3", "sweep --family p --n 2 --k 3"])
def test_a_nonzero_projection_fails_pn_trivial_and_its_sweep_rows(capsys, monkeypatch, job):
    # at p(1), k = 3 every projection is already zero, so p(2) shows the failure
    monkeypatch.setattr("superinv.cli.eta", lambda pt: pt)
    code, out, _ = run_cli(capsys, *job.split())
    assert code == 1
    doc = json.loads(out)
    if job.startswith("sweep"):
        assert doc["all_pass"] is False
        assert doc["rows"][-1]["all_zero"] is False
    else:
        assert doc["all_zero"] is False


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
        # past the int digit limit, and nested past the recursion limit
        pytest.param("--perm", "[1, %s]" % ("9" * 4301), id="--perm-4301-digits"),
        pytest.param("--perm", "[" * 50000, id="--perm-50000-brackets"),
        ("--u", "1/0,1"),
        ("--u", "x,1"),
        # exponents and long shifts stop before Fraction parses them
        ("--u", "1e1000000,1"),
        ("--u", "9" * 101 + ",1"),
    ],
)
def test_malformed_input_exits_2(capsys, flag, value):
    base = ["molev", "--family", "gl", "--m", "1", "--n", "1", "--k", "2"]
    extra = ["--perm", "(1 2)"] if flag == "--u" else []
    code, out, err = run_cli(capsys, *base, *extra, flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    if flag == "--u" and ("e" in value or len(value) > MAX_SHIFT_CHARS):
        assert "at most %d characters" % MAX_SHIFT_CHARS in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def crash(k):
        raise RuntimeError("forced")

    monkeypatch.setattr(brauer, "count_by_type", crash)
    code, out, err = run_cli(capsys, "brauer", "--k", "2")
    assert code == 3 and out == ""
    assert "internal error" in err and "forced" in err


@pytest.mark.parametrize("target", ["dir", "missing"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    out_path = tmp_path if target == "dir" else tmp_path / "missing" / "doc.json"
    code, out, err = run_cli(capsys, "brauer", "--k", "2", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and "Traceback" not in err


def test_sweep_p_degree_bound_exits_2(capsys):
    code, out, err = run_cli(capsys, "sweep", "--family", "p", "--n", "1", "--k", "5")
    assert code == 2 and out == ""
    assert "--k must be in 1..4" in err


def test_relations_word_bound_exits_2(capsys):
    # 4^6 = 4096 basis words of V^(x 6) for q(2)
    code, out, err = run_cli(capsys, "relations", "--family", "q", "--n", "2", "--k", "6")
    assert code == 2 and out == ""
    assert "max(dim V, 2)^k <= %d, got 4^6 (dim V = 4, k = 6)" % MAX_RELATION_WORDS in err


def test_relations_word_bound_message_names_the_applied_bound(capsys):
    # gl(1|0) has dim(V) = 1, so dim(V)^k = 1; it is bounded as if dim(V)
    # were 2 (2^12 = 4096), and the message says so
    code, out, err = run_cli(
        capsys, "relations", "--family", "gl", "--m", "1", "--n", "0", "--k", "12"
    )
    assert code == 2 and out == ""
    assert "max(dim V, 2)^k <= %d, got 2^12 (dim V = 1, k = 12)" % MAX_RELATION_WORDS in err


def test_molev_degree_bound_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "molev", "--family", "gl", "--m", "1", "--n", "1", "--k", str(MOLEV_K_MAX + 1)
    )
    assert code == 2 and out == ""
    assert "--k must be in 1..%d" % MOLEV_K_MAX in err


def test_subcommands_reject_flags_they_do_not_read(capsys):
    for argv in (
        ["brauer", "--k", "2", "--perm", "(1 2)"],
        ["keylemma", "--k", "2", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv)
        assert exc.value.code == 2


def test_closed_stdout_exits_quietly():
    # keylemma --k 3 prints ~300 kB, more than a pipe holds, so the write
    # meets the closed pipe
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "superinv.cli", "keylemma", "--k", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0
    for marker in ("Traceback", "BrokenPipeError", "Exception ignored"):
        assert marker not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2():
    # every write to /dev/full fails with ENOSPC: stdout is then treated like
    # an unwritable --out
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "superinv.cli", "brauer", "--k", "2"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
            text=True,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    for marker in ("Traceback", "Exception ignored"):
        assert marker not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stderr_keeps_stdout_and_exit_code():
    # progress and error lines are best-effort: with every stderr write
    # failing, keylemma --k 3 (which reports progress) still prints its golden
    # document and exits 0, and a usage error still exits 2
    src = pathlib.Path(__file__).resolve().parent.parent / "src"

    def run(argv):
        with open("/dev/full", "w") as full:
            return subprocess.run(
                [sys.executable, "-m", "superinv.cli", *argv.split()],
                stdout=subprocess.PIPE,
                stderr=full,
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0"),
            )

    proc = run("keylemma --k 3")
    assert proc.returncode == GOLDEN["keylemma --k 3"]["exit"] == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN["keylemma --k 3"]["sha256"]
    proc = run("relations --family gl --m 1 --k 1")
    assert proc.returncode == 2 and proc.stdout == b""


class _FullStream:
    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


def test_unwritable_stderr_keeps_internal_error_exit_3(capsys, monkeypatch):
    def crash(k):
        raise RuntimeError("forced")

    monkeypatch.setattr(brauer, "count_by_type", crash)
    monkeypatch.setattr(sys, "stderr", _FullStream())
    assert main(["brauer", "--k", "2"]) == 3
    assert capsys.readouterr().out == ""


# One argv just past each bound of the COMMANDS table, and the words of the
# message naming that bound.  Admission rejects these before any algebra is
# built, so none of them does the work.
PAST_BOUNDS = [
    ("invariant --family gl --m 1 --n 1 --k 0", "invariant: --k must be >= 1"),
    (
        "invariant --family gl --m 1 --n 1 --k 13",
        "invariant needs max(dim V, 2)^k <= 4096, got 2^13",
    ),
    (
        "invariant --family gl --m 4 --n 4 --k 5",
        "invariant needs max(dim V, 2)^k <= 4096, got 8^5",
    ),
    ("invariant --family gl --m 9 --n 8 --k 1", "invariant needs dim V <= 16, got 17"),
    # rejected before a SuperSpace allocates one entry per index
    (
        "invariant --family gl --m 1000000000 --n 0 --k 1",
        "invariant needs dim V <= 16, got 1000000000",
    ),
    ("invariant --family p --m 3 --n 1 --k 1", "family p requires m = 0, got 3"),
    ("hc --family gl --m 1 --n 1 --k 0", "hc: --k must be >= 1"),
    ("hc --family gl --m 3 --n 3 --k 7", "hc needs max(dim V, 2)^k <= 46656, got 6^7"),
    (
        "hc --family gl --m 1 --n 1 --k 1000000000",
        "hc needs max(dim V, 2)^k <= 46656, got 2^1000000000",
    ),
    ("hc --family osp --m 9 --n 4 --k 1", "hc needs dim V <= 16, got 17"),
    ("hc --family p --n 2 --k 1", "hc supports --family gl|osp, not p"),
    ("keylemma --k 0", "keylemma: --k must be in 1..3"),
    ("keylemma --k 4", "keylemma: --k must be in 1..3"),
    ("keylemma --k 8 --per-type", "keylemma --per-type: --k must be in 1..7"),
    ("brauer --k 0", "brauer: --k must be in 1..12"),
    ("brauer --k 13", "brauer: --k must be in 1..12"),
    ("pn-trivial --n 2 --k 5", "pn-trivial: --k must be in 1..4"),
    ("pn-trivial --n 0 --k 1", "family p requires n >= 1"),
    ("pn-trivial --n 5 --k 4", "pn-trivial needs max(dim V, 2)^k <= 4096, got 10^4"),
    ("pn-trivial --n 9 --k 1", "pn-trivial needs dim V <= 16, got 18"),
    ("relations --family gl --m 1 --n 1 --k 1", "relations: --k must be >= 2"),
    ("relations --family q --n 2 --k 6", "relations needs max(dim V, 2)^k <= 2401, got 4^6"),
    ("relations --family p --n 9 --k 2", "relations needs dim V <= 16, got 18"),
    ("relations --family q --m 5 --n 1 --k 2", "family q requires m = 0, got 5"),
    ("sweep --family gl --m 1 --n 1 --k 0", "sweep: --k must be >= 1"),
    (
        "sweep --family gl --m 3 --n 3 --k 7",
        "sweep --k 7 (hc --k 7) needs max(dim V, 2)^k <= 46656",
    ),
    (
        "sweep --family osp --m 3 --n 1 --k 4",
        "sweep --k 4 (hc --k 8) needs max(dim V, 2)^k <= 46656",
    ),
    ("sweep --family q --n 3 --k 5", "sweep --k 5 (sergeev --k 9): --k must be in 1..7"),
    ("sweep --family q --n 2 --k 5", "sweep --k 5 (sergeev --k 9): --k must be in 1..7"),
    ("sweep --family p --n 1 --k 5", "sweep --k 5 (pn-trivial --k 5): --k must be in 1..4"),
    (
        "sweep --family p --n 5 --k 4",
        "sweep --k 4 (pn-trivial --k 4) needs max(dim V, 2)^k <= 4096",
    ),
    ("sweep --family gl --m 17 --n 0 --k 1", "sweep needs dim V <= 16, got 17"),
    ("sergeev --n 2 --k 0", "sergeev: --k must be in 1..7"),
    ("sergeev --n 0 --k 1", "family q requires n >= 1"),
    ("sergeev --n 3 --k 8", "sergeev: --k must be in 1..7"),
    ("sergeev --n 2 --k 9", "sergeev: --k must be in 1..7"),
    ("sergeev --n 4 --k 7", "sergeev needs max(dim V, 2)^k <= 279936, got 8^7"),
    ("sergeev --n 9 --k 1", "sergeev needs dim V <= 16, got 18"),
    ("molev --family gl --m 1 --n 1 --k 9", "molev: --k must be in 1..8"),
    ("molev --family gl --m 2 --n 2 --k 5", "molev needs max(dim V, 2)^k <= 256, got 4^5"),
    ("molev --family osp --m 9 --n 4 --k 1", "molev needs dim V <= 16, got 17"),
    ("molev --family q --n 1 --k 1", "molev supports --family gl|osp, not q"),
]


@pytest.mark.parametrize("argv, message", PAST_BOUNDS)
def test_past_a_bound_exits_2(capsys, monkeypatch, argv, message):
    def no_build(*args):
        raise AssertionError("built an algebra past a bound")

    monkeypatch.setattr("superinv.cli.build_algebra", no_build)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_every_bounded_command_has_a_case_past_its_bound():
    # every row of COMMANDS, and sweep with each family
    labels = {
        argv.split()[0] + (" --per-type" if "--per-type" in argv else "")
        for argv, _ in PAST_BOUNDS
    }
    assert labels == set(COMMANDS)
    swept = {argv.split()[2] for argv, _ in PAST_BOUNDS if argv.startswith("sweep ")}
    assert swept == {"gl", "osp", "q", "p"}


GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)
# the scale ladder of ROADMAP.md's Baseline: each row and the sha256 of its
# stdout; too slow for tier-1, so .github/workflows/ladder.yml checks the pins
LADDER = {
    "hc --family gl --m 3 --n 2 --k 5":
        "08b0c201653e4e917a21167b602dafdaabcebea4000ce57da6ba8a61e6018d08",
    "hc --family gl --m 3 --n 3 --k 4":
        "69529842a7a1a81fd75b55ba8d304f74e9c278c367a281649df34acfab9d0ace",
    "hc --family gl --m 3 --n 3 --k 5":
        "b0396ebeba08cc5783502831d5214239517855fab5341af281ec13f5e97f7968",
    "hc --family gl --m 3 --n 3 --k 6":
        "005a4b60d0f38f47dab389d8c41f34c0df27365ae43d21b4a230874327762d59",
    "sergeev --n 3 --k 5":
        "17cd5f3056bff7ee3756173052abd8e07ba96e6209163cc0dec39e614c43bfbb",
    "sergeev --n 3 --k 7":
        "b02b14ce194e32ccf3ac604c753ecb0eefe15e152358138ee7aea1c2a7ffc566",
    "relations --family osp --m 3 --n 1 --k 4":
        "d4dcef85c1f7f3f146f86f6ed55660aac8f44dd5656708c3646250eb037167c2",
    "pn-trivial --n 3 --k 4":
        "36370a65327d83d372391997daf8d95be18d2e1b62e084b885dfc3fc5655069f",
    "brauer --k 8":
        "4ccc2c8ab99818e444ab84213c8fcc8502c3ff77a4616af104aec48bac3ba997",
}


@pytest.mark.parametrize("job", sorted(GOLDEN) + list(LADDER))
def test_benchmark_and_ladder_jobs_are_admitted(job):
    admit(build_parser().parse_args(job.split()))


README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
QUICK_START = re.search(r"## Quick start\n\n```sh\n(.*?)```", README, re.S).group(1)


@pytest.mark.parametrize(
    "line", [l for l in QUICK_START.splitlines() if l.startswith("superinv ")]
)
def test_readme_quick_start_runs(capsys, line):
    code, out, _ = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0 and json.loads(out)


def test_readme_bound_table_matches_commands():
    rows = re.findall(r"^\| `([a-z-]+)` \|[^|]*\|[^|]*\|([^|]*)\|([^|]*)\|$", README, re.M)
    assert sorted(name for name, _, _ in rows) == sorted(c for c in COMMANDS if " " not in c)
    for name, k, words in rows:
        cmd = COMMANDS[name]
        bound = ">= %d" % cmd.k_min if cmd.k_max is None else "%d..%d" % (cmd.k_min, cmd.k_max)
        assert k.strip().startswith("`%s`" % bound)
        assert words.split()[:1] == ([str(cmd.words)] if cmd.words else [])
    assert "`--per-type` `1..%d`" % COMMANDS["keylemma --per-type"].k_max in README
    assert "`dim V <= %d`" % MAX_DIM in README


# -- the exit-code contract as one property over argv --------------------------

# every k bound of COMMANDS and one past it, and for each words bound the
# last k that a two-dimensional V fits and the first that it does not
K_EDGES = sorted(
    {k for cmd in COMMANDS.values() for k in (cmd.k_min - 1, cmd.k_min)}
    | {k for cmd in COMMANDS.values() if cmd.k_max for k in (cmd.k_max, cmd.k_max + 1)}
    | {k for cmd in COMMANDS.values() if cmd.words
       for k in (cmd.words.bit_length() - 1, cmd.words.bit_length())}
)
# fullwidth and Arabic-Indic two, which int() reads as 2
UNICODE_INTS = ["２", "٢"]
# m and n reach dim V = MAX_DIM and one past it in every family
SIZES = st.sampled_from(["0", "1", "2"]) | st.sampled_from(
    ["3", "8", "9", "16", "17"] + UNICODE_INTS
)
WELL_FORMED = {
    "--family": st.sampled_from(FAMILIES),
    "--m": SIZES,
    "--n": SIZES,
    "--k": st.sampled_from(["1", "2", "3"])
    | st.sampled_from([str(k) for k in K_EDGES] + UNICODE_INTS),
    "--perm": st.sampled_from(
        ["()", "(1 2)", "(1 2)(3 4)", "[1]", "[2,1]", "[2,3,1]", "[1,3,2,4]", "[2,1,4,3]",
         "(１ ２)", "(٢ ١)"]
    ),
    "--u": st.sampled_from(["", "1", "1/3", "1,1/2", "١,2", "-1/2,2", "1,-1/2,2"]),
}
# negatives, past the int digit limit, an exponent, a float, hexadecimal, empty
BAD_INTS = st.sampled_from(["-1", "-7", "9" * 5000, "1e3", "2.0", "0x2", ""])
MALFORMED = {
    "--family": st.sampled_from(["sp", "GL", ""]),
    "--m": BAD_INTS,
    "--n": BAD_INTS,
    "--k": BAD_INTS,
    # nested and unbalanced brackets, out-of-range points, huge entries
    "--perm": st.sampled_from(
        ["[[1],2]", "[1,[2,[3,[4]]]]", "[" * 50, "]", "((1 2)", "(1 2", "(1 2))", "[1,2",
         "[-1,2]", "(0 1)", "(1 -2)", "[2,1e3]", "[%s]" % ("9" * 5000), "(1 %s)" % ("9" * 5000)]
    ),
    "--u": st.sampled_from(
        ["1e3,1", "1E-3,1", "1/0,1", "9" * 5000 + ",1", "x,1", "1,,2", "(1),2", "1,2,3"]
    ),
}


@st.composite
def argvs(draw):
    """A subcommand with most of its own flags, now and then one it does not
    read, and now and then one malformed value."""
    name = draw(st.sampled_from([c for c in COMMANDS if " " not in c]))
    flags = [f for f in COMMANDS[name].flags if draw(st.integers(0, 7))]
    if not draw(st.integers(0, 9)):
        flags.append(draw(st.sampled_from(sorted(set(FLAGS) - {"--out"}))))
    bad = draw(st.sampled_from([None] + flags))
    argv = [name]
    for flag in flags:
        if flag == "--per-type":
            argv.append(flag)
        else:
            argv += [flag, draw((MALFORMED if flag == bad else WELL_FORMED)[flag])]
    return argv


def _texts_parse(args, space):
    """Whether the --perm and --u texts, which admit does not read, parse;
    a text that does not parse raises UsageError and nothing else."""
    try:
        if getattr(args, "perm", None) is not None:
            parse_permutation(args.perm, _perm_degree(space, args.k))
        if getattr(args, "u", None) is not None:
            parse_shifts(args.u, args.k)
    except UsageError:
        return False
    return True


def _check_exit_code_contract(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    try:
        space = admit(args)
    except UsageError:
        return
    assert space is None or isinstance(space, SuperSpace)
    parses = _texts_parse(args, space)
    if space is None and args.k > 3:
        return
    if space is not None and (args.k > 2 or max(space.dim, 2) ** args.k > 16):
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "internal error" not in err.getvalue()
    if parses:
        assert code in (0, 1) and json.loads(out.getvalue())
    else:
        assert code == 2 and out.getvalue() == ""


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_exit_code_contract(argv):
    _check_exit_code_contract(argv)


# each subcommand runs at least once on a small admitted argv, and each
# text that admit does not read fails once to parse
@pytest.mark.parametrize("line", [
    "invariant --family osp --m 1 --n 1 --k 1 --perm '(1 2)'",
    "invariant --family gl --m 1 --n 1 --k 2 --perm [1,2",
    "hc --family gl --m 1 --n 1 --k 2",
    "keylemma --k 3 --per-type",
    "brauer --k 3",
    "pn-trivial --n 1 --k 2",
    "relations --family q --n 1 --k 2",
    "sweep --family p --n 2 --k 2",
    "sergeev --n 2 --k 1",
    "molev --family gl --m 1 --n 1 --k 2 --perm [2,1] --u ١,2",
    "molev --family osp --m 1 --n 1 --k 1 --perm [2,1] --u 1e3",
])
def test_exit_code_contract_on_small_runs(line):
    _check_exit_code_contract(shlex.split(line))


def test_unicode_digits_are_accepted(capsys):
    # int() and Fraction read every Unicode decimal digit: these run as (1 2) and 1,2
    base = ["molev", "--family", "gl", "--m", "1", "--n", "1", "--k", "2"]
    plain = run_cli(capsys, *base, "--perm", "(1 2)", "--u", "1,2")
    wide = run_cli(capsys, *base, "--perm", "(１ ２)", "--u", "١,2")
    assert plain[0] == 0 and wide == plain
