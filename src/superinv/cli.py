"""Batch command line interface.

Each command takes only the flags it reads (see COMMANDS), of which the
sizes are --family/--m/--n/--k; ``admit`` checks them against the command's
row of COMMANDS, which holds every family, degree and size bound, before it
runs.  It writes one JSON document to stdout (or --out), and streams
progress for long sweeps to stderr.  Output is byte-deterministic for a
fixed configuration: keys are sorted and all scalars are canonical exact
rationals.  Each handler returns its document and whether its verdicts
hold, and each sweep row reruns the handler of the command it repeats
(SWEEP_ROWS), so a verdict is computed in one place.

Exit codes, set by ``main`` alone: 0 success; 1 a verified property failed
(a theorem check came back false); 2 usage error; 3 internal error.  A
reader that closes stdout early ends the run quietly with the command's
own code.

Permutations are accepted in cycle notation "(2 3)(4 5)" (cycles applied
rightmost first) or one-line form "[1,3,2,5,4,6]" (1-based images).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import brauer as br
from .algebras import build_algebra
from .enveloping import (
    eta_prime,
    harish_chandra_image,
    is_central,
    is_J_poly,
    is_supersymmetric,
    zeta_project,
)
from .scalars import Scalar
from .signs import Permutation, symmetric_group
from .schurweyl import (
    check_duality_relations,
    invariant_tensor,
    molev_element,
    sergeev_Z,
    str_gelfand,
    z_sigma,
)
from .spaces import FAMILIES, SuperSpace, dimension
from .tensoralg import eta, project_tensor

# building an algebra tabulates dim(g)^2 ~ dim(V)^4 brackets
MAX_DIM = 16
# a product of molev's at most 8 such shifts stays far below Python's
# 4300-digit limit on printing an integer, and Fraction never sees a huge
# exponent
MAX_SHIFT_CHARS = 100


class UsageError(Exception):
    pass


def parse_permutation(text: str, size: int) -> Permutation:
    text = text.strip()
    if not text or text == "()":
        return Permutation.identity(size)
    if text.startswith("["):
        try:
            images = json.loads(text)
        # an entry past the int digit limit raises a plain ValueError, and
        # deep nesting a RecursionError
        except (ValueError, RecursionError) as exc:
            raise UsageError("bad one-line permutation: %s" % exc) from None
        if any(type(p) is not int for p in images):
            raise UsageError("one-line permutation entries must be integers: %r" % text)
        if len(images) != size:
            raise UsageError(
                "one-line permutation has %d entries, expected %d"
                % (len(images), size)
            )
        try:
            return Permutation(images)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if not re.fullmatch(r"(\s*\([^()]*\))+\s*", text):
        raise UsageError("cannot parse permutation %r" % text)
    cycles = re.findall(r"\(([^()]*)\)", text)
    parsed = []
    for cyc in cycles:
        try:
            points = [int(p) for p in re.split(r"[,\s]+", cyc.strip()) if p]
        except ValueError:
            raise UsageError("cycle points must be integers in %r" % text) from None
        if not points:
            continue
        if any(p < 1 or p > size for p in points):
            raise UsageError("cycle point out of range 1..%d in %r" % (size, text))
        if len(set(points)) != len(points):
            raise UsageError("repeated point in cycle %r" % cyc)
        parsed.append(points)
    return Permutation.from_cycles(parsed, size)


def parse_shifts(text: str, k: int):
    if not text:
        return [Scalar(0)] * k
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != k:
        raise UsageError("expected %d shift values, got %d" % (k, len(parts)))
    if any(len(p) > MAX_SHIFT_CHARS or "e" in p.lower() for p in parts):
        raise UsageError("shifts take at most %d characters each, with no exponent"
                         % MAX_SHIFT_CHARS)
    try:
        return [Scalar(Fraction(p)) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise UsageError("shifts must be rationals such as 1 or -2/3: %r" % text) from None


def type_label(type_vector) -> str:
    counts = Counter(type_vector)
    return " ".join("%d^%d" % (l, counts[l]) for l in sorted(counts))


def _perm_degree(alg, k):
    return 2 * k if alg.family in ("osp", "p") else k


def cmd_invariant(args, alg) -> tuple[dict, bool]:
    k = args.k
    sigma = parse_permutation(args.perm, _perm_degree(alg, k))
    theta = invariant_tensor(alg, sigma)
    z = z_sigma(alg, sigma)
    central = is_central(z)
    doc = {
        "family": alg.family,
        "m": alg.m,
        "n": alg.n,
        "k": k,
        "perm": sigma.to_json(),
        "theta": theta.to_json(),
        "z": z.to_json(),
        "central": central,
        "z_is_scalar": z.is_scalar(),
    }
    return doc, central


def cmd_hc(args, alg) -> tuple[dict, bool]:
    """Str X^k must be central, and its image supersymmetric for gl or in J for osp."""
    k = args.k
    u = str_gelfand(alg, k)
    image = harish_chandra_image(u)
    if alg.family == "gl":
        name, holds = "supersymmetric", is_supersymmetric(image, alg.m, alg.n)
    else:
        name, holds = "J", is_J_poly(image, alg.m // 2, alg.n)
    central = is_central(u)
    doc = {
        "family": alg.family,
        "m": alg.m,
        "n": alg.n,
        "k": k,
        "element": "str_gelfand",
        "image": image.to_json(),
        "unshifted": zeta_project(u).to_json(),
        "central": central,
        "poly": image.render(),
        name: holds,
    }
    return doc, central and holds


def cmd_keylemma(args, alg) -> tuple[dict, bool]:
    k = args.k
    if args.per_type:
        # the first representative of each type
        first = {}
        for sig in br.coset_reps(k):
            first.setdefault(br.closure_type(sig).type_vector, sig)
        sigmas = list(first.values())
    else:
        sigmas = list(symmetric_group(2 * k))

    def work(sig):
        w = br.key_lemma_witness(sig)
        return {"sigma": sig.to_json(), **w.to_json(), "verified": br.witness_holds(sig, w)}

    witnesses = _map_with_progress(work, sigmas, "keylemma")
    all_ok = all(w["verified"] for w in witnesses)
    doc = {
        "k": k,
        "count": len(witnesses),
        "all_sign_products_minus_one": all_ok,
        "witnesses": witnesses,
    }
    return doc, all_ok


def cmd_brauer(args, alg) -> tuple[dict, bool]:
    k = args.k
    res = br.count_by_type(k)
    doc = {}
    ok = True
    for t in sorted(res["counts"]):
        label = type_label(t)
        doc[label] = res["counts"][t]
        ok = ok and res["counts"][t] == br.type_count_formula(k, t)
    doc["total"] = res["total"]
    ok = ok and res["total"] == br.double_factorial(2 * k - 1)
    doc["matches_formula"] = ok
    if k <= 4:
        sizes = br.double_coset_sizes(k)
        dc_ok = all(
            sizes[t] == br.double_coset_size_formula(k, t) for t in sizes
        )
        doc["double_coset_sizes"] = {type_label(t): sizes[t] for t in sorted(sizes)}
        doc["double_cosets_match_formula"] = dc_ok
        ok = ok and dc_ok
    return doc, ok


def cmd_pn_trivial(args, alg) -> tuple[dict, bool]:
    """Every eta pi theta over the coset representatives of degree k must
    vanish in S(g), and every eta' pi theta be a scalar in U(g)."""
    reps = br.coset_reps(args.k)

    def work(sig):
        pt = project_tensor(alg, invariant_tensor(alg, sig))
        return eta(pt).is_zero(), eta_prime(pt).is_scalar()

    rows = _map_with_progress(work, reps, "pn-trivial")
    doc = {"family": "p", "n": args.n, "k": args.k, "reps": len(reps),
           "all_zero": all(z for z, _ in rows), "all_scalar": all(s for _, s in rows)}
    return doc, doc["all_zero"] and doc["all_scalar"]


def cmd_relations(args, alg) -> tuple[dict, bool]:
    report = check_duality_relations(alg, args.k)
    return report, report["all_relations_hold"] and report["supercommutes_with_action"]


# sweep's row k repeats this command at --k degree(k), labels its element
# from the command's document, and keeps these fields of it, by family
SWEEP_ROWS = {
    "gl": ("hc", lambda k: k, "str_gelfand(%(k)d)", ("central", "poly", "supersymmetric")),
    "osp": ("hc", lambda k: 2 * k, "str_gelfand(%(k)d)", ("central", "poly", "J")),
    "q": ("sergeev", lambda k: 2 * k - 1, "sergeev_Z(%(k)d)",
          ("central", "matches_2^(k-1)_z_cycle")),
    "p": ("pn-trivial", lambda k: k, "eta_pi_theta over %(reps)d reps",
          ("all_zero", "all_scalar")),
}


def cmd_sweep(args, alg) -> tuple[dict, bool]:
    kmax = args.k
    command, degree, element, fields = SWEEP_ROWS[alg.family]
    rows = []
    all_pass = True
    for k in range(1, kmax + 1):
        _stderr("sweep: degree %d/%d" % (k, kmax))
        row_args = argparse.Namespace(**{**vars(args), "k": degree(k)})
        row, ok = COMMANDS[command].handler(row_args, alg)
        rows.append({"k": k, "element": element % row, **{f: row[f] for f in fields}})
        all_pass = all_pass and ok
    doc = {
        "family": alg.family,
        "m": alg.m,
        "n": alg.n,
        "max_k": kmax,
        "rows": rows,
        "all_pass": all_pass,
    }
    return doc, all_pass


def cmd_sergeev(args, alg) -> tuple[dict, bool]:
    """Z_k for odd k must be central and equal 2^(k-1) z_sigma of the k-cycle."""
    k = args.k
    z = sergeev_Z(alg, k)
    doc = {"family": "q", "n": args.n, "k": k, "Z": z.to_json()}
    if k % 2 == 0:
        return doc, True
    cycle = Permutation(tuple(range(2, k + 1)) + (1,))
    central = is_central(z)
    matches = z == z_sigma(alg, cycle).scale(Scalar(2 ** (k - 1)))
    doc.update({"central": central, "matches_2^(k-1)_z_cycle": matches})
    return doc, central and matches


def cmd_molev(args, alg) -> tuple[dict, bool]:
    k = args.k
    sigma = parse_permutation(args.perm, _perm_degree(alg, k))
    s = invariant_tensor(alg, sigma)
    shifts = parse_shifts(args.u, s.k)
    elem = molev_element(alg, s, shifts)
    central = is_central(elem)
    doc = {
        "family": alg.family,
        "m": alg.m,
        "n": alg.n,
        "k": k,
        "perm": sigma.to_json(),
        "shifts": [str(x.re) for x in shifts],
        "element": elem.to_json(),
        "central": central,
    }
    return doc, central


def _stderr(line):
    """Print one line to stderr, if it can be written: a failed write there
    leaves the command's stdout and exit code as they are."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _map_with_progress(fn, items, label):
    out = []
    for i, item in enumerate(items):
        if len(items) > 100 and i % 100 == 0:
            _stderr("%s: %d/%d" % (label, i, len(items)))
        out.append(fn(item))
    return out


class Command(NamedTuple):
    """A subcommand: what runs, and the bounds ``admit`` checks before it."""

    handler: Callable
    help: str
    flags: tuple  # the flags it reads besides --out
    families: tuple = ()  # the algebras it may build; () builds none
    k_min: int = 1
    k_max: Optional[int] = None
    # most basis words max(dim V, 2)^k of V^(x k), a one-dimensional V
    # counted as two-dimensional: every algebra command's work grows with it
    words: Optional[int] = None


_SIZES = ("--family", "--m", "--n", "--k")

COMMANDS = {
    "invariant": Command(
        cmd_invariant, "the invariant tensor theta and central element z of a permutation",
        _SIZES + ("--perm",), FAMILIES, words=4096),
    "hc": Command(
        cmd_hc, "Harish-Chandra image of Str X^k with predicate verdicts (gl, osp)",
        _SIZES, ("gl", "osp"), words=6**6),
    "keylemma": Command(
        cmd_keylemma, "sign witnesses for every permutation of S_2k",
        ("--k", "--per-type"), k_max=3),
    "brauer": Command(
        cmd_brauer, "diagram type counts, totals and double-coset sizes",
        ("--k",), k_max=br.MAX_COUNT_K),
    # coset_reps(k) enumerates (2k-1)!! representatives
    "pn-trivial": Command(
        cmd_pn_trivial, "verify every degree-k invariant of S(p_n) vanishes",
        ("--n", "--k"), ("p",), k_max=4, words=4096),
    # the time to check operators on the words grows faster than their count
    "relations": Command(
        cmd_relations, "centralizer algebra relations as operator identities",
        _SIZES, FAMILIES, k_min=2, words=7**4),
    # each row k is also bounded as the command it repeats (SWEEP_ROWS)
    "sweep": Command(
        cmd_sweep, "centrality + Harish-Chandra grid over degrees 1..k",
        _SIZES, FAMILIES),
    # the words bound alone admits q(2) at k = 9, which ran past 120 s on a 2-core host
    "sergeev": Command(
        cmd_sergeev, "Sergeev's q(n) trace element Z_k and its identities",
        ("--n", "--k"), ("q",), k_max=7, words=6**7),
    # the molev element's cost grows steeply with k
    "molev": Command(
        cmd_molev, "shifted-trace central element built from an invariant tensor",
        _SIZES + ("--perm", "--u"), ("gl", "osp"), k_max=8, words=256),
}
# --per-type walks the (2k-1)!! coset representatives with no tensor work:
# 135,135 at k = 7 take a few seconds, 2,027,025 at k = 8 are too many
COMMANDS["keylemma --per-type"] = COMMANDS["keylemma"]._replace(k_max=7)


def _check(label, cmd, k, space):
    if k < cmd.k_min or k > (cmd.k_max or k):
        bound = "in %d..%d" % (cmd.k_min, cmd.k_max) if cmd.k_max else ">= %d" % cmd.k_min
        raise UsageError("%s: --k must be %s" % (label, bound))
    if cmd.words is None:
        return
    # base >= 2 gives base^k > k, so capping k decides alike
    base = max(space.dim, 2)
    if base ** min(k, cmd.words) > cmd.words:
        raise UsageError(
            "%s needs max(dim V, 2)^k <= %d, got %d^%d (dim V = %d, k = %d)"
            % (label, cmd.words, base, k, space.dim, k)
        )


def admit(args) -> Optional[SuperSpace]:
    """Check args against its command's row of COMMANDS, before any build;
    return the space V of the algebra the command builds, or None."""
    label = args.command + (" --per-type" if getattr(args, "per_type", False) else "")
    cmd = COMMANDS[label]
    space = None
    if cmd.families:
        family = getattr(args, "family", cmd.families[0])
        if family not in cmd.families:
            families = "|".join(cmd.families)
            raise UsageError("%s supports --family %s, not %s" % (label, families, family))
        try:
            dim = dimension(family, getattr(args, "m", 0), args.n)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if dim > MAX_DIM:
            raise UsageError("%s needs dim V <= %d, got %d" % (label, MAX_DIM, dim))
        space = SuperSpace(family, getattr(args, "m", 0), args.n)
    _check(label, cmd, args.k, space)
    if label == "sweep":
        row, degree = SWEEP_ROWS[space.family][:2]
        deg = degree(args.k)
        _check("sweep --k %d (%s --k %d)" % (args.k, row, deg), COMMANDS[row], deg, space)
    return space


FLAGS = {
    "--family": dict(choices=FAMILIES, required=True),
    "--m": dict(type=int, default=0),
    "--n": dict(type=int, default=0),
    "--k": dict(type=int, default=1),
    "--perm": dict(
        default="()",
        help='cycle notation "(2 3)(4 5)", rightmost cycle applied first, '
        'or one-line "[1,3,2]"',
    ),
    "--u": dict(default="", help="comma-separated rational shifts"),
    "--per-type": dict(
        action="store_true",
        help="one witness per diagram type instead of all of S_2k",
    ),
    "--out": dict(default=None, help="write the JSON document here"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superinv",
        description="Exact invariants of the classical Lie superalgebras "
        "gl(m|n), osp(m|2n), q(n), p(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        if " " in name:  # a flag's own bounds, not a subcommand
            continue
        p = sub.add_parser(name, help=cmd.help, description=cmd.help)
        for flag in cmd.flags + ("--out",):
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        space = admit(args)
        alg = build_algebra(space.family, space.m, space.n) if space else None
        doc, ok = COMMANDS[args.command].handler(args, alg)
    except UsageError as exc:
        _stderr("error: %s" % exc)
        return 2
    except Exception as exc:  # internal failure
        _stderr("internal error: %r" % exc)
        return 3
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _stderr("error: cannot write %s: %s" % (args.out, exc.strerror))
            return 2
    else:
        try:
            print(text)
            sys.stdout.flush()
        except OSError as exc:
            # point fd 1 at devnull so that the interpreter's exit flush does
            # not raise again; a reader that closed stdout is a quiet exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):
                _stderr("error: cannot write stdout: %s" % exc.strerror)
                return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
