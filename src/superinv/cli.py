"""Batch command line interface.

Each command takes only the flags it reads (see COMMANDS), of which the
sizes are --family/--m/--n/--k.  It writes one JSON document to stdout (or
--out), and streams progress for long sweeps to stderr.  Output is
byte-deterministic for a fixed configuration: keys are sorted and all
scalars are canonical exact rationals.

Exit codes: 0 success; 1 a verified property failed (a theorem check came
back false); 2 usage error; 3 internal error.

Permutations are accepted in cycle notation "(2 3)(4 5)" (cycles applied
rightmost first) or one-line form "[1,3,2,5,4,6]" (1-based images).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

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
from .tensoralg import eta, project_tensor

FAMILY_CHOICES = ("gl", "osp", "q", "p")

# coset_reps(k) enumerates (2k-1)!! representatives, so commands walking
# them stop at this degree
MAX_COSET_K = 4


class UsageError(Exception):
    pass


def parse_permutation(text: str, size: int) -> Permutation:
    text = text.strip()
    if not text or text == "()":
        return Permutation.identity(size)
    if text.startswith("["):
        try:
            images = json.loads(text)
        except json.JSONDecodeError as exc:
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
    try:
        return [Scalar(Fraction(p)) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise UsageError("shifts must be rationals such as 1 or -2/3: %r" % text) from None


def type_label(type_vector) -> str:
    counts = {}
    for length in type_vector:
        counts[length] = counts.get(length, 0) + 1
    return " ".join("%d^%d" % (l, counts[l]) for l in sorted(counts))


def _build(args):
    family = args.family
    if family is None:
        raise UsageError("--family is required")
    if family not in FAMILY_CHOICES:
        raise UsageError("unknown family %r" % family)
    try:
        return build_algebra(family, args.m, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _perm_degree(alg, k):
    return 2 * k if alg.family in ("osp", "p") else k


def cmd_invariant(args) -> tuple[dict, int]:
    alg = _build(args)
    k = args.k
    if k < 1:
        raise UsageError("--k must be >= 1")
    sigma = parse_permutation(args.perm or "()", _perm_degree(alg, k))
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
    return doc, 0 if central else 1


def cmd_hc(args) -> tuple[dict, int]:
    alg = _build(args)
    if alg.family not in ("gl", "osp"):
        raise UsageError("HC unsupported for %s" % alg.family)
    k = args.k
    if k < 1:
        raise UsageError("--k must be >= 1")
    u = str_gelfand(alg, k)
    image, verdicts, ok = _hc_verdicts(alg, u)
    doc = {
        "family": alg.family,
        "m": alg.m,
        "n": alg.n,
        "k": k,
        "element": "str_gelfand",
        "image": image.to_json(),
        "unshifted": zeta_project(u).to_json(),
        **verdicts,
    }
    return doc, 0 if ok else 1


def _hc_verdicts(alg, u):
    """(HC image, verdict fields, whether all hold) for a gl or osp element u.

    u must be central, and its image supersymmetric for gl or in J for osp.
    """
    image = harish_chandra_image(u)
    if alg.family == "gl":
        name, holds = "supersymmetric", is_supersymmetric(image, alg.m, alg.n)
    else:
        name, holds = "J", is_J_poly(image, alg.m // 2, alg.n)
    central = is_central(u)
    return image, {"central": central, "poly": image.render(), name: holds}, central and holds


def cmd_keylemma(args) -> tuple[dict, int]:
    k = args.k
    if k < 1:
        raise UsageError("--k must be >= 1")
    if args.per_type:
        if k > MAX_COSET_K:
            raise UsageError("--per-type bound is k <= %d" % MAX_COSET_K)
        sigmas = []
        seen = set()
        for sig in br.coset_reps(k):
            t = br.perm_type(sig)
            if t not in seen:
                seen.add(t)
                sigmas.append(sig)
    else:
        if k > 3:
            raise UsageError("exhaustive bound is k <= 3; use --per-type for k = 4")
        sigmas = list(symmetric_group(2 * k))

    def work(sig):
        w = br.key_lemma_witness(sig)
        return sig, w, br.witness_holds(sig, w)

    rows = _map_with_progress(work, sigmas, "keylemma")
    witnesses = []
    all_ok = True
    for sig, w, ok in rows:
        all_ok = all_ok and ok
        witnesses.append({"sigma": sig.to_json(), **w.to_json(), "verified": ok})
    doc = {
        "k": k,
        "count": len(witnesses),
        "all_sign_products_minus_one": all_ok,
        "witnesses": witnesses,
    }
    return doc, 0 if all_ok else 1


def cmd_brauer(args) -> tuple[dict, int]:
    k = args.k
    if not 1 <= k <= br.MAX_COUNT_K:
        raise UsageError("--k must be in 1..%d" % br.MAX_COUNT_K)
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
    return doc, 0 if ok else 1


def cmd_pn_trivial(args) -> tuple[dict, int]:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    k = args.k
    if not 1 <= k <= MAX_COSET_K:
        raise UsageError("--k must be in 1..%d" % MAX_COSET_K)
    alg = build_algebra("p", 0, args.n)
    reps = br.coset_reps(k)

    def work(sig):
        pt = project_tensor(alg, invariant_tensor(alg, sig))
        return eta(pt).is_zero(), eta_prime(pt).is_scalar()

    rows = _map_with_progress(work, reps, "pn-trivial")
    all_zero = all(z for z, _ in rows)
    all_scalar = all(s for _, s in rows)
    doc = {
        "family": "p",
        "n": args.n,
        "k": k,
        "reps": len(reps),
        "all_zero": all_zero,
        "all_scalar": all_scalar,
    }
    return doc, 0 if (all_zero and all_scalar) else 1


def cmd_relations(args) -> tuple[dict, int]:
    alg = _build(args)
    if args.k < 2:
        raise UsageError("--k must be >= 2")
    report = check_duality_relations(alg, args.k)
    ok = report["all_relations_hold"] and report["supercommutes_with_action"]
    return report, 0 if ok else 1


def cmd_sweep(args) -> tuple[dict, int]:
    alg = _build(args)
    kmax = args.k
    if kmax < 1:
        raise UsageError("--k must be >= 1")
    if alg.family == "p" and kmax > MAX_COSET_K:
        raise UsageError("--k must be in 1..%d for p" % MAX_COSET_K)
    rows = []
    ok = True
    for k in range(1, kmax + 1):
        print("sweep: degree %d/%d" % (k, kmax), file=sys.stderr)
        row = {"k": k}
        if alg.family in ("gl", "osp"):
            deg = k if alg.family == "gl" else 2 * k
            row["element"] = "str_gelfand(%d)" % deg
            _, verdicts, holds = _hc_verdicts(alg, str_gelfand(alg, deg))
            row.update(verdicts)
            ok = ok and holds
        elif alg.family == "q":
            deg = 2 * k - 1
            row["element"] = "sergeev_Z(%d)" % deg
            verdicts = _sergeev_verdicts(alg, sergeev_Z(alg, deg), deg)
            row.update(verdicts)
            ok = ok and all(verdicts.values())
        else:
            reps = br.coset_reps(k)
            zero = all(
                eta(project_tensor(alg, invariant_tensor(alg, s))).is_zero()
                for s in reps
            )
            row["element"] = "eta_pi_theta over %d reps" % len(reps)
            row["all_zero"] = zero
            ok = ok and zero
        rows.append(row)
    doc = {
        "family": alg.family,
        "m": alg.m,
        "n": alg.n,
        "max_k": kmax,
        "rows": rows,
        "all_pass": ok,
    }
    return doc, 0 if ok else 1


def cmd_sergeev(args) -> tuple[dict, int]:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    k = args.k
    if k < 1:
        raise UsageError("--k must be >= 1")
    alg = build_algebra("q", 0, args.n)
    z = sergeev_Z(alg, k)
    doc = {"family": "q", "n": args.n, "k": k, "Z": z.to_json()}
    ok = True
    if k % 2 == 1:
        verdicts = _sergeev_verdicts(alg, z, k)
        doc.update(verdicts)
        ok = all(verdicts.values())
    return doc, 0 if ok else 1


def _sergeev_verdicts(alg, z, k) -> dict:
    """Centrality of Z_k, and the identity Z_k = 2^(k-1) z_sigma of the k-cycle."""
    cycle = Permutation(tuple(range(2, k + 1)) + (1,))
    return {
        "central": is_central(z),
        "matches_2^(k-1)_z_cycle": z == z_sigma(alg, cycle).scale(Scalar(2 ** (k - 1))),
    }


def cmd_molev(args) -> tuple[dict, int]:
    alg = _build(args)
    if alg.family not in ("gl", "osp"):
        raise UsageError("molev elements are built for gl and osp")
    k = args.k
    if k < 1:
        raise UsageError("--k must be >= 1")
    sigma = parse_permutation(args.perm or "()", _perm_degree(alg, k))
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
    return doc, 0 if central else 1


def _map_with_progress(fn, items, label):
    out = []
    for i, item in enumerate(items):
        if len(items) > 100 and i % 100 == 0:
            print("%s: %d/%d" % (label, i, len(items)), file=sys.stderr)
        out.append(fn(item))
    return out


_SIZES = ("--family", "--m", "--n", "--k")

# subcommand -> (handler, help, the flags it reads besides --out)
COMMANDS = {
    "invariant": (
        cmd_invariant,
        "the invariant tensor theta and central element z of a permutation",
        _SIZES + ("--perm",),
    ),
    "hc": (
        cmd_hc,
        "Harish-Chandra image of Str X^k with predicate verdicts (gl, osp)",
        _SIZES,
    ),
    "keylemma": (
        cmd_keylemma,
        "sign witnesses for every permutation of S_2k",
        ("--k", "--per-type"),
    ),
    "brauer": (cmd_brauer, "diagram type counts, totals and double-coset sizes", ("--k",)),
    "pn-trivial": (
        cmd_pn_trivial,
        "verify every degree-k invariant of S(p_n) vanishes",
        ("--n", "--k"),
    ),
    "relations": (
        cmd_relations,
        "centralizer algebra relations as operator identities",
        _SIZES,
    ),
    "sweep": (cmd_sweep, "centrality + Harish-Chandra grid over degrees 1..k", _SIZES),
    "sergeev": (
        cmd_sergeev,
        "the recursive q(n) trace element Z_k and its identities",
        ("--n", "--k"),
    ),
    "molev": (
        cmd_molev,
        "shifted-trace central element built from an invariant tensor",
        _SIZES + ("--perm", "--u"),
    ),
}

FLAGS = {
    "--family": dict(choices=FAMILY_CHOICES),
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
    for name, (_, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        for flag in flags + ("--out",):
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = COMMANDS[args.command][0](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print("internal error: %r" % exc, file=sys.stderr)
        return 3
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
