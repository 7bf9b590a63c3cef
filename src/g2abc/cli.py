"""Command-line front end: analyze a matrix triple, run verification
campaigns, generate family instances.

Exit codes: 0 success, 1 input/validation error, 2 verification mismatch.
"""

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .errors import G2ABCError
from .gabc import (
    MAX_SCALE,
    PASS_SIZE,
    FamilyKind,
    TripleABC,
    classify_triple,
    cross_validate,
    cross_validate_many,
    generate,
)

CASES = {
    "skew": FamilyKind.SKEW,
    "diag": FamilyKind.DIAGONAL,
    "adiag": FamilyKind.ANTIDIAGONAL,
    "sym": FamilyKind.SYMMETRIC,
    "general": FamilyKind.GENERAL,
}

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2


DEFAULT_TOL = 1e-9


def tolerance(text):
    """A tolerance: a finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is not a number") from None
    if not np.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} must be finite and non-negative")
    return value


def positive_int(text):
    """A count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be at least 1")
    return value


def non_negative_int(text):
    """A seed for numpy's generators: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be non-negative")
    return value


def positive_finite(text):
    """An entry scale: a number above 0 and at most gabc.MAX_SCALE."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not np.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} must be finite and positive")
    if value > MAX_SCALE:
        raise argparse.ArgumentTypeError(f"{text!r} must be at most {MAX_SCALE:g}")
    return value


def default_tol():
    """The tolerance G2ABC_TOL sets, else DEFAULT_TOL; a malformed value is an input error."""
    raw = os.environ.get("G2ABC_TOL", "").strip()
    if not raw:
        return DEFAULT_TOL
    try:
        return tolerance(raw)
    except argparse.ArgumentTypeError as exc:
        raise G2ABCError(f"G2ABC_TOL: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    @staticmethod
    def exit_with(message):
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT


def _form_map(form):
    return {"".join(map(str, key)): value for key, value in form.coeffs.items()}


def _matrix(arr):
    return [[float(v) for v in row] for row in np.asarray(arr)]


def load_triple(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise G2ABCError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise G2ABCError(f"{path} is not valid JSON: {exc}") from exc
    try:
        mats = {name: np.asarray(data[name], dtype=np.float64) for name in ("A", "B", "C")}
    except KeyError as exc:
        raise G2ABCError(f"{path} is missing matrix {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise G2ABCError(f"{path} holds non-numeric matrix data: {exc}") from exc
    return TripleABC(A=mats["A"], B=mats["B"], C=mats["C"])


def build_report(t, tol):
    rep = cross_validate(t, tol=tol)
    return {
        "input": {"A": _matrix(t.A), "B": _matrix(t.B), "C": _matrix(t.C)},
        "family": rep.family,
        "tol": tol,
        "tau0": rep.tau0,
        "tau1": _form_map(rep.tau1),
        "tau2": _form_map(rep.tau2),
        "tau3": _form_map(rep.tau3),
        "torsion_matrix": _matrix(rep.torsion_matrix),
        "div_torsion": [float(v) for v in rep.divergence],
        "ricci": _matrix(rep.ricci_matrix),
        "ricci_block_order": rep.ricci_block_order,
        "flags": {
            "closed": rep.flags.closed,
            "coclosed": rep.flags.coclosed,
            "torsion_free": rep.flags.torsion_free,
        },
        "deviations": {k: float(v) for k, v in rep.deviations.items()},
        "exact_checks": dict(rep.exact_checks),
        "dual_reports": [
            {"formula": r.formula, "component": r.component,
             "tabulated": r.tabulated, "computed": r.computed}
            for r in rep.dual_reports
        ],
        "passed": rep.passed,
    }


def _print_text_report(report, out):
    print(f"family: {report['family']}", file=out)
    flags = report["flags"]
    kinds = [name for name in ("closed", "coclosed", "torsion_free") if flags[name]]
    print(f"class: {', '.join(kinds) if kinds else 'generic (none of closed/coclosed)'}", file=out)
    print(f"tau0 = {report['tau0']:.12g}", file=out)
    for name in ("tau1", "tau2", "tau3"):
        coeffs = report[name]
        if coeffs:
            body = "  ".join(f"{v:+.12g} e{k}" for k, v in sorted(coeffs.items()))
        else:
            body = "0"
        print(f"{name} = {body}", file=out)
    div = report["div_torsion"]
    print("div T =", "  ".join(f"{v:+.12g}" for v in div), file=out)
    worst = max(report["deviations"].items(), key=lambda kv: kv[1])
    print(f"cross-validation: worst deviation {worst[1]:.3e} ({worst[0]}), "
          f"tol {report['tol']:g}", file=out)
    for dual in report["dual_reports"]:
        print(f"  note: {dual['formula']} {dual['component']}: tabulated "
              f"{dual['tabulated']:.12g} vs computed {dual['computed']:.12g}", file=out)
    print(f"passed: {report['passed']}", file=out)


def cmd_analyze(args):
    try:
        triple = load_triple(args.input)
    except G2ABCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = build_report(triple, args.tol)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _print_text_report(report, sys.stdout)
    return EXIT_OK if report["passed"] else EXIT_MISMATCH


def cmd_verify(args):
    cases = list(CASES) if args.case == "all" else [args.case]
    worst = {}
    failures = 0
    duals = {}
    # per case: [worst deviation, its quantity, worst of each quantity]
    case_stats = [[0.0, "", {}] for _ in cases]
    # trial k of case i is seeded by (seed, i, k); the triples are generated
    # and cross-validated one pass at a time, in case-major order
    jobs = ((i, k) for i in range(len(cases)) for k in range(args.trials))
    while chunk := list(itertools.islice(jobs, PASS_SIZE)):
        triples = [generate(CASES[cases[i]], np.random.SeedSequence((args.seed, i, k)))
                   for i, k in chunk]
        for (case_index, _), rep in zip(chunk, cross_validate_many(triples, tol=args.tol)):
            stats = case_stats[case_index]
            if not rep.passed:
                failures += 1
            for key, val in rep.deviations.items():
                worst[key] = max(worst.get(key, 0.0), val)
                stats[2][key] = max(stats[2].get(key, 0.0), val)
                if val > stats[0]:
                    stats[0], stats[1] = val, key
            for r in rep.dual_reports:
                ident = (r.formula, r.component)
                if ident not in duals or duals[ident].delta < r.delta:
                    duals[ident] = r
    summary = [(case, args.trials, *stats) for case, stats in zip(cases, case_stats)]
    passed = failures == 0
    if args.json:
        print(json.dumps({
            "cases": {c: {"trials": n, "worst": w, "worst_quantity": k,
                          "worst_deviations": dict(sorted(devs.items()))}
                      for c, n, w, k, devs in summary},
            "worst_deviations": {k: v for k, v in sorted(worst.items())},
            "dual_reports": [
                {"formula": f, "component": c, "tabulated": r.tabulated,
                 "computed": r.computed}
                for (f, c), r in sorted(duals.items())],
            "tol": args.tol,
            "failing_trials": failures,
            "passed": passed,
        }, sort_keys=True, indent=2))
    else:
        for case, n, w, k, _ in summary:
            print(f"case {case}: {n} trials, worst deviation {w:.3e} ({k or 'n/a'})")
        print(f"worst per quantity at tol {args.tol:g}:")
        for key, val in sorted(worst.items()):
            mark = "ok" if val <= args.tol else "FAIL"
            print(f"  {key:28s} {val:12.3e}  {mark}")
        if duals:
            print("tabulated-formula mismatches (dual reports; generic route adjudicates):")
            for (formula, comp), r in sorted(duals.items()):
                print(f"  {formula} {comp}: tabulated {r.tabulated:+.12g}"
                      f" vs computed {r.computed:+.12g}")
        print("verdict:", "PASS" if passed else f"FAIL ({failures} failing trials)")
    return EXIT_OK if passed else EXIT_MISMATCH


def cmd_gen(args):
    triple = generate(CASES[args.case], args.seed, scale=args.scale)
    payload = {
        "A": _matrix(triple.A),
        "B": _matrix(triple.B),
        "C": _matrix(triple.C),
        "family": classify_triple(triple).value,
        "seed": args.seed,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def make_parser():
    parser = _Parser(prog="g2abc",
                     description="Torsion geometry of the G2-structures on g_{A,B,C}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full torsion report for a triple file")
    p_an.add_argument("--input", required=True, help="JSON file with matrices A, B, C")
    p_an.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_an.add_argument("--tol", type=tolerance, help="default: G2ABC_TOL, else 1e-9")

    p_ver = sub.add_parser("verify", help="cross-validation campaign on generated triples")
    p_ver.add_argument("--case", choices=[*CASES, "all"], default="all")
    p_ver.add_argument("--trials", type=positive_int, default=100)
    p_ver.add_argument("--seed", type=non_negative_int, default=0)
    p_ver.add_argument("--tol", type=tolerance, help="default: G2ABC_TOL, else 1e-9")
    p_ver.add_argument("--json", action="store_true")

    p_gen = sub.add_parser("gen", help="write a random triple of a family")
    p_gen.add_argument("--case", choices=list(CASES), required=True)
    p_gen.add_argument("--seed", type=non_negative_int, default=0)
    p_gen.add_argument("--scale", type=positive_finite, default=1.0)
    p_gen.add_argument("--out", required=True)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    handlers = {"analyze": cmd_analyze, "verify": cmd_verify, "gen": cmd_gen}
    try:
        if "tol" in vars(args) and args.tol is None:
            args.tol = default_tol()
        return handlers[args.command](args)
    except G2ABCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
