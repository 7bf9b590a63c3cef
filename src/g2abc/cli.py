"""Command-line front end: analyze a matrix triple, run verification
campaigns, generate family instances.

Exit codes: 0 success, 1 input/validation error, 2 verification mismatch.
"""

import argparse
import functools
import itertools
import json
import os
import sys

import numpy as np

from ._tables import COMBS
from .errors import G2ABCError, ValidationError
from .g2core import DEFAULT_TOL
from .gabc import (
    MAX_SCALE,
    MAX_TRIAL,
    RICCI_A_BLOCK_ORDER,
    FamilyKind,
    ReferenceCheck,
    TripleABC,
    classify_triple,
    cross_validate,
    cross_validate_stack,
    generate_many,
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

#: Triples per cross-validation pass of verify; bounds the memory a pass holds.
PASS_SIZE = 32


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
    """A seed for numpy's generators, or a trial index: an integer of at least 0."""
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
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


#: _KEYS[k][r]: the name of the rank-r monomial of degree k in a report, "127" for e^{127}.
_KEYS = {k: ["".join(map(str, key)) for key in COMBS[k]] for k in (1, 2, 3)}


def _form_map(degree, values):
    """The nonzero coefficients of the coefficient array values by monomial name, in rank
    order; NaN is kept and -0.0 dropped, as ``Form.coeffs`` does."""
    return {key: value for key, value in zip(_KEYS[degree], values.tolist()) if value != 0.0}


def _numbers_only(x):
    """Whether x holds only JSON numbers; numpy's float cast also takes "1" and true."""
    return all(map(_numbers_only, x)) if type(x) is list else type(x) in (int, float)


def load_triple(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise G2ABCError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise G2ABCError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise G2ABCError(f"{path} must hold a JSON object with matrices A, B, C")
    try:
        mats = {name: np.asarray(data[name], dtype=np.float64) for name in ("A", "B", "C")}
    except KeyError as exc:
        raise G2ABCError(f"{path} is missing matrix {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise G2ABCError(f"{path} holds non-numeric matrix data: {exc}") from exc
    if bad := [name for name in mats if not _numbers_only(data[name])]:
        raise G2ABCError(f"{path} holds non-numeric matrix data: matrix {bad[0]} "
                         "has an entry that is a string, a boolean or null")
    return TripleABC(A=mats["A"], B=mats["B"], C=mats["C"])


def build_report(t, tol):
    rep = cross_validate(t, tol=tol)
    return {
        "input": {"A": t.A.tolist(), "B": t.B.tolist(), "C": t.C.tolist()},
        "family": rep.family,
        "tol": tol,
        "tau0": rep.tau0,
        "tau1": _form_map(1, rep.tau1),
        "tau2": _form_map(2, rep.tau2),
        "tau3": _form_map(3, rep.tau3),
        "torsion_matrix": rep.torsion_matrix.tolist(),
        "div_torsion": rep.divergence.tolist(),
        "ricci": rep.ricci_matrix.tolist(),
        "ricci_block_order": RICCI_A_BLOCK_ORDER,
        "flags": vars(rep.flags),
        "deviations": {k: float(v) for k, v in rep.deviations.items()},
        "exact_checks": dict(rep.exact_checks),
        "dual_reports": [vars(r) for r in rep.dual_reports],
        "passed": rep.passed,
    }


def _print_text_report(report):
    print(f"family: {report['family']}")
    flags = report["flags"]
    kinds = [name for name in ("closed", "coclosed", "torsion_free") if flags[name]]
    print(f"class: {', '.join(kinds) if kinds else 'generic (none of closed/coclosed)'}")
    print(f"tau0 = {report['tau0']:.12g}")
    for name in ("tau1", "tau2", "tau3"):
        coeffs = report[name]
        if coeffs:
            body = "  ".join(f"{v:+.12g} e{k}" for k, v in sorted(coeffs.items()))
        else:
            body = "0"
        print(f"{name} = {body}")
    div = report["div_torsion"]
    print("div T =", "  ".join(f"{v:+.12g}" for v in div))
    # a NaN deviation is the worst: it compares greater than no number
    worst = max(report["deviations"].items(), key=lambda kv: (np.isnan(kv[1]), kv[1]))
    print(f"cross-validation: worst deviation {worst[1]:.3e} ({worst[0]}), "
          f"tol {report['tol']:g}")
    for dual in report["dual_reports"]:
        print(f"  note: {dual['formula']} {dual['component']}: tabulated "
              f"{dual['tabulated']:.12g} vs computed {dual['computed']:.12g}")
    print(f"passed: {report['passed']}")


def cmd_analyze(args):
    triple = load_triple(args.input)
    report = build_report(triple, args.tol)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _print_text_report(report)
    return EXIT_OK if report["passed"] else EXIT_MISMATCH


def cmd_verify(args):
    cases = list(CASES) if args.case == "all" else [args.case]
    failures = 0
    # per column of the tabulated values: (delta, tabulated, computed) of its first largest delta
    duals = {}
    # per case index: the worst of each quantity, which quantities gate a
    # triple of the case, and the worst deviation with its quantity
    case_max, case_has, case_worst = {}, {}, [(0.0, "")] * len(cases)
    # trial k of case i is trial k of the case's family under the seed, whatever the other
    # cases; the triples are generated and cross-validated one pass at a time, case-major
    jobs = ((i, k) for i in range(len(cases)) for k in range(args.trials))
    while chunk := list(itertools.islice(jobs, PASS_SIZE)):
        try:
            stack = generate_many([CASES[cases[i]] for i, _ in chunk], args.seed,
                                  [k for _, k in chunk])
        except ValidationError as exc:
            i, k = chunk[exc.trial]
            raise ValidationError(f"case {cases[i]}, trial {k}: {exc.reason}") from None
        arrays = cross_validate_stack(stack, tol=args.tol)
        failures += int(np.count_nonzero(~arrays.passed()))
        # as a maximum taken from 0.0, NaN and quantities that do not apply never win
        devs = np.where(arrays.applies & ~np.isnan(arrays.deviations), arrays.deviations, 0.0)
        start = 0
        for i, group in itertools.groupby(i for i, _ in chunk):  # the rows of each case, in order
            stop = start + len(list(group))
            rows = devs[start:stop]
            case_max[i] = np.maximum(case_max.get(i, 0.0), rows.max(axis=0))
            case_has[i] = case_has.get(i, False) | arrays.applies[start:stop].any(axis=0)
            j = int(rows.argmax())  # the first maximum in (trial, quantity) order
            if rows.flat[j] > case_worst[i][0]:
                case_worst[i] = (float(rows.flat[j]), arrays.quantities[j % rows.shape[1]])
            start = stop
        for column, x, y in zip(*(a.tolist() for a in arrays.dual_reports[1:])):
            if column not in duals or duals[column][0] < abs(x - y):
                duals[column] = (abs(x - y), x, y)
    quantities = arrays.quantities
    case_devs = [dict(itertools.compress(zip(quantities, case_max[i].tolist()), case_has[i].tolist()))
                 for i in range(len(cases))]
    # every entry of case_max is at least 0.0, and 0.0 where the case lacks the quantity
    all_max = np.max(list(case_max.values()), axis=0).tolist()
    all_has = np.any(list(case_has.values()), axis=0).tolist()
    worst = dict(itertools.compress(zip(quantities, all_max), all_has))
    summary = [(case, args.trials, *case_worst[i], case_devs[i]) for i, case in enumerate(cases)]
    notes = sorted((ReferenceCheck.of_column(column, x, y) for column, (_, x, y) in duals.items()),
                   key=lambda r: (r.formula, r.component))
    passed = failures == 0
    if args.json:
        print(json.dumps({
            "cases": {c: {"trials": n, "worst": w, "worst_quantity": k,
                          "worst_deviations": dict(sorted(devs.items()))}
                      for c, n, w, k, devs in summary},
            "worst_deviations": {k: v for k, v in sorted(worst.items())},
            "dual_reports": [vars(r) for r in notes],
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
        if notes:
            print("tabulated-formula mismatches (dual reports; generic route adjudicates):")
            for r in notes:
                print(f"  {r.formula} {r.component}: tabulated {r.tabulated:+.12g}"
                      f" vs computed {r.computed:+.12g}")
        print("verdict:", "PASS" if passed else f"FAIL ({failures} failing trials)")
    return EXIT_OK if passed else EXIT_MISMATCH


def cmd_gen(args):
    # trial K of the family under the seed: the triple that verify --seed checks as trial K
    triple = generate_many(CASES[args.case], args.seed, [args.trial], scale=args.scale)
    payload = {
        "A": triple.A[0].tolist(),
        "B": triple.B[0].tolist(),
        "C": triple.C[0].tolist(),
        "family": classify_triple(triple)[0].value,
        "seed": args.seed,
        "trial": args.trial,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise G2ABCError(f"cannot write {args.out}: {exc}") from exc
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
    p_gen.add_argument("--trial", type=non_negative_int, default=0,
                       help=f"the trial of the family under the seed, at most {MAX_TRIAL}")
    p_gen.add_argument("--scale", type=positive_finite, default=1.0)
    p_gen.add_argument("--out", required=True)
    return parser


@functools.cache
def _parser():
    """The parser of main, built once and reused by every call."""
    return make_parser()


_parser()  # built at import, so that every call of main, the first one too, does the same work


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so that the flush at
        # shutdown does not fail again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
