"""Correctness checks of the program's outputs.

Each check returns a list of problems; an empty list means the output is
correct.  The checks rest on the benchmark's own computation (the Ricci
tensor below) and on properties the method must have, never on a stored
copy of an earlier output.
"""

import numpy as np

#: Families whose full torsion tensor is divergence-free (the paper's theorem).
DIV_FREE_CASES = {"skew", "diag", "adiag", "sym"}


def structure_constants(A, B, C):
    """c[i, j, k] with [e_i, e_j] = sum_k c[i, j, k] e_k, 0-based on e_1..e_7.

    [e7, v] = A v, [e1, v] = B v, [e2, v] = C v on n = span{e3..e6}, the
    matrices acting on coordinates in the basis e3..e6.
    """
    c = np.zeros((7, 7, 7))
    for a, M in ((6, A), (0, B), (1, C)):
        for q in range(4):  # [e_a, e_{3+q}] = sum_p M[p, q] e_{3+p}
            c[a, 2 + q, 2:6] = M[:, q]
            c[2 + q, a, 2:6] = -M[:, q]
    return c


def ricci_matrix(A, B, C):
    """Ricci tensor of g_{A,B,C} for the metric making e_1..e_7 orthonormal.

    Koszul formula: <nabla_i e_j, e_k> = (c_ijk - c_jki + c_kij) / 2; then
    R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_[e_i,e_j] e_k
    and Ric(e_j, e_k) = sum_i <R(e_i, e_j) e_k, e_i>.
    """
    c = structure_constants(*(np.asarray(M, dtype=np.float64) for M in (A, B, C)))
    gamma = 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))
    # nabla_i nabla_j e_k = sum_m gamma[j,k,m] nabla_i e_m
    nn = np.einsum("jkm,iml->ijkl", gamma, gamma)
    riem = nn - np.einsum("ijkl->jikl", nn) - np.einsum("ijm,mkl->ijkl", c, gamma)
    return np.einsum("ijki->jk", riem)


def check_verify(report, cases, trials, tol):
    """Checks of one ``verify --json`` report of a campaign over ``cases``."""
    problems = []
    if report.get("passed") is not True or report.get("failing_trials") != 0:
        problems.append(f"verify did not pass: passed={report.get('passed')!r}, "
                        f"failing_trials={report.get('failing_trials')!r}")
    ran = report.get("cases", {})
    if set(ran) != set(cases):
        problems.append(f"verify ran cases {sorted(ran)}, requested {sorted(cases)}")
    for case, info in ran.items():
        if info.get("trials") != trials:
            problems.append(f"case {case} ran {info.get('trials')!r} trials, requested {trials}")
    worst = report.get("worst_deviations", {})
    over = {k: v for k, v in worst.items() if not v <= tol}
    if over:
        problems.append(f"deviations above tol {tol:g}: {over}")
    if DIV_FREE_CASES & set(cases):
        div = worst.get("divergence_free")
        if div is None or not div <= tol:
            problems.append(f"div T = 0 not confirmed on {sorted(DIV_FREE_CASES & set(cases))}: "
                            f"worst divergence_free {div!r}")
    if "general" in cases:
        formulas = {d.get("formula") for d in report.get("dual_reports", [])}
        if "tau0[general]" not in formulas:
            problems.append("the tau0[general] misprint is not dual-reported")
    return problems


def check_analyze(report, triple, tol):
    """Checks of one ``analyze --json`` report of a general-family triple."""
    problems = []
    if report.get("passed") is not True:
        problems.append(f"analyze did not pass: passed={report.get('passed')!r}")
    if report.get("family") != "general":
        problems.append(f"family {report.get('family')!r}, expected 'general'")
    echoed = report.get("input", {})
    for name, M in zip("ABC", triple):
        if not np.array_equal(np.asarray(echoed.get(name, []), dtype=np.float64), M):
            problems.append(f"report input {name} differs from the file")
    scale = max(float(np.max(np.abs(M))) for M in triple)
    # entries of Ric are quadratic in the triple, those of T linear; the
    # program zeroes entries at or below 1e-14
    ric = np.asarray(report.get("ricci", np.full((7, 7), np.nan)), dtype=np.float64)
    ric_err = float(np.max(np.abs(ric - ricci_matrix(*triple))))
    if not ric_err <= 1e-10 * scale**2 + 1e-14:
        problems.append(f"Ricci differs from the Koszul computation by {ric_err:.3e} "
                        f"at scale {scale:.3g}")
    T = np.asarray(report.get("torsion_matrix", np.full((7, 7), np.nan)), dtype=np.float64)
    tau0 = float(report.get("tau0", np.nan))
    trace_err = abs(float(np.trace(T)) - 1.75 * tau0)
    if not trace_err <= 1e-10 * scale + 1e-13:
        problems.append(f"trace(T) - (7/4) tau0 = {trace_err:.3e} at scale {scale:.3g}")
    return problems


def check(request, report, tol):
    if request.triple is not None:
        return check_analyze(report, request.triple, tol)
    return check_verify(report, request.cases, request.trials, tol)
