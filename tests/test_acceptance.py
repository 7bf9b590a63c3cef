"""Acceptance gate: every criterion below prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 3 is expected to report FAIL: the tabulated scalar-torsion
coefficient formula disagrees with the generic-route value in its A-matrix
slots (tabulated uses a46/a64/a53/a35 where the self-consistent value uses
a34/a43/a56/a65).  Four independent computations pin the generic route:
the Chevalley-Eilenberg differential, the theta-action derivative formulas,
the reconstruction identities (which hold at machine zero), and the trace of
the connection-route torsion tensor.  The assertion is kept as stated and
fails honestly; the mismatch itself is dual-reported by cross_validate.
"""

import json

import numpy as np
import pytest

from g2abc.cli import main as cli_main
from g2abc.exterior import Form
from g2abc.g2core import tau27_tensor, torsion_data, torsion_forms
from g2abc.gabc import (
    FamilyKind,
    TripleABC,
    build,
    closed_form_divergence,
    closed_form_torsion,
    cross_validate_stack,
    generate_many,
)
from g2abc.liealg import ce_diff
from g2abc.riemann import div_torsion, levi_civita, riemann_tensor

from helpers import ZERO4, e_matrix, unstack

ACCEPT_SEED = 20250810
TRIALS = 100
FAMILIES = (FamilyKind.SKEW, FamilyKind.DIAGONAL, FamilyKind.ANTIDIAGONAL,
            FamilyKind.SYMMETRIC, FamilyKind.GENERAL)


def _line(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def campaigns():
    out = {}
    for fam_index, kind in enumerate(FAMILIES):
        stack = generate_many(kind, [np.random.SeedSequence((ACCEPT_SEED, fam_index, trial))
                                     for trial in range(TRIALS)])
        out[kind] = list(zip(unstack(stack), cross_validate_stack(stack).reports(), strict=True))
    return out


def _worst(campaign, key):
    return max(rep.deviations.get(key, 0.0) for _, rep in campaign)


def test_criterion_1_divergence_free_theorems(campaigns):
    worst = 0.0
    for kind in (FamilyKind.SKEW, FamilyKind.DIAGONAL,
                 FamilyKind.ANTIDIAGONAL, FamilyKind.SYMMETRIC):
        for _, rep in campaigns[kind]:
            worst = max(worst, float(np.max(np.abs(rep.divergence))))
    ok = worst <= 1e-9
    _line(1, ok, f"max |div T| = {worst:.3e} over 4 x {TRIALS} family instances (generic path)")
    assert ok


def test_criterion_2_derivative_formulas(campaigns):
    worst = max(_worst(campaigns[FamilyKind.GENERAL], key)
                for key in ("dphi", "star_dphi", "dpsi", "star_dpsi"))
    ok = worst <= 1e-9
    _line(2, ok, f"theta-action derivative formulas vs CE+Hodge oracle: max dev {worst:.3e}")
    assert ok


def test_criterion_3_torsion_form_tables(campaigns):
    general = campaigns[FamilyKind.GENERAL]
    worst_tau1 = _worst(general, "tau1")
    worst_tau2 = _worst(general, "tau2")
    worst_rec = max(_worst(general, "reconstruction_dphi"),
                    _worst(general, "reconstruction_dpsi"))
    assert worst_tau1 <= 1e-9, f"tabulated tau1 deviates: {worst_tau1:.3e}"
    assert worst_tau2 <= 1e-9, f"tabulated tau2 deviates: {worst_tau2:.3e}"
    assert worst_rec <= 1e-9, f"reconstruction identities deviate: {worst_rec:.3e}"

    # tau3: coefficient-wise dual report; every discrepancy must be one of the
    # two documented dropped-factor monomials
    tau3_components = set()
    worst_tau0 = 0.0
    for t, rep in general:
        for r in rep.dual_reports:
            if r.formula == "tau3[general]":
                tau3_components.add(r.component)
            if r.formula == "tau0[general]":
                worst_tau0 = max(worst_tau0, r.delta)
        _, s = build(t)
        t0, *_ = torsion_forms(s)
        worst_tau0 = max(worst_tau0, abs(closed_form_torsion(t).tau0 - t0))
    assert tau3_components <= {"e134", "e136"}, (
        f"unexpected tau3 discrepancies beyond the documented ones: {tau3_components}")

    ok = bool(worst_tau0 <= 1e-9)
    _line(3, ok,
          f"tau1 {worst_tau1:.1e} ok, tau2 {worst_tau2:.1e} ok, reconstruction "
          f"{worst_rec:.1e} ok, tau3 dual-reported at {sorted(tau3_components)}; "
          f"tabulated tau0 deviates by {worst_tau0:.3e} (A-slot misprint, dual-reported)")
    assert ok, (
        "The tabulated tau0 formula cannot agree with the generic-route oracle: "
        "its A-matrix part reads (a46 - a64 + a53 - a35) while the value implied "
        "by the derivative formulas and the reconstruction identities is "
        "(a34 - a43 + a56 - a65).  The oracle is pinned by four independent "
        "routes (all verified at machine precision in this suite); the "
        f"tabulated formula misses by {worst_tau0:.3e}.  See the dual reports."
    )


def test_criterion_4_torsion_route_equality(campaigns):
    worst = max(_worst(campaigns[kind], "torsion_routes") for kind in FAMILIES)
    ok = worst <= 1e-9
    _line(4, ok, f"forms-route vs connection-route torsion tensor: max dev {worst:.3e} "
                 f"over {len(FAMILIES) * TRIALS} instances")
    assert ok


def test_criterion_5_connection_and_ricci(campaigns):
    worst_conn = max(_worst(campaigns[kind], "connection") for kind in FAMILIES)
    worst_ric = max(_worst(campaigns[kind], "ricci") for kind in FAMILIES)
    worst_riem = 0.0
    for t, _ in campaigns[FamilyKind.SKEW]:
        alg, s = build(t)
        conn = levi_civita(alg)
        worst_riem = max(worst_riem, float(np.max(np.abs(riemann_tensor(alg, conn)))))
    ok = worst_conn <= 1e-12 and worst_ric <= 1e-9 and worst_riem <= 1e-9
    _line(5, ok, f"connection table vs Koszul {worst_conn:.1e} (<=1e-12), Ricci closed "
                 f"form vs curvature oracle {worst_ric:.1e}, skew Riemann tensor {worst_riem:.1e}")
    assert ok


def test_criterion_6_divergence_closed_form(campaigns):
    general = campaigns[FamilyKind.GENERAL]
    worst = _worst(general, "divergence")
    exact = all(rep.exact_checks["div_components_3_to_6_zero"] for _, rep in general)
    ok = worst <= 1e-9 and exact
    _line(6, ok, f"closed-form vs generic divergence: max dev {worst:.3e}; "
                 f"components 3..6 exactly zero in both paths: {exact}")
    assert ok


def test_criterion_7_golden_identities(campaigns):
    import test_exterior as ext
    import test_gabc as gab

    ext.test_iota_phi_table_all_rows()
    for k, table in ((1, ext.WEDGE_1J), (2, ext.WEDGE_2J), (7, ext.WEDGE_7J)):
        ext.test_iota_wedge_tables(k, table)
    ext.test_half_square_table()
    ext.test_opposite_pair_table()
    ext.test_mixed_pair_triple_wedges_vanish_on_span1()
    ext.test_diagonal_pair_triple_wedges_vanish_on_span2()
    ext.test_opposite_pair_triple_wedges_vanish_on_span3()
    gab.test_omega_lemma_i_and_ii_decompositions()
    gab.test_omega_lemma_iii_self_duality()
    gab.test_omega_lemma_iv_and_v_wedge_table()
    gab.test_omega_lemma_vi_basis_change()
    gab.test_omega_lemma_vii_orthogonal_basis_of_norm_sqrt2()

    # 27-part vanishing patterns, exact
    assert all(rep.deviations["tau27_mixed_block"] == 0.0
               for kind in FAMILIES for _, rep in campaigns[kind])
    assert all(rep.deviations["tau27_diagonal_nn"] == 0.0
               for _, rep in campaigns[FamilyKind.DIAGONAL])
    assert all(rep.deviations["tau27_antidiagonal_pairs"] == 0.0
               for _, rep in campaigns[FamilyKind.ANTIDIAGONAL])

    _line(7, True, "fundamental 2-form lemma, contraction/wedge tables, triple-wedge "
                   "vanishing spans, and 27-part vanishing patterns all exact")


def test_criterion_8_spot_values():
    # skew tabulated evaluator (the generic route adjudicates this tabulated
    # value as a misprint and gives 0; both are pinned in test_gabc)
    skew = TripleABC(A=e_matrix(4, 6) - e_matrix(6, 4), B=ZERO4, C=ZERO4)
    tau0_skew = closed_form_torsion(skew, FamilyKind.SKEW).tau0
    assert abs(tau0_skew - 4.0 / 7.0) <= 1e-15

    adiag = TripleABC(A=ZERO4, B=ZERO4, C=e_matrix(3, 6))
    _, s = build(adiag)
    tau0_adiag = torsion_forms(s)[0]
    assert abs(tau0_adiag - (-2.0 / 7.0)) <= 1e-15
    assert abs(closed_form_torsion(adiag, FamilyKind.ANTIDIAGONAL).tau0 - (-2.0 / 7.0)) <= 1e-15

    diag = TripleABC(A=np.diag([1.0, 1.0, -1.0, -1.0]), B=ZERO4, C=ZERO4)
    alg, s = build(diag)
    td = torsion_data(s)
    assert Form(2, td.tau2).coeffs == {(3, 4): -2.0, (5, 6): 2.0}
    assert ce_diff(alg, s.phi).is_zero()
    div = div_torsion(levi_civita(alg), td.T)
    assert not np.any(div)
    assert not np.any(closed_form_divergence(diag, td.tau27))

    _line(8, True, "spot values: skew table tau0 = 4/7, antidiagonal tau0 = -2/7, "
                   "diagonal tau2 = -2e34+2e56 with dphi = 0 and div T = 0")


def test_criterion_9_cli_contract(tmp_path, capsys):
    # exit code 0 + determinism + round trips
    for case in ("skew", "diag", "adiag", "sym", "general"):
        p = tmp_path / f"{case}.json"
        assert cli_main(["gen", "--case", case, "--seed", "5", "--out", str(p)]) == 0
        assert cli_main(["analyze", "--input", str(p), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    p1, p2 = tmp_path / "d1.json", tmp_path / "d2.json"
    cli_main(["gen", "--case", "general", "--seed", "9", "--out", str(p1)])
    cli_main(["gen", "--case", "general", "--seed", "9", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()

    cli_main(["analyze", "--input", str(p1), "--json"])
    first = capsys.readouterr().out
    cli_main(["analyze", "--input", str(p1), "--json"])
    assert first == capsys.readouterr().out

    # exit code 1: validation failure
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "A": [[0, 1.0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        "B": [[0, 0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        "C": [[0.0] * 4] * 4,
    }))
    assert cli_main(["analyze", "--input", str(bad)]) == 1
    assert "pairwise commutation violated" in capsys.readouterr().err

    # exit code 2: unsatisfiable tolerance (a general triple: the sparse families
    # can agree exactly)
    assert cli_main(["verify", "--case", "general", "--trials", "1", "--tol", "1e-30"]) == 2
    capsys.readouterr()

    _line(9, True, "exit codes 0/1/2, byte-deterministic gen/analyze, "
                   "gen->analyze round trip for all five families")
