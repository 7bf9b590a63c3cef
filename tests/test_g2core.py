import numpy as np
import pytest

from g2abc.errors import PositivityError, TorsionSolveError
from g2abc.exterior import Form, Metric7, contract_basis, hodge, matrix_coaction, wedge
from g2abc.g2core import (
    G2Structure,
    STANDARD_PHI,
    STANDARD_PSI,
    classify,
    full_torsion_from_forms,
    full_torsion_from_nabla,
    induced_metric,
    reconstruction_residuals,
    tau1_vector,
    tau27_tensor,
    torsion_data,
    torsion_forms,
)
from g2abc.gabc import FamilyKind, TripleABC, build, generate
from g2abc.liealg import LieAlgebra7
from g2abc.riemann import Connection7, levi_civita

from conftest import ZERO4, e_matrix


def make(A=ZERO4, B=ZERO4, C=ZERO4):
    return build(TripleABC(A=A, B=B, C=C))


DIAG_A = np.diag([1.0, 1.0, -1.0, -1.0])


# -- induced metric -----------------------------------------------------------

def test_standard_phi_induces_identity_metric():
    m, vol_scale = induced_metric(STANDARD_PHI)
    assert np.array_equal(m.matrix, np.eye(7))
    assert vol_scale == 1.0


def test_scaled_basis_pullback_metric():
    # substitute e^1 -> 2 e^1: the induced metric is the pullback diag(4,1,...,1)
    scaled = Form.from_coeffs(3, {
        key: (2.0 if 1 in key else 1.0) * val for key, val in STANDARD_PHI.coeffs.items()
    })
    m, vol_scale = induced_metric(scaled)
    expected = np.diag([4.0, 1, 1, 1, 1, 1, 1])
    assert np.max(np.abs(m.matrix - expected)) <= 1e-12
    assert abs(vol_scale - 2.0) <= 1e-12
    s = G2Structure.from_phi(LieAlgebra7.abelian(), scaled)
    assert (s.psi - hodge(scaled, m)).is_zero()


def test_zero_form_is_not_positive():
    with pytest.raises(PositivityError):
        induced_metric(Form.zero(3))


def test_negated_phi_is_not_positive():
    with pytest.raises(PositivityError):
        induced_metric(-1.0 * STANDARD_PHI)


# -- torsion forms ---------------------------------------------------------------

def test_abelian_structure_is_torsion_free():
    _, s = make()
    t0, t1, t2, t3 = torsion_forms(s)
    assert t0 == 0.0 and t1.is_zero() and t2.is_zero() and t3.is_zero()
    td = torsion_data(s)
    assert not np.any(td.T) and not np.any(td.tau27)
    flags = classify(td)
    assert flags.torsion_free and flags.closed and flags.coclosed


def test_diagonal_example_torsion():
    _, s = make(A=DIAG_A)
    t0, t1, t2, t3 = torsion_forms(s)
    assert t0 == 0.0 and t1.is_zero() and t3.is_zero()
    assert t2.coeffs == {(3, 4): -2.0, (5, 6): 2.0}


def test_antidiagonal_example_tau0():
    _, s = make(C=e_matrix(3, 6))
    t0, _, _, _ = torsion_forms(s)
    assert abs(t0 - (-2.0 / 7.0)) <= 1e-15


def test_reconstruction_identities_random_triples():
    for trial, kind in enumerate(FamilyKind):
        for seed in range(10):
            _, s = build(generate(kind, 300 + 10 * trial + seed))
            res1, res2 = reconstruction_residuals(s, *torsion_forms(s))
            assert res1 <= 1e-9 and res2 <= 1e-9


# -- tau27 ---------------------------------------------------------------------------

def test_tau27_zero_for_zero_tau3():
    _, s = make()
    assert not np.any(tau27_tensor(s, Form.zero(3)))


def test_tau27_mixed_block_vanishes():
    for seed in range(5):
        _, s = build(generate(FamilyKind.GENERAL, 40 + seed))
        _, _, _, t3 = torsion_forms(s)
        tau27 = tau27_tensor(s, t3)
        for k in (1, 2, 7):
            for i in (3, 4, 5, 6):
                assert tau27[k - 1, i - 1] == 0.0


def test_tau27_diagonal_case_nn_entries_vanish():
    for seed in range(5):
        _, s = build(generate(FamilyKind.DIAGONAL, 50 + seed))
        _, _, _, t3 = torsion_forms(s)
        tau27 = tau27_tensor(s, t3)
        assert all(tau27[n - 1, n - 1] == 0.0 for n in (3, 4, 5, 6))


def test_tau27_exactly_symmetric():
    _, s = build(generate(FamilyKind.GENERAL, 60))
    _, _, _, t3 = torsion_forms(s)
    tau27 = tau27_tensor(s, t3)
    assert np.array_equal(tau27, tau27.T)


# -- the full torsion tensor: both routes ----------------------------------------------

def test_diagonal_example_full_torsion_is_minus_half_tau2():
    _, s = make(A=DIAG_A)
    td = torsion_data(s)
    expected = np.zeros((7, 7))
    expected[2, 3], expected[3, 2] = 1.0, -1.0
    expected[4, 5], expected[5, 4] = -1.0, 1.0
    assert np.array_equal(td.T, expected)


def test_routes_agree_on_diag_example():
    alg, s = make(A=DIAG_A)
    td = torsion_data(s)
    conn = levi_civita(alg, s.metric)
    assert np.max(np.abs(td.T - full_torsion_from_nabla(s, conn))) <= 1e-9


def test_routes_agree_on_random_commuting_triples():
    for trial, kind in enumerate(FamilyKind):
        for seed in range(8):
            alg, s = build(generate(kind, 70 + 10 * trial + seed))
            td = torsion_data(s)
            conn = levi_civita(alg, s.metric)
            dev = np.max(np.abs(td.T - full_torsion_from_nabla(s, conn)))
            assert dev <= 1e-9, (kind, seed, dev)


def test_torsion_solve_rejects_inconsistent_connection(rng):
    _, s = build(generate(FamilyKind.GENERAL, 80))
    bogus = Connection7(gamma=rng.standard_normal((7, 7, 7)))
    with pytest.raises(TorsionSolveError, match="torsion solve failed"):
        full_torsion_from_nabla(s, bogus)


def test_tau1_vector_pairs_to_tau1():
    _, s = build(generate(FamilyKind.GENERAL, 90))
    _, t1, _, _ = torsion_forms(s)
    v = tau1_vector(s, t1)
    for i in range(1, 8):
        assert abs(v[i - 1] - t1(i)) == 0.0


# -- whole-array stages against per-pair references --------------------------------------

def per_pair_top(phi, eta, m):
    """star(iota_i phi ^ iota_j phi ^ eta) for i <= j, one wedge/wedge/hodge per pair."""
    contractions = [contract_basis(i, phi) for i in range(1, 8)]
    out = np.empty((7, 7))
    for i in range(7):
        for j in range(i, 7):
            top = hodge(wedge(wedge(contractions[i], contractions[j]), eta), m)
            out[i, j] = out[j, i] = top.values[0]
    return out


def per_pair_induced_metric(phi):
    contractions = [contract_basis(i, phi) for i in range(1, 8)]
    b = np.empty((7, 7))
    for i in range(7):
        for j in range(i, 7):
            b[i, j] = b[j, i] = wedge(wedge(contractions[i], contractions[j]), phi).values[0] / 6.0
    return b / np.linalg.det(b) ** (1.0 / 9.0)


def per_basis_torsion_from_nabla(s, conn):
    columns = np.column_stack([contract_basis(m, s.psi).values for m in range(1, 8)])
    rhs = np.column_stack([-matrix_coaction(g.T, s.phi).values for g in conn.gamma])
    v = np.linalg.lstsq(columns, rhs, rcond=None)[0]
    assert np.max(np.abs(columns @ v - rhs)) <= 1e-9
    return (s.metric.matrix @ v).T


def pulled_back_phi(p):
    """STANDARD_PHI with every e^i replaced by sum_j p[i, j] e^j."""
    rows = [Form(1, row) for row in p]
    out = Form.zero(3)
    for (i, j, k), v in STANDARD_PHI.coeffs.items():
        out = out + v * wedge(wedge(rows[i - 1], rows[j - 1]), rows[k - 1])
    return out


def whole_array_structures():
    alg, standard = build(generate(FamilyKind.GENERAL, 61))
    p = np.eye(7) + 0.3 * np.random.default_rng(62).standard_normal((7, 7))
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    return alg, [standard, G2Structure.from_phi(alg, pulled_back_phi(p))]


def test_whole_array_stages_match_per_pair_references():
    alg, structures = whole_array_structures()
    assert structures[0].metric.is_identity and not structures[1].metric.is_identity
    for s in structures:
        _, _, _, tau3 = torsion_forms(s)
        assert not tau3.is_zero()
        expected = 0.25 * per_pair_top(s.phi, tau3, s.metric)
        assert np.max(np.abs(tau27_tensor(s, tau3) - expected)) <= 1e-13
        metric, _ = induced_metric(s.phi)
        assert np.max(np.abs(metric.matrix - per_pair_induced_metric(s.phi))) <= 1e-13
        conn = levi_civita(alg, s.metric)
        expected_T = per_basis_torsion_from_nabla(s, conn)
        assert np.max(np.abs(full_torsion_from_nabla(s, conn) - expected_T)) <= 1e-13


# -- classification -------------------------------------------------------------------

def test_diag_example_closed_not_coclosed():
    _, s = make(A=DIAG_A)
    flags = classify(torsion_data(s))
    assert flags.closed and not flags.coclosed and not flags.torsion_free


def test_skew_example_neither_closed_nor_coclosed():
    A = e_matrix(4, 6) - e_matrix(6, 4)
    _, s = make(A=A)
    flags = classify(torsion_data(s))
    assert not flags.closed and not flags.coclosed


def test_skew_rotation_block_full_torsion_structure():
    # A = rotation generator in the (3,4)-plane: tau0 = 4/7, tau1 = tau2 = 0,
    # and the assembly (1/4) tau0 g - tau27 collapses to the single entry T = E77.
    A = e_matrix(3, 4) - e_matrix(4, 3)
    alg, s = make(A=A)
    td = torsion_data(s)
    assert abs(td.tau0 - 4.0 / 7.0) <= 1e-15
    assert td.tau1.is_zero() and td.tau2.is_zero()
    assert abs(0.25 * td.tau0 - 1.0 / 7.0) <= 1e-15
    expected = np.zeros((7, 7))
    expected[6, 6] = 1.0
    assert np.max(np.abs(td.T - expected)) <= 1e-15
    conn = levi_civita(alg, s.metric)
    assert np.max(np.abs(full_torsion_from_nabla(s, conn) - expected)) <= 1e-15
