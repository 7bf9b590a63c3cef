from types import SimpleNamespace

import numpy as np
import pytest

from g2abc import g2core
from g2abc.errors import TorsionSolveError, ValidationError
from g2abc._tables import DIM, DIMS
from g2abc.exterior import Form, _vecmat, contractions, hodge, matrix_coaction, wedge
from g2abc.g2core import (
    NABLA_PHI,
    PHI_WEDGE,
    PSI_COLUMNS,
    PSI_WEDGE,
    STANDARD_PHI,
    STANDARD_PSI,
    DEFAULT_TOL,
    TAIL,
    TAIL_COLUMNS,
    TorsionData,
    _flags,
    full_torsion_from_nabla,
    reconstruction_residuals,
    tau27_tensor,
    torsion_data,
    torsion_forms,
)
from g2abc.gabc import FamilyKind, TripleABC, build, generate, generate_many
from g2abc.riemann import levi_civita

from helpers import (ZERO4, contract_basis, e_matrix, nabla_phi_reference, stack_of, tail_operator,
                     unstack)


def make(A=ZERO4, B=ZERO4, C=ZERO4):
    return build(TripleABC(A=A, B=B, C=C))


DIAG_A = np.diag([1.0, 1.0, -1.0, -1.0])


# -- induced metric -----------------------------------------------------------

def test_standard_phi_induces_identity_metric():
    # the premise of every metric quantity of the package: e_1..e_7 is orthonormal
    assert np.array_equal(per_pair_induced_metric(STANDARD_PHI), np.eye(7))


# -- torsion forms ---------------------------------------------------------------

def test_abelian_structure_is_torsion_free():
    _, s = make()
    t0, t1, t2, t3 = torsion_forms(s)
    assert t0 == 0.0 and not np.any(t1) and not np.any(t2) and not np.any(t3)
    td = torsion_data(s)
    assert not np.any(td.T) and not np.any(td.tau27)
    closed, coclosed, torsion_free = _flags(td, DEFAULT_TOL)
    assert torsion_free and closed and coclosed


def test_diagonal_example_torsion():
    _, s = make(A=DIAG_A)
    t0, t1, t2, t3 = torsion_forms(s)
    assert t0 == 0.0 and not np.any(t1) and not np.any(t3)
    assert Form(2, t2).coeffs == {(3, 4): -2.0, (5, 6): 2.0}


def test_antidiagonal_example_tau0():
    _, s = make(C=e_matrix(3, 6))
    t0, _, _, _ = torsion_forms(s)
    assert abs(t0 - (-2.0 / 7.0)) <= 1e-15


def test_reconstruction_identities_random_triples():
    for trial, kind in enumerate(FamilyKind):
        for seed in range(10):
            _, s = build(generate(kind, 300 + 10 * trial + seed))
            res1, res2 = reconstruction_residuals(s, *torsion_forms(s))
            assert np.abs(res1).max() <= 1e-9 and np.abs(res2).max() <= 1e-9


# -- tau27 ---------------------------------------------------------------------------

def test_tau27_zero_for_zero_tau3():
    assert not np.any(tau27_tensor(Form.zero(3).values))


def test_tau27_mixed_block_vanishes():
    for seed in range(5):
        _, s = build(generate(FamilyKind.GENERAL, 40 + seed))
        _, _, _, t3 = torsion_forms(s)
        tau27 = tau27_tensor(t3)
        for k in (1, 2, 7):
            for i in (3, 4, 5, 6):
                assert tau27[k - 1, i - 1] == 0.0


def test_tau27_diagonal_case_nn_entries_vanish():
    for seed in range(5):
        _, s = build(generate(FamilyKind.DIAGONAL, 50 + seed))
        _, _, _, t3 = torsion_forms(s)
        tau27 = tau27_tensor(t3)
        assert all(tau27[n - 1, n - 1] == 0.0 for n in (3, 4, 5, 6))


def test_tau27_exactly_symmetric():
    _, s = build(generate(FamilyKind.GENERAL, 60))
    _, _, _, t3 = torsion_forms(s)
    tau27 = tau27_tensor(t3)
    assert np.array_equal(tau27, tau27.T)


# -- the torsion tail: the stages as one operator --------------------------------------

#: A block of the torsion tail may differ from its stepwise definition by this many eps
#: times max(1, max|x|), x = [dphi, dpsi]: both round their sums of at most 56 terms, in
#: different orders.  The largest difference seen on the inputs below was 4.7.
TAIL_EPS = 16


def derivatives_of(x):
    """The stand-in for a G2Structure whose [dphi, dpsi] is x, for the stepwise stages."""
    return SimpleNamespace(dphi=x[..., :DIMS[4]], dpsi=x[..., DIMS[4]:])


def test_stepwise_stages_read_only_dphi_and_dpsi():
    kinds = list(FamilyKind)
    _, s = build(generate_many(kinds, 5, range(len(kinds))))
    bare = SimpleNamespace(dphi=s.dphi, dpsi=s.dpsi)
    forms = torsion_forms(s)
    # the stages of the tail read the rows [dphi, dpsi] alone
    tail = dict(zip(g2core._TAIL_WIDTHS,
                    g2core._tail_stages(np.concatenate((s.dphi, s.dpsi), axis=-1))))
    for got, expected in ((torsion_forms(bare), forms),
                          (reconstruction_residuals(bare, *forms),
                           reconstruction_residuals(s, *forms)),
                          ([tail[f"tau{q}"] for q in range(4)], forms)):
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_torsion_tail_matches_the_stepwise_stages(scale):
    rng = np.random.default_rng(7)
    structures = [derivatives_of(scale * rng.standard_normal((16, 56))),
                  *(build(generate_many(kind, 3, range(8), scale))[1] for kind in FamilyKind)]
    for s in structures:
        td = torsion_data(s)
        x = np.concatenate((s.dphi, s.dpsi), axis=-1)
        bound = TAIL_EPS * np.finfo(np.float64).eps * max(1.0, np.abs(x).max())
        for (name, columns), block in zip(TAIL_COLUMNS.items(), g2core._tail_stages(x)):
            assert np.abs(td.tail[:, columns] - block.reshape(len(x), -1)).max() <= bound, name
        # the fields are the tail's blocks
        assert np.array_equal(td.tau0, td.tail[:, TAIL_COLUMNS["tau0"]][:, 0])
        for name in ("tau1", "tau2", "tau3", "tau27", "T"):
            assert np.array_equal(getattr(td, name).reshape(len(x), -1),
                                  td.tail[:, TAIL_COLUMNS[name]]), name


def test_a_structures_torsion_tail_does_not_depend_on_its_stack():
    stack = generate_many([*FamilyKind, FamilyKind.SYMMETRIC, FamilyKind.GENERAL], 0, range(7))
    tail = torsion_data(build(stack)[1]).tail
    assert tail.tobytes() == np.concatenate(
        [torsion_data(build(stack_of(unstack(stack)[n:n + 3]))[1]).tail for n in (0, 3)]
        + [torsion_data(build(unstack(stack)[6])[1]).tail[None]]).tobytes()


def test_a_torsion_tail_with_a_constant_term_does_not_build(monkeypatch):
    assert np.array_equal(tail_operator(), TAIL) and not TAIL.flags.writeable
    assert TAIL.shape == (DIMS[4] + DIMS[5], 310)
    stepwise = g2core.tau27_tensor
    monkeypatch.setattr(g2core, "tau27_tensor", lambda tau3: stepwise(tau3) + 1.0)
    with pytest.raises(ValidationError, match="constant term: tau27, T$"):
        tail_operator()


def test_four_gated_identities_hold_for_every_dphi_and_dpsi():
    # The gates reconstruction_dphi, reconstruction_dpsi, tau3_type27_phi and
    # tau3_type27_psi read blocks of TAIL that are 0, or round-off, on every (dphi, dpsi),
    # not only on the derivatives of a G2-structure: the stages define tau0..tau3 so that
    # they hold.  Of the type checks, only tau2_type14 ties dphi to dpsi.
    blocks = {name: TAIL[:, columns] for name, columns in TAIL_COLUMNS.items()}
    for name in ("reconstruction_dphi", "reconstruction_dpsi", "tau3_type27_phi"):
        assert not blocks[name].any(), name
    assert 0.0 < np.abs(blocks["tau3_type27_psi"]).max() <= np.finfo(np.float64).eps
    assert np.count_nonzero(blocks["tau3_type27_psi"]) == 7
    type14 = blocks["tau2_type14"]
    assert type14[:DIMS[4]].any() and type14[DIMS[4]:].any()


# -- the full torsion tensor: both routes ----------------------------------------------

def test_diagonal_example_full_torsion_is_minus_half_tau2():
    _, s = make(A=DIAG_A)
    td = torsion_data(s)
    expected = np.zeros((7, 7))
    expected[2, 3], expected[3, 2] = 1.0, -1.0
    expected[4, 5], expected[5, 4] = -1.0, 1.0
    assert np.array_equal(td.T, expected)


def test_routes_agree_on_diag_example():
    c, s = make(A=DIAG_A)
    td = torsion_data(s)
    assert np.max(np.abs(td.T - full_torsion_from_nabla(levi_civita(c)))) <= 1e-9


def test_routes_agree_on_random_commuting_triples():
    for trial, kind in enumerate(FamilyKind):
        for seed in range(8):
            c, s = build(generate(kind, 70 + 10 * trial + seed))
            td = torsion_data(s)
            dev = np.max(np.abs(td.T - full_torsion_from_nabla(levi_civita(c))))
            assert dev <= 1e-9, (kind, seed, dev)


def test_torsion_solve_rejects_inconsistent_connection(rng):
    bogus = rng.standard_normal((7, 7, 7))
    with pytest.raises(TorsionSolveError, match="torsion solve failed"):
        full_torsion_from_nabla(bogus)
    # below max|gamma| = 1 the bound stays tol itself
    with pytest.raises(TorsionSolveError, match=r"torsion solve failed: .* > 1e-09$"):
        full_torsion_from_nabla(1e-8 * bogus / np.abs(bogus).max())


def test_torsion_solve_of_a_stack_names_its_first_inconsistent_connection(rng):
    c, _ = build(generate_many(FamilyKind.GENERAL, 0, range(3)))
    gamma = levi_civita(c) + 0.0
    gamma[1:] += rng.standard_normal((2, 7, 7, 7))  # rows 1 and 2 are inconsistent
    with pytest.raises(TorsionSolveError, match="^trial 1: torsion solve failed: ") as err:
        full_torsion_from_nabla(gamma)
    assert err.value.trial == 1 and str(err.value) == f"trial 1: {err.value.reason}"
    # a single connection is named as before
    with pytest.raises(TorsionSolveError, match="^torsion solve failed: ") as err:
        full_torsion_from_nabla(gamma[1])
    assert err.value.trial == 0 and str(err.value) == err.value.reason


@pytest.mark.parametrize("scale", [1e7, 1e9, 1e12])
@pytest.mark.parametrize("kind", [FamilyKind.DIAGONAL, FamilyKind.ANTIDIAGONAL,
                                  FamilyKind.SYMMETRIC])
def test_torsion_solve_residual_scales_with_the_connection(kind, scale):
    # the right-hand side is linear in gamma, so is the rounding of the solve
    stack, s = build(stack_of([generate(kind, seed, scale) for seed in range(5)]))
    gamma = levi_civita(stack)
    T = torsion_data(s).T
    assert np.abs(gamma).max() > 1e6
    assert np.max(np.abs(full_torsion_from_nabla(gamma) - T)) <= 1e-9 * scale


def test_nabla_phi_rows_are_the_coactions_of_the_unit_connection_rows():
    # gamma[i] = E_jk (1 at j, k) gives nabla_{e_i} phi = -matrix_coaction(E_jk^T, phi)
    assert NABLA_PHI.shape == (DIM * DIM, DIMS[3]) and not NABLA_PHI.flags.writeable
    for j in range(DIM):
        for k in range(DIM):
            unit = np.zeros((DIM, DIM))
            unit[j, k] = 1.0
            assert np.array_equal(NABLA_PHI[DIM * j + k],
                                  -matrix_coaction(unit.T, STANDARD_PHI).values), (j, k)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_torsion_solve_is_the_two_step_solve_bit_for_bit(scale):
    # for phi one k at most meets each j and output monomial, so each right-hand side
    # sums the same products in the same order as the two-step product
    c, _ = build(generate_many(list(FamilyKind), 43, range(5), scale))
    gamma = levi_civita(c)
    for g in (gamma, gamma[:1], gamma[2]):
        got = full_torsion_from_nabla(g)
        expected = (0.25 * (PSI_COLUMNS.T @ nabla_phi_reference(g, STANDARD_PHI))).swapaxes(-1, -2)
        assert np.array_equal(got, expected) and np.array_equal(np.signbit(got),
                                                                np.signbit(expected))


def test_torsion_system_is_exactly_orthogonal():
    # the solve A^T rhs / 4 is the least-squares solution because A^T A = 4 I exactly
    assert np.array_equal(PSI_COLUMNS, contractions(STANDARD_PSI).T)
    assert np.array_equal(PSI_COLUMNS.T @ PSI_COLUMNS, 4.0 * np.eye(7))


def test_tau1_vector_pairs_to_tau1():
    # the assembly contracts phi with the vector v, v_i = tau1(e_i), dual to tau1:
    # the antisymmetric part of T is -(iota_v phi + tau2 / 2)
    _, s = build(generate(FamilyKind.GENERAL, 90))
    td = torsion_data(s)
    assert np.any(td.tau1)
    iota = Form.zero(2)
    for i in range(1, 8):
        iota = iota + td.tau1[i - 1] * contract_basis(i, s.phi)
    expected = -(iota + 0.5 * Form(2, td.tau2))
    coefficient = contractions(expected)  # coefficient[i - 1, j - 1] = expected(e_i, e_j)
    for i in range(1, 8):
        for j in range(1, 8):
            got = 0.5 * (td.T[i - 1, j - 1] - td.T[j - 1, i - 1])
            assert abs(got - coefficient[i - 1, j - 1]) <= 1e-12


# -- whole-array stages against per-pair references --------------------------------------

def per_pair_top(phi, eta):
    """star(iota_i phi ^ iota_j phi ^ eta) for i <= j, one wedge/wedge/hodge per pair."""
    contractions = [contract_basis(i, phi) for i in range(1, 8)]
    out = np.empty((7, 7))
    for i in range(7):
        for j in range(i, 7):
            top = hodge(wedge(wedge(contractions[i], contractions[j]), eta))
            out[i, j] = out[j, i] = top.values[0]
    return out


def per_pair_induced_metric(phi):
    """The metric of a positive 3-form: (1/6) iota_i phi ^ iota_j phi ^ phi = b_ij e^{1...7},
    normalised to g = b (det b)^(-1/9)."""
    contractions = [contract_basis(i, phi) for i in range(1, 8)]
    b = np.empty((7, 7))
    for i in range(7):
        for j in range(i, 7):
            b[i, j] = b[j, i] = wedge(wedge(contractions[i], contractions[j]), phi).values[0] / 6.0
    return b / np.linalg.det(b) ** (1.0 / 9.0)


def per_basis_torsion_from_nabla(s, gamma):
    columns = np.column_stack([contract_basis(m, s.psi).values for m in range(1, 8)])
    rhs = np.column_stack([-matrix_coaction(g.T, s.phi).values for g in gamma])
    v = np.linalg.lstsq(columns, rhs, rcond=None)[0]
    assert np.max(np.abs(columns @ v - rhs)) <= 1e-9
    return v.T


def test_whole_array_stages_match_per_pair_references():
    c, s = build(generate(FamilyKind.GENERAL, 61))
    _, _, _, tau3 = torsion_forms(s)
    assert np.any(tau3)
    expected = 0.25 * per_pair_top(s.phi, Form(3, tau3))
    assert np.max(np.abs(tau27_tensor(tau3) - expected)) <= 1e-13
    gamma = levi_civita(c)
    expected_T = per_basis_torsion_from_nabla(s, gamma)
    assert np.max(np.abs(full_torsion_from_nabla(gamma) - expected_T)) <= 1e-13


def test_phi_and_psi_product_matrices_are_the_wedge_products(rng):
    for form, products in ((STANDARD_PHI, PHI_WEDGE), (STANDARD_PSI, PSI_WEDGE)):
        for k, matrix in products.items():
            # small integers: every sum is exact, so any summation order gives the same bits
            a = Form(k, rng.integers(-9, 10, size=(6, DIMS[k])))
            assert np.array_equal(_vecmat(a.values, matrix), wedge(a, form).values), (form.degree, k)
            a = Form(k, rng.standard_normal((6, DIMS[k])))
            assert np.max(np.abs(_vecmat(a.values, matrix) - wedge(a, form).values)) <= 1e-15


# -- classification -------------------------------------------------------------------

def test_torsion_flags_of_a_stack_member_by_member():
    # tau_q of member n is q-th entry of its row: a value of 1 (or NaN) breaks its flags
    rows = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                     [np.nan, 0, 0, 0], [0, 0, np.nan, 0]])
    forms = [np.outer(rows[:, k], np.ones(DIMS[k])) for k in (1, 2, 3)]
    td = TorsionData(rows[:, 0], *forms, tau27=None, T=None, tail=None)
    closed, coclosed, torsion_free = _flags(td, 0.5).tolist()
    assert closed == [True, False, False, True, False, False, True]
    assert coclosed == [True, True, False, False, True, True, False]
    assert torsion_free == [True, False, False, False, False, False, False]
    single = TorsionData(0.0, *(f[2] for f in forms), tau27=None, T=None, tail=None)
    assert _flags(single, 0.5).tolist() == [False, False, False]

def test_diag_example_closed_not_coclosed():
    _, s = make(A=DIAG_A)
    closed, coclosed, torsion_free = _flags(torsion_data(s), DEFAULT_TOL)
    assert closed and not coclosed and not torsion_free


def test_skew_example_neither_closed_nor_coclosed():
    A = e_matrix(4, 6) - e_matrix(6, 4)
    _, s = make(A=A)
    closed, coclosed, _ = _flags(torsion_data(s), DEFAULT_TOL)
    assert not closed and not coclosed


def test_skew_rotation_block_full_torsion_structure():
    # A = rotation generator in the (3,4)-plane: tau0 = 4/7, tau1 = tau2 = 0,
    # and the assembly (1/4) tau0 g - tau27 collapses to the single entry T = E77.
    A = e_matrix(3, 4) - e_matrix(4, 3)
    c, s = make(A=A)
    td = torsion_data(s)
    assert abs(td.tau0 - 4.0 / 7.0) <= 1e-15
    assert not np.any(td.tau1) and not np.any(td.tau2)
    assert abs(0.25 * td.tau0 - 1.0 / 7.0) <= 1e-15
    expected = np.zeros((7, 7))
    expected[6, 6] = 1.0
    assert np.max(np.abs(td.T - expected)) <= 1e-15
    assert np.max(np.abs(full_torsion_from_nabla(levi_civita(c)) - expected)) <= 1e-15
