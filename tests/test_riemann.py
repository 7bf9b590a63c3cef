import numpy as np

from g2abc.g2core import STANDARD_PSI, torsion_data
from g2abc.gabc import FamilyKind, TripleABC, build, generate
from g2abc.liealg import LieAlgebra7
from g2abc.riemann import (
    div_torsion,
    flow_velocity,
    levi_civita,
    ricci,
    riemann_tensor,
)

from helpers import ZERO4, contract_basis

DIAG_A = np.diag([1.0, 1.0, -1.0, -1.0])


def make(A=ZERO4, B=ZERO4, C=ZERO4):
    return build(TripleABC(A=A, B=B, C=C))


def basis_vec(i):
    v = np.zeros(7)
    v[i - 1] = 1.0
    return v


def so3_plus_r4():
    """Compact-type algebra [e1,e2]=e3 etc; its orthonormal metric is bi-invariant."""
    c = np.zeros((7, 7, 7))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return LieAlgebra7(c)


# -- Levi-Civita ------------------------------------------------------------------

def test_abelian_connection_is_flat_zero():
    alg, s = make()
    assert not np.any(levi_civita(alg))


def test_connection_within_a_vanishes():
    alg, s = make(A=DIAG_A, B=np.diag([1.0, -1.0, 1.0, -1.0]))
    gamma = levi_civita(alg)
    for i in (1, 2, 7):
        for j in (1, 2, 7):
            assert not np.any(gamma[i - 1, j - 1])


def test_diag_example_connection_entries():
    alg, s = make(A=DIAG_A)
    gamma = levi_civita(alg)
    assert not np.any(gamma[6, 2])                       # nabla_{e7} e3 = 0
    assert np.array_equal(gamma[2, 6], -basis_vec(3))    # nabla_{e3} e7 = -e3


def test_connection_invariants_on_random_triples():
    for trial, kind in enumerate(FamilyKind):
        alg, s = build(generate(kind, 100 + trial))
        gamma = levi_civita(alg)
        # metric compatibility: <nabla_X e_j, e_k> = -<e_j, nabla_X e_k>
        assert np.max(np.abs(gamma + gamma.transpose(0, 2, 1))) <= 1e-10
        # torsion-freeness: nabla_{e_i} e_j - nabla_{e_j} e_i = [e_i, e_j]
        assert np.max(np.abs(gamma - gamma.transpose(1, 0, 2) - alg.c)) <= 1e-10


# -- U map ---------------------------------------------------------------------------

def u_map(alg):
    """U[i, j] = U(e_i, e_j), the part of the connection beyond [e_i, e_j] / 2."""
    return levi_civita(alg) - 0.5 * alg.c


def test_u_map_symmetric(rng):
    alg, s = build(generate(FamilyKind.GENERAL, 110))
    u = u_map(alg)
    for _ in range(20):
        x, y = rng.standard_normal(7), rng.standard_normal(7)
        uxy = np.einsum("i,j,ijk->k", x, y, u)
        uyx = np.einsum("i,j,ijk->k", y, x, u)
        assert np.max(np.abs(uxy - uyx)) <= 1e-12


def test_u_map_diag_example():
    alg, s = make(A=DIAG_A)
    assert np.array_equal(u_map(alg)[2, 2], basis_vec(7))  # <S(A)e3, e3> e7 = a33 e7


def test_u_map_vanishes_for_bi_invariant_metric():
    # so nabla_X Y = [X, Y] / 2
    alg = so3_plus_r4()
    assert np.max(np.abs(u_map(alg))) <= 1e-12


def test_u_map_decomposes_connection(rng):
    # nabla_X Y = [X,Y]/2 + U(X,Y) with 2 <U(X,Y), Z> = <[Z,X], Y> - <[Y,Z], X>
    alg, s = build(generate(FamilyKind.GENERAL, 115))
    gamma = levi_civita(alg)
    for i in range(7):
        for j in range(7):
            u = 0.5 * (alg.c[:, i, j] - alg.c[j, :, i])  # U(e_i, e_j)
            expected = 0.5 * alg.c[i, j] + u
            assert np.max(np.abs(gamma[i, j] - expected)) <= 1e-12


# -- curvature ------------------------------------------------------------------------

def test_abelian_ricci_zero():
    alg, s = make()
    assert not np.any(ricci(alg, levi_civita(alg)))


def test_skew_triples_are_flat():
    for seed in range(5):
        t = generate(FamilyKind.SKEW, 120 + seed)
        alg, s = build(t)
        gamma = levi_civita(alg)
        assert np.max(np.abs(riemann_tensor(alg, gamma))) <= 1e-9
        assert np.max(np.abs(ricci(alg, gamma))) <= 1e-9


def test_diag_example_ricci_blocks():
    alg, s = make(A=DIAG_A)
    ric = ricci(alg, levi_civita(alg))
    expected = np.zeros((7, 7))
    expected[6, 6] = -4.0  # -tr(A^2) at the e7 slot
    assert np.max(np.abs(ric - expected)) <= 1e-12


def test_ricci_symmetric(rng):
    alg, s = build(generate(FamilyKind.GENERAL, 130))
    ric = ricci(alg, levi_civita(alg))
    assert np.array_equal(ric, ric.T)


def curvature_contraction(alg, gamma):
    """Ric(X, Y) = sum_i <R(e_i, X) Y, e_i> read off the full curvature tensor."""
    ric = np.einsum("ijki->jk", riemann_tensor(alg, gamma))
    return 0.5 * (ric + ric.T)


def test_ricci_is_the_contraction_of_the_curvature_tensor():
    triples = [generate(kind, 135) for kind in FamilyKind]
    stacked, _ = build(TripleABC.stack(triples))
    ric = ricci(stacked, levi_civita(stacked))
    for n, t in enumerate(triples):
        alg, _ = build(t)
        expected = curvature_contraction(alg, levi_civita(alg))
        assert np.max(np.abs(ric[n] - expected)) <= 1e-12


# -- divergence --------------------------------------------------------------------------

def test_divergence_of_zero_tensor():
    alg, s = make(A=DIAG_A)
    assert not np.any(div_torsion(levi_civita(alg), np.zeros((7, 7))))


def test_divergence_free_families_small_sample():
    for kind in (FamilyKind.SKEW, FamilyKind.DIAGONAL, FamilyKind.ANTIDIAGONAL,
                 FamilyKind.SYMMETRIC):
        for seed in range(5):
            alg, s = build(generate(kind, 140 + seed))
            td = torsion_data(s)
            div = div_torsion(levi_civita(alg), td.T)
            assert np.max(np.abs(div)) <= 1e-9, (kind, seed)


def test_closed_example_is_divergence_free():
    alg, s = make(A=DIAG_A)
    td = torsion_data(s)
    div = div_torsion(levi_civita(alg), td.T)
    assert not np.any(div)


# -- flow velocity --------------------------------------------------------------------------

def test_flow_velocity_zero_at_critical_points():
    assert flow_velocity(np.zeros(7)).is_zero()


def test_flow_velocity_e1_contraction():
    got = flow_velocity(basis_vec(1))
    assert got.coeffs == {(2, 5, 6): 1.0, (2, 3, 4): 1.0, (4, 5, 7): 1.0, (3, 6, 7): 1.0}


def test_flow_velocity_e7_matches_contraction_table():
    got = flow_velocity(basis_vec(7))
    assert (got - contract_basis(7, STANDARD_PSI)).is_zero()
    assert got(2, 4, 6) == 1.0
