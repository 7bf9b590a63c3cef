import numpy as np
import pytest

from g2abc import g2core
from g2abc.exterior import contractions
from g2abc.g2core import STANDARD_PHI, STANDARD_PSI, G2Structure, torsion_data
from g2abc.gabc import (FamilyKind, TripleABC, build, cross_validate_stack, generate,
                        generate_many, structure_constants)
from g2abc.liealg import LieAlgebra7
from g2abc.riemann import div_torsion, levi_civita, ricci

from helpers import ZERO4, act, isometric_directions, riemann_tensor, stack_of, tail_operator

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
    return LieAlgebra7(c).c  # built by the user, so checked


# -- Levi-Civita ------------------------------------------------------------------

def test_abelian_connection_is_flat_zero():
    c, s = make()
    assert not np.any(levi_civita(c))


def test_connection_within_a_vanishes():
    c, s = make(A=DIAG_A, B=np.diag([1.0, -1.0, 1.0, -1.0]))
    gamma = levi_civita(c)
    for i in (1, 2, 7):
        for j in (1, 2, 7):
            assert not np.any(gamma[i - 1, j - 1])


def test_diag_example_connection_entries():
    c, s = make(A=DIAG_A)
    gamma = levi_civita(c)
    assert not np.any(gamma[6, 2])                       # nabla_{e7} e3 = 0
    assert np.array_equal(gamma[2, 6], -basis_vec(3))    # nabla_{e3} e7 = -e3


def test_connection_invariants_on_random_triples():
    for trial, kind in enumerate(FamilyKind):
        c, s = build(generate(kind, 100 + trial))
        gamma = levi_civita(c)
        # metric compatibility: <nabla_X e_j, e_k> = -<e_j, nabla_X e_k>
        assert np.max(np.abs(gamma + gamma.transpose(0, 2, 1))) <= 1e-10
        # torsion-freeness: nabla_{e_i} e_j - nabla_{e_j} e_i = [e_i, e_j]
        assert np.max(np.abs(gamma - gamma.transpose(1, 0, 2) - c)) <= 1e-10


# -- U map ---------------------------------------------------------------------------

def u_map(c):
    """U[i, j] = U(e_i, e_j), the part of the connection beyond [e_i, e_j] / 2."""
    return levi_civita(c) - 0.5 * c


def test_u_map_symmetric(rng):
    c, s = build(generate(FamilyKind.GENERAL, 110))
    u = u_map(c)
    for _ in range(20):
        x, y = rng.standard_normal(7), rng.standard_normal(7)
        uxy = np.einsum("i,j,ijk->k", x, y, u)
        uyx = np.einsum("i,j,ijk->k", y, x, u)
        assert np.max(np.abs(uxy - uyx)) <= 1e-12


def test_u_map_diag_example():
    c, s = make(A=DIAG_A)
    assert np.array_equal(u_map(c)[2, 2], basis_vec(7))  # <S(A)e3, e3> e7 = a33 e7


def test_u_map_vanishes_for_bi_invariant_metric():
    # so nabla_X Y = [X, Y] / 2
    c = so3_plus_r4()
    assert np.max(np.abs(u_map(c))) <= 1e-12


def test_u_map_decomposes_connection(rng):
    # nabla_X Y = [X,Y]/2 + U(X,Y) with 2 <U(X,Y), Z> = <[Z,X], Y> - <[Y,Z], X>
    c, s = build(generate(FamilyKind.GENERAL, 115))
    gamma = levi_civita(c)
    for i in range(7):
        for j in range(7):
            u = 0.5 * (c[:, i, j] - c[j, :, i])  # U(e_i, e_j)
            expected = 0.5 * c[i, j] + u
            assert np.max(np.abs(gamma[i, j] - expected)) <= 1e-12


# -- curvature ------------------------------------------------------------------------

def test_abelian_ricci_zero():
    c, s = make()
    assert not np.any(ricci(c, levi_civita(c)))


def test_skew_triples_are_flat():
    for seed in range(5):
        t = generate(FamilyKind.SKEW, 120 + seed)
        c, s = build(t)
        gamma = levi_civita(c)
        assert np.max(np.abs(riemann_tensor(c, gamma))) <= 1e-9
        assert np.max(np.abs(ricci(c, gamma))) <= 1e-9


def test_diag_example_ricci_blocks():
    c, s = make(A=DIAG_A)
    ric = ricci(c, levi_civita(c))
    expected = np.zeros((7, 7))
    expected[6, 6] = -4.0  # -tr(A^2) at the e7 slot
    assert np.max(np.abs(ric - expected)) <= 1e-12


def test_ricci_symmetric(rng):
    c, s = build(generate(FamilyKind.GENERAL, 130))
    ric = ricci(c, levi_civita(c))
    assert np.array_equal(ric, ric.T)


def curvature_contraction(c, gamma):
    """Ric(X, Y) = sum_i <R(e_i, X) Y, e_i> read off the full curvature tensor."""
    ric = np.einsum("ijki->jk", riemann_tensor(c, gamma))
    return 0.5 * (ric + ric.T)


def test_ricci_is_the_contraction_of_the_curvature_tensor():
    triples = [generate(kind, 135) for kind in FamilyKind]
    stacked, _ = build(stack_of(triples))
    ric = ricci(stacked, levi_civita(stacked))
    for n, t in enumerate(triples):
        c, _ = build(t)
        expected = curvature_contraction(c, levi_civita(c))
        assert np.max(np.abs(ric[n] - expected)) <= 1e-12


def test_riemann_tensor_takes_a_stack_of_algebras():
    stack = generate_many(FamilyKind.GENERAL, 0, range(3))
    c, _ = build(stack)
    curvature = riemann_tensor(c, levi_civita(c))
    assert curvature.shape == (3, 7, 7, 7, 7)
    for n in range(3):
        one = c[n]
        assert np.array_equal(curvature[n], riemann_tensor(one, levi_civita(one)))
    assert np.any(curvature)


# -- divergence --------------------------------------------------------------------------

def test_divergence_of_zero_tensor():
    c, s = make(A=DIAG_A)
    assert not np.any(div_torsion(levi_civita(c), np.zeros((7, 7))))


def test_divergence_free_families_small_sample():
    for kind in (FamilyKind.SKEW, FamilyKind.DIAGONAL, FamilyKind.ANTIDIAGONAL,
                 FamilyKind.SYMMETRIC):
        for seed in range(5):
            c, s = build(generate(kind, 140 + seed))
            td = torsion_data(s)
            div = div_torsion(levi_civita(c), td.T)
            assert np.max(np.abs(div)) <= 1e-9, (kind, seed)


def test_closed_example_is_divergence_free():
    c, s = make(A=DIAG_A)
    td = torsion_data(s)
    div = div_torsion(levi_civita(c), td.T)
    assert not np.any(div)


# -- flow velocity --------------------------------------------------------------------------

def test_psi_velocity_vanishes_exactly_where_div_t_does():
    # The isometric flow's velocity iota_{div T} psi: the rows of v -> iota_v psi are
    # orthogonal of squared norm 4, so |iota_v psi|^2 = 4 |v|^2 and checking div T suffices.
    rows = contractions(STANDARD_PSI)
    assert np.array_equal(rows @ rows.T, 4.0 * np.eye(7))
    assert not np.any(np.zeros(7) @ rows)


# -- div T as the gradient of the isometric energy --------------------------------------

#: The seven xi_m of the standard phi, the isometric directions outside g2.
XI = isometric_directions(STANDARD_PHI)


def energy_gradient(c):
    """(..., 7): the derivative of E = sum_ij T_ij^2 along each xi_m at the constants c,
    2 <T(c), T(xi_m . c)>, since T is linear in c."""
    T = torsion_data(G2Structure(c)).T
    moved = [torsion_data(G2Structure(act(xi, c))).T for xi in XI]
    return np.stack([2.0 * np.einsum("...ij,...ij->...", T, Tm) for Tm in moved], axis=-1)


def gradient_gap(c, divergence):
    """(...,): the largest |grad E - 6 div T| of each algebra of the constants c."""
    return np.abs(energy_gradient(c) - 6.0 * divergence).max(axis=-1)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_div_torsion_is_the_gradient_of_the_energy_along_the_isometric_directions(scale):
    # the critical points of the isometric flow (arXiv:1904.10068) are those with div T = 0
    for kind in FamilyKind:
        t = generate_many(kind, 0, range(8), scale)
        c, s = build(t)
        bound = 1e-13 * np.maximum(1.0, np.abs(t.abc).max(axis=(-3, -2, -1))) ** 2
        gap = gradient_gap(c, div_torsion(levi_civita(c), torsion_data(s).T))
        assert np.all(gap <= bound), (kind, gap / bound)


def test_the_energy_gradient_holds_on_traceless_triples_that_do_not_commute(rng):
    # not a Lie algebra, but unimodular: an identity on the whole traceless span
    m = rng.standard_normal((30, 3, 4, 4))
    m -= np.trace(m, axis1=-2, axis2=-1)[..., None, None] / 4.0 * np.eye(4)
    c = structure_constants(m[:, 0], m[:, 1], m[:, 2])
    div = div_torsion(levi_civita(c), torsion_data(G2Structure(c)).T)
    assert np.abs(div).max() > 1.0
    bound = 1e-13 * np.maximum(1.0, np.abs(m).max(axis=(-3, -2, -1))) ** 2
    assert np.all(gradient_gap(c, div) <= bound)


def test_the_energy_gradient_catches_a_wrong_tau27_that_the_pass_s_divergence_misses(
        monkeypatch):
    # a tau27 of half its size, TAIL built again from the stages: the pass's gated divergence
    # compares the generic div T with the closed form of the generic tau27, so it agrees
    # with itself, while the gradient identity misses on every family
    stepwise = g2core.tau27_tensor
    monkeypatch.setattr(g2core, "tau27_tensor", lambda tau3: 0.5 * stepwise(tau3))
    monkeypatch.setattr(g2core, "TAIL", tail_operator())
    for kind in FamilyKind:
        t = generate_many(kind, 0, range(8))
        c, s = build(t)
        assert gradient_gap(c, div_torsion(levi_civita(c), torsion_data(s).T)).max() >= 1.0
        arrays = cross_validate_stack(t)
        assert arrays.deviations[:, arrays.quantities.index("divergence")].max() <= 1e-15
