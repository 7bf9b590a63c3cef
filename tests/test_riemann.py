import numpy as np
import pytest

from g2abc.errors import MetricError
from g2abc.exterior import Form, Metric7, contract_basis
from g2abc.g2core import STANDARD_PSI, torsion_data
from g2abc.gabc import FamilyKind, TripleABC, build, generate
from g2abc.liealg import LieAlgebra7
from g2abc.riemann import (
    div_torsion,
    flow_velocity,
    levi_civita,
    ricci,
    riemann_tensor,
    u_map,
)

from helpers import ZERO4, e_matrix

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
    assert not np.any(levi_civita(alg, s.metric).gamma)


def test_connection_within_a_vanishes():
    alg, s = make(A=DIAG_A, B=np.diag([1.0, -1.0, 1.0, -1.0]))
    gamma = levi_civita(alg, s.metric).gamma
    for i in (1, 2, 7):
        for j in (1, 2, 7):
            assert not np.any(gamma[i - 1, j - 1])


def test_diag_example_connection_entries():
    alg, s = make(A=DIAG_A)
    gamma = levi_civita(alg, s.metric).gamma
    assert not np.any(gamma[6, 2])                       # nabla_{e7} e3 = 0
    assert np.array_equal(gamma[2, 6], -basis_vec(3))    # nabla_{e3} e7 = -e3


def test_connection_invariants_on_random_triples():
    for trial, kind in enumerate(FamilyKind):
        alg, s = build(generate(kind, 100 + trial))
        conn = levi_civita(alg, s.metric)
        compat, torsion = conn.residuals(alg, s.metric)
        assert compat <= 1e-10 and torsion <= 1e-10


def test_connection_general_metric_invariants(rng):
    alg, _ = make(A=DIAG_A)
    g = rng.standard_normal((7, 7))
    m = Metric7(g @ g.T + 7 * np.eye(7))
    conn = levi_civita(alg, m)
    compat, torsion = conn.residuals(alg, m)
    assert compat <= 1e-10 and torsion <= 1e-10


# -- U map ---------------------------------------------------------------------------

def test_u_map_symmetric(rng):
    alg, s = build(generate(FamilyKind.GENERAL, 110))
    for _ in range(20):
        x, y = rng.standard_normal(7), rng.standard_normal(7)
        assert np.max(np.abs(u_map(alg, s.metric, x, y) - u_map(alg, s.metric, y, x))) <= 1e-12


def test_u_map_diag_example():
    alg, s = make(A=DIAG_A)
    u = u_map(alg, s.metric, basis_vec(3), basis_vec(3))
    assert np.array_equal(u, basis_vec(7))  # <S(A)e3, e3> e7 = a33 e7


def test_u_map_vanishes_for_bi_invariant_metric(rng):
    alg = so3_plus_r4()
    m = Metric7.identity()
    for _ in range(20):
        x, y = rng.standard_normal(7), rng.standard_normal(7)
        assert np.max(np.abs(u_map(alg, m, x, y))) <= 1e-12


def test_u_map_decomposes_connection(rng):
    alg, s = build(generate(FamilyKind.GENERAL, 115))
    gamma = levi_civita(alg, s.metric).gamma
    for i in range(7):
        for j in range(7):
            expected = 0.5 * alg.c[i, j] + u_map(alg, s.metric, basis_vec(i + 1), basis_vec(j + 1))
            assert np.max(np.abs(gamma[i, j] - expected)) <= 1e-12


# -- curvature ------------------------------------------------------------------------

def test_abelian_ricci_zero():
    alg, s = make()
    conn = levi_civita(alg, s.metric)
    assert not np.any(ricci(alg, s.metric, conn))


def test_skew_triples_are_flat():
    for seed in range(5):
        t = generate(FamilyKind.SKEW, 120 + seed)
        alg, s = build(t)
        conn = levi_civita(alg, s.metric)
        assert np.max(np.abs(riemann_tensor(alg, conn))) <= 1e-9
        assert np.max(np.abs(ricci(alg, s.metric, conn))) <= 1e-9


def test_diag_example_ricci_blocks():
    alg, s = make(A=DIAG_A)
    ric = ricci(alg, s.metric, levi_civita(alg, s.metric))
    expected = np.zeros((7, 7))
    expected[6, 6] = -4.0  # -tr(A^2) at the e7 slot
    assert np.max(np.abs(ric - expected)) <= 1e-12


def test_ricci_symmetric(rng):
    alg, s = build(generate(FamilyKind.GENERAL, 130))
    ric = ricci(alg, s.metric, levi_civita(alg, s.metric))
    assert np.array_equal(ric, ric.T)


def curvature_contraction(alg, m, conn):
    """Ric(X, Y) = sum_i <R(e_i, X) Y, e_i> read off the full curvature tensor."""
    ric = np.einsum("ijkl,li->jk", riemann_tensor(alg, conn), m.matrix)
    return 0.5 * (ric + ric.T)


def test_ricci_is_the_contraction_of_the_curvature_tensor(rng):
    g = rng.standard_normal((7, 7))
    metrics = (Metric7.identity(), Metric7(g @ g.T + 7 * np.eye(7)))
    triples = [generate(kind, 135) for kind in FamilyKind]
    stacked, _ = build(TripleABC.stack(triples))
    for m in metrics:
        conn = levi_civita(stacked, m)
        ric = ricci(stacked, m, conn)
        for n, t in enumerate(triples):
            alg, _ = build(t)
            expected = curvature_contraction(alg, m, levi_civita(alg, m))
            assert np.max(np.abs(ric[n] - expected)) <= 1e-12


# -- divergence --------------------------------------------------------------------------

def test_divergence_of_zero_tensor():
    alg, s = make(A=DIAG_A)
    conn = levi_civita(alg, s.metric)
    assert not np.any(div_torsion(alg, s.metric, conn, np.zeros((7, 7))))


def test_divergence_free_families_small_sample():
    for kind in (FamilyKind.SKEW, FamilyKind.DIAGONAL, FamilyKind.ANTIDIAGONAL,
                 FamilyKind.SYMMETRIC):
        for seed in range(5):
            alg, s = build(generate(kind, 140 + seed))
            td = torsion_data(s)
            conn = levi_civita(alg, s.metric)
            div = div_torsion(alg, s.metric, conn, td.T)
            assert np.max(np.abs(div)) <= 1e-9, (kind, seed)


def test_closed_example_is_divergence_free():
    alg, s = make(A=DIAG_A)
    td = torsion_data(s)
    div = div_torsion(alg, s.metric, levi_civita(alg, s.metric), td.T)
    assert not np.any(div)


def test_divergence_requires_orthonormal_frame():
    alg, s = make(A=DIAG_A)
    m = Metric7(np.diag([2.0, 1, 1, 1, 1, 1, 1]))
    conn = levi_civita(alg, m)
    with pytest.raises(MetricError, match="orthonormal"):
        div_torsion(alg, m, conn, np.zeros((7, 7)))


# -- flow velocity --------------------------------------------------------------------------

def test_flow_velocity_zero_at_critical_points():
    _, s = make()
    assert flow_velocity(s, np.zeros(7)).is_zero()


def test_flow_velocity_e1_contraction():
    _, s = make()
    got = flow_velocity(s, basis_vec(1))
    assert got.coeffs == {(2, 5, 6): 1.0, (2, 3, 4): 1.0, (4, 5, 7): 1.0, (3, 6, 7): 1.0}


def test_flow_velocity_e7_matches_contraction_table():
    _, s = make()
    got = flow_velocity(s, basis_vec(7))
    assert (got - contract_basis(7, STANDARD_PSI)).is_zero()
    assert got(2, 4, 6) == 1.0
