"""Plain helpers shared by the test modules (fixtures live in conftest.py)."""

import os
from pathlib import Path

import numpy as np

from g2abc._tables import COMBS, DIM, DIMS, RANK, TOP, WEDGE
from g2abc.exterior import Form, _linear_operator, _vecmat, contractions
from g2abc import g2core, gabc
from g2abc.g2core import TAIL_COLUMNS, torsion_data
from g2abc.gabc import _ABC_ROWS, _DERIVATIVES, OMEGA, TripleABC, _skew, _sym, build, theta
from g2abc.liealg import _PAIR_I, _PAIR_J, _jacobi_residuals


def python_dash_m_env():
    """The environment of a `python -m g2abc` child that imports this tree's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("G2ABC_TOL", None)
    return env


def random_form(rng, degree, scale=1.0):
    return Form(degree, scale * rng.standard_normal(DIMS[degree]))


def random_monomial(rng, degree):
    indices = tuple(sorted(rng.choice(np.arange(1, 8), size=degree, replace=False)))
    return indices


ZERO4 = np.zeros((4, 4))


def e_matrix(i, j, value=1.0):
    """4x4 elementary matrix in the 3..6 labelling."""
    m = np.zeros((4, 4))
    m[i - 3, j - 3] = value
    return m


def contract_basis(m, a):
    """Interior product of the form a by the basis vector e_m (1-based)."""
    return Form(a.degree - 1, contractions(a)[..., m - 1, :])


def member(form, n):
    """Form n of a stack of forms."""
    return Form(form.degree, form.values[n])


def form_inner(a, b):
    """Inner product of two same-degree forms; the monomials are orthonormal."""
    return float(a.values @ b.values)


def is_unimodular(c, tol=1e-12):
    """True when every adjoint map ad_{e_i} of the algebra of the structure constants c
    is traceless within tol."""
    return bool(np.max(np.abs(np.einsum("...ikk->...i", c))) <= tol)


def tail_operator():
    """TAIL built again from g2core's stepwise stages as they are now, as g2core builds it
    at import: a test that patches a stage rebuilds the operator that composes it."""
    return _linear_operator(g2core._tail_stages, DIMS[4] + DIMS[5], g2core._TAIL_WIDTHS)


def isometric_directions(phi):
    """The (7, 7, 7) array of the xi_m, (xi_m)_ij = phi(e_m, e_i, e_j), of the 3-form phi:
    for the standard phi they span the R^7 of so(7) = g2 + R^7."""
    xi = np.zeros((DIM, DIM, DIM))
    for r, (i, j) in enumerate(COMBS[2]):
        xi[:, i - 1, j - 1] = contractions(phi)[:, r]
        xi[:, j - 1, i - 1] = -contractions(phi)[:, r]
    return xi


def act(xi, c):
    """(xi . c)_ijk = sum_l xi_kl c_ijl - xi_li c_ljk - xi_lj c_ilk: the derivative at t = 0
    of the structure constants c rotated by exp(t xi), for a matrix xi of so(7)."""
    return (np.einsum("kl,...ijl->...ijk", xi, c) - np.einsum("li,...ljk->...ijk", xi, c)
            - np.einsum("lj,...ilk->...ijk", xi, c))


def jacobi_residual(c):
    """Largest Jacobi residual of the structure constants c (over a whole stack)."""
    return float(np.max(_jacobi_residuals(np.asarray(c, dtype=np.float64))))


def unstack(t):
    """The triples of a stack, each as a TripleABC of its own."""
    return [TripleABC(*abc) for abc in t.abc]


def stack_of(triples):
    """The stack of the given (validated) triples, in order, as one TripleABC."""
    return TripleABC._of_validated(np.stack([t.abc for t in triples]))


def product_columns(t, block, operator=None):
    """The columns of a block of gabc's operator layout, of either half, as a pass reads
    them: the product of the entries of t with the operator (gabc's own, or a copy of it),
    at the columns its live-column map gives the block."""
    operator = gabc._OPERATOR if operator is None else operator
    values = _vecmat(t.abc.reshape(-1, 48), operator).take(
        gabc._LIVE_AT[gabc._COLUMNS[block]], axis=1)
    return values.reshape(t.abc.shape[:-3] + values.shape[-1:])


def tabulated_derivatives(t):
    """(dphi, star dphi, dpsi, star dpsi) of the theta-action formulas, as Forms
    read from their columns of the operator."""
    return tuple(Form(degree, product_columns(t, f)) for f, degree in _DERIVATIVES)


def oracle_reference(t):
    """The oracles of a pass's compared columns on the stack t, concatenated by hand in
    the order of the tabulated layout: the general table's torsion forms and
    iota_tau1_phi and each family table's torsion forms, from the torsion tail; theta of
    each of A, B and C on omega7, omega1 and omega2, from its definition; then dphi,
    star dphi, dpsi and star dpsi.  The reference of the oracles that test_gabc's
    pass_reads gives: a pair the pass leaves out is two zero columns, read there as zero."""
    _, s = build(t)
    tail = torsion_data(s).tail
    forms = lambda *parts: [tail[:, TAIL_COLUMNS[part]] for part in parts]
    tables = forms("tau0", "tau1", "tau2", "tau3", "iota_tau1_phi") + 3 * forms(
        "tau0", "tau1", "tau2", "tau3")
    thetas = [theta(M, OMEGA[which]).values for M in t.matrices() for which in (7, 1, 2)]
    derivatives = [s.dphi, *forms("star_dphi"), s.dpsi, *forms("star_dpsi")]
    return np.concatenate(tables + thetas + derivatives, axis=1)


# -- the generic route's products in two steps, as references ------------------

def ce_diff_reference(c, a):
    """liealg.ce_diff of the k-form a, 1 <= k <= 6, in two steps: the products of the
    d e^m = -sum_{i<j} c[i,j,m] e^{ij} with the contractions iota_{e_m} a, then their
    wedge through WEDGE[(2, k-1)]."""
    k = a.degree
    # mixed[p, q]: coefficient of e^{I_p} ^ e^{Q_q} in sum_m (d e^m) ^ iota_{e_m} a
    mixed = -(np.asarray(c)[..., _PAIR_I, _PAIR_J, :] @ contractions(a))
    flat = mixed.reshape(mixed.shape[:-2] + (-1,))
    return Form(k + 1, flat @ WEDGE[(2, k - 1)].reshape(-1, DIMS[k + 1]))


def nabla_phi_reference(gamma, phi):
    """The (..., 35, 7) right-hand sides of the torsion solve in two steps: column i is
    nabla_{e_i} phi = -sum_jk gamma[i,j,k] e^j ^ iota_{e_k} phi, from the (49, 7) @ (7, 21)
    product of the connection rows with the contractions of phi, then WEDGE[(1, 2)]."""
    gamma = np.asarray(gamma)
    lead = gamma.shape[:-3]
    mixed = gamma.reshape(lead + (DIM * DIM, DIM)) @ contractions(phi)
    return -(mixed.reshape(lead + (DIM, -1)) @ WEDGE[(1, 2)].reshape(-1, DIMS[3])).swapaxes(-1, -2)


def riemann_tensor(c, gamma):
    """Curvature R[i,j,k,l] of the connection gamma: component l of R(e_i, e_j) e_k, with
    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z; (N, 7, 7, 7, 7) for
    a stack of N.  The 4-index tensor whose contraction riemann.ricci takes term by term."""
    grad2 = np.einsum("...jkm,...iml->...ijkl", gamma, gamma)
    rbrack = np.einsum("...ijm,...mkl->...ijkl", c, gamma)
    return grad2 - grad2.swapaxes(-4, -3) - rbrack


# -- the dense operators, one entry at a time, as references --------------------

def merge_sign(left, right):
    """Sign of sorting the concatenation of two ascending tuples; 0 if they share an index."""
    if set(left) & set(right):
        return 0
    inversions = sum(1 for x in left for y in right if x > y)
    return -1 if inversions & 1 else 1


def wedge_operator_reference(k1, k2):
    """_tables.WEDGE[(k1, k2)], entry by entry from the sorting permutation."""
    op = np.zeros((DIMS[k1], DIMS[k2], DIMS[k1 + k2]))
    for i, left in enumerate(COMBS[k1]):
        for j, right in enumerate(COMBS[k2]):
            s = merge_sign(left, right)
            if s:
                op[i, j, RANK[k1 + k2][tuple(sorted(left + right))]] = s
    return op


def contract_operator_reference(k):
    """_tables.CONTRACT[k], entry by entry: iota_{e_m} e^I = (-1)^(t-1) e^(I \\ m),
    m the t-th entry of I."""
    op = np.zeros((DIM, DIMS[k], DIMS[k - 1]))
    for i, comb in enumerate(COMBS[k]):
        for t, m in enumerate(comb):
            op[m - 1, i, RANK[k - 1][comb[:t] + comb[t + 1:]]] = -1.0 if t & 1 else 1.0
    return op


def star_operator_reference(k):
    """_tables.STAR[k], entry by entry: star e^I = sign(I, I^c) e^(I^c)."""
    op = np.zeros((DIMS[DIM - k], DIMS[k]))
    for i, left in enumerate(COMBS[k]):
        rest = tuple(m for m in TOP if m not in left)
        op[RANK[DIM - k][rest], i] = merge_sign(left, rest)
    return op


# -- the family shapes, one predicate per family and matrix, as references ------
# Each takes a 4x4 matrix, or an (N, 4, 4) stack, and answers per matrix.

def is_diagonal_matrix(M):
    return (M[..., ~np.eye(4, dtype=bool)] == 0.0).all(axis=-1)


def is_antidiagonal_matrix(M):
    return (M[..., ~np.eye(4, dtype=bool)[::-1]] == 0.0).all(axis=-1)


def is_skew_matrix(M):
    return (M == -M.swapaxes(-1, -2)).all(axis=(-2, -1))


def is_symmetric_matrix(M):
    return (M == M.swapaxes(-1, -2)).all(axis=(-2, -1))


def shapes_reference(abc):
    """gabc._shapes of the (..., 3, 4, 4) array abc by the predicates above: per triple,
    whether all three matrices have each shape, in the priority order of gabc._FAMILIES
    (DIAGONAL, ANTIDIAGONAL, SKEW, SYMMETRIC, then GENERAL, which every triple has)."""
    flags = [predicate(abc).all(axis=-1) for predicate in (
        is_diagonal_matrix, is_antidiagonal_matrix, is_skew_matrix, is_symmetric_matrix)]
    return np.stack([*flags, np.ones_like(flags[0])], axis=-1)


# -- per-matrix transcriptions of the closed forms, as references --------------

def closed_form_connection_reference(t):
    """gabc.closed_form_connection, one matrix of (A, B, C) at a time."""
    gamma = np.zeros(t.abc.shape[:-3] + (DIM, DIM, DIM))
    for row, M in zip(_ABC_ROWS, t.matrices()):
        am, sm = _skew(M), _sym(M)
        gamma[..., row, 2:6, 2:6] = am.swapaxes(-1, -2)
        gamma[..., 2:6, row, 2:6] = -sm.swapaxes(-1, -2)
        gamma[..., 2:6, 2:6, row] = sm
    return gamma


def closed_form_ricci_reference(t):
    """gabc.closed_form_ricci, one matrix and one entry of the a x a block at a time."""
    A, B, C = t.matrices()
    ric = np.zeros(A.shape[:-2] + (DIM, DIM))
    comm = lambda M: M @ M.swapaxes(-1, -2) - M.swapaxes(-1, -2) @ M
    ric[..., 2:6, 2:6] = 0.5 * (comm(A) + comm(B) + comm(C))
    sa, sb, sc = _sym(A), _sym(B), _sym(C)
    tr = lambda M, N: np.trace(M @ N, axis1=-2, axis2=-1)
    ra, rb, rc = _ABC_ROWS
    ric[..., ra, ra] = -tr(sa, sa)
    ric[..., rb, rb] = -tr(sb, sb)
    ric[..., rc, rc] = -tr(sc, sc)
    ric[..., ra, rb] = ric[..., rb, ra] = -tr(sa, B)
    ric[..., ra, rc] = ric[..., rc, ra] = -tr(sa, C)
    ric[..., rb, rc] = ric[..., rc, rb] = -tr(sb, C)
    return ric


def closed_form_divergence_reference(t, tau27):
    """gabc.closed_form_divergence, one matrix at a time, as the diagonal term
    -sum_n (D^j)_nn tau27_nn plus the off-diagonal term -sum_{i != l} S(D^j)_il tau27_il."""
    block = np.asarray(tau27, dtype=np.float64)[..., 2:6, 2:6]
    div = np.zeros(block.shape[:-2] + (DIM,))
    diag = lambda M: np.diagonal(M, axis1=-2, axis2=-1)
    for row, M in zip(_ABC_ROWS, t.matrices()):
        sm = _sym(M)
        diag_term = np.sum(diag(M) * diag(block), axis=-1)
        off = sm * block
        off_term = np.sum(off, axis=(-2, -1)) - np.sum(diag(off), axis=-1)
        div[..., row] = -diag_term - off_term
    return div
