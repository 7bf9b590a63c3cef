"""Levi-Civita connection of the metric making e_1..e_7 orthonormal on a Lie
algebra, its Ricci curvature, and the divergence of the full torsion tensor.

An algebra is its (7, 7, 7) array c of structure constants, a connection the
(7, 7, 7) array gamma of nabla_{e_i} e_j = sum_k gamma[i, j, k] e_k.  Connections,
Ricci tensors and divergences of a stack of N algebras, (N, 7, 7, 7) constants,
carry a leading axis of length N."""

import numpy as np

from ._tables import DIM


def levi_civita(c):
    """Levi-Civita connection gamma of the left-invariant metric, by the Koszul formula:

    2 <nabla_X Y, Z> = <[X,Y], Z> - <[Y,Z], X> + <[Z,X], Y>,  c[i,j,k] = <[e_i,e_j], e_k>.
    """
    # gamma[i,j,k] = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2, the last two terms as views
    return 0.5 * (c - c.swapaxes(-1, -2).swapaxes(-2, -3) + c.swapaxes(-3, -2).swapaxes(-2, -1))


def ricci(c, gamma):
    """Ricci tensor Ric(X, Y) = sum_i <R(e_i, X) Y, e_i> of the connection gamma.

    Contracted term by term from the curvature
    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z, without forming the
    4-index tensor (tests/helpers.py keeps it, riemann_tensor, as the reference):
    Ric[j,k] = sum_m gamma[j,k,m] t[m] - sum_im gamma[i,k,m] gamma[j,m,i]
               - sum_im c[i,j,m] gamma[m,k,i],
    with t[m] = sum_i gamma[i,m,i].
    """
    trace = np.einsum("...imi->...m", gamma)
    rows = lambda x: x.reshape(x.shape[:-3] + (DIM, DIM * DIM))  # (a, b, c) -> (a, (b, c))
    cols = lambda x: x.reshape(x.shape[:-3] + (DIM * DIM, DIM))  # (a, b, c) -> ((a, b), c)
    moved = cols(gamma.swapaxes(-1, -2).swapaxes(-2, -3))  # moved[(m, i), k] = gamma[i, k, m]
    ric = ((gamma @ trace[..., None, :, None])[..., 0]
           - rows(gamma) @ moved  # gamma[j,m,i] gamma[i,k,m] over (m, i)
           + rows(c) @ moved)  # c[j,i,m] = -c[i,j,m]; gamma[m,k,i] = moved[(i, m), k]
    return 0.5 * (ric + ric.swapaxes(-1, -2))


def div_torsion(gamma, T):
    """Divergence of a left-invariant (0,2) tensor in the orthonormal frame e_1..e_7,
    for the connection gamma:

    <div T, e_j> = -sum_i T(nabla_{e_i} e_i, e_j) - sum_i T(e_i, nabla_{e_i} e_j).
    """
    Tm = np.asarray(T, dtype=np.float64)
    trace_vec = np.einsum("...iim->...m", gamma)  # sum_i nabla_{e_i} e_i
    term1 = np.einsum("...m,...mj->...j", trace_vec, Tm)
    term2 = np.einsum("...ijm,...im->...j", gamma, Tm)
    return -(term1 + term2) + 0.0  # + 0.0 normalises -0.0 entries
