"""Levi-Civita connection of the metric making e_1..e_7 orthonormal on a Lie
algebra, curvature, Ricci, divergence of the full torsion tensor, and the
torsion-flow velocity.

Connections, Ricci tensors and divergences of a stack of N algebras carry
a leading axis of length N."""

from dataclasses import dataclass

import numpy as np

from ._tables import DIM
from .exterior import contract
from .g2core import _chop


@dataclass(frozen=True)
class Connection7:
    """Connection coefficients: nabla_{e_i} e_j = sum_k gamma[i, j, k] e_k."""

    gamma: np.ndarray

    def residuals(self, g):
        """(metric-compatibility, torsion-freeness) max-abs residuals."""
        compat_res = float(np.max(np.abs(self.gamma + self.gamma.transpose(0, 2, 1))))
        torsion_res = float(np.max(np.abs(
            self.gamma - self.gamma.transpose(1, 0, 2) - g.c)))
        return compat_res, torsion_res


def levi_civita(g):
    """Levi-Civita connection of the left-invariant metric, by the Koszul formula:

    2 <nabla_X Y, Z> = <[X,Y], Z> - <[Y,Z], X> + <[Z,X], Y>.
    """
    c = g.c  # c[i,j,k] = <[e_i,e_j], e_k>
    # gamma[i,j,k] = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2
    gamma = 0.5 * (c - np.einsum("...jki->...ijk", c) + np.einsum("...kij->...ijk", c))
    return Connection7(gamma=_chop(gamma))


def u_map(g, x, y):
    """The symmetric bilinear part of the connection:

    2 <U(X,Y), Z> = <[Z,X], Y> - <[Y,Z], X>;   nabla_X Y = [X,Y]/2 + U(X,Y).
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    zx = np.einsum("kil,i,l->k", g.c, xv, yv)   # <[e_k, x], y>
    yz = np.einsum("jkl,j,l->k", g.c, yv, xv)   # <[y, e_k], x>
    return 0.5 * (zx - yz)


def riemann_tensor(g, conn):
    """Curvature R[i,j,k,l]: component l of R(e_i, e_j) e_k, with
    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
    gamma = conn.gamma
    grad2 = np.einsum("jkm,iml->ijkl", gamma, gamma)
    rbrack = np.einsum("ijm,mkl->ijkl", g.c, gamma)
    return grad2 - grad2.transpose(1, 0, 2, 3) - rbrack


def ricci(g, conn):
    """Ricci tensor Ric(X, Y) = sum_i <R(e_i, X) Y, e_i>.

    Contracted term by term from the curvature formula of riemann_tensor,
    without forming the 4-index tensor:
    Ric[j,k] = sum_m gamma[j,k,m] t[m] - sum_im gamma[i,k,m] gamma[j,m,i]
               - sum_im c[i,j,m] gamma[m,k,i],
    with t[m] = sum_i gamma[i,m,i].
    """
    gamma = conn.gamma
    trace = np.einsum("...imi->...m", gamma)
    rows = lambda x: x.reshape(x.shape[:-3] + (DIM, DIM * DIM))  # (a, b, c) -> (a, (b, c))
    cols = lambda x: x.reshape(x.shape[:-3] + (DIM * DIM, DIM))  # (a, b, c) -> ((a, b), c)
    moved = cols(np.moveaxis(gamma, -1, -3))  # moved[(m, i), k] = gamma[i, k, m]
    ric = ((gamma @ trace[..., None, :, None])[..., 0]
           - rows(gamma) @ moved  # gamma[j,m,i] gamma[i,k,m] over (m, i)
           + rows(g.c) @ moved)  # c[j,i,m] = -c[i,j,m]; gamma[m,k,i] = moved[(i, m), k]
    return _chop(0.5 * (ric + ric.swapaxes(-1, -2)))


def div_torsion(g, conn, T):
    """Divergence of a left-invariant (0,2) tensor in the orthonormal frame e_1..e_7:

    <div T, e_j> = -sum_i T(nabla_{e_i} e_i, e_j) - sum_i T(e_i, nabla_{e_i} e_j).
    """
    gamma = conn.gamma
    Tm = np.asarray(T, dtype=np.float64)
    # sum_i nabla_{e_i} e_i, chopped like every algebraic intermediate so that
    # structural zeros survive in floating point
    trace_vec = _chop(np.einsum("...iim->...m", gamma))
    term1 = np.einsum("...m,...mj->...j", trace_vec, Tm)
    term2 = np.einsum("...ijm,...im->...j", gamma, Tm)
    return -(term1 + term2) + 0.0  # + 0.0 normalises -0.0 entries


def flow_velocity(s, div_t):
    """Right-hand side of the torsion flow at this structure: iota_{div T}(psi)."""
    return contract(np.asarray(div_t, dtype=np.float64), s.psi)
