"""Levi-Civita connection on a metric Lie algebra, curvature, Ricci,
divergence of the full torsion tensor, and the torsion-flow velocity.

Connections, Ricci tensors and divergences of a stack of N algebras carry
a leading axis of length N."""

from dataclasses import dataclass

import numpy as np

from ._tables import DIM
from .errors import MetricError
from .exterior import contract
from .g2core import _chop


@dataclass(frozen=True)
class Connection7:
    """Connection coefficients: nabla_{e_i} e_j = sum_k gamma[i, j, k] e_k."""

    gamma: np.ndarray

    def residuals(self, g, m):
        """(metric-compatibility, torsion-freeness) max-abs residuals."""
        gm = m.matrix
        compat = np.einsum("ijl,lk->ijk", self.gamma, gm)
        compat_res = float(np.max(np.abs(compat + compat.transpose(0, 2, 1))))
        torsion_res = float(np.max(np.abs(
            self.gamma - self.gamma.transpose(1, 0, 2) - g.c)))
        return compat_res, torsion_res


def levi_civita(g, m):
    """Levi-Civita connection of a left-invariant metric, by the Koszul formula:

    2 <nabla_X Y, Z> = <[X,Y], Z> - <[Y,Z], X> + <[Z,X], Y>.
    """
    cg = g.c @ m.matrix  # cg[i,j,k] = <[e_i,e_j], e_k>
    # rhs[i,j,k] = (cg[i,j,k] - cg[j,k,i] + cg[k,i,j]) / 2
    rhs = 0.5 * (cg - np.einsum("...jki->...ijk", cg) + np.einsum("...kij->...ijk", cg))
    if m.is_identity:
        gamma = rhs
    else:
        gamma = rhs @ m.inverse
    return Connection7(gamma=_chop(gamma))


def u_map(g, m, x, y):
    """The symmetric bilinear part of the connection:

    2 <U(X,Y), Z> = <[Z,X], Y> - <[Y,Z], X>;   nabla_X Y = [X,Y]/2 + U(X,Y).
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    gm = m.matrix
    zx = np.einsum("kil,i,lm,m->k", g.c, xv, gm, yv)   # <[e_k, x], y>
    yz = np.einsum("jkl,j,lm,m->k", g.c, yv, gm, xv)   # <[y, e_k], x>
    rhs = 0.5 * (zx - yz)
    return rhs if m.is_identity else m.inverse @ rhs


def riemann_tensor(g, conn):
    """Curvature R[i,j,k,l]: component l of R(e_i, e_j) e_k, with
    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
    gamma = conn.gamma
    grad2 = np.einsum("jkm,iml->ijkl", gamma, gamma)
    rbrack = np.einsum("ijm,mkl->ijkl", g.c, gamma)
    return grad2 - grad2.transpose(1, 0, 2, 3) - rbrack


def ricci(g, m, conn):
    """Ricci tensor Ric(X, Y) = sum_i <R(e_i, X) Y, e_i>.

    Contracted term by term from the curvature formula of riemann_tensor,
    without forming the 4-index tensor:
    Ric[j,k] = sum_m gamma[j,k,m] t[m] - sum_im gamma[i,k,m] G[j,m,i]
               - sum_im c[i,j,m] G[m,k,i],
    with G[a,b,i] = sum_l gamma[a,b,l] g[l,i] and t[m] = sum_i G[i,m,i].
    """
    gamma = conn.gamma
    gg = gamma @ m.matrix
    trace = np.einsum("...imi->...m", gg)
    ric = (np.einsum("...jkm,...m->...jk", gamma, trace)
           - np.einsum("...ikm,...jmi->...jk", gamma, gg)
           - np.einsum("...ijm,...mki->...jk", g.c, gg))
    return _chop(0.5 * (ric + ric.swapaxes(-1, -2)))


def div_torsion(g, m, conn, T):
    """Divergence of a left-invariant (0,2) tensor in an orthonormal frame:

    <div T, e_j> = -sum_i T(nabla_{e_i} e_i, e_j) - sum_i T(e_i, nabla_{e_i} e_j).
    """
    if not m.is_identity:
        raise MetricError("div_torsion requires an orthonormal frame (identity metric)")
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
