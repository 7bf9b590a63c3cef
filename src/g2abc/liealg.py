"""7-dimensional Lie algebras by structure constants and their Chevalley-Eilenberg
differential on left-invariant forms."""

import numpy as np

from ._tables import COMBS, DIM, DIMS, WEDGE
from .errors import DegreeError, ValidationError
from .exterior import Form, contractions

#: Instances with a Jacobi residual above this are rejected at construction.
JACOBI_TOL = 1e-10

#: 0-based (i, j) of the 2-monomials e^{ij}, i < j, in rank order.
_PAIR_I, _PAIR_J = np.array(COMBS[2]).T - 1


def _as_constants(c):
    arr = np.asarray(c, dtype=np.float64)
    if arr.shape[-3:] != (DIM, DIM, DIM) or arr.ndim > 4:
        raise ValidationError(f"structure constants must be {DIM}x{DIM}x{DIM}, got {arr.shape}")
    return arr


def jacobi_residual(c):
    """Max-abs residual of the Jacobi identity over all basis triples
    (and over every algebra of an (N, 7, 7, 7) stack).

    Accepts a raw structure-constant array or a LieAlgebra7.
    """
    arr = c.c if isinstance(c, LieAlgebra7) else _as_constants(c)
    # [[e_i, e_j], e_k] = sum_l c[i,j,l] c[l,k,:], as one (ij, l) x (l, km) product
    lead = arr.shape[:-3]
    t = (arr.reshape(lead + (DIM * DIM, DIM)) @ arr.reshape(lead + (DIM, DIM * DIM))
         ).reshape(lead + (DIM,) * 4)
    cyc = t + np.einsum("...kijm->...ijkm", t)
    cyc += np.einsum("...jkim->...ijkm", t)
    return float(np.max(np.abs(cyc, out=cyc)))


class LieAlgebra7:
    """Lie algebra on e_1..e_7 with [e_i, e_j] = sum_k c[i,j,k] e_k  (0-based array).

    ``c`` of shape (N, 7, 7, 7) holds a stack of N algebras.
    """

    __slots__ = ("c",)

    def __init__(self, c, check=True):
        arr = _as_constants(c)
        if np.max(np.abs(arr + np.swapaxes(arr, -3, -2))) != 0.0:
            raise ValidationError("structure constants are not exactly antisymmetric in i, j")
        if check:
            res = jacobi_residual(arr)
            if res > JACOBI_TOL:
                raise ValidationError(f"Jacobi identity violated: residual {res:g} > {JACOBI_TOL:g}")
        arr = arr.copy()
        arr.flags.writeable = False
        self.c = arr

    @classmethod
    def abelian(cls):
        return cls(np.zeros((DIM, DIM, DIM)))

    def bracket(self, x, y):
        """[x, y] for coefficient vectors x, y."""
        xv = np.asarray(x, dtype=np.float64)
        yv = np.asarray(y, dtype=np.float64)
        return np.einsum("i,j,ijk->k", xv, yv, self.c)

    def basis_bracket(self, i, j):
        """[e_i, e_j] for 1-based basis labels."""
        return self.c[i - 1, j - 1].copy()


def bracket(g, x, y):
    return g.bracket(x, y)


def is_unimodular(g, tol=1e-12):
    """True when every adjoint map ad_{e_i} is traceless within tol."""
    traces = np.einsum("ikk->i", g.c)
    return bool(np.max(np.abs(traces)) <= tol)


def ce_diff(g, a):
    """Chevalley-Eilenberg differential of a left-invariant form.

    On 1-forms (d alpha)(X, Y) = -alpha([X, Y]); antiderivation in general:
    d a = sum_m (d e^m) ^ iota_{e_m} a.  A stack of algebras differentiates
    a form (or a stack of forms) once per algebra.
    """
    if not isinstance(a, Form):
        raise DegreeError("ce_diff expects a Form")
    if a.degree >= DIM:
        raise DegreeError("cannot differentiate a top-degree form")
    k = a.degree
    # d e^m = -sum_{i<j} c[i,j,m] e^{ij}: row p of d1 holds c[i_p, j_p, :]
    d1 = g.c[..., _PAIR_I, _PAIR_J, :]
    if k == 0:
        return Form.zero(1)
    # mixed[p, q]: coefficient of e^{I_p} ^ e^{Q_q} in sum_m (d e^m) ^ iota_{e_m} a
    mixed = -(d1 @ contractions(a))
    flat = mixed.reshape(mixed.shape[:-2] + (-1,))
    return Form(k + 1, flat @ WEDGE[(2, k - 1)].reshape(-1, DIMS[k + 1]))
