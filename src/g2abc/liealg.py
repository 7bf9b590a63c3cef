"""7-dimensional Lie algebras by structure constants and their Chevalley-Eilenberg
differential on left-invariant forms."""

import numpy as np

from ._tables import COMBS, CONTRACT, DIM, DIMS, WEDGE
from .errors import DegreeError, ValidationError
from .exterior import Form

#: Instances with a Jacobi residual above this are rejected at construction.
JACOBI_TOL = 1e-10

#: 0-based (i, j) of the 2-monomials e^{ij}, i < j, in rank order.
_PAIR_I, _PAIR_J = np.array(COMBS[2]).T - 1


def _as_constants(c):
    arr = np.asarray(c, dtype=np.float64)
    if arr.shape != (DIM, DIM, DIM):
        raise ValidationError(f"structure constants must be {DIM}x{DIM}x{DIM}, got {arr.shape}")
    return arr


def jacobi_residual(c):
    """Max-abs residual of the Jacobi identity over all basis triples.

    Accepts a raw structure-constant array or a LieAlgebra7.
    """
    arr = c.c if isinstance(c, LieAlgebra7) else _as_constants(c)
    # [[e_i, e_j], e_k] = sum_l c[i,j,l] c[l,k,:]
    t = np.einsum("ijl,lkm->ijkm", arr, arr)
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(cyc)))


class LieAlgebra7:
    """Lie algebra on e_1..e_7 with [e_i, e_j] = sum_k c[i,j,k] e_k  (0-based array)."""

    __slots__ = ("c", "_d_mats")

    def __init__(self, c, check=True):
        arr = _as_constants(c)
        if np.max(np.abs(arr + arr.transpose(1, 0, 2))) != 0.0:
            raise ValidationError("structure constants are not exactly antisymmetric in i, j")
        if check:
            res = jacobi_residual(arr)
            if res > JACOBI_TOL:
                raise ValidationError(f"Jacobi identity violated: residual {res:g} > {JACOBI_TOL:g}")
        arr = arr.copy()
        arr.flags.writeable = False
        self.c = arr
        self._d_mats = {}

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

    def d_matrix(self, degree):
        """Matrix of the Chevalley-Eilenberg differential on degree-k coefficients."""
        if degree not in self._d_mats:
            self._d_mats[degree] = self._build_d_matrix(degree)
        return self._d_mats[degree]

    def _build_d_matrix(self, degree):
        if degree == 0:
            return np.zeros((DIMS[1], DIMS[0]))
        # d = sum_m (d e^m) ^ iota_{e_m} with d e^m = -sum_{i<j} c[i,j,m] e^{ij};
        # column m of d1 holds the coefficients of d e^m on the 2-monomials.
        d1 = -self.c[_PAIR_I, _PAIR_J, :]
        d_wedge = np.tensordot(d1, WEDGE[(2, degree - 1)], axes=(0, 0))  # (m, o, r)
        return np.tensordot(CONTRACT[degree], d_wedge, axes=([0, 2], [0, 1])).T


def bracket(g, x, y):
    return g.bracket(x, y)


def is_unimodular(g, tol=1e-12):
    """True when every adjoint map ad_{e_i} is traceless within tol."""
    traces = np.einsum("ikk->i", g.c)
    return bool(np.max(np.abs(traces)) <= tol)


def ce_diff(g, a):
    """Chevalley-Eilenberg differential of a left-invariant form.

    On 1-forms (d alpha)(X, Y) = -alpha([X, Y]); antiderivation in general.
    """
    if not isinstance(a, Form):
        raise DegreeError("ce_diff expects a Form")
    if a.degree >= DIM:
        raise DegreeError("cannot differentiate a top-degree form")
    return Form(a.degree + 1, g.d_matrix(a.degree) @ a.values)
