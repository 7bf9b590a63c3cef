"""7-dimensional Lie algebras by structure constants and their Chevalley-Eilenberg
differential on left-invariant forms."""

import numpy as np

from ._tables import COMBS, DIM, DIMS, WEDGE
from .errors import DegreeError, ValidationError
from .exterior import Form, contractions

#: Instances with a Jacobi residual above this times max(1, s)^2 are rejected at
#: construction, s = max|c| of the algebra (the Jacobiator is quadratic in c).
JACOBI_TOL = 1e-10

#: 0-based (i, j) of the 2-monomials e^{ij}, i < j, in rank order.
_PAIR_I, _PAIR_J = np.array(COMBS[2]).T - 1
_PAIR_RANK = np.zeros((DIM, DIM), dtype=np.intp)
_PAIR_RANK[_PAIR_I, _PAIR_J] = np.arange(len(COMBS[2]))
#: 0-based (i, j, k) of the basis triples i < j < k, and the ranks of their
#: pairs (i, j), (i, k), (j, k).
_TRIPLE_I, _TRIPLE_J, _TRIPLE_K = np.array(COMBS[3]).T - 1
_RANK_IJ, _RANK_IK, _RANK_JK = (_PAIR_RANK[a, b] for a, b in (
    (_TRIPLE_I, _TRIPLE_J), (_TRIPLE_I, _TRIPLE_K), (_TRIPLE_J, _TRIPLE_K)))


def _as_constants(c):
    arr = np.asarray(c, dtype=np.float64)
    if arr.shape[-3:] != (DIM, DIM, DIM) or arr.ndim > 4:
        raise ValidationError(f"structure constants must be {DIM}x{DIM}x{DIM}, got {arr.shape}")
    return arr


def _jacobi_residuals(arr):
    """Max-abs Jacobi residual per algebra of the constants arr, exactly antisymmetric
    in i, j: the Jacobiator is then alternating, so 35 triples i < j < k give the max."""
    # t[p, k, m] = [[e_i, e_j], e_k]_m for the pair p = (i, j), i < j
    lead = arr.shape[:-3]
    t = (arr[..., _PAIR_I, _PAIR_J, :] @ arr.reshape(lead + (DIM, DIM * DIM))
         ).reshape(lead + (len(_PAIR_I), DIM, DIM))
    # [[e_i, e_j], e_k] + [[e_k, e_i], e_j] + [[e_j, e_k], e_i], with [e_k, e_i] = -[e_i, e_k]
    cyc = t[..., _RANK_IJ, _TRIPLE_K, :] - t[..., _RANK_IK, _TRIPLE_J, :]
    cyc += t[..., _RANK_JK, _TRIPLE_I, :]
    return np.abs(cyc, out=cyc).max(axis=(-2, -1))


class LieAlgebra7:
    """Lie algebra on e_1..e_7 with [e_i, e_j] = sum_k c[i,j,k] e_k  (0-based array).

    ``c`` of shape (N, 7, 7, 7) holds a stack of N algebras.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        arr = _as_constants(c)
        if np.max(np.abs(arr + np.swapaxes(arr, -3, -2))) != 0.0:
            raise ValidationError("structure constants are not exactly antisymmetric in i, j")
        arr = arr.copy()
        arr.flags.writeable = False
        self.c = arr
        res, b = _jacobi_residuals(arr), np.maximum(1.0, np.abs(arr).max(axis=(-3, -2, -1)))
        bad = np.ravel(~(res / b <= JACOBI_TOL * b))  # per algebra; b * b could overflow
        if bad.any():
            n = int(bad.argmax())
            raise ValidationError.of_trial(
                n, bad.size, f"Jacobi identity violated: residual {res.flat[n]:g} > "
                             f"{JACOBI_TOL * b.flat[n] ** 2:g}")


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
