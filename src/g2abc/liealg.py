"""7-dimensional Lie algebras as the (7, 7, 7) array c of structure constants,
[e_i, e_j] = sum_k c[i,j,k] e_k (0-based), or (N, 7, 7, 7) for a stack of N: the
checked constructor LieAlgebra7 and the Chevalley-Eilenberg differential.  The
differential of a form is linear in the 147 constants c[i,j,m], i < j, so ce_diff is one
gather of them and one product with an operator that the form builds once and keeps."""

import numbers

import numpy as np

from ._tables import COMBS, DIM, DIMS, WEDGE
from .errors import DegreeError, ValidationError
from .exterior import Form, _vecmat, contractions

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


def _real_array(what, x, shape):
    """The float64 array of x, the entries of what, which must be real numbers (held as
    Python objects, a Fraction is one) within float64 range: a float64 cast would drop
    imaginary parts, and take "1" and True as numbers.  shape names the expected shape,
    for nested sequences numpy cannot shape.  One rule judges every input: an array by its
    own dtype kind, and a list or tuple by the types of its entries and, when numpy can
    hold it only as objects, each of its parts by this rule, so that an array inside it is
    judged by its own kind before numpy casts it to objects."""
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # rows of unequal lengths, or nested deeper than numpy's limit
        why = ", got rows of unequal lengths" if "inhomogeneous" in str(exc) else f": {exc}"
        raise ValidationError(f"{what} must be {shape}{why}") from None
    if arr.dtype.kind == "c":
        raise ValidationError(f"{what} has complex entries")
    # the array's own kind first; then, as numpy reads a True among a sequence's numbers as
    # 1, its entries.  numpy registers np.timedelta64 as a signed integer, so a Real check
    # alone would take such a scalar as its count of units
    entries = arr if isinstance(x, np.ndarray) else np.asarray(x, dtype=object)
    if arr.dtype.kind not in "iufO" or entries.dtype.kind == "O" and not all(
            issubclass(kind, numbers.Real) and not issubclass(kind, (bool, np.timedelta64))
            for kind in set(map(type, entries.flat))):
        raise ValidationError(f"{what} has an entry that is not a real number")
    if arr.dtype.kind == "O" and isinstance(x, (list, tuple)):
        # the object cast turns a datetime or timedelta array at ns resolution into ints
        for part in x:
            _real_array(what, part, shape)
    try:
        return np.asarray(arr, dtype=np.float64)
    except OverflowError:  # an integer, or a Fraction, beyond the largest float64
        raise ValidationError(f"{what} has an entry too large for a float64") from None


class LieAlgebra7:
    """Checked constructor for an algebra that a user builds: ``c`` is a read-only float64
    copy of constants that are real numbers, exactly antisymmetric and satisfy Jacobi.
    Complex, boolean, string and other non-real entries, and entries beyond the float64
    range, are a ValidationError, as in TripleABC, not cast.  The pass does not use it:
    the Jacobi residual of g_{A,B,C} is the largest entry of [A,B], [A,C] and [B,C],
    which TripleABC bounds by the same JACOBI_TOL * max(1, s)^2."""

    __slots__ = ("c",)

    def __init__(self, c):
        arr = _real_array("array c of structure constants", c, "7x7x7").copy()
        if arr.shape[-3:] != (DIM, DIM, DIM) or arr.ndim > 4:
            raise ValidationError(f"structure constants must be {DIM}x{DIM}x{DIM}, got {arr.shape}")
        if np.max(np.abs(arr + np.swapaxes(arr, -3, -2))) != 0.0:
            raise ValidationError("structure constants are not exactly antisymmetric in i, j")
        arr.flags.writeable = False
        self.c = arr
        res, b = _jacobi_residuals(arr), np.maximum(1.0, np.abs(arr).max(axis=(-3, -2, -1)))
        ValidationError.raise_first_failing(
            ~(res / b <= JACOBI_TOL * b),  # per algebra; b * b could overflow
            lambda n: f"Jacobi identity violated: residual {res.flat[n]:g} > "
                      f"{JACOBI_TOL * b.flat[n] ** 2:g}")


def _ce_operator(a):
    """The read-only (..., 147, C(7,k+1)) operator of the Chevalley-Eilenberg differential of
    the k-form a on the gathered constants c[..., _PAIR_I, _PAIR_J, :]: row 7p + m is the
    (k+1)-form -e^{I_p} ^ iota_{e_{m+1}} a, I_p the p-th 2-monomial.  The form builds it from
    its contractions on the first call and keeps it, as it keeps them."""
    if a._ce is None:
        k = a.degree
        op = -np.einsum("...mq,pqo->...pmo", contractions(a), WEDGE[(2, k - 1)])
        a._ce = op.reshape(op.shape[:-3] + (len(_PAIR_I) * DIM, DIMS[k + 1]))
        a._ce.flags.writeable = False
    return a._ce


def ce_diff(c, a):
    """Chevalley-Eilenberg differential of a left-invariant form on the algebra c.

    On 1-forms (d alpha)(X, Y) = -alpha([X, Y]); antiderivation in general:
    d a = sum_m (d e^m) ^ iota_{e_m} a, with d e^m = -sum_{i<j} c[i,j,m] e^{ij}.  That is
    one product, row by row, of the gathered c[i,j,m], i < j, with the operator the form
    keeps (_ce_operator).  For phi and psi, where one m at most meets each pair i < j and
    output monomial, each coefficient sums the same products in the same order as the two
    steps, the products with the d e^m and then their wedge.  A stack of algebras
    differentiates a form (or a stack of forms) once per algebra.
    """
    if not isinstance(a, Form):
        raise DegreeError("ce_diff expects a Form")
    if a.degree >= DIM:
        raise DegreeError("cannot differentiate a top-degree form")
    k = a.degree
    if k == 0:  # d kills the constants: one zero 1-form per algebra and form of the stacks
        return Form(1, np.zeros(np.broadcast_shapes(c.shape[:-3], a._vals.shape[:-1]) + (DIM,)))
    gathered = c[..., _PAIR_I, _PAIR_J, :]
    return Form(k + 1, _vecmat(gathered.reshape(gathered.shape[:-2] + (-1,)), _ce_operator(a)))
