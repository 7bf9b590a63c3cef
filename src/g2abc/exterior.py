"""Exterior algebra on oriented Euclidean 7-space with orthonormal basis e_1..e_7.

Forms are alternating k-forms with constant coefficients, addressed by
ascending index tuples drawn from {1,...,7} (``e^{127}`` is the key
``(1, 2, 7)``).  A form of degree k holds a dense vector over the C(7,k)
basis monomials; the public ``coeffs`` view is the sparse map of its
nonzero coefficients.
A form may also hold a stack of N such vectors, shape (N, C(7,k)): one
form per trial of a batch.  Wedge, the contractions by e_1..e_7, the Hodge
star and the derivation action of a matrix are each one product of those
vectors with the dense operators of ``_tables``, and broadcast a single
form against a stack.  ``Form`` is the type of this public API and of the
text of the tabulated formulas; the stages of the torsion pass exchange the
bare coefficient arrays instead, and every result object holds them.
``_linear_operator`` builds the matrix of a linear stage from its values on the
unit vectors; every operator built at import (g2core's TAIL and NABLA_PHI, gabc's
tabulated operator) is one call of it.

Conventions:
  * monomials are orthonormal,
  * the volume form is ``+e^{1234567}``,
  * ``e^I`` with a non-ascending ``I`` is normalised with the sign of the
    sorting permutation.
"""

import numpy as np

from ._tables import COMBS, CONTRACT, DIM, DIMS, RANK, STAR, WEDGE
from .errors import DegreeError, ValidationError

def canonical_indices(indices):
    """Normalise an index tuple to ascending order.

    Returns ``(tuple, sign)``; sign is 0 when an index repeats.
    Raises on indices outside 1..7.
    """
    idx = tuple(int(i) for i in indices)
    for i in idx:
        if not 1 <= i <= DIM:
            raise DegreeError(f"index {i} outside 1..{DIM}")
    if len(set(idx)) != len(idx):
        return idx, 0
    order = tuple(sorted(idx))
    inversions = sum(1 for p in range(len(idx)) for q in range(p + 1, len(idx)) if idx[p] > idx[q])
    return order, (-1 if inversions & 1 else 1)


class Form:
    """Alternating form of fixed degree with real coefficients."""

    __slots__ = ("degree", "_vals", "_rows", "_ce")
    # numpy arrays of scalars defer to Form.__rmul__ instead of multiplying elementwise
    __array_ufunc__ = None

    def __init__(self, degree, vals):
        if not 0 <= degree <= DIM:
            raise DegreeError(f"degree {degree} outside 0..{DIM}")
        v = np.array(vals, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != DIMS[degree]:
            raise DegreeError(f"degree-{degree} form needs {DIMS[degree]} coefficients, got {v.shape}")
        self.degree = degree
        self._vals = v
        self._rows = None  # its contractions, once computed (see contractions)
        self._ce = None  # the operator of its CE differential, once built (see liealg.ce_diff)

    # -- construction ---------------------------------------------------------

    @classmethod
    def zero(cls, degree):
        return cls(degree, np.zeros(DIMS[degree]))

    @classmethod
    def from_coeffs(cls, degree, coeffs):
        """Build a form from an {index tuple: value} map; keys may be unsorted.

        Values of shape (N,) build a stack of N forms.
        """
        rank = RANK[degree]
        columns = {}  # rank -> summed value
        for key, value in coeffs.items():
            idx, sign = (key, 1) if key in rank else canonical_indices(key)
            if len(idx) != degree:
                raise DegreeError(f"key {key} has length {len(idx)}, expected {degree}")
            if sign:
                r = rank[idx]
                term = value if sign > 0 else -value
                columns[r] = columns[r] + term if r in columns else term
        # the longest value shape; the others broadcast into it
        batch = max(map(np.shape, columns.values()), key=len, default=())
        vals = np.zeros((DIMS[degree],) + batch)
        for r, value in columns.items():
            vals[r] = value
        return cls(degree, vals.T)

    @classmethod
    def monomial(cls, indices):
        return cls.from_coeffs(len(tuple(indices)), {tuple(indices): 1.0})

    # -- views ----------------------------------------------------------------

    @property
    def coeffs(self):
        """Sparse view: ascending index tuple -> nonzero coefficient, of one form; a
        stack of forms is a ValidationError."""
        if self._vals.ndim > 1:
            raise ValidationError(
                f"coeffs reads one form; this one holds a stack of {len(self._vals)}")
        return {COMBS[self.degree][r]: float(v) for r, v in enumerate(self._vals) if v != 0.0}

    @property
    def values(self):
        """Dense coefficient vector, or (N, C(7,k)) stack of them (read-only)."""
        out = self._vals.view()
        out.flags.writeable = False
        return out

    def norm_inf(self):
        """Largest coefficient magnitude; an (N,) array for a stack of forms."""
        out = np.abs(self._vals).max(axis=-1)
        return float(out) if out.ndim == 0 else out

    def is_zero(self):
        """True when every coefficient (of every form of a stack) is zero."""
        return not np.any(self._vals)

    # -- linear structure -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form) or other.degree != self.degree:
            return NotImplemented
        return Form(self.degree, self._vals + other._vals)

    def __sub__(self, other):
        if not isinstance(other, Form) or other.degree != self.degree:
            return NotImplemented
        return Form(self.degree, self._vals - other._vals)

    def __neg__(self):
        return Form(self.degree, -self._vals)

    def __mul__(self, scalar):
        """Scalar multiple; an (N,) array of scalars scales form n by scalar n."""
        return Form(self.degree, np.asarray(scalar, dtype=np.float64)[..., None] * self._vals)

    __rmul__ = __mul__


def _vecmat(x, m):
    """x @ m over leading axes: (..., i) and (..., i, r) give (..., r)."""
    return np.matmul(x[..., None, :], m)[..., 0, :]


def _linear_operator(stage, width, names):
    """The read-only (width, K) matrix of the linear map stage: row k is stage on the k-th
    unit vector of length width, its blocks, one per name, flattened and side by side.

    stage gets the (width + 1, 1, width) array of a zero row, then the unit rows, and
    returns its blocks, each with the leading axis of the rows.  Each row is a stack of one,
    so that every product of the build is taken row by row: as one (57, 35) stack, the
    torsion tail's product in tau27_tensor went to OpenBLAS's threads and took about 16 ms,
    not 0.04 ms, on a 2-vCPU virtual machine.  A stage built on Form, which holds at most a
    stack of forms, reshapes the rows to (width + 1, width).  A block that is not zero on
    the zero row is not linear: the ValidationError names every such block."""
    rows = np.eye(width + 1, width, k=-1)[:, None, :]
    blocks = [np.reshape(b, (width + 1, -1)) for b in stage(rows)]
    if constant := [name for name, b in zip(names, blocks, strict=True) if b[0].any()]:
        raise ValidationError(f"stages with a constant term: {', '.join(constant)}")
    values = np.concatenate(blocks, axis=1)[1:]
    values.flags.writeable = False
    return values


#: CONTRACT[k] reshaped so that one product gives every iota_{e_m}: (C(7,k), 7 * C(7,k-1)).
_IOTA = {k: op.transpose(1, 0, 2).reshape(op.shape[1], -1) for k, op in CONTRACT.items()}


def _iota_rows(vals, k):
    """The contractions of the k-form whose coefficient array is vals."""
    return (vals @ _IOTA[k]).reshape(vals.shape[:-1] + (DIM, DIMS[k - 1]))


def contractions(a):
    """(..., 7, C(7,k-1)) read-only array; row m holds the coefficients of iota_{e_{m+1}} a.
    A form computes them once and keeps them, as it keeps the operator of its
    Chevalley-Eilenberg differential that liealg builds from them: a constant form, such as
    the phi and psi of a G2-structure, is contracted once per process."""
    if a.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    if a._rows is None:
        a._rows = _iota_rows(a._vals, a.degree)
        a._rows.flags.writeable = False
    return a._rows


def wedge(a, b):
    """Exterior product.  Graded-commutative; errors when degrees sum past 7."""
    k = a.degree + b.degree
    if k > DIM:
        raise DegreeError(f"wedge of degrees {a.degree} and {b.degree} exceeds {DIM}")
    op = WEDGE[(a.degree, b.degree)]
    # contract the first factor against the flattened operator, then the second
    left = (a._vals @ op.reshape(op.shape[0], -1)).reshape(a._vals.shape[:-1] + op.shape[1:])
    return Form(k, _vecmat(b._vals, left))


def hodge(a):
    """Hodge star: b ^ hodge(a) = <b, a> e^{1...7} for every b of the same degree."""
    return Form(DIM - a.degree, a._vals @ STAR[a.degree].T)


def matrix_coaction(d, a):
    """Degree-preserving derivation sending e^i to sum_j d[i,j] e^j.

    This is the dual action of the vector-space endomorphism x -> d x on
    forms, extended as a derivation of the wedge product; rows/columns of
    ``d`` are 0-based on e_1..e_7.  It is sum_ij d[i,j] e^j ^ iota_{e_i} a.
    ``d`` of shape (N, 7, 7) acts on form n with matrix n.
    """
    k = a.degree
    d = np.asarray(d, dtype=np.float64)
    if k == 0:  # a derivation kills the scalars: one zero per matrix and form of the stacks
        return Form(0, np.zeros(np.broadcast_shapes(d.shape[:-2], a._vals.shape[:-1]) + (1,)))
    # d^T mixes the rows iota_{e_i} a into the coefficients of e^j, which
    # WEDGE[(1, k-1)] then multiplies in
    mixed = d.swapaxes(-1, -2) @ contractions(a)
    flat = mixed.reshape(mixed.shape[:-2] + (-1,))
    return Form(k, flat @ WEDGE[(1, k - 1)].reshape(-1, DIMS[k]))
