"""Exterior algebra on an oriented 7-dimensional inner-product space.

Forms are alternating k-forms with constant coefficients, addressed by
ascending index tuples drawn from {1,...,7} (``e^{127}`` is the key
``(1, 2, 7)``).  A form of degree k holds a dense vector over the C(7,k)
basis monomials; the public ``coeffs`` view is the pruned sparse map.
Wedge, contraction, the Hodge star and the derivation action of a matrix
are each one product of those vectors with the dense operators of
``_tables``.

Conventions:
  * monomials are orthonormal for the identity metric,
  * the volume form is ``+e^{1234567}``,
  * ``e^I`` with a non-ascending ``I`` is normalised with the sign of the
    sorting permutation.
"""

import numpy as np

from ._tables import COMBS, CONTRACT, DIM, DIMS, RANK, STAR, WEDGE
from .errors import DegreeError, MetricError

#: Coefficients at or below this magnitude are dropped after every operation.
PRUNE_TOL = 1e-14


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

    __slots__ = ("degree", "_vals")

    def __init__(self, degree, vals):
        if not 0 <= degree <= DIM:
            raise DegreeError(f"degree {degree} outside 0..{DIM}")
        v = np.asarray(vals, dtype=np.float64)
        if v.shape != (DIMS[degree],):
            raise DegreeError(f"degree-{degree} form needs {DIMS[degree]} coefficients, got {v.shape}")
        v = v.copy()
        v[np.abs(v) <= PRUNE_TOL] = 0.0
        self.degree = degree
        self._vals = v

    # -- construction ---------------------------------------------------------

    @classmethod
    def zero(cls, degree):
        return cls(degree, np.zeros(DIMS[degree]))

    @classmethod
    def from_coeffs(cls, degree, coeffs):
        """Build a form from an {index tuple: value} map; keys may be unsorted."""
        vals = np.zeros(DIMS[degree])
        rank = RANK[degree]
        for key, value in coeffs.items():
            idx, sign = (key, 1) if key in rank else canonical_indices(key)
            if len(idx) != degree:
                raise DegreeError(f"key {key} has length {len(idx)}, expected {degree}")
            if sign:
                vals[rank[idx]] += sign * value
        return cls(degree, vals)

    @classmethod
    def monomial(cls, indices, coeff=1.0):
        return cls.from_coeffs(len(tuple(indices)), {tuple(indices): coeff})

    # -- views ----------------------------------------------------------------

    @property
    def coeffs(self):
        """Sparse view: ascending index tuple -> nonzero coefficient."""
        return {COMBS[self.degree][r]: float(v) for r, v in enumerate(self._vals) if v != 0.0}

    @property
    def values(self):
        """Dense coefficient vector (read-only)."""
        out = self._vals.view()
        out.flags.writeable = False
        return out

    def __call__(self, *indices):
        """Coefficient of the (possibly unsorted) monomial ``e^indices``."""
        idx, sign = canonical_indices(indices)
        if len(idx) != self.degree:
            raise DegreeError(f"expected {self.degree} indices, got {len(idx)}")
        return 0.0 if sign == 0 else sign * float(self._vals[RANK[self.degree][idx]])

    def norm_inf(self):
        return float(np.max(np.abs(self._vals))) if self._vals.size else 0.0

    def is_zero(self):
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
        return Form(self.degree, self._vals * float(scalar))

    __rmul__ = __mul__

    def __xor__(self, other):
        return wedge(self, other)

    def __repr__(self):
        if self.is_zero():
            return f"Form({self.degree}, 0)"
        terms = " ".join(
            f"{v:+g}*e{''.join(map(str, k))}" if k else f"{v:+g}"
            for k, v in sorted(self.coeffs.items())
        )
        return f"Form({self.degree}, {terms})"


class Metric7:
    """Symmetric positive-definite inner product plus an orientation sign.

    The orientation is relative to ``e^{1234567}``; the metric volume form
    is ``orientation * sqrt(det g) * e^{1234567}``.
    """

    __slots__ = ("matrix", "orientation", "_inv", "_sqrt_det", "_grams", "is_identity")

    def __init__(self, matrix, orientation=1):
        g = np.asarray(matrix, dtype=np.float64)
        if g.shape != (DIM, DIM):
            raise MetricError(f"metric must be {DIM}x{DIM}, got {g.shape}")
        if orientation not in (1, -1):
            raise MetricError("orientation must be +1 or -1")
        if np.max(np.abs(g - g.T)) > 1e-12:
            raise MetricError("metric is not symmetric")
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] <= 0:
            raise MetricError(f"metric is not positive-definite (min eigenvalue {eigs[0]:g})")
        self.matrix = 0.5 * (g + g.T)
        self.matrix.flags.writeable = False
        self.orientation = int(orientation)
        self.is_identity = orientation == 1 and np.array_equal(self.matrix, np.eye(DIM))
        self._inv = None
        self._sqrt_det = None
        self._grams = {}

    @classmethod
    def identity(cls):
        return cls(np.eye(DIM))

    @property
    def inverse(self):
        if self._inv is None:
            self._inv = np.linalg.inv(self.matrix)
        return self._inv

    @property
    def sqrt_det(self):
        if self._sqrt_det is None:
            self._sqrt_det = float(np.sqrt(np.linalg.det(self.matrix)))
        return self._sqrt_det

    def gram(self, degree):
        """Gram matrix of the degree-k monomials: <e^I, e^J> = det(g^{-1}[I, J])."""
        if degree not in self._grams:
            if self.is_identity:
                self._grams[degree] = np.eye(DIMS[degree])
            else:
                ginv = self.inverse
                combs = COMBS[degree]
                gram = np.empty((DIMS[degree], DIMS[degree]))
                for a, left in enumerate(combs):
                    li = [i - 1 for i in left]
                    for b, right in enumerate(combs):
                        ri = [j - 1 for j in right]
                        gram[a, b] = np.linalg.det(ginv[np.ix_(li, ri)]) if degree else 1.0
                gram = 0.5 * (gram + gram.T)
                self._grams[degree] = gram
        return self._grams[degree]


IDENTITY_METRIC = Metric7.identity()


def wedge(a, b):
    """Exterior product.  Graded-commutative; errors when degrees sum past 7."""
    k = a.degree + b.degree
    if k > DIM:
        raise DegreeError(f"wedge of degrees {a.degree} and {b.degree} exceeds {DIM}")
    op = WEDGE[(a.degree, b.degree)]
    # contract the first factor against the flattened operator, then the second
    left = (a._vals @ op.reshape(op.shape[0], -1)).reshape(op.shape[1:])
    return Form(k, b._vals @ left)


def contract(x, a):
    """Interior product (iota_x a)(Y, ...) = a(x, Y, ...) by a coefficient vector x."""
    if a.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape != (DIM,):
        raise DegreeError(f"vector must have {DIM} components, got {xv.shape}")
    return Form(a.degree - 1, xv @ (a._vals @ CONTRACT[a.degree]))


def contract_basis(m, a):
    """Interior product by the basis vector e_m (1-based)."""
    x = np.zeros(DIM)
    x[m - 1] = 1.0
    return contract(x, a)


def hodge(a, m=IDENTITY_METRIC):
    """Hodge star: b ^ hodge(a) = <b, a>_m vol_m for every b of the same degree."""
    star = STAR[a.degree]
    if m.is_identity:
        return Form(DIM - a.degree, star @ a._vals)
    scale = m.orientation * m.sqrt_det
    return Form(DIM - a.degree, scale * (star @ (m.gram(a.degree) @ a._vals)))


def form_inner(a, b, m=IDENTITY_METRIC):
    """Inner product of two same-degree forms; monomials are m-orthonormal for m = id."""
    if a.degree != b.degree:
        raise DegreeError(f"inner product needs equal degrees, got {a.degree} and {b.degree}")
    if m.is_identity:
        return float(a._vals @ b._vals)
    return float(a._vals @ m.gram(a.degree) @ b._vals)


def volume_form(m=IDENTITY_METRIC):
    """Metric volume form carrying the stored orientation."""
    return Form.monomial(tuple(range(1, DIM + 1)), m.orientation * m.sqrt_det)


def matrix_coaction(d, a):
    """Degree-preserving derivation sending e^i to sum_j d[i,j] e^j.

    This is the dual action of the vector-space endomorphism x -> d x on
    forms, extended as a derivation of the wedge product; rows/columns of
    ``d`` are 0-based on e_1..e_7.  It is sum_ij d[i,j] e^j ^ iota_{e_i} a.
    """
    k = a.degree
    if k == 0:
        return Form.zero(0)
    # rows of a @ CONTRACT[k] are iota_{e_i} a; d^T mixes them into the
    # coefficients of e^j, which WEDGE[(1, k-1)] then multiplies in
    mixed = np.asarray(d, dtype=np.float64).T @ (a._vals @ CONTRACT[k])
    return Form(k, mixed.ravel() @ WEDGE[(1, k - 1)].reshape(-1, DIMS[k]))
