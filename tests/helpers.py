"""Plain helpers shared by the test modules (fixtures live in conftest.py)."""

import numpy as np

from g2abc._tables import DIM, DIMS
from g2abc.exterior import Form, contract
from g2abc.gabc import TripleABC
from g2abc.liealg import _jacobi_residuals


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
    return contract(np.eye(DIM)[m - 1], a)


def form_inner(a, b):
    """Inner product of two same-degree forms; the monomials are orthonormal."""
    return float(a.values @ b.values)


def is_unimodular(g, tol=1e-12):
    """True when every adjoint map ad_{e_i} of the algebra g is traceless within tol."""
    return bool(np.max(np.abs(np.einsum("...ikk->...i", g.c))) <= tol)


def jacobi_residual(c):
    """Largest Jacobi residual of the structure constants c (over a whole stack)."""
    return float(np.max(_jacobi_residuals(np.asarray(c, dtype=np.float64))))


def unstack(t):
    """The triples of a stack, each as a TripleABC of its own."""
    return [TripleABC(*abc) for abc in t.abc]
