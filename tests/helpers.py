"""Plain helpers shared by the test modules (fixtures live in conftest.py)."""

import numpy as np

from g2abc._tables import DIMS
from g2abc.exterior import Form
from g2abc.gabc import TripleABC


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


def unstack(t):
    """The triples of a stack, each as a TripleABC of its own."""
    return [TripleABC(*abc) for abc in t.abc]
