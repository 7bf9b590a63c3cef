"""Dense operators of the exterior algebra of a 7-dimensional space.

Degree-k forms are stored as dense coefficient vectors over the basis
monomials e^I, I running through the lexicographically ordered k-subsets
of {1,...,7}.  Every exterior operation on them is a fixed linear or
bilinear map on vectors of length at most 35, built here once at import
time as a dense array with entries in {-1, 0, 1}:

  * ``WEDGE[(k1, k2)][i, j, r]``: coefficient of e^{K_r} in e^{I_i} ^ e^{J_j};
  * ``CONTRACT[k][m, i, r]``: coefficient of e^{R_r} in iota_{e_{m+1}} e^{I_i};
  * ``STAR[k][r, i]``: identity-metric Hodge star, a signed permutation
    matrix, normalised so that e^I ^ star(e^I) = e^{1...7}.

This module imports nothing from the package, so it also runs on its own.
"""

import itertools

import numpy as np

DIM = 7
DEGREES = range(DIM + 1)

#: COMBS[k][r] is the ascending index tuple of the rank-r monomial of degree k.
COMBS = {k: tuple(itertools.combinations(range(1, DIM + 1), k)) for k in DEGREES}
#: RANK[k][I] inverts COMBS[k].
RANK = {k: {c: r for r, c in enumerate(COMBS[k])} for k in DEGREES}
#: DIMS[k] == C(7, k)
DIMS = {k: len(COMBS[k]) for k in DEGREES}

TOP = COMBS[DIM][0]  # (1,...,7)


def merge_sign(left, right):
    """Sign of sorting the concatenation of two ascending tuples; 0 if they share an index."""
    if set(left) & set(right):
        return 0
    inversions = sum(1 for x in left for y in right if x > y)
    return -1 if inversions & 1 else 1


def _wedge_operator(k1, k2):
    op = np.zeros((DIMS[k1], DIMS[k2], DIMS[k1 + k2]))
    for i, left in enumerate(COMBS[k1]):
        for j, right in enumerate(COMBS[k2]):
            s = merge_sign(left, right)
            if s:
                op[i, j, RANK[k1 + k2][tuple(sorted(left + right))]] = s
    return op


def _contract_operator(k):
    # Contraction in the first slot: iota_{e_m} e^I = (-1)^(t-1) e^(I \ m),
    # m the t-th entry of I.
    op = np.zeros((DIM, DIMS[k], DIMS[k - 1]))
    for i, comb in enumerate(COMBS[k]):
        for t, m in enumerate(comb):
            op[m - 1, i, RANK[k - 1][comb[:t] + comb[t + 1:]]] = -1.0 if t & 1 else 1.0
    return op


def _star_operator(k):
    op = np.zeros((DIMS[DIM - k], DIMS[k]))
    for i, left in enumerate(COMBS[k]):
        rest = tuple(m for m in TOP if m not in left)
        op[RANK[DIM - k][rest], i] = merge_sign(left, rest)
    return op


WEDGE = {(k1, k2): _wedge_operator(k1, k2) for k1 in DEGREES for k2 in DEGREES if k1 + k2 <= DIM}
CONTRACT = {k: _contract_operator(k) for k in DEGREES if k > 0}
STAR = {k: _star_operator(k) for k in DEGREES}
