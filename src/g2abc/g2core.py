"""G2-structure machinery: the standard 3-form and its dual 4-form, torsion
forms, the symmetric 27-component tensor, and the full torsion tensor by two
independent routes.  The basis e_1..e_7 is orthonormal for the standard
3-form, so every metric quantity is taken in the identity metric.

A structure on a stack of N algebras (``LieAlgebra7`` of (N, 7, 7, 7)
constants) yields (N, ...) arrays throughout.  The stages exchange a k-form
as its (..., C(7,k)) coefficient array, and multiply it by phi, psi or the
star as one product with PHI_WEDGE, PSI_WEDGE or ``_tables.STAR``; the
derivatives of a G2Structure and the forms of a TorsionData are such arrays
too.  ``Form`` is left for phi and psi and for the differential ``ce_diff``."""

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from ._tables import DIM, DIMS, STAR, WEDGE
from .errors import TorsionSolveError
from .exterior import Form, _iota_rows, _vecmat, contractions, hodge
from .liealg import ce_diff

#: The reference positive 3-form; the basis e_1..e_7 is orthonormal for it.
STANDARD_PHI = Form.from_coeffs(3, {
    (1, 2, 7): 1.0, (3, 4, 7): 1.0, (5, 6, 7): 1.0,
    (1, 3, 5): 1.0, (1, 4, 6): -1.0, (2, 3, 6): -1.0, (2, 4, 5): -1.0,
})

#: Its dual 4-form for the identity metric and volume +e^{1234567}.
STANDARD_PSI = Form.from_coeffs(4, {
    (3, 4, 5, 6): 1.0, (1, 2, 5, 6): 1.0, (1, 2, 3, 4): 1.0,
    (2, 4, 6, 7): -1.0, (2, 3, 5, 7): 1.0, (1, 4, 5, 7): 1.0, (1, 3, 6, 7): 1.0,
})

# The positive orientation is pinned by requiring hodge(phi) == psi componentwise.
if not (hodge(STANDARD_PHI) - STANDARD_PSI).is_zero():  # pragma: no cover
    raise AssertionError("orientation convention broken: hodge(standard phi) != standard psi")

#: (7, 21) array; row i holds the coefficients of iota_{e_{i+1}}(phi).
PHI_CONTRACTIONS = contractions(STANDARD_PHI)
#: PHI_WEDGE[k] and PSI_WEDGE[k]: the (C(7,k), C(7,k+3)) and (C(7,k), C(7,k+4))
#: matrices of a -> a ^ phi and a -> a ^ psi on k-forms, for the degrees the
#: torsion forms and their type checks use; _vecmat(a, PHI_WEDGE[k]) is a ^ phi.
PHI_WEDGE = {k: _vecmat(STANDARD_PHI.values, WEDGE[(k, 3)]) for k in (1, 3, 4)}
PSI_WEDGE = {k: _vecmat(STANDARD_PSI.values, WEDGE[(k, 4)]) for k in (1, 2, 3)}


#: _PAIR_TOP[K, (I, J)]: coefficient of e^{1...7} in e^I ^ e^J ^ e^K, over the
#: 3-monomials K and pairs of 2-monomials I, J
_PAIR_TOP = (WEDGE[(2, 2)].reshape(-1, DIMS[4]) @ WEDGE[(4, 3)][:, :, 0]).T


@dataclass(frozen=True)
class G2Structure:
    """The standard 3-form on a Lie algebra together with its derived data: the
    coefficient arrays of dphi, star dphi, dpsi and star dpsi."""

    algebra: object
    phi: ClassVar[Form] = STANDARD_PHI
    psi: ClassVar[Form] = STANDARD_PSI

    # derived once per structure (cached_property bypasses the frozen __setattr__)
    @cached_property
    def dphi(self):
        return ce_diff(self.algebra, self.phi).values

    @cached_property
    def dpsi(self):
        return ce_diff(self.algebra, self.psi).values

    @cached_property
    def star_dphi(self):
        return self.dphi @ STAR[4].T

    @cached_property
    def star_dpsi(self):
        return self.dpsi @ STAR[5].T


@dataclass(frozen=True, eq=False)
class TorsionData:
    """Torsion forms, the symmetric 27-part and the full torsion tensor matrix;
    equality and hashing are by identity.  For a stack of N structures tau0 is
    an (N,) array, the forms (N, C(7,k)) arrays and the tensors (N, 7, 7) arrays."""

    tau0: float | np.ndarray
    tau1: np.ndarray  # the (..., C(7,k)) coefficient arrays of the forms
    tau2: np.ndarray
    tau3: np.ndarray
    tau27: np.ndarray
    T: np.ndarray


def torsion_forms(s):
    """The four torsion components of d(phi) and d(psi), as coefficient arrays:

    tau0 = (1/7) star(dphi ^ phi)
    tau1 = -(1/12) star(star(dphi) ^ phi)
    tau2 = -star(dpsi) + 4 star(tau1 ^ psi)
    tau3 = star(dphi) - tau0 phi - 3 star(tau1 ^ phi)
    """
    tau0 = (_vecmat(s.dphi, PHI_WEDGE[4]) @ STAR[7].T)[..., 0] / 7.0
    tau1 = (-1.0 / 12.0) * (_vecmat(s.star_dphi, PHI_WEDGE[3]) @ STAR[6].T)
    tau2 = -s.star_dpsi + 4.0 * (_vecmat(tau1, PSI_WEDGE[1]) @ STAR[5].T)
    tau3 = s.star_dphi - np.asarray(tau0)[..., None] * STANDARD_PHI.values \
        - 3.0 * (_vecmat(tau1, PHI_WEDGE[1]) @ STAR[4].T)
    return tau0, tau1, tau2, tau3


def tau27_tensor(tau3):
    """Symmetric 27-component tensor (1/4) star(iota_{e_i}(phi) ^ iota_{e_j}(phi) ^ tau3).

    The 1/4 normalisation is pinned by the defining identity of the full
    torsion tensor, nabla_X phi = iota_{T(X)}(psi): with it, the assembly in
    full_torsion_from_forms agrees with the connection route to machine
    precision (the two-route check in cross_validate exercises this on every
    instance).  Without it the two routes differ by exactly that factor on
    the 27-component.
    """
    rows = PHI_CONTRACTIONS
    # pair[I, J]: top coefficient of e^I ^ e^J ^ tau3 over the 2-monomials
    pair = (tau3 @ _PAIR_TOP).reshape(tau3.shape[:-1] + (DIMS[2], DIMS[2]))
    top = rows @ pair @ rows.swapaxes(-1, -2)
    # 1/4 of the symmetrised pairing, so that the tensor is exactly symmetric
    return 0.125 * (top + top.swapaxes(-1, -2))


def full_torsion_from_forms(tau0, tau1, tau2, tau27):
    """Full torsion tensor assembled from the torsion forms:

    T(X, Y) = (1/4) tau0 g(X, Y) - iota_{tau1}(phi)(X, Y)
              - (1/2) tau2(X, Y) - tau27(X, Y).
    """
    iota = _vecmat(tau1, PHI_CONTRACTIONS)  # tau1's dual vector, same coefficients
    T = np.multiply.outer(0.25 * tau0, np.eye(DIM)) - _iota_rows(iota, 2) \
        - 0.5 * _iota_rows(tau2, 2) - tau27
    return T + 0.0  # + 0.0 normalises -0.0 entries


#: The 35x7 system of the torsion solve: column m is iota_{e_{m+1}}(psi).  Its
#: columns are orthogonal of squared norm 4, so A^T A = 4 I exactly and the
#: least-squares solution of A v = rhs is A^T rhs / 4.
PSI_COLUMNS = contractions(STANDARD_PSI).T
#: Largest residual of a torsion solve, relative to max(1, max|gamma|).
SOLVE_TOL = 1e-9


def full_torsion_from_nabla(gamma):
    """Full torsion tensor from the Levi-Civita connection gamma (nabla_{e_i} e_j =
    sum_k gamma[i, j, k] e_k): solves iota_{T(e_i)}(psi) = nabla_{e_i} phi.

    The 35x7 system, with one right-hand side per e_i, is solved in the
    least-squares sense as PSI_COLUMNS^T rhs / 4.  A residual above
    SOLVE_TOL * max(1, max|gamma|) on any connection of a stack (the right-hand
    side is linear in gamma) signals an inconsistent connection/structure pair.
    """
    # nabla phi of an invariant form: (nabla_X phi)(Y,..) = -sum phi(..,nabla_X Y_t,..),
    # i.e. column i is -matrix_coaction(gamma[i].T, phi) = -sum_jk gamma[i,j,k] e^j ^ iota_{e_k} phi
    mixed = gamma @ PHI_CONTRACTIONS  # (..., i, j, 2-form)
    rhs = -(mixed.reshape(mixed.shape[:-2] + (-1,))
            @ WEDGE[(1, 2)].reshape(-1, DIMS[3])).swapaxes(-1, -2)
    v = 0.25 * (PSI_COLUMNS.T @ rhs)
    residual = np.abs(PSI_COLUMNS @ v - rhs).max(axis=(-2, -1))
    bound = SOLVE_TOL * np.maximum(1.0, np.abs(gamma).max(axis=(-3, -2, -1)))
    bad = np.ravel(residual > bound)
    if bad.any():
        n = bad.argmax()
        raise TorsionSolveError(
            f"torsion solve failed: residual {residual.flat[n]:g} > {bound.flat[n]:g}")
    # row i of T is v[:, i]
    return v.swapaxes(-1, -2)


def torsion_data(s):
    """All torsion quantities of a structure, via the generic route."""
    tau0, tau1, tau2, tau3 = torsion_forms(s)
    tau27 = tau27_tensor(tau3)
    T = full_torsion_from_forms(tau0, tau1, tau2, tau27)
    return TorsionData(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3, tau27=tau27, T=T)


def reconstruction_residuals(s, tau0, tau1, tau2, tau3):
    """The coefficient arrays of the residual 4- and 5-forms of the two defining
    identities of the torsion forms, given as coefficient arrays:

    dphi = tau0 psi + 3 tau1 ^ phi + star(tau3)
    dpsi = 4 tau1 ^ psi - star(tau2)

    (The sign of the star(tau2) term is pinned by the tau2 definition used in
    torsion_forms; see the README note on conventions.)
    """
    res1 = s.dphi - (np.asarray(tau0)[..., None] * STANDARD_PSI.values
                     + 3.0 * _vecmat(tau1, PHI_WEDGE[1]) + tau3 @ STAR[3].T)
    res2 = s.dpsi - (4.0 * _vecmat(tau1, PSI_WEDGE[1]) - tau2 @ STAR[2].T)
    return res1, res2


@dataclass(frozen=True)
class TorsionClass:
    closed: bool
    coclosed: bool
    torsion_free: bool


#: The default tolerance of the torsion flags and of the cross-validation.
DEFAULT_TOL = 1e-9


#: _FLAG_NORMS[f, q]: whether flag f of TorsionClass needs the magnitude of tau_q within tol.
_FLAG_NORMS = np.array([[1, 1, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)


def _flags(td, tol):
    """The closed, coclosed and torsion-free flags as a (3,) bool array, (3, n) for a stack."""
    norms = [np.abs(td.tau0), *(np.abs(f).max(axis=-1) for f in (td.tau1, td.tau2, td.tau3))]
    # a flag fails where one of its magnitudes is not within tol (a NaN is not)
    return ~(_FLAG_NORMS @ ~(np.array(norms) <= tol))
