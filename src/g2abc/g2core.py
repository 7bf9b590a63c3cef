"""G2-structure machinery: the standard 3-form and its dual 4-form, torsion
forms, the symmetric 27-component tensor, and the full torsion tensor by two
independent routes.  The basis e_1..e_7 is orthonormal for the standard
3-form, so every metric quantity is taken in the identity metric.

A structure on a stack of N algebras, the (N, 7, 7, 7) array of their
structure constants, yields (N, ...) arrays throughout.  The stages exchange a k-form
as its (..., C(7,k)) coefficient array, and multiply it by phi, psi or the
star as one product with PHI_WEDGE, PSI_WEDGE or ``_tables.STAR``; the
derivatives of a G2Structure and the forms of a TorsionData are such arrays
too.  A G2Structure holds c, dphi and dpsi; the stepwise stages read only dphi and
dpsi, and form their stars where they use them.  ``Form`` is left for phi and psi
and for the differential ``ce_diff``.

The maps into the generic route are fixed operators as well: phi and psi keep the
operators of their ``ce_diff`` on the structure constants, built here at import, and
NABLA_PHI takes a connection to the right-hand sides nabla_{e_i} phi of the torsion solve.
``gabc`` builds its generic operator from ``_torsion_solve``, the solve without its check,
and checks there once that the solve's residual is exactly zero.

Every stage from (dphi, dpsi) on is linear.  ``torsion_forms``, ``tau27_tensor``,
``full_torsion_from_forms`` and ``reconstruction_residuals`` are the stepwise
definitions.  At import ``exterior._linear_operator`` runs them once on the 56 unit
vectors of [dphi, dpsi], and gives the (56, 310) operator TAIL of the torsion tail: the
stars, the torsion forms, iota_{tau1}(phi), tau27, T, the reconstruction residuals and
the type products.  NABLA_PHI is built by the same helper.  ``torsion_data`` is one
product with TAIL.  The build reads nothing of ``gabc``, so the generic route borrows
nothing from the tabulated one."""

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import ClassVar

import numpy as np

from ._tables import DIM, DIMS, STAR, WEDGE
from .errors import TorsionSolveError
from .exterior import (Form, _block_columns, _iota_rows, _linear_operator, _vecmat,
                       contractions, hodge, matrix_coaction)
from .liealg import _ce_operator, ce_diff

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
# phi and psi keep the operators of their ce_diff; built here, no pass builds them
_ce_operator(STANDARD_PHI)
_ce_operator(STANDARD_PSI)
#: PHI_WEDGE[k] and PSI_WEDGE[k]: the (C(7,k), C(7,k+3)) and (C(7,k), C(7,k+4))
#: matrices of a -> a ^ phi and a -> a ^ psi on k-forms, for the degrees the
#: torsion forms and their type checks use; _vecmat(a, PHI_WEDGE[k]) is a ^ phi.
PHI_WEDGE = {k: _vecmat(STANDARD_PHI.values, WEDGE[(k, 3)]) for k in (1, 3, 4)}
PSI_WEDGE = {k: _vecmat(STANDARD_PSI.values, WEDGE[(k, 4)]) for k in (1, 2, 3)}


#: _PAIR_TOP[K, (I, J)]: coefficient of e^{1...7} in e^I ^ e^J ^ e^K, over the
#: 3-monomials K and pairs of 2-monomials I, J
_PAIR_TOP = (WEDGE[(2, 2)].reshape(-1, DIMS[4]) @ WEDGE[(4, 3)][:, :, 0]).T


@dataclass(frozen=True, eq=False)
class G2Structure:
    """The standard 3-form on the algebra of the structure constants c with the arrays
    of dphi and dpsi, which are all the stepwise stages read; equality and hashing are
    by identity."""

    c: np.ndarray
    phi: ClassVar[Form] = STANDARD_PHI
    psi: ClassVar[Form] = STANDARD_PSI

    # derived once per structure (cached_property bypasses the frozen __setattr__)
    @cached_property
    def dphi(self):
        return ce_diff(self.c, self.phi).values

    @cached_property
    def dpsi(self):
        return ce_diff(self.c, self.psi).values


@dataclass(frozen=True, eq=False)
class TorsionData:
    """Torsion forms, the symmetric 27-part and the full torsion tensor matrix;
    equality and hashing are by identity.  For a stack of N structures tau0 is
    an (N,) array, the forms (N, C(7,k)) arrays and the tensors (N, 7, 7) arrays.
    ``tail`` is the (..., 310) torsion tail they are read from (see TAIL)."""

    tau0: float | np.ndarray
    tau1: np.ndarray  # the (..., C(7,k)) coefficient arrays of the forms
    tau2: np.ndarray
    tau3: np.ndarray
    tau27: np.ndarray
    T: np.ndarray
    tail: np.ndarray


def torsion_forms(s):
    """The four torsion components of d(phi) and d(psi), as coefficient arrays:

    tau0 = (1/7) star(dphi ^ phi)
    tau1 = -(1/12) star(star(dphi) ^ phi)
    tau2 = -star(dpsi) + 4 star(tau1 ^ psi)
    tau3 = star(dphi) - tau0 phi - 3 star(tau1 ^ phi)
    """
    star_dphi, star_dpsi = s.dphi @ STAR[4].T, s.dpsi @ STAR[5].T
    tau0 = (_vecmat(s.dphi, PHI_WEDGE[4]) @ STAR[7].T)[..., 0] / 7.0
    tau1 = (-1.0 / 12.0) * (_vecmat(star_dphi, PHI_WEDGE[3]) @ STAR[6].T)
    tau2 = -star_dpsi + 4.0 * (_vecmat(tau1, PSI_WEDGE[1]) @ STAR[5].T)
    tau3 = star_dphi - np.asarray(tau0)[..., None] * STANDARD_PHI.values \
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


#: The metric g of the orthonormal basis e_1..e_7, the identity matrix.
_IDENTITY = np.eye(DIM)


def full_torsion_from_forms(tau0, tau1, tau2, tau27):
    """Full torsion tensor assembled from the torsion forms:

    T(X, Y) = (1/4) tau0 g(X, Y) - iota_{tau1}(phi)(X, Y)
              - (1/2) tau2(X, Y) - tau27(X, Y).
    """
    iota = _vecmat(tau1, PHI_CONTRACTIONS)  # tau1's dual vector, same coefficients
    T = np.multiply.outer(0.25 * tau0, _IDENTITY) - _iota_rows(iota, 2) \
        - 0.5 * _iota_rows(tau2, 2) - tau27
    return T + 0.0  # + 0.0 normalises -0.0 entries


#: The 35x7 system of the torsion solve: column m is iota_{e_{m+1}}(psi).  Its
#: columns are orthogonal of squared norm 4, so A^T A = 4 I exactly and the
#: least-squares solution of A v = rhs is A^T rhs / 4.
PSI_COLUMNS = contractions(STANDARD_PSI).T
#: Largest residual of a torsion solve, relative to max(1, max|gamma|).
SOLVE_TOL = 1e-9


#: The (49, 35) operator of nabla phi on one row of a connection: row 7j + k is the 3-form
#: -e^{j+1} ^ iota_{e_{k+1}}(phi), -matrix_coaction of the unit matrix E_{kj}, so that
#: gamma[i].ravel() @ NABLA_PHI is nabla_{e_{i+1}} phi.  It is read-only, with entries 0, +-1.
NABLA_PHI = _linear_operator(lambda rows: [-matrix_coaction(
    rows.reshape(-1, DIM, DIM).swapaxes(-1, -2), STANDARD_PHI).values], DIM * DIM, ["nabla_phi"])


def _torsion_solve(gamma):
    """(T, residual) of the torsion solve of the connection gamma, without its check: the
    least-squares T of full_torsion_from_nabla and the (..., 35, 7) residual
    PSI_COLUMNS T^T - rhs, column i that of nabla_{e_{i+1}} phi."""
    # nabla phi of an invariant form: (nabla_X phi)(Y,..) = -sum phi(..,nabla_X Y_t,..),
    # i.e. column i is -matrix_coaction(gamma[i].T, phi) = -sum_jk gamma[i,j,k] e^j ^ iota_{e_k} phi
    gamma = np.asarray(gamma)
    rhs = (gamma.reshape(gamma.shape[:-2] + (DIM * DIM,)) @ NABLA_PHI).swapaxes(-1, -2)
    v = 0.25 * (PSI_COLUMNS.T @ rhs)
    # row i of T is v[:, i]
    return v.swapaxes(-1, -2), PSI_COLUMNS @ v - rhs


def full_torsion_from_nabla(gamma):
    """Full torsion tensor from the Levi-Civita connection gamma (nabla_{e_i} e_j =
    sum_k gamma[i, j, k] e_k): solves iota_{T(e_i)}(psi) = nabla_{e_i} phi.

    The right-hand sides nabla_{e_i} phi are one (7, 49) @ (49, 35) product per connection
    with NABLA_PHI.  The 35x7 system, with one right-hand side per e_i, is solved in the
    least-squares sense as PSI_COLUMNS^T rhs / 4.  A residual above
    SOLVE_TOL * max(1, max|gamma|) on any connection of a stack (the right-hand
    side is linear in gamma) signals an inconsistent connection/structure pair; on a stack
    of several the error names the first such connection as its trial.
    """
    T, residual = _torsion_solve(gamma)
    residual = np.abs(residual).max(axis=(-2, -1))
    bound = SOLVE_TOL * np.maximum(1.0, np.abs(gamma).max(axis=(-3, -2, -1)))
    TorsionSolveError.raise_first_failing(
        residual > bound,
        lambda n: f"torsion solve failed: residual {residual.flat[n]:g} > {bound.flat[n]:g}")
    return T


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


# -- the torsion tail as one linear operator --------------------------------------

#: The blocks of the torsion tail in column order, with the width of one structure's block:
#: the stars of dphi and dpsi, the torsion forms, iota_{tau1}(phi), tau27, T, the two
#: reconstruction residuals, and the type products tau2 ^ psi, tau3 ^ phi and tau3 ^ psi.
#: Every reader, gabc's oracle gather too, finds a block by its name in TAIL_COLUMNS, so
#: the order is free.
_TAIL_WIDTHS = {
    "star_dphi": DIMS[3], "star_dpsi": DIMS[2], "tau0": 1, "tau1": DIMS[1], "tau2": DIMS[2],
    "tau3": DIMS[3], "iota_tau1_phi": DIMS[2], "tau27": DIM ** 2, "T": DIM ** 2,
    "reconstruction_dphi": DIMS[4], "reconstruction_dpsi": DIMS[5],
    "tau2_type14": DIMS[6], "tau3_type27_phi": DIMS[6], "tau3_type27_psi": DIMS[7],
}
#: TAIL_COLUMNS[name]: the slice of the columns of the torsion tail that hold block name.
TAIL_COLUMNS = _block_columns(_TAIL_WIDTHS)


def _tail_stages(rows):
    """The blocks of the torsion tail of the rows [dphi, dpsi], in the order of
    _TAIL_WIDTHS, by the stepwise definitions."""
    s = SimpleNamespace(dphi=rows[..., :DIMS[4]], dpsi=rows[..., DIMS[4]:])
    tau0, tau1, tau2, tau3 = torsion_forms(s)
    tau27 = tau27_tensor(tau3)
    return (s.dphi @ STAR[4].T, s.dpsi @ STAR[5].T, tau0, tau1, tau2, tau3,
            _vecmat(tau1, PHI_CONTRACTIONS), tau27,
            full_torsion_from_forms(tau0, tau1, tau2, tau27),
            *reconstruction_residuals(s, tau0, tau1, tau2, tau3),
            _vecmat(tau2, PSI_WEDGE[2]), _vecmat(tau3, PHI_WEDGE[3]), _vecmat(tau3, PSI_WEDGE[3]))


#: The read-only (56, 310) torsion tail of the generic route: [dphi, dpsi] @ TAIL holds the
#: blocks of _TAIL_WIDTHS at the columns of TAIL_COLUMNS.  It is built from the stepwise
#: stages above, which stay the definitions, and from nothing of gabc.
TAIL = _linear_operator(_tail_stages, DIMS[4] + DIMS[5], _TAIL_WIDTHS)


def torsion_data(s):
    """All torsion quantities of a structure, via the generic route: one product of
    [dphi, dpsi] with TAIL, row by row so that a structure's values do not depend on its
    stack, read through the import-time slices of TAIL_COLUMNS."""
    tail = _vecmat(np.concatenate((s.dphi, s.dpsi), axis=-1), TAIL)
    at, tensor = TAIL_COLUMNS, tail.shape[:-1] + (DIM, DIM)
    return TorsionData(tau0=tail[..., at["tau0"].start], tau1=tail[..., at["tau1"]],
                       tau2=tail[..., at["tau2"]], tau3=tail[..., at["tau3"]],
                       tau27=tail[..., at["tau27"]].reshape(tensor),
                       T=tail[..., at["T"]].reshape(tensor), tail=tail)


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
