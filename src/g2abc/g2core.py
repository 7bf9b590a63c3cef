"""G2-structure machinery: induced metric, dual 4-form, torsion forms, the
symmetric 27-component tensor, and the full torsion tensor by two
independent routes.

A structure on a stack of N algebras (``LieAlgebra7`` of (N, 7, 7, 7)
constants) yields stacks of forms and (N, ...) arrays throughout."""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._tables import DIM, DIMS, WEDGE
from .errors import MetricError, PositivityError, TorsionSolveError
from .exterior import (
    IDENTITY_METRIC, PRUNE_TOL, Form, Metric7, contract, contractions, hodge, wedge,
)
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


def _chop(arr):
    out = np.asarray(arr, dtype=np.float64).copy()
    out[np.abs(out) <= PRUNE_TOL] = 0.0
    return out


#: _PAIR_TOP[K, (I, J)]: coefficient of e^{1...7} in e^I ^ e^J ^ e^K, over the
#: 3-monomials K and pairs of 2-monomials I, J
_PAIR_TOP = (WEDGE[(2, 2)].reshape(-1, DIMS[4]) @ WEDGE[(4, 3)][:, :, 0]).T


def _top_pairing(rows, eta):
    """Exactly symmetric (..., 7, 7) array of the e^{1...7} coefficients of
    iota_{e_i}(phi) ^ iota_{e_j}(phi) ^ eta; row i of ``rows`` is iota_{e_i}(phi)."""
    # pair[I, J]: top coefficient of e^I ^ e^J ^ eta over the 2-monomials
    pair = (eta.values @ _PAIR_TOP).reshape(eta.values.shape[:-1] + (DIMS[2], DIMS[2]))
    top = rows @ pair @ rows.swapaxes(-1, -2)
    return 0.5 * (top + top.swapaxes(-1, -2))


def induced_metric(phi):
    """Metric and volume scale induced by a positive 3-form.

    Solves (1/6) iota_X(phi) ^ iota_Y(phi) ^ phi = b(X, Y) e^{1...7} and
    normalises: g = b (det b)^(-1/9), vol scale sqrt(det g) = (det b)^(1/9).
    Raises PositivityError when phi is not positive.
    """
    if phi.degree != 3:
        raise PositivityError("induced_metric expects a 3-form")
    b = _chop(_top_pairing(contractions(phi), phi) / 6.0)
    det_b = float(np.linalg.det(b))
    if det_b <= 0.0:
        raise PositivityError("not a positive 3-form")
    vol_scale = det_b ** (1.0 / 9.0)
    try:
        metric = Metric7(b / vol_scale)
    except MetricError as exc:
        raise PositivityError(f"not a positive 3-form: {exc}") from exc
    return metric, vol_scale


@dataclass(frozen=True)
class G2Structure:
    """A positive 3-form on a Lie algebra together with its derived data."""

    phi: Form
    algebra: object
    metric: Metric7
    psi: Form
    vol_scale: float

    @classmethod
    def from_phi(cls, algebra, phi):
        metric, vol_scale = induced_metric(phi)
        return cls(phi=phi, algebra=algebra, metric=metric, psi=hodge(phi, metric),
                   vol_scale=vol_scale)

    @classmethod
    def standard(cls, algebra):
        """The reference structure; skips recomputing the (identity) metric."""
        return cls(phi=STANDARD_PHI, algebra=algebra, metric=IDENTITY_METRIC,
                   psi=STANDARD_PSI, vol_scale=1.0)

    # derived once per structure (cached_property bypasses the frozen __setattr__)
    @cached_property
    def dphi(self):
        return ce_diff(self.algebra, self.phi)

    @cached_property
    def dpsi(self):
        return ce_diff(self.algebra, self.psi)

    @cached_property
    def star_dphi(self):
        return hodge(self.dphi, self.metric)

    @cached_property
    def star_dpsi(self):
        return hodge(self.dpsi, self.metric)

    @cached_property
    def phi_contractions(self):
        """(7, 21) array; row i holds the coefficients of iota_{e_{i+1}}(phi)."""
        return contractions(self.phi)


@dataclass(frozen=True)
class TorsionData:
    """Torsion forms, the symmetric 27-part and the full torsion tensor matrix."""

    tau0: float
    tau1: Form
    tau2: Form
    tau3: Form
    tau27: np.ndarray
    T: np.ndarray


def torsion_forms(s):
    """The four torsion components of d(phi) and d(psi).

    tau0 = (1/7) star(dphi ^ phi)
    tau1 = -(1/12) star(star(dphi) ^ phi)
    tau2 = -star(dpsi) + 4 star(tau1 ^ psi)
    tau3 = star(dphi) - tau0 phi - 3 star(tau1 ^ phi)
    """
    m = s.metric
    tau0 = hodge(wedge(s.dphi, s.phi), m).values[..., 0] / 7.0
    tau1 = hodge(wedge(s.star_dphi, s.phi), m) * (-1.0 / 12.0)
    tau2 = -s.star_dpsi + 4.0 * hodge(wedge(tau1, s.psi), m)
    tau3 = s.star_dphi - tau0 * s.phi - 3.0 * hodge(wedge(tau1, s.phi), m)
    return tau0, tau1, tau2, tau3


def tau27_tensor(s, tau3):
    """Symmetric 27-component tensor (1/4) star(iota_{e_i}(phi) ^ iota_{e_j}(phi) ^ tau3).

    The 1/4 normalisation is pinned by the defining identity of the full
    torsion tensor, nabla_X phi = iota_{T(X)}(psi): with it, the assembly in
    full_torsion_from_forms agrees with the connection route to machine
    precision (the two-route check in cross_validate exercises this on every
    instance).  Without it the two routes differ by exactly that factor on
    the 27-component.
    """
    top = _top_pairing(s.phi_contractions, tau3)
    if not s.metric.is_identity:
        # the star of a top form scales its coefficient by that of star(e^{1...7})
        top = top * hodge(Form(DIM, [1.0]), s.metric).values[0]
    return _chop(0.25 * top)


def _two_form_matrix(eta):
    """Antisymmetric matrix M[i,j] = eta(e_{i+1}, e_{j+1}), row i being iota_{e_{i+1}} eta."""
    return contractions(eta)


def tau1_vector(s, tau1):
    """The vector metrically dual to tau1: g(v, X) = tau1(X)."""
    covec = np.array(tau1.values)
    if s.metric.is_identity:
        return covec
    return covec @ s.metric.inverse.T


def full_torsion_from_forms(s, tau0, tau1, tau2, tau3, tau27=None):
    """Full torsion tensor assembled from the torsion forms:

    T(X, Y) = (1/4) tau0 g(X, Y) - iota_{tau1}(phi)(X, Y)
              - (1/2) tau2(X, Y) - tau27(X, Y).
    """
    if tau27 is None:
        tau27 = tau27_tensor(s, tau3)
    iota = contract(tau1_vector(s, tau1), s.phi)
    T = np.multiply.outer(0.25 * tau0, s.metric.matrix) - _two_form_matrix(iota) \
        - 0.5 * _two_form_matrix(tau2) - tau27
    return _chop(T)


@lru_cache(maxsize=8)
def _torsion_system(psi):
    """The 35x7 matrix whose column m is iota_{e_{m+1}}(psi), and its
    pseudo-inverse; every standard structure shares them."""
    columns = contractions(psi).swapaxes(-1, -2)
    return columns, np.linalg.pinv(columns)


def full_torsion_from_nabla(s, conn, tol=1e-9):
    """Full torsion tensor from the connection: solves iota_{T(e_i)}(psi) = nabla_{e_i} phi.

    The 35x7 system, with one right-hand side per e_i, is solved in the
    least-squares sense through the pseudo-inverse of the system; a residual
    above tol (on any connection of a stack) signals an inconsistent
    connection/structure pair.
    """
    columns, solve = _torsion_system(s.psi)
    # nabla phi of an invariant form: (nabla_X phi)(Y,..) = -sum phi(..,nabla_X Y_t,..),
    # i.e. column i is -matrix_coaction(gamma[i].T, phi) = -sum_jk gamma[i,j,k] e^j ^ iota_{e_k} phi
    mixed = conn.gamma @ s.phi_contractions  # (..., i, j, 2-form)
    rhs = -(mixed.reshape(mixed.shape[:-2] + (-1,))
            @ WEDGE[(1, 2)].reshape(-1, DIMS[3])).swapaxes(-1, -2)
    v = solve @ rhs
    residual = float(np.max(np.abs(columns @ v - rhs)))
    if residual > tol:
        raise TorsionSolveError(f"torsion solve failed: residual {residual:g} > {tol:g}")
    # row i of T is metric @ v[:, i]
    return _chop((s.metric.matrix @ v).swapaxes(-1, -2))


def torsion_data(s):
    """All torsion quantities of a structure, via the generic route."""
    tau0, tau1, tau2, tau3 = torsion_forms(s)
    tau27 = tau27_tensor(s, tau3)
    T = full_torsion_from_forms(s, tau0, tau1, tau2, tau3, tau27)
    return TorsionData(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3, tau27=tau27, T=T)


def reconstruction_residuals(s, tau0, tau1, tau2, tau3):
    """Max-abs residuals of the two defining identities of the torsion forms:

    dphi = tau0 psi + 3 tau1 ^ phi + star(tau3)
    dpsi = 4 tau1 ^ psi - star(tau2)

    (The sign of the star(tau2) term is pinned by the tau2 definition used in
    torsion_forms; see the README note on conventions.)
    """
    m = s.metric
    res1 = (s.dphi - (tau0 * s.psi + 3.0 * wedge(tau1, s.phi) + hodge(tau3, m))).norm_inf()
    res2 = (s.dpsi - (4.0 * wedge(tau1, s.psi) - hodge(tau2, m))).norm_inf()
    return res1, res2


@dataclass(frozen=True)
class TorsionClass:
    closed: bool
    coclosed: bool
    torsion_free: bool


def classify(td, tol=1e-9):
    """Closed / coclosed / torsion-free flags from the torsion magnitudes;
    for torsion data of a stack, each flag is a list with one bool per member."""
    n0 = np.abs(td.tau0)
    n1 = td.tau1.norm_inf()
    n2 = td.tau2.norm_inf()
    n3 = td.tau3.norm_inf()
    flag = lambda *norms: (np.max(norms, axis=0) <= tol).tolist()
    return TorsionClass(closed=flag(n0, n1, n3), coclosed=flag(n1, n2),
                        torsion_free=flag(n0, n1, n2, n3))
