"""The solvable Lie algebras g_{A,B,C} and their G2-structure, in two ways.

A triple of traceless, pairwise-commuting 4x4 matrices (A, B, C) defines a
7-dimensional Lie algebra: a = span{e1, e2, e7} is abelian, n = span{e3..e6}
is an abelian ideal, and [e7, v] = Av, [e1, v] = Bv, [e2, v] = Cv on n.
Matrix rows/columns carry the labels 3..6 of the n-basis.

Every geometric quantity is computed twice:
  * a generic route through the exterior-algebra and connection machinery
    (modules exterior / liealg / g2core / riemann), and
  * explicit coefficient formulas specific to g_{A,B,C} (this module).
``cross_validate`` runs both and reports every disagreement.  The tabulated
coefficient formulas are kept verbatim even where they disagree with the
generic route; such coefficients are dual-reported, never silently fixed.
"""

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from ._tables import COMBS, DIM
from .errors import ValidationError
from .exterior import Form, contract, hodge, matrix_coaction, wedge
from .g2core import (
    G2Structure,
    TorsionData,
    classify,
    full_torsion_from_forms,
    full_torsion_from_nabla,
    reconstruction_residuals,
    tau1_vector,
    tau27_tensor,
    torsion_forms,
)
from .liealg import LieAlgebra7, ce_diff  # noqa: F401  (gabc.ce_diff stays importable)
from .riemann import Connection7, div_torsion, levi_civita, ricci

N_INDICES = (3, 4, 5, 6)
A_INDICES = (1, 2, 7)

#: Fundamental 2-forms on the ideal n (self-dual for the induced 4-dim star).
OMEGA = {
    7: Form.from_coeffs(2, {(3, 4): 1.0, (5, 6): 1.0}),
    1: Form.from_coeffs(2, {(3, 5): 1.0, (4, 6): -1.0}),
    2: Form.from_coeffs(2, {(3, 6): -1.0, (4, 5): -1.0}),
}
#: Their anti-self-dual companions.
OMEGA_BAR = {
    7: Form.from_coeffs(2, {(3, 4): 1.0, (5, 6): -1.0}),
    1: Form.from_coeffs(2, {(3, 5): 1.0, (4, 6): 1.0}),
    2: Form.from_coeffs(2, {(3, 6): -1.0, (4, 5): 1.0}),
}

#: Support of iota_{tau1}(phi) and tau2 on g_{A,B,C}.
TWO_FORM_SUPPORT = (
    (1, 2), (1, 7), (2, 7), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
)
#: Support of tau3 on g_{A,B,C} (19 monomials).
TAU3_SUPPORT = (
    (1, 2, 7), (1, 3, 4), (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 4, 6), (2, 5, 6),
    (3, 4, 7), (3, 5, 7), (3, 6, 7), (4, 5, 7), (4, 6, 7), (5, 6, 7),
)
#: tau3 support in the diagonal case (12 monomials).
TAU3_SUPPORT_DIAGONAL = (
    (1, 3, 4), (1, 3, 6), (1, 4, 5), (1, 5, 6), (2, 3, 4), (2, 3, 5),
    (2, 4, 6), (2, 5, 6), (3, 5, 7), (3, 6, 7), (4, 5, 7), (4, 6, 7),
)
#: tau3 support in the antidiagonal case (15 monomials).
TAU3_SUPPORT_ANTIDIAGONAL = (
    (1, 2, 7), (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6), (2, 3, 4), (2, 3, 5),
    (2, 3, 6), (2, 4, 5), (2, 4, 6), (2, 5, 6), (3, 4, 7), (3, 6, 7), (4, 5, 7),
    (5, 6, 7),
)

#: Resolution of the a-block ordering of the closed-form Ricci operator,
#: validated against the curvature oracle (see cross_validate).
RICCI_A_BLOCK_ORDER = "(e7, e1, e2) <-> (A, B, C)"

_ANTIDIAG_SLOTS = ((0, 3), (1, 2), (2, 1), (3, 0))

#: The 2-monomials outside the ideal n, where theta's argument must vanish.
_OFF_N = np.array([not set(key) <= set(N_INDICES) for key in COMBS[2]])


# -- matrix shape predicates (exact, by construction of the families) ---------

def is_diagonal_matrix(M):
    return bool(np.all(M[~np.eye(4, dtype=bool)] == 0.0))

def is_skew_matrix(M):
    return bool(np.array_equal(M, -M.T))

def is_symmetric_matrix(M):
    return bool(np.array_equal(M, M.T))

def is_antidiagonal_matrix(M):
    mask = np.ones((4, 4), dtype=bool)
    for slot in _ANTIDIAG_SLOTS:
        mask[slot] = False
    return bool(np.all(M[mask] == 0.0))


class FamilyKind(enum.Enum):
    SKEW = "skew"
    DIAGONAL = "diagonal"
    SYMMETRIC = "symmetric"
    ANTIDIAGONAL = "antidiagonal"
    GENERAL = "general"


_FAMILY_PREDICATES = {
    FamilyKind.SKEW: is_skew_matrix,
    FamilyKind.DIAGONAL: is_diagonal_matrix,
    FamilyKind.SYMMETRIC: is_symmetric_matrix,
    FamilyKind.ANTIDIAGONAL: is_antidiagonal_matrix,
}


@dataclass(frozen=True)
class TripleABC:
    """Three traceless pairwise-commuting 4x4 matrices, labelled 3..6."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.shape != (4, 4):
                raise ValidationError(f"matrix {name} must be 4x4, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValidationError(f"matrix {name} has non-finite entries")
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, name, m)
            tr = float(np.trace(m))
            if abs(tr) > 1e-12:
                raise ValidationError(f"matrix {name} is not traceless: tr = {tr:g}")
        for left, right in (("A", "B"), ("A", "C"), ("B", "C")):
            lm, rm = getattr(self, left), getattr(self, right)
            res = float(np.max(np.abs(lm @ rm - rm @ lm)))
            if res > 1e-10:
                raise ValidationError(
                    f"pairwise commutation violated: max |[{left},{right}]| = {res:g}")

    def matrices(self):
        return self.A, self.B, self.C

    @functools.cached_property
    def theta_actions(self):
        """theta(M, omega_i) for M in (A, B, C, A^T, B^T, C^T), keyed by (name, i);
        computed once, read by the derivative formulas and the dual reports."""
        named = (("A", self.A), ("B", self.B), ("C", self.C),
                 ("At", self.A.T), ("Bt", self.B.T), ("Ct", self.C.T))
        return {(name, i): theta(M, OMEGA[i]) for name, M in named for i in (7, 1, 2)}

    def matches(self, kind):
        if kind is FamilyKind.GENERAL:
            return True
        pred = _FAMILY_PREDICATES[kind]
        return all(pred(m) for m in self.matrices())


def classify_triple(t):
    """Most specific family label, checked in a fixed order."""
    for kind in (FamilyKind.DIAGONAL, FamilyKind.ANTIDIAGONAL,
                 FamilyKind.SKEW, FamilyKind.SYMMETRIC):
        if t.matches(kind):
            return kind
    return FamilyKind.GENERAL


def structure_constants(A, B, C):
    """Raw structure constants of g_{A,B,C} (no invariant checks)."""
    c = np.zeros((DIM, DIM, DIM))
    for row, M in ((6, A), (0, B), (1, C)):
        m = np.asarray(M, dtype=np.float64)
        c[row, 2:6, 2:6] = m.T
        c[2:6, row, 2:6] = -m.T
    return c + 0.0  # + 0.0 turns the -0.0 of zero entries into 0.0


def build(t):
    """Lie algebra and reference G2-structure of a validated triple."""
    alg = LieAlgebra7(structure_constants(t.A, t.B, t.C))
    return alg, G2Structure.standard(alg)


# -- the representation of sl(4) on 2-forms of n -------------------------------

def theta(M, eta):
    """Natural action on 2-forms of n: (theta(M) eta) = -eta(M.,.) - eta(.,M.).

    Implemented from this definition (not from any tabulated expansion).
    """
    if eta.degree != 2:
        raise ValidationError("theta acts on 2-forms")
    if np.any(eta.values[_OFF_N]):
        raise ValidationError("theta acts on 2-forms supported on e3..e6")
    d7 = np.zeros((DIM, DIM))
    d7[2:6, 2:6] = -np.asarray(M, dtype=np.float64)
    return matrix_coaction(d7, eta)


def _entries(M):
    return tuple(float(v) for v in np.asarray(M, dtype=np.float64).ravel())


def theta_omega_tabulated(M, which):
    """Tabulated expansion of theta(M) on omega_{which}, kept as cross-check
    vectors.  Two coefficients (e35 of omega_1, e46 of omega_2) disagree with
    the definitional action; cross_validate dual-reports them."""
    (m33, m34, m35, m36,
     m43, m44, m45, m46,
     m53, m54, m55, m56,
     m63, m64, m65, m66) = _entries(M)
    if which == 7:
        return Form.from_coeffs(2, {
            (3, 4): -(m33 + m44), (3, 5): m63 - m45, (3, 6): -(m46 + m53),
            (4, 5): m64 + m35, (4, 6): m36 - m54, (5, 6): -(m55 + m66),
        })
    if which == 1:
        return Form.from_coeffs(2, {
            (3, 4): -(m54 + m63), (3, 5): -(m33 - m55), (3, 6): m43 - m56,
            (4, 5): m65 - m34, (4, 6): m44 + m66, (5, 6): m45 + m36,
        })
    if which == 2:
        return Form.from_coeffs(2, {
            (3, 4): m64 - m53, (3, 5): m43 + m65, (3, 6): m33 + m66,
            (4, 5): m44 + m55, (4, 6): m56 + m54, (5, 6): m35 - m46,
        })
    raise ValidationError("which must be one of 7, 1, 2")


# -- closed-form derivatives ----------------------------------------------------

@functools.cache
def _e(*indices):
    return Form.monomial(indices)


def closed_form_derivatives(t):
    """(dphi, star dphi, dpsi, star dpsi) from the theta-action formulas."""
    th = t.theta_actions
    dphi = (wedge(th["B", 7] - th["A", 1], _e(1, 7))
            + wedge(th["C", 7] - th["A", 2], _e(2, 7))
            + wedge(th["B", 2] - th["C", 1], _e(1, 2)))
    star_dphi = (wedge(th["Bt", 7] - th["At", 1], _e(2,))
                 - wedge(th["Ct", 7] - th["At", 2], _e(1,))
                 - wedge(th["Bt", 2] - th["Ct", 1], _e(7,)))
    dpsi = wedge(th["A", 7] + th["B", 1] + th["C", 2], _e(1, 2, 7))
    star_dpsi = -1.0 * (th["At", 7] + th["Bt", 1] + th["Ct", 2])
    return dphi, star_dphi, dpsi, star_dpsi


# -- closed-form torsion --------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormTorsion:
    tau0: float
    tau1: Form
    tau2: Form
    tau3: Form
    iota_tau1_phi: Form


def _iota_tau1_phi(k1, k2, k7):
    """iota_{tau1}(phi) = k1 (e27 + omega1) + k2 (-e17 + omega2) + k7 (e12 + omega7)."""
    return (k1 * (_e(2, 7) + OMEGA[1])
            + k2 * (-1.0 * _e(1, 7) + OMEGA[2])
            + k7 * (_e(1, 2) + OMEGA[7]))


def _torsion_general(t):
    (a33, a34, a35, a36, a43, a44, a45, a46,
     a53, a54, a55, a56, a63, a64, a65, a66) = _entries(t.A)
    (b33, b34, b35, b36, b43, b44, b45, b46,
     b53, b54, b55, b56, b63, b64, b65, b66) = _entries(t.B)
    (c33, c34, c35, c36, c43, c44, c45, c46,
     c53, c54, c55, c56, c63, c64, c65, c66) = _entries(t.C)

    tau0 = (2.0 / 7.0) * (a46 - a64 + a53 - a35 + b35 - b53 + b64 - b46
                          + c54 - c45 + c63 - c36)

    k1 = -(1.0 / 12.0) * (a36 - a63 + a45 - a54 + c56 - c65 + c34 - c43)
    k2 = -(1.0 / 12.0) * (a64 - a46 + a35 - a53 + b43 - b34 + b65 - b56)
    k7 = -(1.0 / 12.0) * (b63 - b36 + b54 - b45 + c46 - c64 + c53 - c35)
    tau1 = Form.from_coeffs(1, {(1,): k1, (2,): k2, (7,): k7})

    third = 1.0 / 3.0
    tau2 = Form.from_coeffs(2, {
        (1, 2): third * (b45 - b54 + b36 - b63 + c35 - c53 + c64 - c46),
        (1, 7): third * (a64 - a46 + a35 - a53 + b65 - b56 + b43 - b34),
        (2, 7): third * (a54 - a45 + a63 - a36 + c65 - c56 + c43 - c34),
        (3, 4): third * (-3 * a33 - 3 * a44 + 2 * c46 - 2 * c35 - 2 * b45 - 2 * b36
                         - c53 + c64 - b63 - b54),
        (3, 5): third * (-2 * a54 + 2 * a36 + 2 * c56 + 2 * c34 + a63 - a45
                         + c65 + c43 - 3 * b55 - 3 * b33),
        (3, 6): third * (-2 * a64 - 2 * a35 - 2 * b65 + 2 * b34 - a46 - a53
                         - b56 + b43 - 3 * c44 - 3 * c55),
        (4, 5): third * (a64 + a35 + b65 - b34 + 2 * a46 + 2 * a53
                         + 2 * b56 - 2 * b43 + 3 * c55 + 3 * c44),
        (4, 6): third * (-a54 + a36 + c56 + c34 + 2 * a63 - 2 * a45
                         + 2 * c65 + 2 * c43 - 3 * b33 - 3 * b55),
        (5, 6): third * (3 * a33 + 3 * a44 - c46 + c35 + b45 + b36
                         + 2 * c53 - 2 * c64 + 2 * b63 + 2 * b54),
    })

    sev = 1.0 / 7.0
    quart = 1.0 / 4.0
    tau3 = Form.from_coeffs(3, {
        (1, 2, 7): -2 * sev * (a56 + c54 + a34 - c36 - a65 + c63 - a43 - c45
                               + b64 + b35 - b53 - b46),
        (1, 3, 4): -quart * (-b65 - b43 + b56 + b34 - a64 + a53 - 3 * a46 + 3 * a35
                             - c33 - c44),
        (1, 3, 5): sev * (5 * a56 + 5 * c54 + 5 * a34 - 5 * c36 + 2 * a65 - 2 * c63
                          + 2 * a43 + 2 * c45 - 2 * b64 - 2 * b35 + 2 * b53 + 2 * b46),
        (1, 3, 6): -quart * (-b63 + b45 - b54 + b36 - c53 - c46 - 3 * c64 - 3 * c35
                             + a55 + a44),
        (1, 4, 5): quart * (b63 - b45 + b54 - b36 - 3 * c53 - 3 * c46 - c64 - c35
                            + 4 * a44 + 4 * a55),
        (1, 4, 6): sev * (2 * a56 + 2 * c54 + 2 * a34 - 2 * c36 + 5 * a65 - 5 * c63
                          + 5 * a43 + 5 * c45 + 2 * b64 + 2 * b35 - 2 * b53 - 2 * b46),
        (1, 5, 6): quart * (b65 + b43 - b56 - b34 - 3 * a64 + 3 * a53 - a46 + a35
                            - 4 * c44 - 4 * c33),
        (2, 3, 4): quart * (-c56 + c43 + c65 - c34 + a63 + a54 + 3 * a45 + 3 * a36
                            - 4 * b33 - 4 * b44),
        (2, 3, 5): quart * (b63 - b45 - 3 * b54 + 3 * b36 + c53 + c46 - c64 - c35
                            + 4 * a33 + 4 * a55),
        (2, 3, 6): -sev * (-2 * a56 - 2 * c54 + 5 * a34 + 2 * c36 - 5 * a65 - 2 * c63
                           + 2 * a43 + 2 * c45 + 5 * b64 + 5 * b35 + 2 * b53 + 2 * b46),
        (2, 4, 5): sev * (-5 * a56 + 2 * c54 + 2 * a34 - 2 * c36 - 2 * a65 + 2 * c63
                          + 5 * a43 - 2 * c45 + 2 * b64 + 2 * b35 + 5 * b53 + 5 * b46),
        (2, 4, 6): quart * (3 * b63 - 3 * b45 - b54 + b36 - c53 - c46 + c64 + c35
                            + 4 * a55 + 4 * a33),
        (2, 5, 6): -quart * (c56 - c43 - c65 + c34 + 3 * a63 + 3 * a54 + a45 + a36
                             - 4 * b44 - 4 * b33),
        (3, 4, 7): -sev * (2 * a56 + 2 * c54 + 2 * a34 + 5 * c36 - 2 * a65 + 2 * c63
                           - 2 * a43 + 5 * c45 + 2 * b64 - 5 * b35 - 2 * b53 + 5 * b46),
        (3, 5, 7): -quart * (b65 + b43 + 3 * b56 + 3 * b34 + a64 - a53 - a46 + a35
                             + 4 * c33 + 4 * c55),
        (3, 6, 7): -quart * (c56 - c43 + 3 * c65 - 3 * c34 - a63 - a54 + a45 + a36
                             - 4 * b55 - 4 * b44),
        (4, 5, 7): -quart * (-3 * c56 + 3 * c43 - c65 + c34 - a63 - a54 + a45 + a36
                             + 4 * b44 + 4 * b55),
        (4, 6, 7): quart * (-3 * b65 - 3 * b43 - b56 - b34 + a64 - a53 - a46 + a35
                            - 4 * c55 - 4 * c33),
        (5, 6, 7): -sev * (2 * a56 - 5 * c54 + 2 * a34 - 2 * c36 - 2 * a65 - 5 * c63
                           - 2 * a43 - 2 * c45 - 5 * b64 + 2 * b35 + 5 * b53 - 2 * b46),
    })
    return ClosedFormTorsion(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3,
                             iota_tau1_phi=_iota_tau1_phi(k1, k2, k7))


def _torsion_skew(t):
    (a33, a34, a35, a36, a43, a44, a45, a46,
     a53, a54, a55, a56, a63, a64, a65, a66) = _entries(t.A)
    (b33, b34, b35, b36, b43, b44, b45, b46,
     b53, b54, b55, b56, b63, b64, b65, b66) = _entries(t.B)
    (c33, c34, c35, c36, c43, c44, c45, c46,
     c53, c54, c55, c56, c63, c64, c65, c66) = _entries(t.C)

    tau0 = (4.0 / 7.0) * (a46 + a53 + b35 + b64 + c54 + c63)

    k1 = -(1.0 / 6.0) * (a36 + a45 + c56 + c34)
    k2 = -(1.0 / 6.0) * (a64 + a35 + b43 + b65)
    k7 = -(1.0 / 6.0) * (b63 + b54 + c46 + c53)
    tau1 = Form.from_coeffs(1, {(1,): k1, (2,): k2, (7,): k7})

    third = 1.0 / 3.0
    tau2 = Form.from_coeffs(2, {
        (1, 2): 2 * third * (b45 + b36 + c35 + c64),
        (1, 7): 2 * third * (a64 + a35 + b65 + b43),
        (2, 7): 2 * third * (a54 + a63 + c65 + c43),
        (3, 4): third * (c46 - c35 - b45 - b36),
        (3, 5): third * (-a54 + a36 + c56 + c34),
        (3, 6): third * (-a64 - a35 - b65 + b34),
        (4, 5): third * (a46 + a53 + b56 - b43),
        (4, 6): third * (a63 - a45 + c65 + c43),
        (5, 6): third * (c53 - c64 + b63 + b54),
    })

    sev = 1.0 / 7.0
    half = 0.5
    tau3 = Form.from_coeffs(3, {
        (1, 2, 7): 4 * sev * (a65 - c63 + a43 - c54 + b53 - b64),
        (1, 3, 4): half * (b65 + b43 - a64 + a53),
        (1, 3, 5): sev * (-3 * a65 + 3 * c63 - 3 * a43 + 3 * c54 + 4 * b53 - 4 * b64),
        (1, 3, 6): half * (b63 + b54 - c53 + c64),
        (1, 4, 5): half * (b63 + b54 - c53 + c64),
        (1, 4, 6): sev * (3 * a65 - 3 * c63 + 3 * a43 - 3 * c54 - 4 * b53 + 4 * b64),
        (1, 5, 6): half * (b65 + b43 - a64 + a53),
        (2, 3, 4): half * (c65 + c43 - a54 - a63),
        (2, 3, 5): half * (-b63 - b54 + c53 - c64),
        (2, 3, 6): sev * (3 * a65 + 4 * c63 + 3 * a43 + 4 * c54 + 3 * b53 - 3 * b64),
        (2, 4, 5): sev * (3 * a65 + 4 * c63 + 3 * a43 + 4 * c54 + 3 * b53 - 3 * b64),
        (2, 4, 6): half * (b63 + b54 - c53 + c64),
        (2, 5, 6): half * (c65 + c43 - a54 - a63),
        (3, 4, 7): sev * (4 * a65 + 3 * c63 + 4 * a43 + 3 * c54 - 3 * b53 + 3 * b64),
        (3, 5, 7): half * (b65 + b43 - a64 + a53),
        (3, 6, 7): half * (-c65 - c43 + a54 + a63),
        (4, 5, 7): half * (-c65 - c43 + a54 + a63),
        (4, 6, 7): half * (-b65 - b43 + a64 - a53),
        (5, 6, 7): sev * (4 * a65 + 3 * c63 + 4 * a43 + 3 * c54 - 3 * b53 + 3 * b64),
    })
    return ClosedFormTorsion(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3,
                             iota_tau1_phi=_iota_tau1_phi(k1, k2, k7))


def _torsion_diagonal(t):
    a33, a44, a55, a66 = (float(t.A[i, i]) for i in range(4))
    b33, b44, b55, b66 = (float(t.B[i, i]) for i in range(4))
    c33, c44, c55, c66 = (float(t.C[i, i]) for i in range(4))

    # The e46 coefficient is tabulated as -(b33 - b55); the generic route gives
    # -(b33 + b55).  Kept verbatim; see the dual reports.
    tau2 = Form.from_coeffs(2, {
        (3, 4): -(a33 + a44), (3, 5): -(b33 + b55), (3, 6): -(c44 + c55),
        (4, 5): (c44 + c55), (4, 6): -(b33 - b55), (5, 6): (a33 + a44),
    })
    tau3 = Form.from_coeffs(3, {
        (1, 3, 4): (c33 + c44), (1, 3, 6): -(a44 + a55), (1, 4, 5): (a44 + a55),
        (1, 5, 6): -(c33 + c44), (2, 3, 4): -(b33 + b44), (2, 3, 5): (a33 + a55),
        (2, 4, 6): (a33 + a55), (2, 5, 6): (b33 + b44), (3, 5, 7): -(c33 + c55),
        (3, 6, 7): (b44 + b55), (4, 5, 7): -(b44 + b55), (4, 6, 7): -(c33 + c55),
    })
    return ClosedFormTorsion(tau0=0.0, tau1=Form.zero(1), tau2=tau2, tau3=tau3,
                             iota_tau1_phi=Form.zero(2))


def _torsion_antidiagonal(t):
    a36, a45, a54, a63 = (float(t.A[s]) for s in _ANTIDIAG_SLOTS)
    b36, b45, b54, b63 = (float(t.B[s]) for s in _ANTIDIAG_SLOTS)
    c36, c45, c54, c63 = (float(t.C[s]) for s in _ANTIDIAG_SLOTS)

    tau0 = (2.0 / 7.0) * (c54 - c45 + c63 - c36)

    k1 = (1.0 / 12.0) * (a63 - a36 + a54 - a45)
    k7 = (1.0 / 12.0) * (b36 - b63 + b45 - b54)
    tau1 = Form.from_coeffs(1, {(1,): k1, (7,): k7})

    third = 1.0 / 3.0
    tau2 = Form.from_coeffs(2, {
        (1, 2): third * (b45 - b54 + b36 - b63),
        (2, 7): third * (a54 - a45 + a63 - a36),
        (3, 4): third * (2 * b36 - b63 + b54 - 2 * b45),
        (3, 5): third * (2 * a36 + a63 - 2 * a54 - a45),
        (4, 6): third * (2 * a63 + a36 - 2 * a45 - a54),
        (5, 6): third * (2 * b63 + b36 + 2 * b54 - b45),
    })

    sev = 1.0 / 7.0
    quart = 1.0 / 4.0
    tau3 = Form.from_coeffs(3, {
        (1, 2, 7): 2 * sev * (c45 - c54 + c36 - c63),
        (1, 3, 5): sev * (5 * c54 + 2 * c45 - 5 * c36 - 2 * c63),
        (1, 3, 6): quart * (b63 - b36 + b54 - b45),
        (1, 4, 5): quart * (b63 - b36 + b54 - b45),
        (1, 4, 6): sev * (5 * c45 + 2 * c54 - 5 * c63 - 2 * c36),
        (2, 3, 4): quart * (3 * a36 + 3 * a45 + a63 + a54),
        (2, 3, 5): quart * (3 * b36 + b63 - 3 * b54 - b45),
        (2, 3, 6): 2 * sev * (c54 - c45 + c63 - c36),
        (2, 4, 5): 2 * sev * (c54 - c45 + c63 - c36),
        (2, 4, 6): quart * (3 * b63 + b36 - 3 * b45 - b54),
        (2, 5, 6): -quart * (3 * a63 + a36 + 3 * a54 + a45),
        (3, 4, 7): -sev * (5 * c45 + 2 * c54 + 5 * c36 + 2 * c63),
        (3, 6, 7): quart * (a54 - a45 + a63 - a36),
        (4, 5, 7): quart * (a54 - a45 + a63 - a36),
        (5, 6, 7): sev * (5 * c54 + 2 * c45 + 5 * c63 + 2 * c36),
    })
    k2 = 0.0
    return ClosedFormTorsion(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3,
                             iota_tau1_phi=_iota_tau1_phi(k1, k2, k7))


def closed_form_torsion(t, kind=FamilyKind.GENERAL):
    """Torsion forms from the tabulated coefficient formulas.

    The family-specific tables require the matching matrix shape; the
    symmetric case has no table of its own and dispatches to the general one.
    """
    if kind is not FamilyKind.GENERAL and not t.matches(kind):
        raise ValidationError(f"triple does not have the {kind.value} shape")
    if kind is FamilyKind.SKEW:
        return _torsion_skew(t)
    if kind is FamilyKind.DIAGONAL:
        return _torsion_diagonal(t)
    if kind is FamilyKind.ANTIDIAGONAL:
        return _torsion_antidiagonal(t)
    return _torsion_general(t)


# -- closed-form connection, Ricci, divergence ---------------------------------

def _sym(M):
    return 0.5 * (M + M.T)


def _skew(M):
    return 0.5 * (M - M.T)


def closed_form_connection(t):
    """Levi-Civita connection of g_{A,B,C}:

    nabla_X Y = 0                                  X, Y in a
              = A(M_X) Y                           X in a, Y in n
              = -S(M_Y) X                          X in n, Y in a
              = sum_l <S(D^l) X, Y> e_l            X, Y in n
    """
    gamma = np.zeros((DIM, DIM, DIM))
    for row, M in ((6, t.A), (0, t.B), (1, t.C)):
        am, sm = _skew(M), _sym(M)
        gamma[row, 2:6, 2:6] = am.T
        gamma[2:6, row, 2:6] = -sm.T
        gamma[2:6, 2:6, row] = sm
    return Connection7(gamma=gamma)


def closed_form_ricci(t):
    """Ricci tensor of g_{A,B,C}: zero a x n block, (1/2) sum [X, X^T] on n x n,
    and minus the Gram matrix of traces tr(S(X) Y) on a x a.

    The a-block ordering is RICCI_A_BLOCK_ORDER.
    """
    A, B, C = t.matrices()
    ric = np.zeros((DIM, DIM))
    comm = lambda M: M @ M.T - M.T @ M
    ric[2:6, 2:6] = 0.5 * (comm(A) + comm(B) + comm(C))
    sa, sb, sc = _sym(A), _sym(B), _sym(C)
    tr = lambda M, N: float(np.trace(M @ N))
    ric[6, 6] = -tr(sa, sa)
    ric[0, 0] = -tr(sb, sb)
    ric[1, 1] = -tr(sc, sc)
    ric[6, 0] = ric[0, 6] = -tr(sa, B)
    ric[6, 1] = ric[1, 6] = -tr(sa, C)
    ric[0, 1] = ric[1, 0] = -tr(sb, C)
    return ric


def closed_form_divergence(t, tau27):
    """Divergence of the full torsion tensor from the 27-part alone:

    <div T, e_j> = -sum_{3 <= i, l <= 6} S(D^j)_il tau27(e_i, e_l)   for j = 1, 2, 7,
    and exactly zero for j = 3..6.

    Expanding: minus the diagonal sum (D^j)_nn tau27(e_n, e_n) and minus the
    off-diagonal sum S(D^j)_il tau27(e_i, e_l).  The sign of the off-diagonal
    term is pinned by agreement with the generic frame-sum divergence; the
    per-family vanishing theorems are insensitive to it (each term vanishes
    separately there).
    """
    div = np.zeros(DIM)
    block = np.asarray(tau27, dtype=np.float64)[2:6, 2:6]
    for row, M in ((6, t.A), (0, t.B), (1, t.C)):
        sm = _sym(M)
        diag_term = float(np.sum(np.diag(M) * np.diag(block)))
        off = sm * block
        off_term = float(np.sum(off) - np.sum(np.diag(off)))
        div[row] = -diag_term - off_term
    return div


# -- family generators ----------------------------------------------------------

def _rot_block_pair(x, y):
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = -x, x
    m[2, 3], m[3, 2] = -y, y
    return m


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def generate(kind, seed, scale=1.0):
    """Random triple of the requested family; deterministic in the seed.

    Entries are kept within [-scale, scale]; all family invariants hold by
    construction (and are re-validated by TripleABC).
    """
    rng = np.random.default_rng(seed)
    if kind is FamilyKind.SKEW:
        params = rng.uniform(-scale, scale, size=(3, 2))
        mats = [_rot_block_pair(x, y) for x, y in params]
        q = _random_rotation(rng)
        mats = [_skew(q @ m @ q.T) for m in mats]  # exact re-antisymmetrisation
    elif kind is FamilyKind.DIAGONAL:
        mats = []
        for _ in range(3):
            d = rng.uniform(-scale, scale, size=4)
            d[3] = -(d[0] + d[1] + d[2])  # exactly traceless
            mats.append(np.diag(d))
    elif kind is FamilyKind.SYMMETRIC:
        q = _random_rotation(rng)
        mats = []
        for _ in range(3):
            d = rng.uniform(-scale, scale, size=4)
            d[3] = -(d[0] + d[1] + d[2])
            mats.append(_sym(q @ np.diag(d) @ q.T))  # exact re-symmetrisation
    elif kind is FamilyKind.ANTIDIAGONAL:
        base = rng.uniform(-scale, scale, size=4)  # (a36, a45, a54, a63)
        factors = rng.uniform(-1.0, 1.0, size=(2, 2))
        mats = []
        for f36, f45 in ((1.0, 1.0), tuple(factors[0]), tuple(factors[1])):
            m = np.zeros((4, 4))
            m[0, 3] = f36 * base[0]
            m[3, 0] = f36 * base[3]
            m[1, 2] = f45 * base[1]
            m[2, 1] = f45 * base[2]
            mats.append(m)
    elif kind is FamilyKind.GENERAL:
        m = rng.uniform(-1.0, 1.0, size=(4, 4))
        powers = [np.eye(4), m, m @ m, m @ m @ m]
        mats = []
        for coeffs in rng.uniform(-1.0, 1.0, size=(3, 4)):
            x = sum(c * p for c, p in zip(coeffs, powers))
            x = x - (np.trace(x) / 4.0) * np.eye(4)
            top = float(np.max(np.abs(x)))
            if top > scale:
                x = x * (scale / top)
            mats.append(x)
    else:
        raise ValidationError(f"unknown family kind {kind!r}")
    return TripleABC(A=mats[0], B=mats[1], C=mats[2])


# -- the cross-validator ----------------------------------------------------------

@dataclass(frozen=True)
class ReferenceCheck:
    """One coefficient where a tabulated formula and the generic route differ."""

    formula: str
    component: str
    tabulated: float
    computed: float

    @property
    def delta(self):
        return abs(self.tabulated - self.computed)


@dataclass
class CrossValidationReport:
    family: str
    tol: float
    deviations: dict = field(default_factory=dict)
    exact_checks: dict = field(default_factory=dict)
    dual_reports: list = field(default_factory=list)
    flags: object = None
    tau0: float = 0.0
    tau1: Form = None
    tau2: Form = None
    tau3: Form = None
    torsion_matrix: np.ndarray = None
    divergence: np.ndarray = None
    ricci_matrix: np.ndarray = None
    ricci_block_order: str = RICCI_A_BLOCK_ORDER

    @property
    def passed(self):
        return (all(v <= self.tol for v in self.deviations.values())
                and all(self.exact_checks.values()))

    def worst(self):
        if not self.deviations:
            return ("", 0.0)
        key = max(self.deviations, key=self.deviations.get)
        return key, self.deviations[key]


def _form_outside_span(form, support):
    allowed = set(support)
    vals = [abs(v) for k, v in form.coeffs.items() if k not in allowed]
    return max(vals, default=0.0)


def _compare_torsion(label, cf, tau0, tau1, tau2, tau3, tol, reports):
    """Coefficient-wise dual reports of a tabulated torsion set vs the oracle."""
    if abs(cf.tau0 - tau0) > tol:
        reports.append(ReferenceCheck(f"tau0[{label}]", "", cf.tau0, tau0))
    for name, printed, oracle in (("tau1", cf.tau1, tau1),
                                  ("tau2", cf.tau2, tau2),
                                  ("tau3", cf.tau3, tau3)):
        diff = printed - oracle
        for key, v in diff.coeffs.items():
            if abs(v) > tol:
                mono = "e" + "".join(map(str, key))
                reports.append(ReferenceCheck(
                    f"{name}[{label}]", mono, printed(*key), oracle(*key)))


def cross_validate(t, tol=1e-9):
    """Run every tabulated formula against its generic-route counterpart.

    Gated quantities (the ``deviations`` dict) are the ones the two routes
    must agree on; tabulated formulas known to carry misprints are compared
    coefficient-wise into ``dual_reports`` instead and never gate.
    """
    alg, s = build(t)
    family = classify_triple(t)
    report = CrossValidationReport(family=family.value, tol=tol)
    dev = report.deviations

    # generic route
    star_dphi = hodge(s.dphi, s.metric)
    star_dpsi = hodge(s.dpsi, s.metric)
    tau0, tau1, tau2, tau3 = torsion_forms(s)
    tau27 = tau27_tensor(s, tau3)
    T = full_torsion_from_forms(s, tau0, tau1, tau2, tau3, tau27)
    conn = levi_civita(alg, s.metric)
    T_nabla = full_torsion_from_nabla(s, conn)
    ric = ricci(alg, s.metric, conn)
    div = div_torsion(alg, s.metric, conn, T)

    report.tau0, report.tau1, report.tau2, report.tau3 = tau0, tau1, tau2, tau3
    report.torsion_matrix = T
    report.divergence = div
    report.ricci_matrix = ric
    report.flags = classify(
        TorsionData(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3, tau27=tau27, T=T), tol)

    # derivatives: theta-action formulas vs the Chevalley-Eilenberg oracle
    cf_dphi, cf_sdphi, cf_dpsi, cf_sdpsi = closed_form_derivatives(t)
    dev["dphi"] = (cf_dphi - s.dphi).norm_inf()
    dev["star_dphi"] = (cf_sdphi - star_dphi).norm_inf()
    dev["dpsi"] = (cf_dpsi - s.dpsi).norm_inf()
    dev["star_dpsi"] = (cf_sdpsi - star_dpsi).norm_inf()

    # torsion forms: general tabulated tau1, tau2 gate; tau0 and tau3 carry
    # known misprints and are compared coefficient-wise into the dual reports
    cf = _torsion_general(t)
    dev["tau1"] = (cf.tau1 - tau1).norm_inf()
    dev["tau2"] = (cf.tau2 - tau2).norm_inf()
    iota = contract(tau1_vector(s, tau1), s.phi)
    dev["iota_tau1_phi"] = (cf.iota_tau1_phi - iota).norm_inf()
    if abs(cf.tau0 - tau0) > tol:
        report.dual_reports.append(ReferenceCheck("tau0[general]", "", cf.tau0, tau0))
    diff3 = cf.tau3 - tau3
    for key, v in diff3.coeffs.items():
        if abs(v) > tol:
            mono = "e" + "".join(map(str, key))
            report.dual_reports.append(ReferenceCheck(
                "tau3[general]", mono, cf.tau3(*key), tau3(*key)))

    # reconstruction identities and component types
    rec1, rec2 = reconstruction_residuals(s, tau0, tau1, tau2, tau3)
    dev["reconstruction_dphi"] = rec1
    dev["reconstruction_dpsi"] = rec2
    dev["tau2_type14"] = wedge(tau2, s.psi).norm_inf()
    dev["tau3_type27_phi"] = wedge(tau3, s.phi).norm_inf()
    dev["tau3_type27_psi"] = wedge(tau3, s.psi).norm_inf()

    # support patterns
    dev["support_iota_tau1_phi"] = _form_outside_span(iota, TWO_FORM_SUPPORT)
    dev["support_tau2"] = _form_outside_span(tau2, TWO_FORM_SUPPORT)
    dev["support_tau3"] = _form_outside_span(tau3, TAU3_SUPPORT)

    # tau27 block structure: mixed a x n entries vanish
    mixed = [abs(tau27[k - 1, i - 1]) for k in A_INDICES for i in N_INDICES]
    dev["tau27_mixed_block"] = max(mixed)

    # torsion tensor: the two routes
    dev["torsion_routes"] = float(np.max(np.abs(T - T_nabla)))

    # connection, Ricci, divergence
    conn_cf = closed_form_connection(t)
    dev["connection"] = float(np.max(np.abs(conn_cf.gamma - conn.gamma)))
    dev["ricci"] = float(np.max(np.abs(closed_form_ricci(t) - ric)))
    div_cf = closed_form_divergence(t, tau27)
    dev["divergence"] = float(np.max(np.abs(div_cf - div)))
    report.exact_checks["div_components_3_to_6_zero"] = (
        bool(np.all(div[2:6] == 0.0)) and bool(np.all(div_cf[2:6] == 0.0)))

    # family-specific content
    if family is not FamilyKind.GENERAL:
        dev["divergence_free"] = float(np.max(np.abs(div)))
    if family is FamilyKind.DIAGONAL:
        dev["tau27_diagonal_nn"] = float(np.max(np.abs(np.diag(tau27)[2:6])))
        dev["support_tau3_diagonal"] = _form_outside_span(tau3, TAU3_SUPPORT_DIAGONAL)
    if family is FamilyKind.ANTIDIAGONAL:
        dev["tau27_antidiagonal_pairs"] = max(
            abs(tau27[m - 1, 9 - m - 1]) for m in N_INDICES)
        dev["support_tau3_antidiagonal"] = _form_outside_span(tau3, TAU3_SUPPORT_ANTIDIAGONAL)

    # per-family tabulated torsion formulas: dual-reported, never gating
    for kind, label in ((FamilyKind.SKEW, "skew"),
                        (FamilyKind.DIAGONAL, "diagonal"),
                        (FamilyKind.ANTIDIAGONAL, "antidiagonal")):
        if t.matches(kind):
            _compare_torsion(label, closed_form_torsion(t, kind),
                             tau0, tau1, tau2, tau3, tol, report.dual_reports)

    # tabulated theta expansions vs the definitional action
    for mat, mat_name in ((t.A, "A"), (t.B, "B"), (t.C, "C")):
        for which in (7, 1, 2):
            printed = theta_omega_tabulated(mat, which)
            oracle = t.theta_actions[mat_name, which]
            for key, v in (printed - oracle).coeffs.items():
                if abs(v) > tol:
                    mono = "e" + "".join(map(str, key))
                    report.dual_reports.append(ReferenceCheck(
                        f"theta_omega{which}[{mat_name}]", mono, printed(*key), oracle(*key)))

    return report
