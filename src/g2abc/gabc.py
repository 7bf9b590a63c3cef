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

A ``TripleABC`` holds its matrices as one (3, 4, 4) array, or a stack of N
triples as one (N, 3, 4, 4) array.
Both routes then run once over the stack: the generic route through stacked
structure constants, the tabulated formulas as one product of the (N, 48)
entries with an operator built once per process from the formula text.
``cross_validate_stack`` cross-validates a stack that way in one pass and
returns the results as arrays, from which ``reports()`` makes one report per
triple (a form, there and in ``ClosedFormTorsion``, is its coefficient
array); ``cross_validate`` runs one triple as a stack of one.  The caller
bounds the size of a pass (the command line uses ``cli.PASS_SIZE``).
``generate_many`` draws a stack of random triples, of one family or a family
per trial, at once.
"""

import enum
import functools
import numbers
import typing
from dataclasses import dataclass, field

import numpy as np

from ._tables import COMBS, DIM, DIMS
from .errors import ValidationError
from .exterior import Form, _vecmat, matrix_coaction, wedge
from .g2core import (
    DEFAULT_TOL,
    PHI_CONTRACTIONS,
    PHI_WEDGE,
    PSI_WEDGE,
    G2Structure,
    TorsionClass,
    _flags,
    full_torsion_from_nabla,
    reconstruction_residuals,
    torsion_data,
)
from .liealg import LieAlgebra7, ce_diff  # noqa: F401  (gabc.ce_diff stays importable)
from .riemann import div_torsion, levi_civita, ricci

N_INDICES = (3, 4, 5, 6)

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
#: The 0-based rows of e7, e1, e2, the elements of a acting on n by A, B, C.
_ABC_ROWS = (6, 0, 1)
#: The a x a block of a 7x7 matrix, rows and columns in the order of _ABC_ROWS.
_A_BLOCK = np.ix_(_ABC_ROWS, _ABC_ROWS)

_ANTIDIAG_SLOTS = ((0, 3), (1, 2), (2, 1), (3, 0))
_OFF_DIAG = ~np.eye(4, dtype=bool)
_OFF_ANTIDIAG = ~np.eye(4, dtype=bool)[::-1]

#: The 2-monomials outside the ideal n, where theta's argument must vanish.
_OFF_N = np.array([not set(key) <= set(N_INDICES) for key in COMBS[2]])


# -- matrix shape predicates (exact, by construction of the families) ---------
# Each takes a 4x4 matrix, or an (N, 4, 4) stack and answers per matrix.

def _transpose(M):
    return M.swapaxes(-1, -2)

def is_diagonal_matrix(M):
    return (M[..., _OFF_DIAG] == 0.0).all(axis=-1)

def is_skew_matrix(M):
    return (M == -_transpose(M)).all(axis=(-2, -1))

def is_symmetric_matrix(M):
    return (M == _transpose(M)).all(axis=(-2, -1))

def is_antidiagonal_matrix(M):
    return (M[..., _OFF_ANTIDIAG] == 0.0).all(axis=-1)


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
#: A shape code has bit b set for the shape _SHAPES[b]; _CODE_SHAPES[code, b] reads it.
_SHAPES = tuple(_FAMILY_PREDICATES)
_CODE_SHAPES = np.arange(2 ** len(_SHAPES))[:, None] >> np.arange(len(_SHAPES)) & 1 == 1
#: Per shape code, its first shape of DIAGONAL, ANTIDIAGONAL, SKEW, SYMMETRIC, else GENERAL.
_CODE_FAMILY = np.full(len(_CODE_SHAPES), FamilyKind.GENERAL, dtype=object)
for _kind in (FamilyKind.SYMMETRIC, FamilyKind.SKEW, FamilyKind.ANTIDIAGONAL, FamilyKind.DIAGONAL):
    _CODE_FAMILY[_CODE_SHAPES[:, _SHAPES.index(_kind)]] = _kind


def _checked(abc):
    """abc, the float64 (3, 4, 4) array of the matrices A, B, C of a triple or
    the (N, 3, 4, 4) array of a stack of N, made read-only once every triple
    passes the checks: finite, traceless, pairwise commuting.

    The error for a stack of several names its first failing trial and gives
    the error that trial would raise on its own, as its ``reason``, and its
    index as ``trial``.
    """
    abc.flags.writeable = False
    finite_entries = np.isfinite(abc)
    finite = finite_entries.all(axis=(-2, -1))
    # a matrix with non-finite entries fails before its trace or commutators are read
    safe = abc if finite.all() else np.where(finite_entries, abc, 0.0)
    trace = np.trace(safe, axis1=-2, axis2=-1)
    left, right = safe[..., [0, 0, 1], :, :], safe[..., [1, 2, 2], :, :]
    commutator = np.abs(left @ right - right @ left).max(axis=(-2, -1))
    # relative to max(1, s), s the trial's largest entry: degree 1 for tr, 2 for [X, Y]
    bound = np.maximum(1.0, np.abs(safe).max(axis=(-3, -2, -1)))[..., None]
    bad_trace = ~(np.abs(trace) <= 1e-12 * bound)
    bad_commutator = ~(commutator / bound <= 1e-10 * bound)  # a NaN or inf fails too
    if not finite.all() or bad_trace.any() or bad_commutator.any():
        # per matrix or pair of a triple first, as _raise_first_failure reads them
        _raise_first_failure(*(np.moveaxis(x, -1, 0) for x in (
            finite, trace, commutator, bad_trace, bad_commutator)))
    return abc


def _raise_first_failure(finite, trace, commutator, bad_trace, bad_commutator):
    """The error of the first failing trial: the first check it fails, in the
    order A finite, A traceless, B and C alike, then [A,B], [A,C], [B,C]."""
    checks = []
    for q, name in enumerate("ABC"):
        checks.append((~finite[q], f"matrix {name} has non-finite entries", trace[q]))
        checks.append((bad_trace[q], f"matrix {name} is not traceless: tr = {{:g}}", trace[q]))
    for p, pair in enumerate(("A,B", "A,C", "B,C")):
        checks.append((bad_commutator[p],
                       f"pairwise commutation violated: max |[{pair}]| = {{:g}}", commutator[p]))
    bad = np.array([np.ravel(fails) for fails, _, _ in checks])  # (check, trial)
    n = int(np.argmax(bad.any(axis=0)))
    _, message, values = checks[int(np.argmax(bad[:, n]))]
    raise ValidationError.of_trial(n, bad.shape[1], message.format(np.ravel(values)[n]))


@dataclass(frozen=True, init=False, eq=False)
class TripleABC:
    """Three traceless pairwise-commuting 4x4 matrices, labelled 3..6, held as
    one read-only (3, 4, 4) array ``abc``; ``A``, ``B`` and ``C`` are read-only
    views of it.

    ``generate_many`` makes stacks of N validated triples, ``abc`` of shape
    (N, 3, 4, 4) and matrices of shape (N, 4, 4), which every function of the
    module accepts too.  Equality and hashing are by identity.
    """

    abc: np.ndarray

    def __init__(self, A, B, C):
        mats = []
        for name, m in zip("ABC", (A, B, C)):
            m = np.asarray(m, dtype=np.float64)
            if m.shape != (4, 4):
                raise ValidationError(f"matrix {name} must be 4x4, got {m.shape}")
            mats.append(m)
        object.__setattr__(self, "abc", _checked(np.stack(mats)))

    A = property(lambda self: self.abc[..., 0, :, :])
    B = property(lambda self: self.abc[..., 1, :, :])
    C = property(lambda self: self.abc[..., 2, :, :])

    @classmethod
    def _of_validated(cls, abc):
        """The triple or stack of the array abc, which passed the checks already."""
        t = object.__new__(cls)
        abc.flags.writeable = False
        object.__setattr__(t, "abc", abc)
        return t

    def matrices(self):
        return self.A, self.B, self.C

    @functools.cached_property
    def _shape_code(self):
        """The shape code of the triple, an array of them for a stack."""
        return sum(p(self.abc).all(axis=-1) << b
                   for b, p in enumerate(_FAMILY_PREDICATES.values()))


def classify_triple(t):
    """Most specific family label, checked in a fixed order; for a stack, the
    list of the labels of its triples."""
    return np.asarray(_CODE_FAMILY[t._shape_code], dtype=object).tolist()


def structure_constants(A, B, C):
    """Raw structure constants of g_{A,B,C} (no invariant checks)."""
    c = np.zeros(np.shape(A)[:-2] + (DIM, DIM, DIM))
    for row, M in zip(_ABC_ROWS, (A, B, C)):
        mt = _transpose(np.asarray(M, dtype=np.float64))
        c[..., row, 2:6, 2:6] = mt
        c[..., 2:6, row, 2:6] = -mt
    return c + 0.0  # + 0.0 turns the -0.0 of zero entries into 0.0


def build(t):
    """Lie algebra and reference G2-structure of a validated triple."""
    alg = LieAlgebra7(structure_constants(t.A, t.B, t.C))
    return alg, G2Structure(alg)


# -- the representation of sl(4) on 2-forms of n -------------------------------

def theta(M, eta):
    """Natural action on 2-forms of n: (theta(M) eta) = -eta(M.,.) - eta(.,M.).

    Implemented from this definition (not from any tabulated expansion).
    An (N, 4, 4) stack of matrices gives a stack of N forms.
    """
    if eta.degree != 2:
        raise ValidationError("theta acts on 2-forms")
    if eta.values[..., _OFF_N].any():
        raise ValidationError("theta acts on 2-forms supported on e3..e6")
    m = np.asarray(M, dtype=np.float64)
    d7 = np.zeros(m.shape[:-2] + (DIM, DIM))
    d7[..., 2:6, 2:6] = -m
    return matrix_coaction(d7, eta)


def _entries(M):
    """The 16 entries of M in row order; (N,) arrays for an (N, 4, 4) stack."""
    m = np.asarray(M, dtype=np.float64)
    return tuple(m.reshape(m.shape[:-2] + (16,)).T)


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

def _e(*indices):
    return Form.monomial(indices)


def _derivatives_text(th):
    """(dphi, star dphi, dpsi, star dpsi) from th[M, i] = theta(M, omega_i), M in A..C, At..Ct."""
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

@dataclass(frozen=True, eq=False)
class ClosedFormTorsion:
    tau0: float | np.ndarray  # an (N,) array for a stack of N triples
    tau1: np.ndarray  # the (..., C(7,k)) coefficient arrays of the forms
    tau2: np.ndarray
    tau3: np.ndarray
    iota_tau1_phi: np.ndarray


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
    return tau0, tau1, tau2, tau3, _iota_tau1_phi(k1, k2, k7)


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
    return tau0, tau1, tau2, tau3, _iota_tau1_phi(k1, k2, k7)


def _torsion_diagonal(t):
    a33, a44, a55, a66 = (t.A[..., i, i] for i in range(4))
    b33, b44, b55, b66 = (t.B[..., i, i] for i in range(4))
    c33, c44, c55, c66 = (t.C[..., i, i] for i in range(4))

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
    return 0.0, Form.zero(1), tau2, tau3, Form.zero(2)


def _torsion_antidiagonal(t):
    a36, a45, a54, a63 = (t.A[..., i, j] for i, j in _ANTIDIAG_SLOTS)
    b36, b45, b54, b63 = (t.B[..., i, j] for i, j in _ANTIDIAG_SLOTS)
    c36, c45, c54, c63 = (t.C[..., i, j] for i, j in _ANTIDIAG_SLOTS)

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
    return tau0, tau1, tau2, tau3, _iota_tau1_phi(k1, k2, k7)


def closed_form_torsion(t, kind=FamilyKind.GENERAL):
    """Torsion forms from the tabulated coefficient formulas.

    The family-specific tables require the matching matrix shape; the
    symmetric case has no table of its own and dispatches to the general one.
    The values are those of tabulated_values.
    """
    _check_kinds([kind])
    if kind in _SHAPES and not _CODE_SHAPES[t._shape_code, _SHAPES.index(kind)].all():
        raise ValidationError(f"triple does not have the {kind.value} shape")
    table = "general" if kind is FamilyKind.SYMMETRIC else kind.value
    values = tabulated_values(t)
    tau0, *forms = (values[..., _COLUMNS[f"{part}[{table}]"]] for part, _ in _TORSION_PARTS)
    return ClosedFormTorsion(tau0[..., 0], *forms)


# -- the tabulated formulas as one linear operator ------------------------------

_TABLES = (FamilyKind.GENERAL, FamilyKind.SKEW, FamilyKind.DIAGONAL, FamilyKind.ANTIDIAGONAL)
_THETA_PAIRS = tuple((name, which) for name in "ABC" for which in (7, 1, 2))
_DERIVATIVES = ("dphi", 4, None), ("star_dphi", 3, None), ("dpsi", 5, None), ("star_dpsi", 2, None)
_TORSION_PARTS = ("tau0", 0), ("tau1", 1), ("tau2", 2), ("tau3", 3), ("iota_tau1_phi", 2)
#: The column blocks of tabulated_values: (formula, degree, the family whose triples
#: dual-report it, or None).  A triple's dual reports come in column order.
_BLOCKS = (
    *((f"{part}[{kind.value}]", degree, None if part == "iota_tau1_phi" else kind)
      for kind in _TABLES for part, degree in _TORSION_PARTS),
    *((f"theta_omega{which}[{name}]", 2, FamilyKind.GENERAL) for name, which in _THETA_PAIRS),
    *_DERIVATIVES, *((f"theta(omega{which})[{name}]", 2, None) for name, which in _THETA_PAIRS))
_STARTS = np.cumsum([0] + [DIMS[degree] for _, degree, _ in _BLOCKS])
_COLUMNS = {formula: slice(a, b) for (formula, _, _), a, b in zip(_BLOCKS, _STARTS, _STARTS[1:])}
_THETA_DEFINED = slice(_COLUMNS["theta(omega7)[A]"].start, None)
#: _CODE_REPORTS[code, column]: whether triples of the shape code dual-report the column:
#: a family table on triples of its shape, the general one and theta expansions on all.
_REPORTING = (*_SHAPES, FamilyKind.GENERAL, None)
_REPORTED_ON = np.repeat([_REPORTING.index(kind) for _, _, kind in _BLOCKS], np.diff(_STARTS))
_CODE_REPORTS = np.hstack([_CODE_SHAPES, [[True, False]] * len(_CODE_SHAPES)])[:, _REPORTED_ON]


def _text_values(t):
    """The columns of tabulated_values, evaluated from the formula text on the stack t."""
    named = dict(zip("ABC", t.matrices()))
    named.update((name + "t", _transpose(M)) for name, M in zip("ABC", t.matrices()))
    th = {(name, i): theta(M, OMEGA[i]) for name, M in named.items() for i in (7, 1, 2)}
    columns = []
    for table in (_torsion_general, _torsion_skew, _torsion_diagonal, _torsion_antidiagonal):
        tau0, *forms = table(t)  # the parts of _TORSION_PARTS
        columns += [np.reshape(tau0, (-1, 1)), *(f.values for f in forms)]
    columns += [theta_omega_tabulated(named[name], which).values for name, which in _THETA_PAIRS]
    columns += [f.values for f in (*_derivatives_text(th), *(th[pair] for pair in _THETA_PAIRS))]
    return np.concatenate([np.broadcast_to(v, (len(t.abc), v.shape[-1])) for v in columns], 1)


@functools.cache
def _operator():
    """The (48, K) operator of tabulated_values: row k is the formula text on unit triple k."""
    units = np.concatenate([np.zeros((1, 48)), np.eye(48)]).reshape(49, 3, 4, 4)
    values = _text_values(TripleABC._of_validated(units))
    if constant := [f for f, _, _ in _BLOCKS if values[0, _COLUMNS[f]].any()]:  # not linear
        raise ValidationError(f"tabulated formulas with a constant term: {', '.join(constant)}")
    values.flags.writeable = False
    return values[1:]


@functools.cache
def _column_labels():
    """(formula, component) of every column of tabulated_values, as a dual report names it."""
    return [(formula, "e" + "".join(map(str, key)) if degree else "")
            for formula, degree, _ in _BLOCKS for key in COMBS[degree]]


def tabulated_values(t):
    """Every linear tabulated formula of t in the columns of _BLOCKS, a row per triple
    of a stack: the 48 entries of (A, B, C) times the operator of the formula text, row
    by row so that a triple's values do not depend on its stack."""
    values = _vecmat(t.abc.reshape(-1, 48), _operator())
    return values.reshape(t.abc.shape[:-3] + values.shape[-1:])


# -- closed-form connection, Ricci, divergence ---------------------------------

def _sym(M):
    return 0.5 * (M + _transpose(M))


def _skew(M):
    return 0.5 * (M - _transpose(M))


def closed_form_connection(t):
    """Levi-Civita connection gamma of g_{A,B,C} (nabla_{e_i} e_j = sum_k gamma[i, j, k] e_k):

    nabla_X Y = 0                                  X, Y in a
              = A(M_X) Y                           X in a, Y in n
              = -S(M_Y) X                          X in n, Y in a
              = sum_l <S(D^l) X, Y> e_l            X, Y in n
    """
    sym = _sym(t.abc).swapaxes(-3, -2)  # (..., i, M, l): S(M)_il, M = A, B, C at _ABC_ROWS
    gamma = np.zeros(t.abc.shape[:-3] + (DIM, DIM, DIM))
    gamma[..., _ABC_ROWS, 2:6, 2:6] = _transpose(_skew(t.abc))
    gamma[..., 2:6, _ABC_ROWS, 2:6] = -sym  # S(M) is symmetric
    gamma[..., 2:6, 2:6, _ABC_ROWS] = _transpose(sym)
    return gamma


def closed_form_ricci(t):
    """Ricci tensor of g_{A,B,C}: zero a x n block, (1/2) sum [X, X^T] on n x n,
    and minus the Gram matrix of traces tr(S(X) Y) = tr(S(X) S(Y)) on a x a.

    Each block is one expression over the whole stack; the Gram matrix is the trace
    of one stacked product, so tr(S(X) S(X)) sums in the order of a 4x4 product.
    The a-block ordering is RICCI_A_BLOCK_ORDER.
    """
    abc, sym = t.abc, _sym(t.abc)
    ric = np.zeros(abc.shape[:-3] + (DIM, DIM))
    ric[..., 2:6, 2:6] = 0.5 * (abc @ _transpose(abc) - _transpose(abc) @ abc).sum(axis=-3)
    gram = np.trace(sym[..., :, None, :, :] @ sym[..., None, :, :, :], axis1=-2, axis2=-1)
    ric[(...,) + _A_BLOCK] = -gram
    return ric


def closed_form_divergence(t, tau27):
    """Divergence of the full torsion tensor from the 27-part alone:

    <div T, e_j> = -sum_{3 <= i, l <= 6} S(D^j)_il tau27(e_i, e_l)   for j = 1, 2, 7,
    and exactly zero for j = 3..6.

    One product-sum over the stack; as diag S(D^j) = diag D^j, it holds the diagonal
    term -sum_n (D^j)_nn tau27(e_n, e_n).  The sign of the off-diagonal part is
    pinned by agreement with the generic frame-sum divergence; the per-family
    vanishing theorems are insensitive to it (each term vanishes separately there).
    """
    block = np.asarray(tau27, dtype=np.float64)[..., None, 2:6, 2:6]
    div = np.zeros(block.shape[:-3] + (DIM,))
    div[..., _ABC_ROWS] = -(_sym(t.abc) * block).sum(axis=(-2, -1))
    return div


# -- family generators ----------------------------------------------------------

def _random_rotations(normals):
    """Rotation from the QR of each 4x4 matrix of normals: Q with the signs
    of R's diagonal, and its first column negated where det Q < 0."""
    q, r = np.linalg.qr(normals)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def _traceless_diagonals(d):
    """The diagonal matrices of the rows of d, their last entry set to make
    them exactly traceless."""
    d[..., 3] = -(d[..., 0] + d[..., 1] + d[..., 2])
    m = np.zeros(d.shape + (4,))
    m[..., range(4), range(4)] = d
    return m


#: Largest ``scale`` of generate: entries are drawn from [-scale, scale],
#: whose width must be a finite float.
MAX_SCALE = np.finfo(np.float64).max / 2


def _family_draws(kind, scale):
    """The draws of one trial of the family, in order, each a function of its generator."""
    uniform = lambda bound, size: lambda rng: rng.uniform(-bound, bound, size=size)
    normals = lambda rng: rng.standard_normal((4, 4))  # of a rotation
    return {
        FamilyKind.SKEW: (uniform(scale, (3, 2)), normals),
        FamilyKind.DIAGONAL: (uniform(scale, (3, 4)),),
        FamilyKind.SYMMETRIC: (normals, uniform(scale, (3, 4))),
        FamilyKind.ANTIDIAGONAL: (uniform(scale, 4), uniform(1.0, (2, 2))),  # base, factors
        FamilyKind.GENERAL: (uniform(1.0, (4, 4)), uniform(1.0, (3, 4))),
    }[kind]


def _check_kinds(kinds):
    """Raise a ValidationError on a kind that is not a FamilyKind."""
    if unknown := set(kinds) - set(FamilyKind):
        raise ValidationError(f"unknown family kind {unknown.pop()!r}")


def _check_scale(scale):
    """Raise a ValidationError unless 0 < scale <= MAX_SCALE; NaN fails it too."""
    if not 0.0 < scale <= MAX_SCALE:
        raise ValidationError(f"scale {scale!r} is not in (0, {MAX_SCALE:g}]")


def _check_tol(tol):
    """Raise a ValidationError unless tol is a real number with 0 <= tol < inf; NaN fails it too."""
    if not (isinstance(tol, numbers.Real) and 0.0 <= tol < np.inf):
        raise ValidationError(f"tolerance {tol!r} is not a number in [0, inf)")


def generate_many(kind, seeds, scale=1.0):
    """Stack of random triples, triple n of the family kind[n] (or kind, for a
    single one).  Triple n comes from the draws of ``default_rng(seeds[n])``
    alone, so it does not depend on the other trials or on its place.

    Entries are kept within [-scale, scale] up to a rounding, but within
    [-3 scale, 3 scale] for the diagonal and symmetric families: the last
    entry of their diagonal (before any rotation) is minus the sum of the
    other three.  A scale outside 0 < scale <= MAX_SCALE is a ValidationError.
    All family invariants hold by construction.  The stack's rotations come
    from one QR, and it is re-validated by one run of the checks of TripleABC
    (an error names the failing trial, also as its ``trial``).
    """
    seeds = list(seeds)
    kinds = list(kind) if isinstance(kind, (list, tuple)) else [kind] * len(seeds)
    _check_kinds(kinds)
    _check_scale(scale)
    plans = {k: _family_draws(k, scale) for k in dict.fromkeys(kinds)}
    drawn = [[draw(rng) for draw in plans[k]]
             for k, rng in zip(kinds, map(np.random.default_rng, seeds), strict=True)]
    normals = {FamilyKind.SKEW: 1, FamilyKind.SYMMETRIC: 0}  # their draw, per rotated family
    rotated = [n for n, k in enumerate(kinds) if k in normals]
    q = np.empty((len(seeds), 1, 4, 4))
    if rotated:
        q[rotated, 0] = _random_rotations(np.array([drawn[n][normals[kinds[n]]] for n in rotated]))
    mats = np.empty((len(seeds), 3, 4, 4))
    for k in plans:
        at = [n for n, kn in enumerate(kinds) if kn is k]
        mats[at] = _family_matrices(k, [np.array(d) for d in zip(*(drawn[n] for n in at))],
                                    q[at], scale)
    return TripleABC._of_validated(_checked(mats))


def _family_matrices(kind, draws, q, scale):
    """The (n, 3, 4, 4) matrices A, B, C of n trials of a family from their stacked draws."""
    if kind is FamilyKind.SKEW:
        params = draws[0]
        blocks = np.zeros(params.shape[:-1] + (4, 4))  # rotations in the planes 34 and 56
        blocks[..., [1, 3, 0, 2], [0, 2, 1, 3]] = np.concatenate([params, -params], axis=-1)
        return _skew(q @ blocks @ _transpose(q))  # exact re-antisymmetrisation
    if kind is FamilyKind.DIAGONAL:
        return _traceless_diagonals(draws[0])
    if kind is FamilyKind.SYMMETRIC:
        return _sym(q @ _traceless_diagonals(draws[1]) @ _transpose(q))  # exact re-symmetrisation
    if kind is FamilyKind.ANTIDIAGONAL:
        base, factors = draws
        # entries (36, 45, 54, 63) of A, B, C: the base times (f36, f45, f45, f36), f = 1 for A
        f = np.concatenate([np.ones_like(factors[:, :1]), factors], axis=1)
        mats = np.zeros(f.shape[:-1] + (4, 4))
        mats[..., range(4), range(3, -1, -1)] = f[..., [0, 1, 1, 0]] * base[:, None]
        return mats
    m, coeffs = draws  # GENERAL
    m2 = m @ m
    powers = (np.eye(4), m[:, None], m2[:, None], (m2 @ m)[:, None])
    x = sum(coeffs[..., k, None, None] * p for k, p in enumerate(powers))
    x = x - (np.trace(x, axis1=-2, axis2=-1)[..., None, None] / 4.0) * np.eye(4)
    top = np.abs(x).max(axis=(-2, -1), keepdims=True)
    return x * (scale / np.maximum(top, scale))  # the largest entry at most scale


def generate(kind, seed, scale=1.0):
    """Random triple of the requested family; deterministic in the seed.

    The one-triple case of generate_many.
    """
    return TripleABC._of_validated(generate_many(kind, [seed], scale).abc[0])


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

    @classmethod
    def of_column(cls, column, tabulated, computed):
        """The check of a column of tabulated_values, named by its (formula, component)."""
        return cls(*_column_labels()[column], tabulated, computed)


@dataclass(eq=False)
class CrossValidationReport:
    """One triple's results, as CrossValidationArrays.reports makes them: the
    deviations that gate its family, and ``passed``, CrossValidationArrays.passed.
    Equality and hashing are by identity."""

    family: str
    tol: float
    passed: bool
    deviations: dict = field(default_factory=dict)
    exact_checks: dict = field(default_factory=dict)
    dual_reports: list = field(default_factory=list)
    flags: object = None
    tau0: float = 0.0
    tau1: np.ndarray = None  # the C(7,k) coefficients of the torsion forms
    tau2: np.ndarray = None
    tau3: np.ndarray = None
    torsion_matrix: np.ndarray = None
    divergence: np.ndarray = None
    ricci_matrix: np.ndarray = None


class CrossValidationArrays(typing.NamedTuple):
    """The results of one cross-validation pass over n triples, as arrays
    with a leading trial axis; ``reports()`` makes one report per triple.

    Column q of ``deviations`` is the quantity ``quantities[q]``; it gates
    triple n where ``applies[n, q]`` holds (the family-specific quantities
    apply to the triples of their family only).  The columns of ``flags``
    are the closed, coclosed and torsion-free flags, ``dual_reports`` the
    arrays (trial, column of tabulated_values, tabulated, computed), and
    tau1-tau3 the (n, C(7,k)) coefficient arrays of the torsion forms.  (A named
    tuple, not a dataclass: building a 15-field frozen dataclass adds ~2 ms.)
    """

    tol: float
    families: list
    quantities: tuple
    deviations: np.ndarray
    applies: np.ndarray
    exact_checks: dict
    dual_reports: tuple
    flags: np.ndarray
    tau0: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    tau3: np.ndarray
    torsion_matrix: np.ndarray
    divergence: np.ndarray
    ricci_matrix: np.ndarray

    def passed(self):
        """Per triple: every gating deviation within tol and every exact check true."""
        ok = ((self.deviations <= self.tol) | ~self.applies).all(axis=1)
        for check in self.exact_checks.values():
            ok &= check
        return ok

    def reports(self):
        passed = self.passed().tolist()
        dev_rows, applies = self.deviations.tolist(), self.applies.tolist()
        flag_rows = self.flags.tolist()
        exact_rows = {key: check.tolist() for key, check in self.exact_checks.items()}
        duals = [[] for _ in self.families]
        for n, *check in zip(*(a.tolist() for a in self.dual_reports)):
            duals[n].append(ReferenceCheck.of_column(*check))
        return [CrossValidationReport(
            family=family.value, tol=self.tol, passed=passed[n],
            deviations={q: v for q, v, a in zip(self.quantities, dev_rows[n], applies[n]) if a},
            exact_checks={key: rows[n] for key, rows in exact_rows.items()},
            dual_reports=duals[n],
            flags=TorsionClass(*flag_rows[n]),
            tau0=float(self.tau0[n]), tau1=self.tau1[n], tau2=self.tau2[n], tau3=self.tau3[n],
            torsion_matrix=self.torsion_matrix[n], divergence=self.divergence[n],
            ricci_matrix=self.ricci_matrix[n])
            for n, family in enumerate(self.families)]


@functools.cache
def _off_support(degree, support):
    """Mask of the degree-k monomials outside ``support``."""
    allowed = set(support)
    return np.array([key not in allowed for key in COMBS[degree]])


#: Gated deviations that apply to the triples of some families only, with those families.
_FAMILY_DEVIATIONS = {
    "divergence_free": _SHAPES,  # the four families of the theorem, all but GENERAL
    "tau27_diagonal_nn": (FamilyKind.DIAGONAL,),
    "support_tau3_diagonal": (FamilyKind.DIAGONAL,),
    "tau27_antidiagonal_pairs": (FamilyKind.ANTIDIAGONAL,),
    "support_tau3_antidiagonal": (FamilyKind.ANTIDIAGONAL,),
}
#: _CODE_APPLIES[code, q]: whether the q-th of them gates the family of the shape code.
_CODE_APPLIES = np.array([[f in fs for fs in _FAMILY_DEVIATIONS.values()] for f in _CODE_FAMILY])

#: (row, column) of the pairs tau27(e_m, e_{9-m}), m in 3..6
_ANTIDIAG_PAIRS = ([m - 1 for m in N_INDICES], [9 - m - 1 for m in N_INDICES])


def cross_validate(t, tol=DEFAULT_TOL):
    """Run every tabulated formula against its generic-route counterpart.

    Gated quantities (the ``deviations`` dict) are the ones the two routes
    must agree on; tabulated formulas known to carry misprints are compared
    coefficient-wise into ``dual_reports`` instead and never gate.  This is
    cross_validate_stack, run on the triple as a stack of one.
    """
    return cross_validate_stack(t, tol).reports()[0]


def cross_validate_stack(t, tol=DEFAULT_TOL):
    """The CrossValidationArrays of t, a stack of n triples (a single triple is a
    stack of one), from one pass of both routes over a leading trial axis: the
    generic route from torsion_data and the connection, the tabulated one from
    tabulated_values and the closed forms.  A gated quantity is the largest
    magnitude of its residual, an (n, k) block; one reduction takes all.
    A tol outside 0 <= tol < inf is a ValidationError."""
    _check_tol(tol)
    t = TripleABC._of_validated(t.abc.reshape(-1, 3, 4, 4))
    if not len(t.abc):
        raise ValidationError("a cross-validation pass needs at least one triple")
    alg, s = build(t)
    code = t._shape_code
    n = len(code)

    # generic route
    td = torsion_data(s)
    tau1, tau2, tau3 = td.tau1, td.tau2, td.tau3
    gamma = levi_civita(alg)
    ric = ricci(alg, gamma)
    div = div_torsion(gamma, td.T)
    iota = _vecmat(tau1, PHI_CONTRACTIONS)  # iota_{tau1}(phi)

    # each tabulated value vs its counterpart in the columns of _BLOCKS: the tables vs the
    # torsion forms, theta vs its definition, the derivatives vs the Chevalley-Eilenberg oracle
    tab = tabulated_values(t)
    torsion = [td.tau0[:, None], tau1, tau2, tau3, iota]
    derivatives = [s.dphi, s.star_dphi, s.dpsi, s.star_dpsi]
    oracle = np.concatenate([*torsion * len(_TABLES), tab[:, _THETA_DEFINED], *derivatives,
                             tab[:, _THETA_DEFINED]], axis=1)
    delta = tab - oracle
    res = {formula.split("[")[0]: delta[:, _COLUMNS[formula]] for formula in (
        "dphi", "star_dphi", "dpsi", "star_dpsi", "tau1[general]", "tau2[general]",
        "iota_tau1_phi[general]")}
    # dual reports: every coefficient beyond tol, a family table only on its shape
    hits = (np.abs(delta) > tol) & _CODE_REPORTS[code]
    duals = (*np.nonzero(hits), tab[hits], oracle[hits])

    # reconstruction identities, component types, support patterns, the tau27 a x n block
    res["reconstruction_dphi"], res["reconstruction_dpsi"] = reconstruction_residuals(
        s, td.tau0, tau1, tau2, tau3)
    res["tau2_type14"] = _vecmat(tau2, PSI_WEDGE[2])
    res["tau3_type27_phi"] = _vecmat(tau3, PHI_WEDGE[3])
    res["tau3_type27_psi"] = _vecmat(tau3, PSI_WEDGE[3])
    res["support_iota_tau1_phi"] = iota[:, _off_support(2, TWO_FORM_SUPPORT)]
    res["support_tau2"] = tau2[:, _off_support(2, TWO_FORM_SUPPORT)]
    res["support_tau3"] = tau3[:, _off_support(3, TAU3_SUPPORT)]
    res["tau27_mixed_block"] = td.tau27[:, _ABC_ROWS, 2:6].reshape(n, -1)

    # the two routes: torsion tensor, connection, Ricci, divergence
    res["torsion_routes"] = (td.T - full_torsion_from_nabla(gamma)).reshape(n, -1)
    res["connection"] = (closed_form_connection(t) - gamma).reshape(n, -1)
    res["ricci"] = (closed_form_ricci(t) - ric).reshape(n, -1)
    div_cf = closed_form_divergence(t, td.tau27)
    res["divergence"] = div_cf - div
    div_zero = ~(div[:, 2:6].any(axis=1) | div_cf[:, 2:6].any(axis=1))

    # family-specific content, kept below for the triples of that family
    family_res = {
        "divergence_free": div,
        "tau27_diagonal_nn": np.diagonal(td.tau27, axis1=-2, axis2=-1)[:, 2:6],
        "support_tau3_diagonal": tau3[:, _off_support(3, TAU3_SUPPORT_DIAGONAL)],
        "tau27_antidiagonal_pairs": td.tau27[(...,) + _ANTIDIAG_PAIRS],
        "support_tau3_antidiagonal": tau3[:, _off_support(3, TAU3_SUPPORT_ANTIDIAGONAL)],
    }
    applies = np.hstack([np.ones((n, len(res)), dtype=bool), _CODE_APPLIES[code]])
    res.update((q, family_res[q]) for q in _FAMILY_DEVIATIONS)  # in the order of _CODE_APPLIES

    # no block is empty, so each start opens the block of its quantity; NaN propagates
    starts = np.cumsum([0] + [block.shape[1] for block in res.values()][:-1])
    deviations = np.maximum.reduceat(np.abs(np.concatenate(list(res.values()), axis=1)),
                                     starts, axis=1)
    return CrossValidationArrays(
        tol=tol, families=_CODE_FAMILY[code].tolist(), quantities=tuple(res),
        deviations=deviations, applies=applies,
        exact_checks={"div_components_3_to_6_zero": div_zero}, dual_reports=duals,
        flags=_flags(td, tol).T, tau0=td.tau0, tau1=tau1, tau2=tau2, tau3=tau3,
        torsion_matrix=td.T, divergence=div, ricci_matrix=ric)
