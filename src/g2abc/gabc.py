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
Both routes then take their linear halves from one product of the (N, 48) entries
with one operator built at import, whose two halves side by side are each built by the
same ``exterior._linear_operator`` that builds g2core's operators.  The tabulated half is
the formula text and the closed-form connection.  The generic half runs the stepwise
stages ``structure_constants``, ``riemann.levi_civita`` and the torsion solve of
``g2core.full_torsion_from_nabla`` on the unit triples: its columns give c, the
connection and T by nabla, and the pass differentiates phi and psi on that c and
multiplies [dphi, dpsi] by g2core's TAIL.  The operator keeps its live columns and one
zero column, and one column map reads every block of either half, as the table
``_COLUMNS`` places them.  Each compared block of the layout ``_BLOCKS`` names its
oracle, the generic-route block it is compared with.  A pass concatenates its arrays
once, as the table ``_SOURCES`` lists them, and takes every compared value that a triple
may dual-report with its oracle and every gated residual from that one array in one
gather of the (left, right) column pairs that ``_pass_layout`` derives from the table; a
pair of two zero columns, which reads 0 for every triple, is not among them.
``closed_form_torsion`` evaluates a table's text directly.
``cross_validate_stack`` cross-validates a stack that way in one pass and
returns the results as arrays, from which ``reports()`` makes one report per
triple (a form, there and in ``ClosedFormTorsion``, is its coefficient
array); ``cross_validate`` runs one triple as a stack of one.  The caller
bounds the size of a pass (the command line uses ``cli.PASS_SIZE``).
``generate_many`` draws a stack of random triples, of one family or a family
per trial, at once; each is a function of its address (seed, family, trial)
alone.
"""

import enum
import functools
import math
import numbers
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from ._tables import COMBS, DIM, DIMS
from . import g2core
from .errors import TorsionSolveError, ValidationError
from .exterior import Form, _block_columns, _linear_operator, _vecmat, matrix_coaction, wedge
from .g2core import (
    DEFAULT_TOL,
    STANDARD_PHI,
    STANDARD_PSI,
    TAIL_COLUMNS,
    G2Structure,
    TorsionClass,
    _flags,
    _torsion_solve,
)
from .liealg import _real_array, ce_diff
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
_ABC_ROWS = np.array((6, 0, 1))
#: The a x a block of a 7x7 matrix, rows and columns in the order of _ABC_ROWS.
_A_BLOCK = np.ix_(_ABC_ROWS, _ABC_ROWS)

_ANTIDIAG_SLOTS = ((0, 3), (1, 2), (2, 1), (3, 0))

#: The 2-monomials outside the ideal n, where theta's argument must vanish.
_OFF_N = np.array([not set(key) <= set(N_INDICES) for key in COMBS[2]])


def _transpose(M):
    return M.swapaxes(-1, -2)


class FamilyKind(enum.Enum):
    SKEW = "skew"
    DIAGONAL = "diagonal"
    SYMMETRIC = "symmetric"
    ANTIDIAGONAL = "antidiagonal"
    GENERAL = "general"


#: The families in priority order: a triple's family is the first whose shape it has.
_FAMILIES = (FamilyKind.DIAGONAL, FamilyKind.ANTIDIAGONAL, FamilyKind.SKEW, FamilyKind.SYMMETRIC,
             FamilyKind.GENERAL)


def _shape_comparisons():
    """The exact comparisons that make up a triple's shapes, family by family of
    _FAMILIES[:-1]: entry left of the 48 entries of (A, B, C) must equal sign times entry
    right, its transpose partner.  Sign 0 compares with zero: every entry off the diagonal
    (DIAGONAL) or off the antidiagonal (ANTIDIAGONAL).  Sign -1 takes M_ij = -M_ji for
    i <= j (SKEW), and sign 1 M_ij = M_ji for i < j (SYMMETRIC).  Returns left, right,
    sign and the start of each family's comparisons."""
    i, j = np.divmod(np.arange(16), 4)
    matrix = 16 * np.arange(3)[:, None]  # the offset of A, B and C among the 48 entries
    families = ((i != j, 0.0), (i + j != 3, 0.0), (i <= j, -1.0), (i < j, 1.0))
    left = [(matrix + 4 * i[mask] + j[mask]).ravel() for mask, _ in families]
    right = [(matrix + 4 * j[mask] + i[mask]).ravel() for mask, _ in families]
    sign = [np.full(len(x), sign) for x, (_, sign) in zip(left, families)]
    starts = np.cumsum([0] + [len(x) for x in left[:-1]])
    return np.concatenate(left), np.concatenate(right), np.concatenate(sign), starts


_SHAPE_LEFT, _SHAPE_RIGHT, _SHAPE_SIGN, _SHAPE_STARTS = _shape_comparisons()


def _shapes(abc):
    """(..., 5) flags: whether the triple abc (each of a stack) has each shape of _FAMILIES,
    from one signed gather of its entries and one reduction per family.  The entries are
    finite, so 0 times an entry is a zero; -0.0 counts as zero, as it compares equal to it."""
    flat = abc.reshape(abc.shape[:-3] + (48,))
    equal = flat[..., _SHAPE_LEFT] == _SHAPE_SIGN * flat[..., _SHAPE_RIGHT]
    shapes = np.ones(abc.shape[:-3] + (len(_FAMILIES),), dtype=bool)  # GENERAL: every triple
    np.logical_and.reduceat(equal, _SHAPE_STARTS, axis=-1, out=shapes[..., :-1])
    return shapes


def _checked(abc):
    """abc, the float64 (3, 4, 4) array of the matrices A, B, C of a triple or
    the (N, 3, 4, 4) array of a stack of N, made read-only once every triple
    passes the checks: finite, no entry beyond MAX_ENTRY, traceless, pairwise commuting.

    The error for a stack of several names its first failing trial and gives
    the error that trial would raise on its own, as its ``reason``, and its
    index as ``trial``.
    """
    abc.flags.writeable = False
    bounded_entries = np.abs(abc) <= MAX_ENTRY  # a NaN is not
    bounded = bounded_entries.all(axis=(-2, -1))
    # a matrix with an entry that is not finite or beyond MAX_ENTRY fails before its trace
    # or commutators are formed: no product of the checks overflows
    safe = abc if bounded.all() else np.where(bounded_entries, abc, 0.0)
    trace = np.trace(safe, axis1=-2, axis2=-1)
    left, right = safe[..., [0, 0, 1], :, :], safe[..., [1, 2, 2], :, :]
    commutator = np.abs(left @ right - right @ left).max(axis=(-2, -1))
    # relative to max(1, s), s the trial's largest entry: degree 1 for tr, 2 for [X, Y]
    bound = np.maximum(1.0, np.abs(safe).max(axis=(-3, -2, -1)))[..., None]
    bad_trace = ~(np.abs(trace) <= 1e-12 * bound)
    bad_commutator = ~(commutator / bound <= 1e-10 * bound)  # a NaN or inf fails too
    if not bounded.all() or bad_trace.any() or bad_commutator.any():
        # per matrix or pair of a triple first, as _raise_first_failure reads them
        _raise_first_failure(*(np.moveaxis(x, -1, 0) for x in (
            np.isfinite(abc).all(axis=(-2, -1)), bounded, trace, commutator, bad_trace,
            bad_commutator)))
    return abc


def _raise_first_failure(finite, bounded, trace, commutator, bad_trace, bad_commutator):
    """The error of the first failing trial: the first check it fails, in the order
    A finite, A within MAX_ENTRY, A traceless, B and C alike, then [A,B], [A,C], [B,C]."""
    checks = []
    for q, name in enumerate("ABC"):
        checks.append((~finite[q], f"matrix {name} has non-finite entries", trace[q]))
        checks.append((~bounded[q], f"matrix {name} has an entry beyond {MAX_ENTRY:g}", trace[q]))
        checks.append((bad_trace[q], f"matrix {name} is not traceless: tr = {{:g}}", trace[q]))
    for p, pair in enumerate(("A,B", "A,C", "B,C")):
        checks.append((bad_commutator[p],
                       f"pairwise commutation violated: max |[{pair}]| = {{:g}}", commutator[p]))
    bad = np.array([np.ravel(fails) for fails, _, _ in checks])  # (check, trial)
    ValidationError.raise_first_failing(bad.any(axis=0), lambda n: next(
        message.format(np.ravel(values)[n])
        for fails, (_, message, values) in zip(bad[:, n], checks) if fails))


@dataclass(frozen=True, init=False, eq=False)
class TripleABC:
    """Three traceless pairwise-commuting 4x4 matrices, labelled 3..6, held as
    one read-only (3, 4, 4) array ``abc``; ``A``, ``B`` and ``C`` are read-only
    views of it.

    The matrices are converted to float64, and their entries checked to be real numbers,
    by one conversion of the three as one (3, 4, 4) array, Fractions and ints beyond int64
    included, under the one rule of liealg._real_array.  Only if that conversion raises or
    gives another shape are they converted one by one, so that the error names its matrix.

    ``generate_many`` makes stacks of N validated triples, ``abc`` of shape
    (N, 3, 4, 4) and matrices of shape (N, 4, 4), which every function of the
    module accepts too.  Equality and hashing are by identity.
    """

    abc: np.ndarray

    def __init__(self, A, B, C):
        try:  # the three as one array, in one conversion and one check of the entries' types
            abc = _real_array("matrices A, B, C", (A, B, C), "3x4x4")
        except ValidationError:  # the per-matrix conversions below raise it, naming the matrix
            abc = None
        if abc is None or abc.shape != (3, 4, 4):
            abc = np.stack([self._matrix(name, m) for name, m in zip("ABC", (A, B, C))])
        object.__setattr__(self, "abc", _checked(abc))

    @staticmethod
    def _matrix(name, m):
        """The float64 4x4 array of the matrix m, named name in an error."""
        m = _real_array(f"matrix {name}", m, "4x4")
        if m.shape != (4, 4):
            raise ValidationError(f"matrix {name} must be 4x4, got {m.shape}")
        return m

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
    def _symmetric(self):
        """S(A), S(B), S(C): the symmetric parts, formed on first use and shared by the
        closed forms (cached_property bypasses the frozen __setattr__)."""
        return _sym(self.abc)


def classify_triple(t):
    """Most specific family label: the first of DIAGONAL, ANTIDIAGONAL, SKEW, SYMMETRIC whose
    shape the triple has, else GENERAL; for a stack, the list of the labels of its triples."""
    family = _shapes(t.abc).argmax(axis=-1)
    return [_FAMILIES[f] for f in family.tolist()] if family.ndim else _FAMILIES[family]


def _scatter_of_constants():
    """(source, target, sign) of structure_constants.  Entry (i, j) of the matrix q of
    (A, B, C), column 4 q + j of their side-by-side (4, 12) rows, is the e_{i+3}
    coefficient of [e_r, e_{j+3}] and minus that of [e_{j+3}, e_r], r = _ABC_ROWS[q]."""
    q, i, j = np.indices((3, 4, 4)).reshape(3, -1)
    r = _ABC_ROWS[q]
    target = [np.ravel_multi_index(index, (DIM,) * 3) for index in ((r, j + 2, i + 2),
                                                                      (j + 2, r, i + 2))]
    return np.tile(12 * i + 4 * q + j, 2), np.concatenate(target), np.repeat([1.0, -1.0], 48)


_SC_SOURCE, _SC_TARGET, _SC_SIGN = _scatter_of_constants()


def structure_constants(A, B, C):
    """Raw structure constants of g_{A,B,C} (no invariant checks): one scatter of the
    48 entries, each to its two places with their signs."""
    rows = np.concatenate([A, B, C], axis=-1, dtype=np.float64)
    lead = rows.shape[:-2]
    c = np.zeros(lead + (DIM ** 3,))
    c[..., _SC_TARGET] = rows.reshape(lead + (48,))[..., _SC_SOURCE] * _SC_SIGN
    return c.reshape(lead + (DIM,) * 3) + 0.0  # + 0.0 turns the -0.0 of zero entries into 0.0


def build(t):
    """Read-only structure constants c and reference G2-structure of a validated triple."""
    c = structure_constants(t.A, t.B, t.C)
    c.flags.writeable = False
    return c, G2Structure(c)


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
    """The torsion forms and iota_{tau1}(phi) of a torsion table, evaluated from its text
    by closed_form_torsion; equality and hashing are by identity."""

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
    """Torsion forms from the tabulated coefficient formulas, evaluated from their text.

    The family-specific tables require the matching matrix shape, and on a stack
    of several the error names the first triple without it as its trial; the
    symmetric case has no table of its own and dispatches to the general one.
    For a stack of N triples tau0 is an (N,) array and each form an (N, C(7,k))
    array.  A pass reads the same formulas through the tabulated half of the operator
    compiled from this text, whose values may differ from these in the last bit.
    """
    _check_kinds([kind])
    ValidationError.raise_first_failing(~_shapes(t.abc)[..., _FAMILIES.index(kind)],
                                        lambda n: f"triple does not have the {kind.value} shape")
    table = "general" if kind is FamilyKind.SYMMETRIC else kind.value
    tau0, *forms = globals()[f"_torsion_{table}"](t)  # by name when called, as in _text_values
    # the diagonal table's tau0, tau1 and iota_tau1_phi are constants: broadcast to the stack
    lead = t.abc.shape[:-3]
    return ClosedFormTorsion(tau0 + np.zeros(lead),
                             *(np.broadcast_to(f.values, lead + f.values.shape[-1:]) for f in forms))


# -- the tabulated formulas as one linear operator ------------------------------

_TABLES = (FamilyKind.GENERAL, FamilyKind.SKEW, FamilyKind.DIAGONAL, FamilyKind.ANTIDIAGONAL)
_THETA_PAIRS = tuple((name, which) for name in "ABC" for which in (7, 1, 2))
_DERIVATIVES = ("dphi", 4), ("star_dphi", 3), ("dpsi", 5), ("star_dpsi", 2)
_TORSION_PARTS = ("tau0", 0), ("tau1", 1), ("tau2", 2), ("tau3", 3), ("iota_tau1_phi", 2)
#: The column blocks of the tabulated layout: (formula, degree, the family whose triples
#: dual-report it or None, its oracle).  The oracle is the generic-route block a pass
#: compares the formula with: a block of g2core's TAIL_COLUMNS, "dphi" or "dpsi", or, for
#: a tabulated theta expansion, its definitional theta block.  The compared blocks, those
#: with an oracle, come first, so a triple's dual reports come in their column order; the
#: definitional theta blocks, oracles only, follow.  The family tables' iota_tau1_phi is
#: compared with nothing and stays out (closed_form_torsion returns it from the text).
_BLOCKS = (
    *((f"{part}[{kind.value}]", degree, None if part == "iota_tau1_phi" else kind, part)
      for kind in _TABLES for part, degree in _TORSION_PARTS
      if kind is FamilyKind.GENERAL or part != "iota_tau1_phi"),
    *((f"theta_omega{which}[{name}]", 2, FamilyKind.GENERAL, f"theta(omega{which})[{name}]")
      for name, which in _THETA_PAIRS),
    *((name, degree, None, name) for name, degree in _DERIVATIVES),
    *((f"theta(omega{which})[{name}]", 2, None, None) for name, which in _THETA_PAIRS))
#: The width of each block of the tabulated layout, in column order: the blocks of _BLOCKS,
#: then the closed-form connection (closed_form_connection), which is no table's formula and
#: is compared with the generic connection as the gated quantity "connection".
_WIDTHS = {**{formula: DIMS[degree] for formula, degree, *_ in _BLOCKS}, "connection": DIM ** 3}
#: The tabulated formulas whose differences from their oracles gate every triple.
_GATED = ("dphi", "star_dphi", "dpsi", "star_dpsi",
          "tau1[general]", "tau2[general]", "iota_tau1_phi[general]")


def _text_values(rows):
    """The blocks of the tabulated layout, in the order of _BLOCKS, evaluated from the formula
    text on the triples whose 48 entries are the rows: one (n, width) array per block."""
    t = TripleABC._of_validated(np.reshape(rows, (-1, 3, 4, 4)))
    named = dict(zip("ABC", t.matrices()))
    named.update((name + "t", _transpose(M)) for name, M in zip("ABC", t.matrices()))
    th = {(name, i): theta(M, OMEGA[i]) for name, M in named.items() for i in (7, 1, 2)}
    # each table looked up by its name when called, so that a traced or patched one is evaluated
    text = {f"{part}[{kind.value}]": value for kind in _TABLES  # a form, or tau0 as a number
            for (part, _), value in zip(_TORSION_PARTS, globals()[f"_torsion_{kind.value}"](t))}
    for name, which in _THETA_PAIRS:
        text[f"theta_omega{which}[{name}]"] = theta_omega_tabulated(named[name], which)
        text[f"theta(omega{which})[{name}]"] = th[name, which]
    text.update(zip((name for name, _ in _DERIVATIVES), _derivatives_text(th)))
    text["connection"] = closed_form_connection(t)
    values = [np.reshape(getattr(text[f], "values", text[f]), (-1, width))
              for f, width in _WIDTHS.items()]
    return [np.broadcast_to(v, (len(t.abc), v.shape[1])) for v in values]


def _live_columns(full):
    """The operator of the live columns of the operator full, and its live-column map, both
    read-only.

    Its L live columns, those not identically zero, are kept in column order, then one zero
    column that stands for the others: a pass's product P is the (n, 48) entries of its
    stack times this (48, L + 1) matrix.  The map holds the column of P of each column of
    full.
    """
    live = full.any(axis=0)
    # C-ordered like the full operator: numpy's product then sums each column in the same
    # order, so a live column's values are bit-identical to the full operator's
    matrix = np.zeros((len(full), live.sum() + 1))
    matrix[:, :-1] = full[:, live]
    at = np.where(live, np.cumsum(live) - 1, live.sum())
    for array in (matrix, at):
        array.flags.writeable = False
    return matrix, at


@functools.cache
def _column_labels():
    """(formula, component) of every column of the blocks of _BLOCKS, the tabulated layout
    but its closed-form connection, as a dual report names it."""
    return [(formula, "e" + "".join(map(str, key)) if degree else "")
            for formula, degree, _, _ in _BLOCKS for key in COMBS[degree]]


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
    sym = t._symmetric.swapaxes(-3, -2)  # (..., i, M, l): S(M)_il, M = A, B, C at _ABC_ROWS
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
    abc, sym = t.abc, t._symmetric
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
    div[..., _ABC_ROWS] = -(t._symmetric * block).sum(axis=(-2, -1))
    return div


# -- the two routes' linear halves as one operator --------------------------------------

#: The blocks of the generic half with their widths, in column order: the structure
#: constants c, the Levi-Civita connection gamma, and the torsion solve's T and residual.
_GENERIC_WIDTHS = {"c": DIM ** 3, "gamma": DIM ** 3, "T_nabla": DIM ** 2,
                   "solve_residual": DIMS[3] * DIM}
#: The columns of every block of the operator's layout: the tabulated half, then the generic
#: half, whose names are none of the tabulated ones.
_COLUMNS = _block_columns({**_WIDTHS, **_GENERIC_WIDTHS})


def _generic_stages(rows):
    """The blocks of the generic half on the triples whose 48 entries are the rows, in
    the order of _GENERIC_WIDTHS, by the stepwise definitions: structure_constants,
    riemann.levi_civita and the torsion solve of g2core.full_torsion_from_nabla."""
    abc = rows.reshape(rows.shape[:-1] + (3, 4, 4))
    c = structure_constants(abc[..., 0, :, :], abc[..., 1, :, :], abc[..., 2, :, :])
    gamma = levi_civita(c)
    return (c, gamma, *_torsion_solve(gamma))


def _operator():
    """The operator of both routes' linear halves and its live-column map (_live_columns).
    Row k of the (48, 2090) operator of the layout _COLUMNS is, on unit triple k, the
    tabulated half, the formula text and the closed-form connection (_text_values), then the
    generic half, the stepwise stages (_generic_stages), each half as
    exterior._linear_operator builds it.  The generic half reads nothing of the tabulated
    side, so the two routes share no result.

    The torsion solve's residual is identically zero: for the Levi-Civita connection of
    every G2-structure, nabla_X phi = iota_{T(X)} psi (Karigiannis, Flows of G2-structures
    I, arXiv:math/0702077), and gamma is linear in the entries.  So the check that
    full_torsion_from_nabla makes on every connection is made once, here, on the operator:
    a residual block that is not exactly zero raises TorsionSolveError.
    """
    full = np.concatenate([_linear_operator(_text_values, 48, _WIDTHS),
                           _linear_operator(_generic_stages, 48, _GENERIC_WIDTHS)], axis=1)
    residual = np.abs(full[:, _COLUMNS["solve_residual"]]).max()
    if residual:
        raise TorsionSolveError(
            f"torsion solve failed: the residual of the generic operator reaches {residual:g}")
    return _live_columns(full)


#: Built at import, so that every pass, the first one too, does the same work.
_OPERATOR, _LIVE_AT = _operator()
#: The columns of the product that hold c, then gamma.
_C_GAMMA_AT = _LIVE_AT[_COLUMNS["c"].start:_COLUMNS["gamma"].stop]


# -- family generators ----------------------------------------------------------

#: Uniforms in [0, 1) per trial.  Trial k of family f under seed S reads them from the
#: Philox4x64 stream keyed by ``np.random.Philox(S)``: the Philox outputs at counter words
#: (8k + j, index of f in FamilyKind, 0, 0), j = 0..7, four doubles per output.  So a triple
#: is a function of (S, f, k) alone.
BLOCK = 32
#: Largest trial index: every counter word 0 of its block, 8k + 7, fits in 64 bits.
MAX_TRIAL = 2 ** 61 - 1
_FAMILY_INDEX = {kind: index for index, kind in enumerate(FamilyKind)}

#: The table of the blocks: each family's parameters, by name, as (first index in the
#: block, shape, range).  A parameter of range "scale" is drawn from [-scale, scale] as
#: scale (2u - 1), one of range "unit" from [-1, 1] as 2u - 1, and "rotation" takes the
#: six uniforms of _rotations as they are.  A family leaves the rest of its block unread.
_BLOCK_LAYOUT = {
    FamilyKind.SKEW: {"angles": (0, (3, 2), "scale"), "rotation": (6, (6,), "rotation")},
    FamilyKind.DIAGONAL: {"diagonals": (0, (3, 3), "scale")},
    FamilyKind.SYMMETRIC: {"rotation": (0, (6,), "rotation"), "diagonals": (6, (3, 3), "scale")},
    FamilyKind.ANTIDIAGONAL: {"base": (0, (4,), "scale"), "factors": (4, (2, 2), "unit")},
    FamilyKind.GENERAL: {"matrix": (0, (4, 4), "unit"), "coefficients": (16, (3, 4), "unit")},
}

#: Entry (i, j) of the matrices of x -> p x and x -> x q on the quaternions, basis
#: (1, i, j, k): component i ^ j (bitwise) of p or q, times these signs.
_QUATERNION_INDEX = np.bitwise_xor.outer(np.arange(4), np.arange(4))
_QUATERNION_SIGNS = np.array([
    [[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]],  # left, by p
    [[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]],  # right, by q
])
#: (1 - u0, u0) = u0 * _RADIUS_SIGNS + _RADIUS_SHIFTS, the squared radii of _rotations.
_RADIUS_SIGNS, _RADIUS_SHIFTS = np.array([-1.0, 1.0]), np.array([1.0, 0.0])


def _rotations(u):
    """Rotations of n, Haar-distributed on SO(4), from the (..., 6) uniforms u: g = L(p) R(q),
    L(p) and R(q) the matrices of x -> p x and x -> x q, each orthogonal with determinant 1.

    The unit quaternions p and q come from three uniforms u0, u1, u2 each, as
    (r0 sin a1, r1 sin a2, r0 cos a1, r1 cos a2) with r0 = sqrt(1 - u0), r1 = sqrt(u0)
    and a = 2 pi u: uniform on S^3 (Shoemake, Uniform random rotations, 1992).  As
    (p, q) -> L(p) R(q) is the double cover S^3 x S^3 -> SO(4), g is Haar.
    """
    u = u.reshape(u.shape[:-1] + (2, 3))  # p's uniforms, then q's
    radius = np.sqrt(u[..., :1] * _RADIUS_SIGNS + _RADIUS_SHIFTS)  # sqrt(1 - u0), sqrt(u0)
    angle = (2.0 * np.pi) * u[..., 1:]
    pq = np.concatenate([radius * np.sin(angle), radius * np.cos(angle)], axis=-1)
    left_right = pq[..., _QUATERNION_INDEX] * _QUATERNION_SIGNS
    return left_right[..., 0, :, :] @ left_right[..., 1, :, :]


def _traceless(d):
    """The rows of d, (..., 3), each followed by minus its sum: traceless diagonals."""
    return np.concatenate([d, -d.sum(axis=-1, keepdims=True)], axis=-1)


#: Largest ``scale`` of generate: entries are drawn from [-scale, scale].  The checks of
#: TripleABC and a pass square entries (commutators, the Ricci tensor) and sum a few such
#: products, so the bound sits below sqrt(finfo.max) = 1.34e154 with room to spare: at it,
#: every family generates and goes through cross_validate_stack with no overflow.
MAX_SCALE = 1e150
#: Largest magnitude of an entry of a triple, generated or read from a file: the largest
#: that generate_many draws, 3 * MAX_SCALE on the diagonal and symmetric families.  The
#: checks of TripleABC reject a larger one before they form a product of entries.
MAX_ENTRY = 3 * MAX_SCALE


def _check_kinds(kinds):
    """Raise a ValidationError on the first kind that is not a FamilyKind."""
    if unknown := [kind for kind in kinds if not isinstance(kind, FamilyKind)]:
        raise ValidationError(f"unknown family kind {unknown[0]!r}")


def _check_scale(scale):
    """Raise a ValidationError unless scale is a real number with 0 < scale <= MAX_SCALE;
    NaN and a bool fail it too."""
    if isinstance(scale, bool) or not (isinstance(scale, numbers.Real) and 0 < scale <= MAX_SCALE):
        raise ValidationError(f"scale {scale!r} is not in (0, {MAX_SCALE:g}]")


def _check_tol(tol):
    """Raise a ValidationError unless tol is a real number with 0 <= tol < inf; NaN and a
    bool fail it too."""
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 <= tol < np.inf):
        raise ValidationError(f"tolerance {tol!r} is not a number in [0, inf)")


def _trial_indices(trials):
    """trials as a list of ints; one that is not an integer in [0, MAX_TRIAL] (a bool is
    not) is a ValidationError that names its place in trials."""
    for n, k in enumerate(trials):
        if not (isinstance(k, numbers.Integral) and not isinstance(k, bool)
                and 0 <= k <= MAX_TRIAL):
            raise ValidationError.of_trial(
                n, len(trials), f"trial index {k!r} is not an integer in [0, {MAX_TRIAL}]")
    return [int(k) for k in trials]


def _philox(seed):
    """``np.random.Philox(seed)``, whose key numpy derives from the seed; None, a bool or a
    seed that numpy rejects is a ValidationError."""
    try:
        if seed is None or isinstance(seed, bool):  # fresh entropy; True would be 1
            raise TypeError("expected an integer or a SeedSequence, not None or a bool")
        return np.random.Philox(seed)
    except (TypeError, ValueError) as exc:  # -1, 1.5, "a"
        raise ValidationError(f"seed {seed!r} is not a valid seed: {exc}") from None


def _runs(seed, kinds, trials):
    """(start, stop, u) for each run of consecutive trials of one family in trials: the
    rows start..stop-1, and their (stop - start, BLOCK) uniforms from one state set of the
    seed's stream and one draw."""
    bits = _philox(seed)
    rng, state = np.random.Generator(bits), bits.state
    starts = [m for m in range(len(trials))
              if not m or kinds[m] is not kinds[m - 1] or trials[m] != trials[m - 1] + 1]
    for start, stop in zip(starts, [*starts[1:], len(trials)]):
        # the 256-bit counter is stepped before each output of four words: set it one below
        counter = (_FAMILY_INDEX[kinds[start]] << 64) + BLOCK // 4 * trials[start] - 1
        state["state"]["counter"] = np.array([counter >> shift & 0xFFFF_FFFF_FFFF_FFFF
                                              for shift in (0, 64, 128, 192)], dtype=np.uint64)
        state["buffer_pos"] = 4  # nothing buffered
        bits.state = state
        yield start, stop, rng.random((stop - start, BLOCK))


def generate_many(kind, seed, trials, scale=1.0):
    """Stack of random triples, row n trial trials[n] of the family kind[n] (or kind, for
    a single one; a list, tuple or numpy array holds a kind per trial) under the seed.
    A triple is a function of (seed, family, trial) alone (see BLOCK), so it does not
    depend on the other rows or on its place: ``generate_many(kind, seed, range(n))``
    holds trials 0..n-1, and so does any stack of those trials of that family.

    The parameters of a trial are fixed slices of its block, by the table _BLOCK_LAYOUT;
    the rotations of the skew and symmetric families come from two unit quaternions each
    (_rotations).  Entries are kept within [-scale, scale] up to a rounding, but within
    [-3 scale, 3 scale] for the diagonal and symmetric families: the last entry of their
    diagonal (before any rotation) is minus the sum of the other three.  A scale outside
    0 < scale <= MAX_SCALE, kinds whose number is not that of trials, a trial index that
    is not an integer in [0, MAX_TRIAL], or a seed that is None, a bool or one
    ``np.random.Philox`` rejects is a ValidationError.  All family invariants hold by
    construction, and the stack is re-validated by one run of the checks of TripleABC.
    An error about one row names it, also as its ``trial``.
    """
    trials = list(trials)
    kinds = list(kind) if isinstance(kind, (list, tuple, np.ndarray)) else [kind] * len(trials)
    if len(kinds) != len(trials):
        raise ValidationError(f"{len(kinds)} family kinds for {len(trials)} trials")
    _check_kinds(kinds)
    _check_scale(scale)
    trials = _trial_indices(trials)
    mats = np.empty((len(trials), 3, 4, 4))
    for start, stop, u in _runs(seed, kinds, trials):
        mats[start:stop] = _family_matrices(kinds[start], u, scale)
    return TripleABC._of_validated(_checked(mats))


def _parameters(kind, u, scale):
    """The parameters of n trials of a family by name, read from their (n, BLOCK) uniforms
    u as _BLOCK_LAYOUT lays them out."""
    bound = {"scale": scale, "unit": 1.0}
    p = {}
    for name, (first, shape, spread) in _BLOCK_LAYOUT[kind].items():
        x = u[:, first:first + math.prod(shape)].reshape((-1, *shape))
        p[name] = _rotations(x) if spread == "rotation" else bound[spread] * (2.0 * x - 1.0)
    return p


def _family_matrices(kind, u, scale):
    """The (n, 3, 4, 4) matrices A, B, C of n trials of a family from their (n, BLOCK) blocks."""
    p = _parameters(kind, u, scale)
    if kind is FamilyKind.SKEW:
        # g J g^T for J = t1 (e4 e3^T - e3 e4^T) + t2 (e6 e5^T - e5 e6^T): W - W^T, with
        # W = t1 g4 g3^T + t2 g6 g5^T for the columns g3..g6 of g, is exactly skew
        g = p["rotation"][:, None]
        w = (g[..., 1::2] * p["angles"][..., None, :]) @ _transpose(g[..., 0::2])
        return w - _transpose(w)
    if kind is FamilyKind.DIAGONAL:
        mats = np.zeros(p["diagonals"].shape[:-1] + (16,))
        mats[..., ::5] = _traceless(p["diagonals"])  # entries 33, 44, 55, 66
        return mats.reshape(-1, 3, 4, 4)
    if kind is FamilyKind.SYMMETRIC:
        g = p["rotation"][:, None]  # g D g^T, made exactly symmetric
        return _sym((g * _traceless(p["diagonals"])[..., None, :]) @ _transpose(g))
    if kind is FamilyKind.ANTIDIAGONAL:
        base, factors = p["base"], p["factors"]
        # entries (36, 45, 54, 63) of A, B, C: the base times (f36, f45, f45, f36), f = 1 for A
        f = np.concatenate([np.ones_like(factors[:, :1]), factors], axis=1)
        mats = np.zeros(f.shape[:-1] + (16,))
        mats[..., 3:13:3] = f[..., [0, 1, 1, 0]] * base[:, None]
        return mats.reshape(-1, 3, 4, 4)
    m = p["matrix"]  # GENERAL: three cubic polynomials in m, made traceless
    m2 = m @ m
    powers = np.stack([np.broadcast_to(np.eye(4), m.shape), m, m2, m2 @ m], axis=-3)
    x = (p["coefficients"] @ powers.reshape(-1, 4, 16)).reshape(-1, 3, 4, 4)
    x = x - (np.trace(x, axis1=-2, axis2=-1)[..., None, None] / 4.0) * np.eye(4)
    top = np.abs(x).max(axis=(-2, -1), keepdims=True)
    return x * (scale / np.maximum(top, scale))  # the largest entry at most scale


def generate(kind, seed, scale=1.0):
    """Random triple of the requested family: trial 0 of the family under the seed,
    ``generate_many(kind, seed, [0], scale)``."""
    return TripleABC._of_validated(generate_many(kind, seed, [0], scale).abc[0])


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


def _dual_report(column, tabulated, computed):
    """The dual report of a compared column of the tabulated layout, as a dict of the
    fields of ReferenceCheck, named by the column's (formula, component)."""
    formula, component = _column_labels()[column]
    return {"formula": formula, "component": component, "tabulated": tabulated,
            "computed": computed}


#: The names of the torsion flags, in the order of the columns of CrossValidationArrays.flags.
_FLAG_NAMES = tuple(f.name for f in fields(TorsionClass))


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
    with a leading trial axis; ``rows()`` reads each triple's report as plain values,
    and ``reports()`` makes one CrossValidationReport per triple of them.

    Column q of ``deviations`` is the quantity ``quantities[q]``; it gates
    triple n where ``applies[n, q]`` holds (the family-specific quantities
    apply to the triples of their family only).  The columns of ``flags``
    are the closed, coclosed and torsion-free flags, ``dual_reports`` the
    arrays (trial, compared column of the tabulated layout, tabulated, computed) of each
    coefficient beyond tol that the triple's family shapes let it report, and
    tau1-tau3 the (n, C(7,k)) coefficient arrays of the torsion forms.  ``flags`` is
    computed from tau0-tau3 and tol when it is read, so a pass that only aggregates
    deviations never computes it.  (A named tuple, not a dataclass: building a
    14-field frozen dataclass adds ~2 ms.)
    """

    tol: float
    families: list
    quantities: tuple
    deviations: np.ndarray
    applies: np.ndarray
    exact_checks: dict
    dual_reports: tuple
    tau0: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    tau3: np.ndarray
    torsion_matrix: np.ndarray
    divergence: np.ndarray
    ricci_matrix: np.ndarray

    @property
    def flags(self):
        """(n, 3): the closed, coclosed and torsion-free flags of each triple."""
        return _flags(self, self.tol).T

    def passed(self):
        """Per triple: every gating deviation within tol and every exact check true."""
        ok = ((self.deviations <= self.tol) | ~self.applies).all(axis=1)
        for check in self.exact_checks.values():
            ok &= check
        return ok

    def rows(self):
        """Per triple, the parts of its report as plain values: ``family`` (its name),
        ``passed``, the ``deviations`` that gate it, its ``exact_checks``, its
        ``dual_reports`` as dicts of the fields of ReferenceCheck, named by their columns of
        the tabulated layout, and its ``flags`` as a dict of the fields of TorsionClass.
        ``reports()`` wraps them; analyze writes them as they are."""
        passed = self.passed().tolist()
        dev_rows, applies = self.deviations.tolist(), self.applies.tolist()
        exact_rows = {key: check.tolist() for key, check in self.exact_checks.items()}
        duals = [[] for _ in self.families]
        for n, column, x, y in zip(*(a.tolist() for a in self.dual_reports)):
            duals[n].append(_dual_report(column, x, y))
        return [{"family": family.value, "passed": passed[n],
                 "deviations": {q: v for q, v, a in zip(self.quantities, dev_rows[n], applies[n])
                                if a},
                 "exact_checks": {key: values[n] for key, values in exact_rows.items()},
                 "dual_reports": duals[n],
                 "flags": dict(zip(_FLAG_NAMES, flags))}
                for n, (family, flags) in enumerate(zip(self.families, self.flags.tolist()))]

    def reports(self):
        return [CrossValidationReport(
            family=row["family"], tol=self.tol, passed=row["passed"],
            deviations=row["deviations"], exact_checks=row["exact_checks"],
            dual_reports=[ReferenceCheck(**check) for check in row["dual_reports"]],
            flags=TorsionClass(**row["flags"]),
            tau0=float(self.tau0[n]), tau1=self.tau1[n], tau2=self.tau2[n], tau3=self.tau3[n],
            torsion_matrix=self.torsion_matrix[n], divergence=self.divergence[n],
            ricci_matrix=self.ricci_matrix[n])
            for n, row in enumerate(self.rows())]


def _off_support(degree, support):
    """Mask of the degree-k monomials outside ``support``."""
    allowed = set(support)
    return np.array([key not in allowed for key in COMBS[degree]])


#: Gated deviations that apply to the triples of some families only, with those families.
_FAMILY_DEVIATIONS = {
    "divergence_free": _FAMILIES[:-1],  # the four families of the theorem, all but GENERAL
    "tau27_diagonal_nn": (FamilyKind.DIAGONAL,),
    "support_tau3_diagonal": (FamilyKind.DIAGONAL,),
    "tau27_antidiagonal_pairs": (FamilyKind.ANTIDIAGONAL,),
    "support_tau3_antidiagonal": (FamilyKind.ANTIDIAGONAL,),
}

#: (row, column) of the pairs tau27(e_m, e_{9-m}), m in 3..6
_ANTIDIAG_PAIRS = ([m - 1 for m in N_INDICES], [9 - m - 1 for m in N_INDICES])


#: Every array a pass concatenates, in order, with its width for one triple: the product of
#: the operator, the generic route's torsion tail, dphi and dpsi, the two routes' Ricci
#: tensors and divergences, the closed form's first, and div T.  A pass reads every column
#: at the place _pass_layout derives from this table.
_SOURCES = {"product": _OPERATOR.shape[1], "tail": g2core.TAIL.shape[1], "dphi": DIMS[4],
            "dpsi": DIMS[5], "closed_ricci": DIM ** 2, "ricci": DIM ** 2, "closed_divergence": DIM,
            "div": DIM}


def _pass_layout(sources, at):
    """The columns a pass reads of its concatenation of sources, a table like _SOURCES,
    when column at[k] of the product holds column k of the operator's layout _COLUMNS, a
    block of either half.  No triple changes them.

    Returns the gated quantities; the (2, K) pairs (left, right) of columns whose
    differences the pass takes: first each compared tabulated value that a triple may
    dual-report and the oracle _BLOCKS names for it, then the residual of every gated
    quantity, quantity by quantity, with the product's zero column on the right of a
    residual that is one array already; the start of each quantity's block among the K for
    np.maximum.reduceat; applies[f, q], whether quantity q gates family _FAMILIES[f]; and
    for each compared pair its column of the tabulated layout and the column of _shapes
    whose triples may dual-report it.  A gated-only formula is compared in its gated block
    alone.  A pair of two zero columns, each the product's last, reads 0 on every triple and
    is left out; a quantity left with no pair raises an AssertionError, since
    np.maximum.reduceat would read the next quantity's first pair for it.
    """
    ends = np.cumsum(list(sources.values()))
    named = {name: np.arange(end - width, end) for (name, width), end in zip(sources.items(), ends)}
    named.update((name, named["tail"][columns]) for name, columns in TAIL_COLUMNS.items())
    zero = named["product"][-1]
    product = named["product"][at]  # the column of each column of the layout
    # of the layout's blocks, the generic half's and the tabulated oracle-only ones: a
    # compared one such as star_dphi would shadow the tail's block of its name and compare
    # a formula with itself
    named.update((name, product[_COLUMNS[name]]) for name in (
        *_GENERIC_WIDTHS, *(formula for formula, *_, name in _BLOCKS if name is None)))
    oracle = np.concatenate([named[name] for *_, name in _BLOCKS if name])
    compared = product[:len(oracle)], oracle
    # per compared column, the column of _shapes whose triples may dual-report it (a family
    # table's family, GENERAL for the others), or -1 for a gated-only formula
    on = np.repeat([_FAMILIES.index(kind) if kind else -1 for _, _, kind, name in _BLOCKS if name],
                   [_WIDTHS[formula] for formula, *_, name in _BLOCKS if name])
    tau27 = named["tau27"].reshape(DIM, DIM)
    pairs = {
        **{f.split("[")[0]: tuple(x[_COLUMNS[f]] for x in compared) for f in _GATED},
        **{name: named[name] for name in ("reconstruction_dphi", "reconstruction_dpsi",
                                          "tau2_type14", "tau3_type27_phi", "tau3_type27_psi")},
        "support_iota_tau1_phi": named["iota_tau1_phi"][_off_support(2, TWO_FORM_SUPPORT)],
        "support_tau2": named["tau2"][_off_support(2, TWO_FORM_SUPPORT)],
        "support_tau3": named["tau3"][_off_support(3, TAU3_SUPPORT)],
        "tau27_mixed_block": tau27[_ABC_ROWS, 2:6],
        "torsion_routes": (named["T"], named["T_nabla"]),
        "connection": (product[_COLUMNS["connection"]], named["gamma"]),
        "ricci": (named["closed_ricci"], named["ricci"]),
        "divergence": (named["closed_divergence"], named["div"]),
        # the quantities of _FAMILY_DEVIATIONS, which gate only the triples of their families
        "divergence_free": named["div"],
        "tau27_diagonal_nn": np.diagonal(tau27)[2:6],
        "support_tau3_diagonal": named["tau3"][_off_support(3, TAU3_SUPPORT_DIAGONAL)],
        "tau27_antidiagonal_pairs": tau27[_ANTIDIAG_PAIRS],
        "support_tau3_antidiagonal": named["tau3"][_off_support(3, TAU3_SUPPORT_ANTIDIAGONAL)],
    }
    # a residual that is one array already is the difference from the zero column
    blocks = [np.reshape(pair if isinstance(pair, tuple) else (pair, np.full_like(pair, zero)),
                         (2, -1)) for pair in (compared, *pairs.values())]
    all_pairs = np.concatenate(blocks, axis=1)
    # kept: every pair but those of two zero columns, each the product's last, which read 0
    # on every triple, and of the compared ones only those that a triple may dual-report
    keep = ~(all_pairs == zero).all(axis=0)
    keep[:len(on)] &= on >= 0
    kept = np.cumsum(keep)[np.cumsum([block.shape[1] for block in blocks]) - 1]  # by block end
    if empty := [q for q, count in zip(pairs, np.diff(kept)) if not count]:
        raise AssertionError(f"the pass layout leaves no pair of {', '.join(empty)}")
    reported = np.flatnonzero(keep[:len(on)])
    applies = [[f in _FAMILY_DEVIATIONS.get(q, _FAMILIES) for q in pairs] for f in _FAMILIES]
    return (tuple(pairs), all_pairs[:, keep], kept[:-1], np.array(applies), reported,
            on[reported])


#: The layout of every pass, from its table and the operator's live-column map.
_QUANTITIES, _PAIRS, _QUANTITY_STARTS, _APPLIES, _REPORTED, _REPORTED_ON = _pass_layout(
    _SOURCES, _LIVE_AT)


def cross_validate(t, tol=DEFAULT_TOL):
    """Run every tabulated formula against its generic-route counterpart.

    Gated quantities (the ``deviations`` dict) are the ones the two routes
    must agree on; tabulated formulas known to carry misprints are compared
    coefficient-wise into ``dual_reports`` instead and never gate.  This is
    cross_validate_stack, run on the triple as a stack of one; a stack of several
    is a ValidationError, as one report cannot hold them.
    """
    if t.abc.ndim > 3 and len(t.abc) > 1:
        raise ValidationError(f"a stack of {len(t.abc)} triples needs cross_validate_stack")
    return cross_validate_stack(t, tol).reports()[0]


def cross_validate_stack(t, tol=DEFAULT_TOL):
    """The CrossValidationArrays of t, a stack of n triples (a single triple is a
    stack of one), from one pass of both routes over a leading trial axis.  One row-by-row
    product of the (n, 48) entries with the import-time operator gives both routes' linear
    halves: c, gamma and T by nabla of the generic route, and the formula text and the
    closed-form connection.  The generic route differentiates phi and psi on that c with
    ce_diff and multiplies [dphi, dpsi] by g2core.TAIL; the quadratic stages and
    the closed-form Ricci tensor and divergence run on the stack.  The pass concatenates
    the arrays of _SOURCES once, in that order, takes every (left, right) pair of columns of
    the import-time layout in one gather, and one subtraction and one np.abs give both the
    compared columns and the gated residuals.  A compared column beyond tol is dual-reported
    where the triple has the shape _REPORTED_ON names for it, one gather of _shapes, and
    _REPORTED names its column of the tabulated layout.  A gated quantity is the largest
    magnitude of its residual, an (n, k) block; one reduction takes all.
    A tol outside 0 <= tol < inf is a ValidationError."""
    _check_tol(tol)
    t = TripleABC._of_validated(t.abc.reshape(-1, 3, 4, 4))
    if not len(t.abc):
        raise ValidationError("a cross-validation pass needs at least one triple")
    shapes = _shapes(t.abc)
    n, family = len(shapes), shapes.argmax(axis=1)  # family: each triple's index in _FAMILIES

    # both routes' linear halves, row by row so that a triple's values do not depend on its
    # stack; the generic route then takes TAIL and the quadratic stages
    product = _vecmat(t.abc.reshape(n, 48), _OPERATOR)
    c_gamma = product.take(_C_GAMMA_AT, axis=1).reshape(n, 2, DIM, DIM, DIM)
    c, gamma = c_gamma[:, 0], c_gamma[:, 1]
    dphi, dpsi = ce_diff(c, STANDARD_PHI).values, ce_diff(c, STANDARD_PSI).values
    tail = _vecmat(np.concatenate((dphi, dpsi), axis=1), g2core.TAIL)
    tau27, T = (tail[:, TAIL_COLUMNS[name]].reshape(n, DIM, DIM) for name in ("tau27", "T"))
    ric = ricci(c, gamma)
    div = div_torsion(gamma, T)
    div_cf = closed_form_divergence(t, tau27)
    # the pass's arrays by their names in _SOURCES, concatenated once in its order
    arrays = {"product": product, "tail": tail, "dphi": dphi, "dpsi": dpsi,
              "closed_ricci": closed_form_ricci(t), "ricci": ric, "closed_divergence": div_cf,
              "div": div}
    x = np.concatenate([arrays[name].reshape(n, -1) for name in _SOURCES], axis=1)

    # every (left, right) pair: each compared tabulated value vs its oracle, then each
    # gated residual
    pairs = x.take(_PAIRS, axis=1)
    magnitude = pairs[:, 0] - pairs[:, 1]
    np.abs(magnitude, out=magnitude)
    # dual reports: every coefficient beyond tol, a family table only on its shape
    reported = magnitude[:, :len(_REPORTED)] > tol
    reported &= shapes[:, _REPORTED_ON]
    rows, k = np.nonzero(reported)
    duals = (rows, _REPORTED[k], pairs[rows, 0, k], pairs[rows, 1, k])

    div_zero = ~(div[:, 2:6].any(axis=1) | div_cf[:, 2:6].any(axis=1))
    # each start opens the block of its quantity; NaN propagates
    deviations = np.maximum.reduceat(magnitude, _QUANTITY_STARTS, axis=1)
    at = TAIL_COLUMNS
    return CrossValidationArrays(
        tol=tol, families=[_FAMILIES[f] for f in family.tolist()], quantities=_QUANTITIES,
        deviations=deviations, applies=_APPLIES[family],
        exact_checks={"div_components_3_to_6_zero": div_zero}, dual_reports=duals,
        tau0=tail[:, at["tau0"].start], tau1=tail[:, at["tau1"]], tau2=tail[:, at["tau2"]],
        tau3=tail[:, at["tau3"]], torsion_matrix=T, divergence=div, ricci_matrix=ric)
