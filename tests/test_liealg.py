import warnings
from fractions import Fraction

import numpy as np
import pytest

from g2abc._tables import DIM, DIMS
from g2abc.errors import DegreeError, ValidationError
from g2abc.exterior import Form, wedge
from g2abc.gabc import FamilyKind, _checked, generate, generate_many, structure_constants
from g2abc.g2core import STANDARD_PHI, STANDARD_PSI
from g2abc.liealg import LieAlgebra7, _ce_operator, _jacobi_residuals, ce_diff

from helpers import (
    ZERO4,
    ce_diff_reference,
    e_matrix,
    is_unimodular,
    jacobi_residual,
    member,
    random_form,
)


def algebra_from(A, B=ZERO4, C=ZERO4):
    """The structure constants of g_{A,B,C}, through the checked constructor."""
    return LieAlgebra7(structure_constants(A, B, C)).c


def basis_vec(i):
    v = np.zeros(7)
    v[i - 1] = 1.0
    return v


# -- bracket: [e_i, e_j] = c[i-1, j-1] -----------------------------------------------

def test_bracket_matches_matrix_action():
    g = algebra_from(e_matrix(3, 4))
    assert np.array_equal(g[6, 3], basis_vec(3))  # [e7, e4] = e3
    others = [(i, j) for i in range(1, 8) for j in range(i + 1, 8) if (i, j) != (4, 7)]
    assert all(not np.any(g[i - 1, j - 1]) for i, j in others)


def test_a_part_is_abelian():
    g = algebra_from(np.diag([1.0, 2.0, -1.0, -2.0]))
    assert not np.any(g[0, 1])  # [e1, e2] = 0


def test_bracket_of_vector_with_itself_vanishes(rng):
    g = algebra_from(*generate(FamilyKind.GENERAL, 5).matrices())
    for _ in range(50):
        x = rng.standard_normal(7)
        assert np.max(np.abs(np.einsum("i,j,ijk->k", x, x, g))) < 1e-12


# -- Jacobi ---------------------------------------------------------------------

def test_jacobi_residual_abelian():
    assert jacobi_residual(np.zeros((7, 7, 7))) == 0.0


def test_jacobi_residual_commuting_triple():
    t = generate(FamilyKind.GENERAL, 9)
    assert jacobi_residual(structure_constants(*t.matrices())) <= 1e-10


def test_jacobi_residual_non_commuting_pair_positive():
    c = structure_constants(e_matrix(3, 4), e_matrix(4, 5), ZERO4)
    assert jacobi_residual(c) > 0.5


def test_jacobi_residual_is_the_maximum_over_all_basis_triples(rng):
    x = rng.standard_normal((6, 7, 7, 7))
    c = x - np.swapaxes(x, -3, -2)  # exactly antisymmetric in i, j
    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] for every i, j, k
    nested = np.einsum("nijl,nlkm->nijkm", c, c)
    cyclic = nested + np.einsum("njkim->nijkm", nested) + np.einsum("nkijm->nijkm", nested)
    for n in range(len(c)):
        full = np.max(np.abs(cyclic[n]))
        assert abs(jacobi_residual(c[n]) - full) <= 1e-15 * full
    full = np.max(np.abs(cyclic))
    assert abs(jacobi_residual(c) - full) <= 1e-15 * full


def test_constructor_rejects_jacobi_violation():
    c = structure_constants(e_matrix(3, 4), e_matrix(4, 5), ZERO4)
    with pytest.raises(ValidationError, match="Jacobi"):
        LieAlgebra7(c)


def test_jacobi_threshold_scales_with_the_largest_constant_of_each_algebra():
    # the Jacobiator is quadratic in c: x * c0 has the residual x^2 * r0
    c0 = structure_constants(e_matrix(3, 4), e_matrix(4, 5), ZERO4)
    r0 = jacobi_residual(c0)
    assert np.max(np.abs(c0)) == 1.0 and r0 > 0.5
    below, above = (np.sqrt(r / r0) for r in (0.5e-10, 2e-10))  # both far below 1
    LieAlgebra7(below * c0)
    with pytest.raises(ValidationError, match="Jacobi identity violated"):
        LieAlgebra7(above * c0)  # nothing looser at max|c| <= 1
    with pytest.raises(ValidationError, match=r"^Jacobi identity violated: residual 1e\+06 > 0\.0001"):
        LieAlgebra7(1e3 * c0)
    # per algebra of a stack: a large algebra does not widen the bound of a small one
    large = structure_constants(*generate(FamilyKind.SYMMETRIC, 0, 1e3).matrices())
    assert jacobi_residual(large) > 1e-10
    LieAlgebra7(np.stack([below * c0, large]))
    with pytest.raises(ValidationError, match="^trial 1: Jacobi identity violated") as err:
        LieAlgebra7(np.stack([large, above * c0]))
    assert err.value.trial == 1 and str(err.value) == f"trial 1: {err.value.reason}"
    # a stack of one algebra is named like a single algebra
    with pytest.raises(ValidationError, match="^Jacobi identity violated") as err:
        LieAlgebra7((above * c0)[None])
    assert err.value.trial == 0 and str(err.value) == err.value.reason


def test_constructor_rejects_non_antisymmetric_constants():
    c = np.zeros((7, 7, 7))
    c[0, 1, 2] = 1.0  # missing the mirrored entry
    with pytest.raises(ValidationError, match="antisymmetric"):
        LieAlgebra7(c)


def traceless_triples(rng, n, scale):
    """n random triples of traceless 4x4 matrices, as an (n, 3, 4, 4) array."""
    x = rng.standard_normal((n, 3, 4, 4))
    return scale * (x - np.trace(x, axis1=-2, axis2=-1)[..., None, None] / 4 * np.eye(4))


def near_the_commutator_bound(rng, n, scale):
    """n general triples of the given scale with A moved along a random traceless
    matrix, so that the largest commutator entry is 0.98 to 1.02 times its bound
    1e-10 max(1, s)^2, which is also the Jacobi bound of the triple's algebra."""
    abc = np.array(generate_many(FamilyKind.GENERAL, 0, range(n), scale).abc)
    x = traceless_triples(rng, n, 1.0)[:, 0]
    b, c = abc[:, 1], abc[:, 2]
    spread = np.abs(np.concatenate([x @ b - b @ x, x @ c - c @ x], axis=-1)).max(axis=(-2, -1))
    bound = 1e-10 * np.maximum(1.0, np.abs(abc).max(axis=(-3, -2, -1))) ** 2
    target = rng.uniform(0.98, 1.02, n) * bound
    abc[:, 0] += (target / spread)[:, None, None] * x
    return abc


def largest_commutator_entry(abc):
    left, right = abc[..., [0, 0, 1], :, :], abc[..., [1, 2, 2], :, :]
    return np.abs(left @ right - right @ left).max(axis=(-3, -2, -1))


def rejects(check, *args):
    """The trial that the ValidationError of check(*args) names, or None if it passes."""
    try:
        check(*args)
    except ValidationError as exc:
        return exc.trial
    return None


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_triple_checks_reject_exactly_what_the_jacobi_check_rejects(rng, scale):
    # the pass builds no LieAlgebra7: on g_{A,B,C} the Jacobi residual is the largest
    # entry of [A,B], [A,C] and [B,C], which TripleABC bounds by the same 1e-10 max(1, s)^2
    abc = np.concatenate([traceless_triples(rng, 40, scale),
                          near_the_commutator_bound(rng, 200, scale)])
    c = structure_constants(*np.moveaxis(abc, -3, 0))
    assert np.array_equal(_jacobi_residuals(c), largest_commutator_entry(abc))  # bit for bit
    verdicts = [rejects(_checked, abc[n].copy()) for n in range(len(abc))]
    assert verdicts == [rejects(LieAlgebra7, c[n]) for n in range(len(abc))]
    near = verdicts[40:]
    assert near.count(None) > 50 and near.count(0) > 50  # both sides of the bound
    assert rejects(_checked, abc[40:].copy()) == rejects(LieAlgebra7, c[40:]) == near.index(0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: LieAlgebra7(np.zeros((6, 7, 7))), ValidationError,
     "structure constants must be 7x7x7, got (6, 7, 7)"),
    (lambda: ce_diff(np.zeros((7, 7, 7)), np.zeros(7)), DegreeError,
     "ce_diff expects a Form"),
])
def test_malformed_arguments_raise(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def so3_constants(dtype=np.float64):
    """The constants of so(3) + R^4, [e1,e2] = e3 and cyclically, as an array of dtype."""
    c = np.zeros((7, 7, 7), dtype=dtype)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k], c[j, i, k] = 1, -1
    return c


def so3_list_with(entry):
    """so3_constants as nested lists of ints, with entry in place of c[0, 1, 2] = 1."""
    c = so3_constants(int).tolist()
    c[0][1][2] = entry
    return c


def so3_objects_with(entry):
    """so3_constants as an array of Python ints held as objects, with entry assigned as it
    is in place of c[0, 1, 2] = 1 (numpy's casts turn a timedelta64 into an int)."""
    c = so3_constants(object)
    c[0, 1, 2] = entry
    return c


def so3_with_row(row):
    """so3_constants as nested lists of floats, with the array row in place of c[6, 6]:
    numpy holds the whole as objects, and at ns resolution casts row's entries to ints."""
    c = so3_constants().tolist()
    c[6][6] = row
    return c


@pytest.mark.parametrize("entries, message", [
    # antisymmetric and Jacobi as complex numbers; a float64 cast would drop the 1j
    (so3_constants() * (1 + 1j), "has complex entries"),
    (so3_constants(complex).astype(object), "has an entry that is not a real number"),
    (so3_constants(bool), "has an entry that is not a real number"),  # True would be 1.0
    (so3_constants().astype(str), "has an entry that is not a real number"),
    (so3_constants().astype(str).astype(object), "has an entry that is not a real number"),
    (np.where(so3_constants() == 0, None, so3_constants()),
     "has an entry that is not a real number"),
    ([[[0.0] * 7] * 7] * 6 + [[[0.0] * 7] * 6 + [[0.0]]],
     "must be 7x7x7, got rows of unequal lengths"),
    (so3_list_with(True), "has an entry that is not a real number"),  # numpy reads it as 1
    (so3_list_with(10 ** 400), "has an entry too large for a float64"),
    (so3_with_row(np.zeros(7, dtype="timedelta64[ns]")), "has an entry that is not a real number"),
    (so3_with_row(np.zeros(7, dtype="datetime64[ns]")), "has an entry that is not a real number"),
    (so3_objects_with(np.timedelta64(1, "ns")),  # numpy registers it as a signed integer
     "has an entry that is not a real number"),
])
def test_lie_algebra_rejects_entries_that_are_not_real_numbers(entries, message):
    # no ComplexWarning or other warning on the way: the input is refused as it is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            LieAlgebra7(entries)
    assert type(err.value) is ValidationError
    assert str(err.value) == "array c of structure constants " + message


def test_lie_algebra_takes_real_numbers_of_any_type():
    exact = so3_constants(object)
    exact[exact == 1] = Fraction(1)
    for entries in (exact, so3_constants(np.int8), so3_constants(np.float32),
                    so3_constants().tolist()):
        c = LieAlgebra7(entries).c
        assert c.dtype == np.float64 and c.tobytes() == so3_constants().tobytes()


# -- unimodularity: every ad_{e_i} is traceless -------------------------------------

def test_unimodular_for_traceless_triples():
    g = algebra_from(*generate(FamilyKind.DIAGONAL, 2).matrices())
    assert is_unimodular(g)


def test_abelian_is_unimodular():
    g = algebra_from(ZERO4)
    assert not np.any(g) and is_unimodular(g)


def test_non_traceless_matrix_breaks_unimodularity():
    g = algebra_from(np.diag([1.0, 0.0, 0.0, 0.0]))  # still a Lie algebra: the check passes
    assert not is_unimodular(g)


# -- Chevalley-Eilenberg differential ------------------------------------------------

def test_ce_diff_on_basis_one_form():
    g = algebra_from(e_matrix(3, 4))
    assert ce_diff(g, Form.monomial((3,))).coeffs == {(4, 7): 1.0}


def test_ce_diff_annihilates_a_coframe():
    g = algebra_from(*generate(FamilyKind.GENERAL, 4).matrices())
    for i in (1, 2, 7):
        assert ce_diff(g, Form.monomial((i,))).is_zero()


def test_ce_diff_closed_form_on_n_coframe():
    # d e^j = -sum_k a_jk e^{7k} - sum_k b_jk e^{1k} - sum_k c_jk e^{2k}, exactly
    t = generate(FamilyKind.GENERAL, 13)
    A, B, C = t.matrices()
    g = algebra_from(A, B, C)
    for j in range(3, 7):
        expected = Form.zero(2)
        for k in range(3, 7):
            expected = expected + Form.from_coeffs(2, {
                (7, k): -A[j - 3, k - 3],
                (1, k): -B[j - 3, k - 3],
                (2, k): -C[j - 3, k - 3],
            })
        assert (ce_diff(g, Form.monomial((j,))) - expected).is_zero()


def test_ce_diff_squares_to_zero(rng):
    for trial in range(100):
        kind = list(FamilyKind)[trial % 5]
        t = generate(kind, 1000 + trial)
        g = algebra_from(*t.matrices())
        k = int(rng.integers(0, 6))
        a = random_form(rng, k)
        assert ce_diff(g, ce_diff(g, a)).norm_inf() <= 1e-10


def test_ce_diff_leibniz(rng):
    g = algebra_from(*generate(FamilyKind.GENERAL, 21).matrices())
    for _ in range(40):
        ka = int(rng.integers(0, 4))
        kb = int(rng.integers(0, 6 - ka))
        a, b = random_form(rng, ka), random_form(rng, kb)
        sign = -1.0 if ka % 2 else 1.0
        lhs = ce_diff(g, wedge(a, b))
        rhs = wedge(ce_diff(g, a), b) + sign * wedge(a, ce_diff(g, b))
        assert (lhs - rhs).norm_inf() <= 1e-10


def test_ce_diff_top_degree_rejected(rng):
    g = np.zeros((7, 7, 7))
    with pytest.raises(DegreeError):
        ce_diff(g, random_form(rng, 7))


def test_ce_diff_on_a_stack_of_algebras_matches_each_algebra(rng):
    triples = [generate(kind, 40) for kind in FamilyKind]
    stacked = LieAlgebra7(np.stack([structure_constants(*t.matrices()) for t in triples])).c
    assert jacobi_residual(stacked) <= 1e-10
    singles = [algebra_from(*t.matrices()) for t in triples]
    for k in range(1, DIM):
        a, a_rows = random_form(rng, k), Form(k, rng.standard_normal((5, DIMS[k])))
        for n, g in enumerate(singles):
            assert np.max(np.abs(ce_diff(stacked, a).values[n] - ce_diff(g, a).values)) <= 1e-13
            assert np.max(np.abs(ce_diff(stacked, a_rows).values[n]
                                 - ce_diff(g, member(a_rows, n)).values)) <= 1e-13


def test_ce_diff_of_a_zero_form_is_a_zero_per_algebra_and_form(rng):
    stacked = np.stack([structure_constants(*generate(kind, 40).matrices())
                        for kind in list(FamilyKind)[:3]])
    one, three = random_form(rng, 0), Form(0, rng.standard_normal((3, 1)))
    for c, a in ((stacked, one), (stacked[0], three), (stacked, three)):
        d = ce_diff(c, a)
        assert d.degree == 1 and d.values.shape == (3, DIM) and d.is_zero()
    assert ce_diff(stacked[0], one).values.shape == (DIM,)


def five_family_constants(seed, scale=1.0):
    """The (5, 7, 7, 7) structure constants of one generated triple of each family."""
    kinds = list(FamilyKind)
    return np.stack([structure_constants(*t.matrices())
                     for t in (generate(kind, seed, scale) for kind in kinds)])


def test_ce_diff_is_the_two_step_differential(rng):
    # the per-form operator sums the same products as the two steps, in another grouping
    stacked = five_family_constants(41)
    for k in range(1, DIM):
        single, rows = random_form(rng, k), Form(k, rng.standard_normal((5, DIMS[k])))
        for c in (stacked, stacked[2]):
            for a in (single, rows):
                got, expected = ce_diff(c, a).values, ce_diff_reference(c, a).values
                assert got.shape == expected.shape
                assert np.max(np.abs(got - expected)) <= 1e-13, (k, c.shape, a.values.shape)


def test_ce_diff_keeps_the_operator_of_each_form(rng):
    for k in range(1, DIM):
        for a in (random_form(rng, k), Form(k, rng.standard_normal((3, DIMS[k])))):
            op = _ce_operator(a)
            assert op.shape == a.values.shape[:-1] + (21 * DIM, DIMS[k + 1])
            assert _ce_operator(a) is op and not op.flags.writeable


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_ce_diff_of_phi_and_psi_is_the_two_step_differential_bit_for_bit(scale):
    # for phi and psi one m at most meets each pair i < j and output monomial, so each
    # coefficient sums the same products in the same order as the two steps
    stacked = five_family_constants(42, scale)
    for form in (STANDARD_PHI, STANDARD_PSI):
        for c in (stacked, stacked[:1], stacked[3]):
            got, expected = ce_diff(c, form).values, ce_diff_reference(c, form).values
            assert np.array_equal(got, expected) and np.array_equal(np.signbit(got),
                                                                    np.signbit(expected))
