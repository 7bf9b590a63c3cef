import numpy as np
import pytest

from g2abc._tables import DIM, DIMS
from g2abc.errors import DegreeError, ValidationError
from g2abc.exterior import Form, wedge
from g2abc.gabc import FamilyKind, generate, structure_constants
from g2abc.liealg import LieAlgebra7, ce_diff

from helpers import ZERO4, e_matrix, is_unimodular, jacobi_residual, random_form


def algebra_from(A, B=ZERO4, C=ZERO4):
    return LieAlgebra7(structure_constants(A, B, C))


def basis_vec(i):
    v = np.zeros(7)
    v[i - 1] = 1.0
    return v


# -- bracket: [e_i, e_j] = c[i-1, j-1] -----------------------------------------------

def test_bracket_matches_matrix_action():
    g = algebra_from(e_matrix(3, 4))
    assert np.array_equal(g.c[6, 3], basis_vec(3))  # [e7, e4] = e3
    others = [(i, j) for i in range(1, 8) for j in range(i + 1, 8) if (i, j) != (4, 7)]
    assert all(not np.any(g.c[i - 1, j - 1]) for i, j in others)


def test_a_part_is_abelian():
    g = algebra_from(np.diag([1.0, 2.0, -1.0, -2.0]))
    assert not np.any(g.c[0, 1])  # [e1, e2] = 0


def test_bracket_of_vector_with_itself_vanishes(rng):
    g = algebra_from(*generate(FamilyKind.GENERAL, 5).matrices())
    for _ in range(50):
        x = rng.standard_normal(7)
        assert np.max(np.abs(np.einsum("i,j,ijk->k", x, x, g.c))) < 1e-12


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: LieAlgebra7(np.zeros((6, 7, 7))), ValidationError,
     "structure constants must be 7x7x7, got (6, 7, 7)"),
    (lambda: ce_diff(LieAlgebra7(np.zeros((7, 7, 7))), np.zeros(7)), DegreeError,
     "ce_diff expects a Form"),
])
def test_malformed_arguments_raise(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


# -- unimodularity: every ad_{e_i} is traceless -------------------------------------

def test_unimodular_for_traceless_triples():
    g = algebra_from(*generate(FamilyKind.DIAGONAL, 2).matrices())
    assert is_unimodular(g)


def test_abelian_is_unimodular():
    g = algebra_from(ZERO4)
    assert not np.any(g.c) and is_unimodular(g)


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
    g = LieAlgebra7(np.zeros((7, 7, 7)))
    with pytest.raises(DegreeError):
        ce_diff(g, random_form(rng, 7))


def test_ce_diff_on_a_stack_of_algebras_matches_each_algebra(rng):
    triples = [generate(kind, 40) for kind in FamilyKind]
    stacked = LieAlgebra7(np.stack([structure_constants(*t.matrices()) for t in triples]))
    assert jacobi_residual(stacked.c) <= 1e-10
    singles = [algebra_from(*t.matrices()) for t in triples]
    assert ce_diff(stacked, random_form(rng, 0)).is_zero()
    for k in range(1, DIM):
        a, a_rows = random_form(rng, k), Form(k, rng.standard_normal((5, DIMS[k])))
        for n, g in enumerate(singles):
            assert np.max(np.abs(ce_diff(stacked, a)[n].values - ce_diff(g, a).values)) <= 1e-13
            assert np.max(np.abs(ce_diff(stacked, a_rows)[n].values
                                 - ce_diff(g, a_rows[n]).values)) <= 1e-13
