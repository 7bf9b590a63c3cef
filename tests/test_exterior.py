import itertools
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2abc import _tables
from g2abc._tables import CONTRACT, DIM, DIMS, STAR, WEDGE
from g2abc.errors import DegreeError, ValidationError
from g2abc.exterior import (
    Form,
    _linear_operator,
    contractions,
    hodge,
    matrix_coaction,
    wedge,
)
from g2abc.g2core import STANDARD_PHI, STANDARD_PSI
from g2abc.gabc import OMEGA

from helpers import (
    contract_basis,
    contract_operator_reference,
    form_inner,
    member,
    random_form,
    random_monomial,
    star_operator_reference,
    wedge_operator_reference,
)

TOP = (1, 2, 3, 4, 5, 6, 7)


# -- the dense operators -------------------------------------------------------

def test_wedge_operators_are_signed_and_complete():
    for (k1, k2), op in WEDGE.items():
        assert op.shape == (DIMS[k1], DIMS[k2], DIMS[k1 + k2])
        assert set(np.unique(op)) <= {-1.0, 0.0, 1.0}
        # one entry per pair of disjoint monomials
        assert np.count_nonzero(op) == comb(7, k1) * comb(7 - k1, k2)


def test_contract_operators_remove_each_index_once():
    for k, op in CONTRACT.items():
        assert op.shape == (DIM, DIMS[k], DIMS[k - 1])
        assert set(np.unique(op)) <= {-1.0, 0.0, 1.0}
        # iota_{e_m} e^I is one signed monomial when m is in I, else zero
        assert np.array_equal(np.abs(op).sum(axis=2).sum(axis=0), np.full(DIMS[k], k))
        assert np.abs(op).sum(axis=2).max() == 1.0


def test_star_operators_are_involutive_signed_permutations():
    for k in range(DIM + 1):
        star = STAR[k]
        assert star.shape == (DIMS[DIM - k], DIMS[k])
        assert np.array_equal(np.abs(star).sum(axis=0), np.ones(DIMS[k]))
        assert np.array_equal(np.abs(star).sum(axis=1), np.ones(DIMS[DIM - k]))
        # star(star(e^I)) = +e^I in this signature
        assert np.array_equal(star @ STAR[DIM - k], np.eye(DIMS[DIM - k]))


def same_array(got, want):
    """Same dtype, shape and bytes."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("table, keys, reference", [
    (WEDGE, [(k1, k2) for k1 in range(DIM + 1) for k2 in range(DIM + 1 - k1)],
     lambda key: wedge_operator_reference(*key)),
    (CONTRACT, list(range(1, DIM + 1)), contract_operator_reference),
    (STAR, list(range(DIM + 1)), star_operator_reference),
], ids=["WEDGE", "CONTRACT", "STAR"])
def test_operators_match_the_entrywise_reference(table, keys, reference):
    # the whole-array builders of _tables against the definition by sorting permutation
    assert list(table) == keys
    for key in keys:
        assert same_array(table[key], reference(key)), key


def test_tables_module_runs_on_its_own():
    # the source of _tables in a bare namespace, as perfbench's tables_build_ms runs it
    path = Path(_tables.__file__)
    namespace = {"__name__": "tables_probe"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    for name in ("COMBS", "RANK", "DIMS", "TOP"):
        assert namespace[name] == getattr(_tables, name)
    for name in ("WEDGE", "CONTRACT", "STAR"):
        got, want = namespace[name], getattr(_tables, name)
        assert list(got) == list(want)
        assert all(same_array(got[key], want[key]) for key in want)


# -- Form construction ---------------------------------------------------------

def test_unsorted_keys_are_normalised_with_sign():
    a = Form.from_coeffs(2, {(2, 1): 1.0})
    assert a.coeffs == {(1, 2): -1.0}


def test_repeated_index_contributes_zero():
    assert Form.from_coeffs(2, {(1, 1): 5.0}).is_zero()


def test_out_of_range_index_rejected():
    with pytest.raises(DegreeError):
        Form.from_coeffs(1, {(8,): 1.0})


def test_form_keeps_tiny_coefficients_in_a_float64_copy():
    a = Form.from_coeffs(1, {(1,): 1e-20, (2,): 1.0})
    assert a.coeffs == {(1,): 1e-20, (2,): 1.0}
    assert hodge(a).coeffs == {(2, 3, 4, 5, 6, 7): 1e-20, (1, 3, 4, 5, 6, 7): -1.0}
    assert wedge(a, Form.monomial((3,))).coeffs == {(1, 3): 1e-20, (2, 3): 1.0}
    values = np.array([1, 0, 0, 0, 0, 0, 0])
    b = Form(1, values)
    assert b.values.dtype == np.float64
    values[0] = 2  # the form holds a copy
    assert b.coeffs == {(1,): 1.0}


@pytest.mark.parametrize("count", [1, 3])
def test_coeffs_of_a_stack_of_forms_is_a_validation_error(count):
    stack = Form(2, np.ones((count, DIMS[2])))
    message = f"^coeffs reads one form; this one holds a stack of {count}$"
    with pytest.raises(ValidationError, match=message):
        stack.coeffs
    every = itertools.combinations(range(1, 8), 2)
    assert Form(2, stack.values[0]).coeffs == dict.fromkeys(every, 1.0)


# -- wedge ----------------------------------------------------------------------

def test_wedge_repeated_monomial_is_zero():
    e1 = Form.monomial((1,))
    assert wedge(e1, e1).is_zero()


def test_omega7_squared():
    assert wedge(OMEGA[7], OMEGA[7]).coeffs == {(3, 4, 5, 6): 2.0}


def test_distinct_omegas_wedge_to_zero():
    for i, j in itertools.permutations((7, 1, 2), 2):
        assert wedge(OMEGA[i], OMEGA[j]).is_zero()


def test_wedge_degree_overflow():
    with pytest.raises(DegreeError):
        wedge(STANDARD_PSI, STANDARD_PSI)


def test_graded_anticommutativity_on_monomials(rng):
    # a ^ b == (-1)^(deg a * deg b) b ^ a, exactly, on 10_000 random monomial pairs
    for _ in range(10_000):
        ka = int(rng.integers(0, 5))
        kb = int(rng.integers(0, 8 - ka))
        a = Form.monomial(random_monomial(rng, ka)) * (float(rng.integers(-3, 4)) or 1.0)
        b = Form.monomial(random_monomial(rng, kb)) * (float(rng.integers(-3, 4)) or 1.0)
        sign = -1.0 if (ka * kb) % 2 else 1.0
        assert (wedge(a, b) - sign * wedge(b, a)).is_zero()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_wedge_bilinear_and_associative(ka, kb, seed):
    rng = np.random.default_rng(seed)
    a = random_form(rng, ka)
    b = random_form(rng, kb)
    c = random_form(rng, kb)
    lam = float(rng.standard_normal())
    assert (wedge(a, b + lam * c) - (wedge(a, b) + lam * wedge(a, c))).norm_inf() < 1e-12
    kc = int(rng.integers(0, 8 - ka - kb)) if ka + kb < 7 else 0
    d = random_form(rng, kc)
    assert (wedge(wedge(a, b), d) - wedge(a, wedge(b, d))).norm_inf() < 1e-10


# -- contraction ------------------------------------------------------------------

def test_contract_phi_rows():
    assert contract_basis(1, STANDARD_PHI).coeffs == {(2, 7): 1.0, (3, 5): 1.0, (4, 6): -1.0}
    assert contract_basis(7, STANDARD_PHI).coeffs == {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0}


@pytest.mark.parametrize("m, expected", [
    (1, {(2, 5, 6): 1.0, (2, 3, 4): 1.0, (4, 5, 7): 1.0, (3, 6, 7): 1.0}),
    (7, {(1, 3, 6): -1.0, (1, 4, 5): -1.0, (2, 3, 5): -1.0, (2, 4, 6): 1.0}),
], ids=["e1", "e7"])
def test_contract_psi_rows(m, expected):
    # iota_{e_m}(psi), the columns of the torsion solve
    assert contract_basis(m, STANDARD_PSI).coeffs == expected


def test_contract_psi_rows_are_minus_star_of_phi_wedges():
    # iota_v psi = -*(v ^ phi), through the wedge and star tables instead of CONTRACT
    for m in range(1, 8):
        via_star = hodge(wedge(Form.monomial((m,)), STANDARD_PHI))
        assert np.array_equal(contract_basis(m, STANDARD_PSI).values, -via_star.values)


def test_contract_absent_index_is_zero():
    assert contract_basis(3, Form.monomial((1, 2))).is_zero()


def test_contract_zero_form_rejected():
    with pytest.raises(DegreeError):
        contractions(Form.from_coeffs(0, {(): 1.0}))


def test_contract_linear_in_both_arguments(rng):
    # iota_x a = sum_m x_m iota_{e_m} a, from the rows of contractions(a)
    contract = lambda x, a: Form(a.degree - 1, x @ contractions(a))
    for _ in range(20):
        k = int(rng.integers(1, 8))
        a, b = random_form(rng, k), random_form(rng, k)
        x, y = rng.standard_normal(7), rng.standard_normal(7)
        lam = float(rng.standard_normal())
        lhs = contract(x + lam * y, a + b)
        rhs = (contract(x, a) + contract(x, b)
               + lam * (contract(y, a) + contract(y, b)))
        assert (lhs - rhs).norm_inf() < 1e-12


# -- Hodge star -------------------------------------------------------------------

def test_star_phi_is_psi_componentwise():
    assert (hodge(STANDARD_PHI) - STANDARD_PSI).is_zero()


def test_star_of_one_is_volume():
    one = Form.from_coeffs(0, {(): 1.0})
    assert hodge(one).coeffs == {TOP: 1.0}


def test_double_star_is_identity(rng):
    for k in range(8):
        a = random_form(rng, k)
        assert (hodge(hodge(a)) - a).norm_inf() < 1e-13


def test_star_isometry_identity_metric(rng):
    for k in range(8):
        a, b = random_form(rng, k), random_form(rng, k)
        dev = abs(form_inner(a, b) - form_inner(hodge(a), hodge(b)))
        assert dev <= 1e-12


def test_wedge_with_star_recovers_inner_product(rng):
    for k in range(8):
        a, b = random_form(rng, k), random_form(rng, k)
        top = wedge(a, hodge(b))
        assert abs(top.values[0] - form_inner(a, b)) <= 1e-12


# -- inner products ---------------------------------------------------------------

def test_inner_products_of_omegas():
    assert form_inner(OMEGA[1], OMEGA[2]) == 0.0
    assert form_inner(OMEGA[7], OMEGA[7]) == 2.0
    assert form_inner(Form.monomial((1, 2)), Form.monomial((1, 2))) == 1.0


# -- the contraction and wedge tables of the reference 3-form ---------------------

IOTA_PHI = {
    1: {(2, 7): 1.0, (3, 5): 1.0, (4, 6): -1.0},
    2: {(1, 7): -1.0, (3, 6): -1.0, (4, 5): -1.0},
    3: {(4, 7): 1.0, (1, 5): -1.0, (2, 6): 1.0},
    4: {(3, 7): -1.0, (1, 6): 1.0, (2, 5): 1.0},
    5: {(6, 7): 1.0, (1, 3): 1.0, (2, 4): -1.0},
    6: {(5, 7): -1.0, (1, 4): -1.0, (2, 3): -1.0},
    7: {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0},
}

WEDGE_1J = {
    3: {(1, 2, 5, 7): 1.0, (3, 4, 5, 7): -1.0, (2, 3, 5, 6): 1.0, (1, 4, 5, 6): -1.0},
    4: {(1, 2, 6, 7): -1.0, (1, 3, 5, 6): 1.0, (3, 4, 6, 7): 1.0, (2, 4, 5, 6): 1.0},
    5: {(1, 2, 3, 7): -1.0, (3, 5, 6, 7): 1.0, (2, 3, 4, 5): 1.0, (1, 3, 4, 6): -1.0},
    6: {(1, 2, 4, 7): 1.0, (1, 3, 4, 5): 1.0, (4, 5, 6, 7): -1.0, (2, 3, 4, 6): 1.0},
}

WEDGE_2J = {
    3: {(1, 2, 6, 7): -1.0, (3, 4, 6, 7): 1.0, (1, 3, 5, 6): -1.0, (2, 4, 5, 6): -1.0},
    4: {(1, 2, 5, 7): -1.0, (2, 3, 5, 6): 1.0, (3, 4, 5, 7): 1.0, (1, 4, 5, 6): -1.0},
    5: {(1, 2, 4, 7): 1.0, (2, 3, 4, 6): -1.0, (4, 5, 6, 7): -1.0, (1, 3, 4, 5): -1.0},
    6: {(1, 2, 3, 7): 1.0, (3, 5, 6, 7): -1.0, (1, 3, 4, 6): -1.0, (2, 3, 4, 5): 1.0},
}

WEDGE_7J = {
    3: {(1, 2, 4, 7): 1.0, (1, 3, 4, 5): -1.0, (2, 3, 4, 6): 1.0, (4, 5, 6, 7): 1.0},
    4: {(1, 2, 3, 7): -1.0, (1, 3, 4, 6): 1.0, (2, 3, 4, 5): 1.0, (3, 5, 6, 7): -1.0},
    5: {(1, 2, 6, 7): 1.0, (3, 4, 6, 7): 1.0, (1, 3, 5, 6): 1.0, (2, 4, 5, 6): -1.0},
    6: {(1, 2, 5, 7): -1.0, (3, 4, 5, 7): -1.0, (1, 4, 5, 6): -1.0, (2, 3, 5, 6): -1.0},
}

HALF_SQUARES = {
    3: {(1, 4, 5, 7): 1.0, (2, 4, 6, 7): -1.0, (1, 2, 5, 6): 1.0},
    4: {(1, 3, 6, 7): 1.0, (2, 3, 5, 7): 1.0, (1, 2, 5, 6): 1.0},
    5: {(1, 3, 6, 7): 1.0, (2, 4, 6, 7): -1.0, (1, 2, 3, 4): 1.0},
    6: {(1, 4, 5, 7): 1.0, (2, 3, 5, 7): 1.0, (1, 2, 3, 4): 1.0},
}

OPPOSITE_PAIRS = {
    3: {(2, 3, 4, 7): -1.0, (1, 2, 4, 6): 1.0, (2, 5, 6, 7): 1.0, (1, 2, 3, 5): 1.0},
    4: {(2, 3, 4, 7): -1.0, (1, 2, 4, 6): -1.0, (2, 5, 6, 7): 1.0, (1, 2, 3, 5): -1.0},
}


def test_iota_phi_table_all_rows():
    for j, expected in IOTA_PHI.items():
        assert contract_basis(j, STANDARD_PHI).coeffs == expected


@pytest.mark.parametrize("k,table", [(1, WEDGE_1J), (2, WEDGE_2J), (7, WEDGE_7J)])
def test_iota_wedge_tables(k, table):
    left = contract_basis(k, STANDARD_PHI)
    for j, expected in table.items():
        got = wedge(left, contract_basis(j, STANDARD_PHI))
        assert got.coeffs == expected, (k, j)


def test_half_square_table():
    for j, expected in HALF_SQUARES.items():
        iota = contract_basis(j, STANDARD_PHI)
        assert (0.5 * wedge(iota, iota)).coeffs == expected


def test_opposite_pair_table():
    for j in (3, 4, 5, 6):
        expected = OPPOSITE_PAIRS[3] if j in (3, 6) else OPPOSITE_PAIRS[4]
        got = wedge(contract_basis(j, STANDARD_PHI), contract_basis(9 - j, STANDARD_PHI))
        assert got.coeffs == expected, j


# -- triple-wedge vanishing spans --------------------------------------------------

SPAN_S1 = [
    (1, 2, 7), (1, 3, 4), (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 4, 6), (2, 5, 6),
    (3, 4, 7), (3, 5, 7), (3, 6, 7), (4, 5, 7), (4, 6, 7), (5, 6, 7),
]
SPAN_S2 = [
    (1, 3, 4), (1, 3, 6), (1, 4, 5), (1, 5, 6), (2, 3, 4), (2, 3, 5),
    (2, 4, 6), (2, 5, 6), (3, 5, 7), (3, 6, 7), (4, 5, 7), (4, 6, 7),
]
SPAN_S3 = [
    (1, 2, 7), (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6), (2, 3, 4), (2, 3, 5),
    (2, 3, 6), (2, 4, 5), (2, 4, 6), (2, 5, 6), (3, 4, 7), (3, 6, 7), (4, 5, 7),
    (5, 6, 7),
]


def test_mixed_pair_triple_wedges_vanish_on_span1():
    for k in (1, 2, 7):
        left = contract_basis(k, STANDARD_PHI)
        for i in (3, 4, 5, 6):
            pair = wedge(left, contract_basis(i, STANDARD_PHI))
            for chi in SPAN_S1:
                assert wedge(pair, Form.monomial(chi)).is_zero(), (k, i, chi)


def test_diagonal_pair_triple_wedges_vanish_on_span2():
    for n in (3, 4, 5, 6):
        iota = contract_basis(n, STANDARD_PHI)
        square = wedge(iota, iota)
        for chi in SPAN_S2:
            assert wedge(square, Form.monomial(chi)).is_zero(), (n, chi)


def test_opposite_pair_triple_wedges_vanish_on_span3():
    # garbled printed range read as 3 <= m <= 6
    for m in (3, 4, 5, 6):
        pair = wedge(contract_basis(m, STANDARD_PHI), contract_basis(9 - m, STANDARD_PHI))
        for chi in SPAN_S3:
            assert wedge(pair, Form.monomial(chi)).is_zero(), (m, chi)


def test_matrix_coaction_scales_monomials_by_diagonal(rng):
    d = np.diag(rng.standard_normal(7))
    for _ in range(20):
        k = int(rng.integers(1, 7))
        mono = random_monomial(rng, k)
        expected = sum(d[i - 1, i - 1] for i in mono)
        got = matrix_coaction(d, Form.monomial(mono))
        assert abs(got.coeffs.get(mono, 0.0) - expected) <= 1e-12
        assert len(got.coeffs) <= 1


def test_matrix_coaction_on_one_forms_is_the_row_action(rng):
    # e^i -> sum_j d[i,j] e^j; a non-diagonal d tells d from its transpose
    d = rng.standard_normal((7, 7))
    for i in range(1, DIM + 1):
        got = matrix_coaction(d, Form.monomial((i,)))
        assert np.allclose(got.values, d[i - 1], rtol=0.0, atol=1e-15)


def test_matrix_coaction_is_a_derivation(rng):
    d = rng.standard_normal((7, 7))
    for ka in range(DIM + 1):
        for kb in range(DIM + 1 - ka):
            a, b = random_form(rng, ka), random_form(rng, kb)
            lhs = matrix_coaction(d, wedge(a, b))
            rhs = wedge(matrix_coaction(d, a), b) + wedge(a, matrix_coaction(d, b))
            assert (lhs - rhs).norm_inf() <= 1e-12 * max(1.0, lhs.norm_inf()), (ka, kb)


def test_matrix_coaction_of_a_zero_form_is_a_zero_per_matrix_and_form(rng):
    d = rng.standard_normal((3, DIM, DIM))
    one, three = Form(0, [2.0]), Form(0, rng.standard_normal((3, 1)))
    for m, a in ((d, one), (d[0], three), (d, three)):
        got = matrix_coaction(m, a)
        assert got.degree == 0 and got.values.shape == (3, 1) and got.is_zero()
    assert matrix_coaction(d[0], one).values.shape == (1,)


# -- stacks of forms ------------------------------------------------------------------

def stack_of(rng, degree, n=4):
    return Form(degree, rng.standard_normal((n, DIMS[degree])))


def assert_rows(stacked, per_row):
    """Form n of ``stacked`` equals per_row(n) within round-off."""
    for n in range(len(stacked.values)):
        assert np.max(np.abs(stacked.values[n] - per_row(n).values)) <= 1e-13


def test_operators_on_a_stack_match_each_form(rng):
    for ka, kb in ((0, 3), (1, 2), (2, 2), (3, 4), (2, 5)):
        a, b = stack_of(rng, ka), stack_of(rng, kb)
        a1, b1 = random_form(rng, ka), random_form(rng, kb)
        assert_rows(wedge(a, b), lambda n: wedge(member(a, n), member(b, n)))
        assert_rows(wedge(a, b1), lambda n: wedge(member(a, n), b1))
        assert_rows(wedge(a1, b), lambda n: wedge(a1, member(b, n)))
    a = stack_of(rng, 3)
    for n in range(len(a.values)):
        assert np.max(np.abs(contractions(a)[n] - contractions(member(a, n)))) <= 1e-13
    assert_rows(hodge(a), lambda n: hodge(member(a, n)))
    d = rng.standard_normal((4, DIM, DIM))
    assert_rows(matrix_coaction(d, a), lambda n: matrix_coaction(d[n], member(a, n)))
    assert_rows(matrix_coaction(d, STANDARD_PHI), lambda n: matrix_coaction(d[n], STANDARD_PHI))
    assert_rows(matrix_coaction(d[0], a), lambda n: matrix_coaction(d[0], member(a, n)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Form(8, []), DegreeError, "degree 8 outside 0..7"),
    (lambda: Form(2, np.zeros(20)), DegreeError, "degree-2 form needs 21 coefficients, got (20,)"),
    (lambda: Form.from_coeffs(2, {(1, 2, 3): 1.0}), DegreeError,
     "key (1, 2, 3) has length 3, expected 2"),
    (lambda: STANDARD_PHI + STANDARD_PSI, TypeError,
     "unsupported operand type(s) for +: 'Form' and 'Form'"),
    (lambda: STANDARD_PHI - STANDARD_PSI, TypeError,
     "unsupported operand type(s) for -: 'Form' and 'Form'"),
])
def test_malformed_form_operations_raise(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_stacks_from_coefficient_arrays_scale_and_norm_per_form(rng):
    values = rng.standard_normal((3, 4))
    stacked = Form.from_coeffs(2, {(1, 2): values[0], (2, 1): values[1], (3, 4): values[2]})
    assert stacked.values.shape == (4, DIMS[2])
    for n in range(4):
        single = Form.from_coeffs(2, {(1, 2): values[0, n] - values[1, n], (3, 4): values[2, n]})
        assert np.array_equal(stacked.values[n], single.values)
    s = rng.standard_normal(4)
    assert_rows(s * STANDARD_PHI, lambda n: s[n] * STANDARD_PHI)
    assert_rows(STANDARD_PHI * s, lambda n: STANDARD_PHI * s[n])
    assert np.array_equal(stacked.norm_inf(), [member(stacked, n).norm_inf() for n in range(4)])


def test_linear_operator_is_the_stage_on_the_unit_rows_each_a_stack_of_one(rng):
    m = rng.standard_normal((5, 3))
    shapes = []

    def stage(rows):
        shapes.append(rows.shape)
        return rows @ m, 2.0 * rows[..., :2]

    op = _linear_operator(stage, 5, ["product", "double"])
    assert shapes == [(6, 1, 5)]
    assert np.array_equal(op, np.concatenate([m, 2.0 * np.eye(5, 2)], axis=1))
    assert not op.flags.writeable

