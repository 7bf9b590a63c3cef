import itertools
import json
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from g2abc import cli, exterior, g2core, gabc, liealg
from g2abc._tables import COMBS, DIM, STAR
from g2abc.errors import TorsionSolveError, ValidationError
from g2abc.exterior import Form, _linear_operator, _vecmat, contractions, hodge, wedge
from g2abc.g2core import (
    STANDARD_PHI,
    STANDARD_PSI,
    TAIL_COLUMNS,
    full_torsion_from_nabla,
    tau27_tensor,
    torsion_data,
    torsion_forms,
)
from g2abc.gabc import (
    MAX_SCALE,
    OMEGA,
    OMEGA_BAR,
    RICCI_A_BLOCK_ORDER,
    FamilyKind,
    TripleABC,
    build,
    classify_triple,
    closed_form_connection,
    closed_form_divergence,
    closed_form_ricci,
    closed_form_torsion,
    cross_validate,
    cross_validate_stack,
    generate,
    generate_many,
    structure_constants,
    theta,
    theta_omega_tabulated,
)
from g2abc.liealg import ce_diff
from g2abc.riemann import div_torsion, levi_civita, ricci

from helpers import (
    ZERO4,
    closed_form_connection_reference,
    closed_form_divergence_reference,
    closed_form_ricci_reference,
    e_matrix,
    form_inner,
    is_unimodular,
    jacobi_residual,
    oracle_reference,
    product_columns,
    shapes_reference,
    stack_of,
    tabulated_derivatives,
    unstack,
)

DIAG_A = np.diag([1.0, 1.0, -1.0, -1.0])


def make(A=ZERO4, B=ZERO4, C=ZERO4):
    return TripleABC(A=A, B=B, C=C)


# -- validation -----------------------------------------------------------------

def test_non_traceless_matrix_rejected():
    with pytest.raises(ValidationError, match="matrix A is not traceless"):
        make(A=np.diag([1.0, 0, 0, 0]))


def test_non_commuting_pair_rejected():
    with pytest.raises(ValidationError, match="pairwise commutation violated"):
        make(A=e_matrix(3, 4), B=e_matrix(4, 5))


def test_triple_holds_one_read_only_array_with_matrix_views():
    A = DIAG_A.copy()
    t = make(A=A, B=np.diag([1.0, -1.0, 1.0, -1.0]))
    A[0, 0] = 5.0  # the triple holds a copy
    assert t.abc.shape == (3, 4, 4) and np.array_equal(t.abc[0], DIAG_A)
    stack = generate_many(FamilyKind.GENERAL, 0, range(3))
    assert stack.abc.shape == (3, 3, 4, 4)
    for triple in (t, stack):
        assert not triple.abc.flags.writeable
        for q, m in enumerate(triple.matrices()):
            assert not m.flags.writeable and np.shares_memory(m, triple.abc)
            assert np.array_equal(m, triple.abc[..., q, :, :])


def test_wrong_shape_rejected():
    with pytest.raises(ValidationError, match="4x4"):
        TripleABC(A=np.zeros((3, 3)), B=ZERO4, C=ZERO4)
    with pytest.raises(ValidationError, match="4x4"):
        TripleABC(A=np.zeros((2, 4, 4)), B=ZERO4, C=ZERO4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(bad):
    B = ZERO4.copy()
    B[1, 2] = bad
    with pytest.raises(ValidationError, match="matrix B has non-finite entries"):
        make(B=B)


@pytest.mark.parametrize("entries, message", [
    ({(1, 1, 2, 3): np.inf}, "trial 1: matrix B has non-finite entries"),
    # an entry beyond MAX_ENTRY fails after the finite check and before the trace
    ({(1, 1, 2, 3): 1e160, (1, 1, 0, 0): 1.0, (1, 1, 0, 1): np.nan},
     "trial 1: matrix B has non-finite entries"),
    ({(1, 1, 2, 3): -1e160, (1, 1, 0, 0): 1.0},
     "trial 1: matrix B has an entry beyond 3e+150"),
    ({(0, 0, 0, 0): 1.0, (1, 1, 2, 3): -1e160}, "trial 0: matrix A is not traceless: tr = 1"),
    ({(2, 2, 0, 0): 1.0}, "trial 2: matrix C is not traceless: tr = 1"),
    ({(1, 0, 0, 1): 1.0, (1, 1, 1, 2): 1.0},  # A = e34, B = e45
     "trial 1: pairwise commutation violated: max |[A,B]| = 1"),
    # the first failing trial, with the first check it fails in TripleABC's order
    ({(0, 1, 0, 1): 1.0, (0, 2, 1, 2): 1.0, (0, 2, 3, 3): 3.0, (2, 0, 3, 3): 2.0},
     "trial 0: matrix C is not traceless: tr = 3"),
])
def test_stacked_checks_name_the_failing_trial(entries, message):
    # (trial, matrix, row, column) entries set in a stack of three zero triples
    mats = np.zeros((3, 3, 4, 4))
    for index, value in entries.items():
        mats[index] = value
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        gabc._checked(mats)


@pytest.mark.parametrize("scale", [1e3, 1e5])
@pytest.mark.parametrize("kind", [FamilyKind.SKEW, FamilyKind.SYMMETRIC, FamilyKind.ANTIDIAGONAL])
def test_generate_validates_its_own_triples_at_large_scales(kind, scale):
    # the trace and commutator thresholds scale with the largest entry, so the Jacobi
    # residual of the constants (the largest commutator entry) stays within the scaled bound
    stack = generate_many(kind, 0, range(200), scale)
    assert len(stack.A) == 200
    c, _ = build(stack)
    assert 1e-10 < jacobi_residual(c) <= 1e-10 * scale ** 2


@pytest.mark.parametrize("scale", [1e-5, 1e3])
def test_non_commuting_pair_rejected_at_any_scale(scale):
    # [A, B] = 2 scale^2 e35: above 1e-10 max(1, scale)^2 at both scales
    with pytest.raises(ValidationError, match="pairwise commutation violated"):
        make(A=scale * e_matrix(3, 4), B=2 * scale * e_matrix(4, 5))


def structure_constants_reference(A, B, C):
    """gabc.structure_constants, one matrix at a time: [e_r, v] = M v on n, r the row of M."""
    c = np.zeros(np.shape(A)[:-2] + (7, 7, 7))
    for row, M in zip((6, 0, 1), (A, B, C)):
        c[..., row, 2:6, 2:6] = np.swapaxes(M, -1, -2)
        c[..., 2:6, row, 2:6] = -np.swapaxes(M, -1, -2)
    return c + 0.0


def test_structure_constants_match_the_per_matrix_reference():
    stack = generate_many(list(FamilyKind) * 2, 0, range(10))
    mats = np.array(stack.abc)
    mats[0, 1, 2, 3] = -0.0  # a signed zero of the input becomes 0.0 in both places
    for abc in (mats, mats[3]):
        got, expected = structure_constants(*np.moveaxis(abc, -3, 0)), \
            structure_constants_reference(*np.moveaxis(abc, -3, 0))
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
    assert structure_constants(e_matrix(3, 4), ZERO4, ZERO4)[6, 3, 2] == 1.0  # [e7, e4] = e3


def test_build_abelian():
    c, s = build(make())
    assert not np.any(c) and not c.flags.writeable and s.c is c
    assert (s.phi - STANDARD_PHI).is_zero() and (s.psi - STANDARD_PSI).is_zero()


def test_build_random_triple_is_unimodular_lie_algebra():
    t = generate(FamilyKind.GENERAL, 33)
    c, _ = build(t)
    assert is_unimodular(c)
    assert jacobi_residual(c) <= 1e-10


#: Trial indices out of order, with a repeat, a gap and the largest index.
TRIALS = [3, 0, 1, 2, 7, 3, 8, gabc.MAX_TRIAL, 4]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("kind", list(FamilyKind))
def test_generate_many_is_generate_triple_by_triple(kind, scale):
    singles = []
    for k in TRIALS:
        try:
            singles.append(generate_many(kind, 5, [k], scale))
        except ValidationError as exc:  # the absolute thresholds of the checks, at large scales
            singles.append(exc)
    valid = [n for n, t in enumerate(singles) if isinstance(t, TripleABC)]
    stack = generate_many(kind, 5, [TRIALS[n] for n in valid], scale)
    for row, n in enumerate(valid):
        assert stack.abc[row].tobytes() == singles[n].abc.tobytes()
    assert generate(kind, 5, scale).abc.tobytes() == singles[1].abc[0].tobytes()  # trial 0
    if len(valid) < len(TRIALS):
        first = next(n for n in range(len(TRIALS)) if n not in valid)
        with pytest.raises(ValidationError, match=re.escape(f"trial {first}: {singles[first]}")):
            generate_many(kind, 5, TRIALS, scale)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_generate_many_with_mixed_kinds_is_generate_triple_by_triple(scale):
    kinds = list(FamilyKind)
    # every family at every trial in one call, the families interleaved
    order = [(kinds[(n + j) % len(kinds)], k) for n, k in enumerate(TRIALS)
             for j in range(len(kinds))]
    stack = generate_many([kind for kind, _ in order], 5, [k for _, k in order], scale)
    for row, (kind, k) in enumerate(order):
        # signs of zeros too
        assert stack.abc[row].tobytes() == generate_many(kind, 5, [k], scale).abc.tobytes(), \
            (kind, k)


@pytest.mark.parametrize("seed", [0, 3, 2 ** 70])
def test_a_family_draws_the_same_trials_whatever_the_other_families(seed):
    # verify lays a pass out case-major: the diag rows of a pass over all five families are
    # the trials of a diag-only pass, byte for byte, and so is every other family's
    n = 6
    kinds = [kind for kind in FamilyKind for _ in range(n)]
    stack = generate_many(kinds, seed, [k for _ in FamilyKind for k in range(n)])
    for f, kind in enumerate(FamilyKind):
        alone = generate_many(kind, seed, range(n)).abc
        assert stack.abc[f * n:(f + 1) * n].tobytes() == alone.tobytes(), kind
        # the first trials do not depend on how many follow
        assert generate_many(kind, seed, range(2)).abc.tobytes() == alone[:2].tobytes()
    # the family, not its place or the seed alone, picks the stream
    diag = generate_many(FamilyKind.DIAGONAL, seed, range(n)).abc
    assert not np.array_equal(diag, generate_many(FamilyKind.DIAGONAL, seed + 1, range(n)).abc)


def test_a_trial_reads_its_block_at_its_counter():
    # trial k of family f under seed S: the 32 doubles of the Philox stream keyed by
    # Philox(S), from the outputs at counter word 0 = 8k..8k+7 and word 1 = f's index in
    # FamilyKind.  numpy steps the counter before each output of four words, so a stream
    # set at counter c yields the outputs at c + 1, c + 2, ...: the whole block from 8k - 1,
    # and its last 28 doubles from 8k, which also serves k = 0
    key = np.random.Philox(11).state["state"]["key"]
    doubles = lambda raw: (raw >> np.uint64(11)) * 2.0 ** -53  # as Generator.random makes them
    for kind, k in [(FamilyKind.SKEW, 0), (FamilyKind.GENERAL, 0), (FamilyKind.DIAGONAL, 5),
                    (FamilyKind.SYMMETRIC, gabc.MAX_TRIAL)]:
        f = list(FamilyKind).index(kind)
        (_, _, u), = gabc._runs(11, [kind], [k])
        assert u.shape == (1, gabc.BLOCK)
        counter = lambda c: np.array([c, f, 0, 0], dtype=np.uint64)
        tail = np.random.Philox(key=key, counter=counter(8 * k)).random_raw(28)
        assert np.array_equal(u[0, 4:], doubles(tail)), (kind, k)
        if k:
            block = np.random.Philox(key=key, counter=counter(8 * k - 1)).random_raw(32)
            assert np.array_equal(u[0], doubles(block)), (kind, k)


def test_block_layout_reads_disjoint_slices_of_the_block():
    for kind in FamilyKind:
        used = []
        for first, shape, spread in gabc._BLOCK_LAYOUT[kind].values():
            used += range(first, first + int(np.prod(shape)))
            assert spread in ("scale", "unit", "rotation")
        assert len(used) == len(set(used)) and max(used) < gabc.BLOCK, kind


def test_rotations_are_haar_distributed_on_so4():
    # 20 000 rotations from the uniforms of a fixed stream: orthogonal with determinant 1
    # to round-off, and with the first two moments of Haar measure on SO(4),
    # E[g_ij] = 0 and E[g_ij^2] = 1/4
    u = np.random.Generator(np.random.Philox(2024)).random((20000, 6))
    g = gabc._rotations(u)
    assert g.shape == (20000, 4, 4)
    assert np.abs(g @ g.swapaxes(-1, -2) - np.eye(4)).max() <= 1e-14
    assert np.abs(np.linalg.det(g) - 1.0).max() <= 1e-14
    assert np.abs(g.mean(axis=0)).max() <= 0.02
    assert np.abs((g ** 2).mean(axis=0) - 0.25).max() <= 0.01


def test_family_classification():
    assert classify_triple(make(A=DIAG_A)) is FamilyKind.DIAGONAL
    assert classify_triple(generate(FamilyKind.SKEW, 1)) is FamilyKind.SKEW
    assert classify_triple(generate(FamilyKind.ANTIDIAGONAL, 1)) is FamilyKind.ANTIDIAGONAL
    assert classify_triple(generate(FamilyKind.SYMMETRIC, 1)) is FamilyKind.SYMMETRIC
    assert classify_triple(generate(FamilyKind.GENERAL, 1)) is FamilyKind.GENERAL


GATES = ("dphi", "star_dphi", "dpsi", "star_dpsi", "tau1", "tau2", "iota_tau1_phi",
         "reconstruction_dphi", "reconstruction_dpsi", "tau2_type14", "tau3_type27_phi",
         "tau3_type27_psi", "support_iota_tau1_phi", "support_tau2", "support_tau3",
         "tau27_mixed_block", "torsion_routes", "connection", "ricci", "divergence",
         "divergence_free")


@pytest.mark.parametrize("A, family, family_gates, duals", [
    # every shape at once
    (ZERO4, FamilyKind.DIAGONAL, ("tau27_diagonal_nn", "support_tau3_diagonal"), []),
    # diagonal and symmetric
    (np.diag([1.0, 2.0, -1.0, -2.0]), FamilyKind.DIAGONAL,
     ("tau27_diagonal_nn", "support_tau3_diagonal"),
     [("tau3[general]", "e136"), ("theta_omega1[A]", "e35")]),
    # antidiagonal and symmetric
    (np.fliplr(np.diag([1.0, 2.0, 2.0, 1.0])), FamilyKind.ANTIDIAGONAL,
     ("tau27_antidiagonal_pairs", "support_tau3_antidiagonal"), [("theta_omega2[A]", "e46")]),
    # antidiagonal and skew
    (np.fliplr(np.diag([1.0, 2.0, -2.0, -1.0])), FamilyKind.ANTIDIAGONAL,
     ("tau27_antidiagonal_pairs", "support_tau3_antidiagonal"), [("theta_omega2[A]", "e46")]),
], ids=["zero", "diagonal", "antidiagonal-symmetric", "antidiagonal-skew"])
def test_a_triple_of_several_shapes_takes_the_first_family_in_priority_order(
        A, family, family_gates, duals):
    # DIAGONAL, ANTIDIAGONAL, SKEW, SYMMETRIC, else GENERAL: the label picks the gates,
    # while each family table is dual-reported on every triple that has its shape
    t = make(A=A)
    assert classify_triple(t) is family
    for rep in (cross_validate(t), cross_validate_stack(stack_of([t, t])).reports()[1]):
        assert rep.family == family.value
        assert tuple(rep.deviations) == GATES + family_gates
        assert [(d.formula, d.component) for d in rep.dual_reports] == duals


# -- theta ----------------------------------------------------------------------

def test_theta_diagonal_on_omega7():
    m = np.diag([2.0, 3.0, -1.0, -4.0])
    got = theta(m, OMEGA[7])
    assert got.coeffs == {(3, 4): -5.0, (5, 6): 5.0}


def test_theta_zero_matrix():
    assert theta(ZERO4, OMEGA[1]).is_zero()


def test_theta_diag_1_1_m1_m1_kills_omega1():
    # definitional evaluation; the tabulated e35 coefficient would give -2
    assert theta(DIAG_A, OMEGA[1]).is_zero()


def test_theta_rejects_support_outside_ideal():
    with pytest.raises(ValidationError, match="supported on e3..e6"):
        theta(DIAG_A, Form.monomial((1, 3)))


@pytest.mark.parametrize("call, message", [
    (lambda: generate_many(["bogus"], 0, [0]), "unknown family kind 'bogus'"),
    (lambda: generate_many([FamilyKind.DIAGONAL, FamilyKind.SKEW], 0, [1]),
     "2 family kinds for 1 trials"),
    (lambda: make(A=1j * np.diag([1.0, -1.0, 0.0, 0.0])), "matrix A has complex entries"),
    # entries that are Python objects, strings or booleans: not cast to floats
    (lambda: make(B=np.full((4, 4), 0j, dtype=object)),
     "matrix B has an entry that is not a real number"),
    (lambda: make(C=np.full((4, 4), "a", dtype=object)),
     "matrix C has an entry that is not a real number"),
    (lambda: make(A=np.full((4, 4), "1")), "matrix A has an entry that is not a real number"),
    (lambda: make(B=np.zeros((4, 4), dtype=bool)),
     "matrix B has an entry that is not a real number"),
    (lambda: make(C=[[0.0] * 4] * 3 + [[0.0, None, 0.0, 0.0]]),
     "matrix C has an entry that is not a real number"),
    # numpy reads a True among the numbers of a list as 1
    (lambda: make(C=[[0, True, 0, 0]] + [[0] * 4] * 3),
     "matrix C has an entry that is not a real number"),
    (lambda: make(B=[[0, 10 ** 400, 0, 0]] + [[0] * 4] * 3),
     "matrix B has an entry too large for a float64"),
    (lambda: make(A=[[0.0] * 4] * 3 + [[0.0]]),
     "matrix A must be 4x4, got rows of unequal lengths"),
    (lambda: theta(DIAG_A, Form.monomial((3,))), "theta acts on 2-forms"),
    (lambda: theta_omega_tabulated(DIAG_A, 3), "which must be one of 7, 1, 2"),
    (lambda: closed_form_torsion(make(), "skew"), "unknown family kind 'skew'"),
])
def test_malformed_arguments_raise(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert type(err.value) is ValidationError and str(err.value) == message


def test_a_matrix_of_python_real_numbers_is_taken_as_floats():
    from fractions import Fraction
    entries = np.diag([Fraction(1, 2), Fraction(-1, 2), 0, 0])  # an object array
    assert entries.dtype == object
    assert make(A=entries).abc.tobytes() == make(A=np.diag([0.5, -0.5, 0.0, 0.0])).abc.tobytes()


def triple_by_matrix(A, B, C):
    """TripleABC's conversion one matrix at a time, as it was before the one-array
    conversion: each matrix converted and its shape checked, then the stack checked."""
    mats = []
    for name, m in zip("ABC", (A, B, C)):
        m = liealg._real_array(f"matrix {name}", m, "4x4")
        if m.shape != (4, 4):
            raise ValidationError(f"matrix {name} must be 4x4, got {m.shape}")
        mats.append(m)
    return gabc._checked(np.stack(mats))


def outcome(call):
    """The bytes of the array call returns, or the type and text of the error it raises."""
    try:
        return call().tobytes()
    except Exception as exc:
        return type(exc), str(exc)


ZERO_ROWS = [[0] * 4 for _ in range(4)]


def with_entry(value, at=(0, 1)):
    """The zero matrix as a list of rows, with value at the entry at."""
    rows = [list(row) for row in ZERO_ROWS]
    rows[at[0]][at[1]] = value
    return rows


def objects_with_entry(value, at=(0, 1)):
    """The zero matrix as an array of Python floats held as objects, with value at the entry
    at, assigned as it is: numpy's casts (np.where, np.array) turn a timedelta64 into an int."""
    m = np.full((4, 4), 0.0, dtype=object)
    m[at] = value
    return m


# each rejected input pinned by this module or the command line's tests
REJECTED = {
    "complex-array": 1j * np.diag([1.0, -1.0, 0.0, 0.0]),
    "complex-entry": with_entry(1j),
    "complex-objects": np.full((4, 4), 0j, dtype=object),
    "bool-array": np.zeros((4, 4), dtype=bool),
    "bool-entry": with_entry(True),
    "string-array": np.full((4, 4), "1"),
    "string-entry": with_entry("1"),
    "string-objects": np.full((4, 4), "a", dtype=object),
    "a-string": "x",
    "none-entry": with_entry(None),
    "too-large-int": with_entry(10 ** 400),
    "ragged-rows": [[0.0] * 4] * 3 + [[0.0]],
    "empty": [],
    "3x3": np.zeros((3, 3)),
    "2x4x4": np.zeros((2, 4, 4)),
    "5x4": [[0.0] * 4] * 5,
    "datetime-array": np.zeros((4, 4), dtype="datetime64[s]"),
    # at ns resolution numpy's object cast gives Python ints, and next to float rows or a
    # float matrix the array is held as objects
    "datetime-ns-array": np.zeros((4, 4), dtype="datetime64[ns]"),
    "timedelta-ns-array": np.zeros((4, 4), dtype="timedelta64[ns]"),
    "timedelta-ns-rows": [np.zeros(4, dtype="timedelta64[ns]")] * 4,
    "timedelta-ns-row-among-floats": [np.zeros(4, dtype="timedelta64[ns]")] + [[0.0] * 4] * 3,
    "datetime-ns-row-among-floats": [[0.0] * 4] * 3 + [np.zeros(4, dtype="datetime64[ns]")],
    "timedelta-ns-entry-among-floats": [[0.0, np.timedelta64(1, "ns"), 0.0, 0.0]]
                                       + [[0.0] * 4] * 3,
    # numpy registers np.timedelta64 as a signed integer: not taken as its count of ns
    "timedelta-ns-entry-in-objects": objects_with_entry(np.timedelta64(5, "ns")),
    "nested-too-deep": json.loads("[" * 200 + "0" + "]" * 200),
    "nan-entry": with_entry(np.nan),
    "beyond-max-entry": with_entry(1e160),
    "not-traceless": with_entry(1.0, at=(0, 0)),
}


@pytest.mark.parametrize("bad", REJECTED.values(), ids=REJECTED.keys())
def test_one_array_conversion_rejects_as_each_matrix_alone(bad):
    # in every slot, and in two slots at once, where the first is named, next to zero
    # matrices of ints in lists and of floats in arrays
    for zero, slots in itertools.product((ZERO_ROWS, np.zeros((4, 4))), ((0,), (1,), (2,), (1, 2))):
        mats = [bad if q in slots else zero for q in range(3)]
        expected = outcome(lambda: triple_by_matrix(*mats))
        assert expected[0] is ValidationError and f"matrix {'ABC'[slots[0]]} " in expected[1]
        assert outcome(lambda: TripleABC(*mats).abc) == expected, (type(zero), slots)


def accepted_forms():
    """Diagonal traceless matrices, each in another container or entry type, whose float64
    values some of them reach only by rounding."""
    from fractions import Fraction
    d32 = np.array([0.1, -0.1, 0.3, -0.3], dtype=np.float32)
    big = 3 ** 40  # not a float64, and beyond int64
    return {
        "floats": np.diag([0.25, -0.5, 0.125, 0.125]).tolist(),
        "tuples-of-ints": tuple(tuple(row) for row in np.diag([2, -1, -1, 0]).tolist()),
        "float32-array": np.diag(d32),
        "int-array": np.diag(np.array([7, -3, -4, 0], dtype=np.int64)),
        "fractions": [[Fraction(1, 3) if i == j == 0 else Fraction(-1, 3) if i == j == 1
                       else 0 for j in range(4)] for i in range(4)],
        "fraction-objects": np.diag([Fraction(1, 10), Fraction(-1, 10), 0, 0]),
        "numpy-scalars": [[diagonal if i == j else np.int16(0) for j in range(4)]
                          for i, diagonal in enumerate((np.float32(0.5), np.float64(-0.75),
                                                        np.int16(0), np.float16(0.25)))],
        "float16-array": np.diag(np.array([0.1, -0.1, 0.0, 0.0], dtype=np.float16)),
        "big-ints": np.diag(np.array([big, -big, 0, 0], dtype=object)).tolist(),
        "ints-and-floats": [[1, 0.0, 0, 0], [0, -0.5, 0, 0], [0, 0, -0.5, 0], [0, 0, 0, 0]],
    }


@pytest.mark.parametrize("shift", range(3))
def test_one_array_conversion_keeps_the_bits_of_each_matrix_alone(shift):
    forms = list(accepted_forms().items())
    for n in range(len(forms)):
        names, mats = zip(*(forms[(n + shift * q + q) % len(forms)] for q in range(3)))
        t = TripleABC(*mats)
        expected = np.stack([liealg._real_array(f"matrix {name}", m, "4x4")
                             for name, m in zip("ABC", mats)])
        assert t.abc.dtype == np.float64 and t.abc.tobytes() == expected.tobytes(), names


def test_numeric_input_takes_one_conversion_and_rejected_input_names_its_matrix(monkeypatch):
    calls = []
    real_array = gabc._real_array

    def counted(what, x, shape):
        calls.append(what)
        return real_array(what, x, shape)
    monkeypatch.setattr(gabc, "_real_array", counted)
    # every accepted form, Fractions and ints beyond int64 too, in every slot
    forms = list(accepted_forms().values())
    for n in range(len(forms)):
        calls.clear()
        TripleABC(*(forms[(n + q) % len(forms)] for q in range(3)))
        assert calls == ["matrices A, B, C"], n
    calls.clear()
    with pytest.raises(ValidationError, match="^matrix B has complex entries$"):
        TripleABC(ZERO_ROWS, with_entry(1j), ZERO_ROWS)
    assert calls == ["matrices A, B, C", "matrix A", "matrix B"]


@pytest.mark.parametrize("seed", [-1, 1.5, "a", [0, -2]])
def test_generate_rejects_a_seed_that_numpy_rejects(seed):
    for call in (lambda: generate_many(FamilyKind.SKEW, seed, range(3)),
                 lambda: generate(FamilyKind.SKEW, seed)):
        with pytest.raises(ValidationError) as err:
            call()
        # one seed keys every trial, so the error names no trial
        assert type(err.value) is ValidationError and not hasattr(err.value, "trial")
        assert str(err.value).startswith(f"seed {seed!r} is not a valid seed: ")


@pytest.mark.parametrize("seed", [None, True, False])
def test_generate_rejects_none_and_bool_seeds(seed):
    # None would draw fresh entropy on every call, and True would be the seed 1
    for call in (lambda: generate_many(FamilyKind.SKEW, seed, range(3)),
                 lambda: generate(FamilyKind.SKEW, seed)):
        with pytest.raises(ValidationError) as err:
            call()
        assert type(err.value) is ValidationError
        assert str(err.value) == f"seed {seed!r} is not a valid seed: expected an " \
                                 "integer or a SeedSequence, not None or a bool"
    # integers of any type and seed sequences still pass, each the same triple
    same = [generate(FamilyKind.SKEW, s).abc.tobytes()
            for s in (1, np.int64(1), np.uint8(1), np.random.SeedSequence(1))]
    assert same == same[:1] * 4


@pytest.mark.parametrize("trials, n", [([-1], 0), ([0, 1, -2], 2), ([0, True], 1), ([1.0], 0),
                                       ([None], 0), (["1"], 0), ([0, gabc.MAX_TRIAL + 1], 1)])
def test_generate_many_rejects_a_trial_index_outside_its_range(trials, n):
    with pytest.raises(ValidationError) as err:
        generate_many(FamilyKind.DIAGONAL, 0, trials)
    prefix = f"trial {n}: " if len(trials) > 1 else ""
    assert type(err.value) is ValidationError and err.value.trial == n
    assert str(err.value) == f"{prefix}trial index {trials[n]!r} is not an integer in " \
                             f"[0, {gabc.MAX_TRIAL}]"
    # integers of any type are trial indices
    same = generate_many(FamilyKind.DIAGONAL, 0, [np.int64(3), np.uint8(4), 5])
    assert same.abc.tobytes() == generate_many(FamilyKind.DIAGONAL, 0, range(3, 6)).abc.tobytes()


def test_generate_many_takes_a_numpy_array_of_kinds_as_a_kind_per_trial():
    kinds = [FamilyKind.SKEW, FamilyKind.DIAGONAL, FamilyKind.SKEW]
    stack = generate_many(np.array(kinds), 0, [0, 1, 2])
    assert stack.abc.tobytes() == generate_many(kinds, 0, [0, 1, 2]).abc.tobytes()
    with pytest.raises(ValidationError, match="^3 family kinds for 2 trials$"):
        generate_many(np.array(kinds), 0, [0, 1])


@pytest.mark.parametrize("kind", list(FamilyKind))
@pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan, np.inf, -np.inf, 1e308, "2", 1j, True,
                                   False])
def test_generate_rejects_a_scale_outside_its_range(kind, scale):
    message = f"scale {scale!r} is not in (0, {MAX_SCALE:g}]"
    # raised before any draw, so also without a numpy warning (warnings fail tier-1)
    for call in (lambda: generate(kind, 0, scale), lambda: generate_many(kind, 0, [0, 1], scale)):
        with pytest.raises(ValidationError) as err:
            call()
        assert type(err.value) is ValidationError and str(err.value) == message


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_every_family_generates_and_passes_through_a_pass_at_the_largest_scale(kind):
    # the suite turns every numpy warning into an error, so an overflow fails here
    t = generate_many(kind, 0, range(20), MAX_SCALE)
    assert np.abs(t.abc).max() <= 3 * MAX_SCALE
    arrays = cross_validate_stack(t)
    assert arrays.flags.shape == (20, 3) and arrays.passed().shape == (20,)
    assert np.isfinite(arrays.deviations).all() and np.isfinite(arrays.ricci_matrix).all()


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, "1e-9", True, False])
def test_cross_validate_rejects_a_tolerance_outside_its_range(tol, monkeypatch):
    # raised before any work: the pass never reaches its first stage, the family shapes
    monkeypatch.setattr(gabc, "_shapes", lambda abc: pytest.fail("the pass ran"))
    message = f"tolerance {tol!r} is not a number in [0, inf)"
    t = generate(FamilyKind.GENERAL, 0)
    for call in (lambda: cross_validate(t, tol=tol), lambda: cross_validate_stack(t, tol)):
        with pytest.raises(ValidationError) as err:
            call()
        assert type(err.value) is ValidationError and str(err.value) == message


def test_cross_validate_rejects_a_stack_of_several(monkeypatch):
    monkeypatch.setattr(gabc, "_shapes", lambda abc: pytest.fail("the pass ran"))
    with pytest.raises(ValidationError, match="^a stack of 3 triples needs cross_validate_stack$"):
        cross_validate(generate_many(FamilyKind.SKEW, 1, range(3)))
    with pytest.raises(ValidationError, match="needs at least one triple"):  # the pass's own error
        cross_validate(generate_many(FamilyKind.SKEW, 1, []))


def test_cross_validate_takes_a_stack_of_one():
    one, t = generate_many(FamilyKind.SKEW, 1, [0]), generate(FamilyKind.SKEW, 1)
    assert_same_report(cross_validate(one), cross_validate(t), tol=0.0)


def test_cross_validate_stack_rejects_an_empty_stack():
    with pytest.raises(ValidationError, match="needs at least one triple"):
        cross_validate_stack(generate_many(FamilyKind.DIAGONAL, 0, []))


def test_theta_is_a_lie_algebra_action(rng):
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        n = rng.standard_normal((4, 4))
        eta = Form.from_coeffs(2, {
            (i, j): float(rng.standard_normal())
            for i in (3, 4, 5) for j in range(i + 1, 7)
        })
        lhs = theta(m @ n - n @ m, eta)
        rhs = theta(m, theta(n, eta)) - theta(n, theta(m, eta))
        assert (lhs - rhs).norm_inf() <= 1e-10


def test_theta_tabulated_mismatches_are_exactly_the_known_ones(rng):
    # omega1/e35 and omega2/e46 disagree with the definitional action;
    # every other tabulated coefficient agrees.
    for _ in range(10):
        m = rng.standard_normal((4, 4))
        d1 = theta_omega_tabulated(m, 1) - theta(m, OMEGA[1])
        assert set(d1.coeffs) <= {(3, 5)}
        # -(m33-m55) vs -(m33+m55): diff 2*m55
        assert abs(d1.coeffs.get((3, 5), 0.0) - 2 * m[2, 2]) <= 1e-12
        d2 = theta_omega_tabulated(m, 2) - theta(m, OMEGA[2])
        assert set(d2.coeffs) <= {(4, 6)}
        # m54 printed vs m34 true
        assert abs(d2.coeffs.get((4, 6), 0.0) - (m[2, 1] - m[0, 1])) <= 1e-12
        assert (theta_omega_tabulated(m, 7) - theta(m, OMEGA[7])).is_zero()


# -- closed-form derivatives -------------------------------------------------------

def test_derivatives_vanish_for_abelian():
    out = tabulated_derivatives(make())
    assert all(f.is_zero() for f in out)


def test_dpsi_for_diagonal_b_only():
    B = np.diag([1.0, 2.0, -3.0, 0.0])
    t = make(B=B)
    _, _, dpsi, _ = tabulated_derivatives(t)
    expected = wedge(theta(B, OMEGA[1]), Form.monomial((1, 2, 7)))
    assert (dpsi - expected).is_zero()


def test_derivatives_match_ce_oracle():
    for kind in FamilyKind:
        t = generate(kind, 77)
        c, s = build(t)
        dphi, sdphi, dpsi, sdpsi = tabulated_derivatives(t)
        assert (dphi - ce_diff(c, s.phi)).norm_inf() <= 1e-9
        assert (sdphi - hodge(ce_diff(c, s.phi))).norm_inf() <= 1e-9
        assert (dpsi - ce_diff(c, s.psi)).norm_inf() <= 1e-9
        assert (sdpsi - hodge(ce_diff(c, s.psi))).norm_inf() <= 1e-9


# -- closed-form torsion tables ------------------------------------------------------

def test_skew_table_spot_value_tau0():
    t = make(A=e_matrix(4, 6) - e_matrix(6, 4))
    cf = closed_form_torsion(t, FamilyKind.SKEW)
    assert abs(cf.tau0 - 4.0 / 7.0) <= 1e-15
    # the generic route adjudicates this tabulated value as a misprint: the
    # oracle gives 0 here (and 4/7 for the a34 block); pin both as regression
    _, s = build(t)
    assert torsion_forms(s)[0] == 0.0
    t34 = make(A=e_matrix(3, 4) - e_matrix(4, 3))
    _, s34 = build(t34)
    assert abs(torsion_forms(s34)[0] - 4.0 / 7.0) <= 1e-15


def test_diagonal_table_spot_values():
    t = make(A=DIAG_A)
    cf = closed_form_torsion(t, FamilyKind.DIAGONAL)
    assert cf.tau0 == 0.0 and not np.any(cf.tau1)
    assert Form(2, cf.tau2).coeffs == {(3, 4): -2.0, (5, 6): 2.0}
    assert not np.any(cf.tau3)


def test_antidiagonal_table_spot_values():
    t = make(C=e_matrix(3, 6))
    cf = closed_form_torsion(t, FamilyKind.ANTIDIAGONAL)
    assert abs(cf.tau0 - (-2.0 / 7.0)) <= 1e-15
    assert not np.any(cf.tau1)


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_closed_form_torsion_of_a_stack_is_that_of_each_triple(kind):
    t = generate_many(kind, 3, range(6))
    cf = closed_form_torsion(t, kind)
    assert cf.tau0.shape == (6,)
    for part, degree in (("tau1", 1), ("tau2", 2), ("tau3", 3), ("iota_tau1_phi", 2)):
        assert getattr(cf, part).shape == (6, len(COMBS[degree])), part
    for n, triple in enumerate(unstack(t)):
        one = closed_form_torsion(triple, kind)
        assert all(np.array_equal(getattr(cf, part)[n], getattr(one, part))
                   for part in vars(one)), n
    # the symmetric family has no table of its own: the general one, read by the pass too
    table = FamilyKind.GENERAL if kind is FamilyKind.SYMMETRIC else kind
    if table is not kind:
        general = closed_form_torsion(t, table)
        assert all(np.array_equal(getattr(cf, part), getattr(general, part)) for part in vars(cf))
    parts = ["tau0", "tau1", "tau2", "tau3"] + ["iota_tau1_phi"] * (table is FamilyKind.GENERAL)
    text = np.concatenate([np.reshape(getattr(cf, part), (6, -1)) for part in parts], axis=1)
    read = np.concatenate([product_columns(t, f"{part}[{table.value}]") for part in parts], axis=1)
    err = np.abs(text - read).max(axis=1)
    assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(text).max(axis=1)))


def test_family_kind_shape_mismatch_rejected():
    with pytest.raises(ValidationError, match="shape"):
        closed_form_torsion(make(A=DIAG_A), FamilyKind.SKEW)


def test_family_kind_shape_mismatch_names_the_first_failing_triple_of_a_stack():
    t = generate_many([FamilyKind.SKEW, FamilyKind.GENERAL, FamilyKind.SKEW], 0, [0, 0, 1])
    reason = "triple does not have the skew shape"
    with pytest.raises(ValidationError, match=f"^trial 1: {reason}$") as err:
        closed_form_torsion(t, FamilyKind.SKEW)
    assert err.value.trial == 1 and err.value.reason == reason
    # a single triple is named as before
    with pytest.raises(ValidationError, match=f"^{reason}$"):
        closed_form_torsion(unstack(t)[1], FamilyKind.SKEW)


def test_general_table_tau1_tau2_match_oracle():
    for seed in range(6):
        t = generate(FamilyKind.GENERAL, 200 + seed)
        _, s = build(t)
        _, t1, t2, _ = torsion_forms(s)
        cf = closed_form_torsion(t, FamilyKind.GENERAL)
        assert np.abs(cf.tau1 - t1).max() <= 1e-9
        assert np.abs(cf.tau2 - t2).max() <= 1e-9


# -- the tabulated formulas as one operator --------------------------------------------

#: The names of gabc's layout constants, in the order _pass_layout returns them.
LAYOUT = ("_QUANTITIES", "_PAIRS", "_QUANTITY_STARTS", "_APPLIES", "_REPORTED", "_REPORTED_ON")
#: The compared columns of the tabulated layout, the first ones, and those of its formulas
#: that only gate: the general table's iota_tau1_phi and the four derivatives.
N_COMPARED = sum(gabc._WIDTHS[formula] for formula, *_, oracle in gabc._BLOCKS if oracle)
GATED_ONLY = [formula for formula, _, kind, oracle in gabc._BLOCKS if oracle and not kind]


def compared_columns(sources, at):
    """(2, N_COMPARED): the columns of a concatenation of sources where a pass with the
    layout _pass_layout(sources, at) reads each compared column of the tabulated layout and
    its oracle, in layout order.  A column some triple may dual-report is read from the
    compared pairs, a gated-only formula from its gated block; a pair the pass leaves out,
    two zero columns, reads the product's zero column on both sides here."""
    quantities, pairs, starts, _, reported, _ = gabc._pass_layout(sources, at)
    ends = dict(zip(sources, np.cumsum(list(sources.values()))))
    columns = np.full((2, N_COMPARED), ends["product"] - 1)  # the product's zero column
    columns[:, reported] = pairs[:, :len(reported)]
    for formula in GATED_ONLY:
        block = gabc._COLUMNS[formula]
        start = starts[quantities.index(formula.split("[")[0])]
        columns[:, block] = pairs[:, start:start + block.stop - block.start]
    return columns


def pass_reads(t, product, sources, at):
    """(compared, oracle): what a pass on the stack t reads of the tabulated product and of
    the oracles, at compared_columns(sources, at), from the concatenation of sources with the
    product, the torsion tail, dphi and dpsi, and every other source zero."""
    _, s = build(t)
    arrays = {"product": product, "tail": torsion_data(s).tail, "dphi": s.dphi, "dpsi": s.dpsi}
    x = np.concatenate([arrays.get(name, np.zeros((len(product), width)))
                        for name, width in sources.items()], axis=1)
    compared, oracle = compared_columns(sources, at)
    return x.take(compared, axis=1), x.take(oracle, axis=1)


def full_layout(product):
    """(sources, at) of a pass whose product holds every column of the operator's layout, in
    order, then one zero column, as the live operator ends."""
    return {**gabc._SOURCES, "product": product.shape[1]}, np.arange(product.shape[1] - 1)


def with_zero_column(values):
    """values with one zero column appended."""
    return np.concatenate([values, np.zeros((len(values), 1))], axis=1)


def live_product(t):
    """The pass's product of the stack t: its (n, 48) entries times the live operator."""
    return _vecmat(t.abc.reshape(-1, 48), gabc._OPERATOR)


def operator_reads(t):
    """pass_reads of the pass's own product, from the live operator."""
    return pass_reads(t, live_product(t), gabc._SOURCES, gabc._LIVE_AT)


def use_layout(monkeypatch, sources, at):
    """Make every pass concatenate the table sources and read it by _pass_layout(sources, at),
    c and gamma too at the columns at gives them."""
    monkeypatch.setattr(gabc, "_SOURCES", sources)
    c_gamma = slice(gabc._COLUMNS["c"].start, gabc._COLUMNS["gamma"].stop)
    monkeypatch.setattr(gabc, "_C_GAMMA_AT", at[c_gamma])
    for name, value in zip(LAYOUT, gabc._pass_layout(sources, at), strict=True):
        monkeypatch.setattr(gabc, name, value)


def source_columns(sources, columns):
    """(name, column of that source) of each of the columns of a concatenation of sources."""
    names, widths = list(sources), list(sources.values())
    ends = np.cumsum(widths)
    return [(names[k], int(column - ends[k] + widths[k]))
            for k, column in zip(np.searchsorted(ends, columns, side="right"), columns)]


def in_pass(sources, columns):
    """The columns of a concatenation of the sources of full_layout, moved to where the
    pass's own concatenation holds the same values: a column of the full product through
    the live-column map, its zero column to the live product's, any other by its source."""
    live_at = np.append(gabc._LIVE_AT, gabc._SOURCES["product"] - 1)
    offsets = dict(zip(gabc._SOURCES, np.cumsum([0, *gabc._SOURCES.values()])))
    moved = [offsets[name] + (live_at[column] if name == "product" else column)
             for name, column in source_columns(sources, np.ravel(columns))]
    return np.reshape(moved, np.shape(columns))


def pass_zero_column():
    """The column of the pass's own concatenation that holds the product's zero column."""
    ends = dict(zip(gabc._SOURCES, np.cumsum(list(gabc._SOURCES.values()))))
    return ends["product"] - 1


def stage_values(rows):
    """Every block of the operator's layout evaluated by its stages on the triples whose 48
    entries are the rows: the formula text and the closed-form connection, then the generic
    route's stepwise stages."""
    blocks = [*gabc._text_values(rows), *gabc._generic_stages(rows)]
    return np.concatenate([np.reshape(b, (len(rows), -1)) for b in blocks], axis=1)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_operator_reads_agree_with_the_formula_text(scale):
    for kind in FamilyKind:
        t = generate_many(kind, 0, range(50), scale)
        text_values = with_zero_column(stage_values(t.abc.reshape(-1, 48)))
        for read, text in zip(operator_reads(t), pass_reads(t, text_values,
                                                          *full_layout(text_values))):
            err = np.abs(read - text).max(axis=1)
            # relative to each triple's largest value, which reaches ~3.5x its largest entry
            assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(text).max(axis=1))), kind


def test_operator_rejects_a_table_with_a_constant_term(monkeypatch):
    table = gabc._torsion_skew
    monkeypatch.setattr(gabc, "_torsion_skew",
                        lambda t: (table(t)[0] + 1.0, *table(t)[1:]))
    with pytest.raises(ValidationError, match=re.escape("constant term: tau0[skew]") + "$"):
        gabc._operator()


def generic_full_operator():
    """The (48, 980) generic half of the operator on the unit triples, every column kept."""
    return _linear_operator(gabc._generic_stages, 48, gabc._GENERIC_WIDTHS)


def full_operator():
    """The (48, 2090) operator on the unit triples, every column kept: the (48, 1110) formula
    text and closed-form connection, then the generic half."""
    return np.concatenate([_linear_operator(gabc._text_values, 48, gabc._WIDTHS),
                           generic_full_operator()], axis=1)


def test_live_operator_holds_the_live_columns_of_the_full_one():
    full = full_operator()
    live = full.any(axis=0)
    operator = gabc._OPERATOR
    assert operator.shape == (48, live.sum() + 1) == (48, 657) == (48, gabc._SOURCES["product"])
    assert operator.flags.c_contiguous and not operator[:, -1].any()
    # one table places the blocks of both halves, no name of one half shadowing the other's
    assert len(gabc._COLUMNS) == len(gabc._WIDTHS) + len(gabc._GENERIC_WIDTHS)
    assert gabc._COLUMNS["solve_residual"].stop == full.shape[1] == len(gabc._LIVE_AT)
    # 132 of the live columns are the closed-form connection's
    assert live[gabc._COLUMNS["connection"]].sum() == 132
    # the map takes each column of the layout to its live column, a dead one to the zero column
    assert np.array_equal(operator[:, gabc._LIVE_AT], full)
    assert np.array_equal(gabc._LIVE_AT[~live], np.full((~live).sum(), 656))
    # the pass's constants are its layout, which reads the sources the full layout reads,
    # a column of the product through the map, but the pairs of two zero columns
    for name, value in zip(LAYOUT, gabc._pass_layout(gabc._SOURCES, gabc._LIVE_AT), strict=True):
        assert np.array_equal(getattr(gabc, name), value), name
    sources, at = full_layout(with_zero_column(full))
    quantities, pairs, starts, applies, reported, reported_on = gabc._pass_layout(sources, at)
    moved = in_pass(sources, pairs)
    kept = ~(moved == pass_zero_column()).all(axis=0)
    assert np.array_equal(gabc._PAIRS, moved[:, kept])
    assert gabc._QUANTITIES == quantities and np.array_equal(gabc._APPLIES, applies)
    assert np.array_equal(gabc._QUANTITY_STARTS, [kept[:start].sum() for start in starts])
    assert np.array_equal(gabc._REPORTED, reported[kept[:len(reported)]])
    assert np.array_equal(gabc._REPORTED_ON, reported_on[kept[:len(reported)]])
    # the oracles the product holds: the definitional theta
    oracles = pairs[1, :len(reported)]
    assert [name for name, _ in source_columns(sources, oracles)].count("product") == 9 * 21
    assert not any(array.flags.writeable for array in (operator, gabc._LIVE_AT))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_live_product_is_the_full_product_bit_for_bit(scale):
    # every family, and entries that are all nonzero, each product row by row
    full = full_operator()
    kinds = list(FamilyKind) * 4
    abc = generate_many(kinds, 24, range(len(kinds)), scale).abc
    dense = np.random.default_rng(24).uniform(-scale, scale, (7, 3, 4, 4))
    for t in (gabc.TripleABC._of_validated(abc), gabc.TripleABC._of_validated(dense)):
        product = with_zero_column(_vecmat(t.abc.reshape(-1, 48), full))
        expected = pass_reads(t, product, *full_layout(product))
        for read, want in zip(operator_reads(t), expected):
            assert np.array_equal(read, want) and np.array_equal(np.signbit(read),
                                                                 np.signbit(want))


def test_every_pair_the_pass_leaves_out_is_gated_only_or_of_two_zero_columns():
    # with every column of the layout in its product, no pair is of two zero columns: the
    # compared pairs are then every column a triple may dual-report, and each gated formula
    # is compared in full in its gated block
    sources, at = full_layout(with_zero_column(full_operator()))
    quantities, pairs, starts, _, reported, _ = gabc._pass_layout(sources, at)
    may_report = [np.arange(N_COMPARED)[gabc._COLUMNS[formula]]
                  for formula, _, kind, oracle in gabc._BLOCKS if oracle and kind]
    assert np.array_equal(reported, np.concatenate(may_report))
    widths = np.diff([*starts, pairs.shape[1]])
    assert sum(gabc._WIDTHS[formula] for formula in GATED_ONLY) == N_COMPARED - len(reported) == 133
    for formula in gabc._GATED:
        columns = np.arange(N_COMPARED)[gabc._COLUMNS[formula]]
        q = quantities.index(formula.split("[")[0])
        gated = pairs[:, starts[q]:starts[q] + widths[q]]
        assert source_columns(sources, gated[0]) == [("product", k) for k in columns]
        if formula not in GATED_ONLY:  # dual-reported too, with the same oracle
            assert np.array_equal(gated, pairs[:, np.searchsorted(reported, columns)])
    # the pass's own layout leaves out of these exactly the pairs of two zero columns: 135
    # compared ones, each a dead theta expansion column against its dead definitional theta,
    # and 211 of the connection, the coefficients both connections leave zero on g_{A,B,C}
    zero = (in_pass(sources, pairs) == pass_zero_column()).all(axis=0)
    assert pairs.shape[1] == 1368 - 133 and zero.sum() == 346
    assert zero[:len(reported)].sum() == 135
    assert all(gabc._column_labels()[k][0].startswith("theta_omega")
               for k in reported[zero[:len(reported)]])
    q = quantities.index("connection")
    assert zero[starts[q]:starts[q] + widths[q]].sum() == 211
    assert gabc._PAIRS.shape == (2, 889) and len(gabc._REPORTED) == 310
    assert np.all(np.diff([*gabc._QUANTITY_STARTS, gabc._PAIRS.shape[1]]) > 0)


def test_the_one_product_keeps_the_routes_apart():
    # the live columns of one half of a copy of the operator set to NaN, the generic half,
    # then the tabulated one: every column read for a block of the other half, by the test
    # reader or by the pass's layout, stays finite, and every live column of a block of the
    # poisoned half reads NaN, so the one map and zero column wire no column to the other route
    t = stack_of(mixed_triples(3, 2))
    live = full_operator().any(axis=0)  # per column of the layout, whatever the map says
    zero = gabc._SOURCES["product"] - 1
    # of the pairs of the pass's layout, the columns of the generic half it reads: gamma and T
    # by nabla, on the right of the connection and of the two routes' torsion
    ends = dict(zip(gabc._QUANTITIES, [*gabc._QUANTITY_STARTS[1:], gabc._PAIRS.shape[1]]))
    reads_generic = np.zeros(gabc._PAIRS.shape, dtype=bool)
    for quantity in ("connection", "torsion_routes"):
        start = gabc._QUANTITY_STARTS[gabc._QUANTITIES.index(quantity)]
        reads_generic[1, start:ends[quantity]] = True
    start = dict(zip(gabc._SOURCES, np.cumsum([0, *gabc._SOURCES.values()])))["product"]
    in_product = (gabc._PAIRS >= start) & (gabc._PAIRS < start + zero)  # but its zero column
    for half in (gabc._GENERIC_WIDTHS, gabc._WIDTHS):
        operator = gabc._OPERATOR.copy()
        for block in half:
            operator[:, gabc._LIVE_AT[gabc._COLUMNS[block]][live[gabc._COLUMNS[block]]]] = np.nan
        for block, columns in gabc._COLUMNS.items():
            nan = np.isnan(product_columns(t, block, operator))
            expected = live[columns] & (block in half)
            assert np.array_equal(nan, np.broadcast_to(expected, nan.shape)), block
        # the layout, on the concatenation of that product with every other source zero
        product = _vecmat(t.abc.reshape(-1, 48), operator)
        x = np.concatenate([product if name == "product" else np.zeros((len(product), width))
                            for name, width in gabc._SOURCES.items()], axis=1)
        nan = np.isnan(x.take(gabc._PAIRS, axis=1))
        expected = in_product & (reads_generic == (half is gabc._GENERIC_WIDTHS))
        assert np.array_equal(nan, np.broadcast_to(expected, nan.shape))
        assert expected.any() and (~expected & in_product).any()


def test_a_layout_that_leaves_a_quantity_no_pair_raises_and_names_it():
    # every column of the product at its zero column: the connection is then two zero
    # columns throughout, and np.maximum.reduceat would read the next block's first pair
    at = np.full_like(gabc._LIVE_AT, gabc._SOURCES["product"] - 1)
    with pytest.raises(AssertionError, match="^the pass layout leaves no pair of connection$"):
        gabc._pass_layout(gabc._SOURCES, at)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_pass_oracles_are_the_hand_ordered_concatenation(scale):
    kinds = list(FamilyKind) * 4
    for seed in range(5):
        t = generate_many(kinds, seed, range(len(kinds)), scale)
        _, oracle = operator_reads(t)
        assert np.array_equal(oracle, oracle_reference(t)), seed


def test_operator_product_and_dual_reports_do_not_depend_on_the_pass():
    triples = mixed_triples(9, 7)  # 35 triples: passes of 32 and 3, or of 2
    live_alone = np.concatenate([live_product(t) for t in triples])
    reports = [cross_validate(t) for t in triples]
    assert any(rep.dual_reports for rep in reports)
    for size in (32, 2):
        passes = [stack_of(triples[i:i + size]) for i in range(0, len(triples), size)]
        live_in_passes = [live_product(t) for t in passes]
        assert np.array_equal(np.concatenate(live_in_passes), live_alone), size
        per_pass = [rep for t in passes for rep in cross_validate_stack(t).reports()]
        for rep, ref in zip(per_pass, reports, strict=True):
            assert (rep.dual_reports, rep.deviations) == (ref.dual_reports, ref.deviations), size


# -- the generic route's linear half, the operator's generic half ------------------------

def family_stacks(scale):
    """A stack of 8 triples of each family at the scale."""
    return [generate_many(kind, 31, range(8), scale) for kind in FamilyKind]


def test_generic_operator_holds_the_live_columns_of_the_full_one():
    # the generic half, read through the operator's one map, is the half built alone
    full = generic_full_operator()
    at = gabc._LIVE_AT[gabc._COLUMNS["c"].start:]
    zero = gabc._SOURCES["product"] - 1
    assert {name: int((gabc._LIVE_AT[gabc._COLUMNS[name]] != zero).sum())
            for name in gabc._GENERIC_WIDTHS} \
        == {"c": 96, "gamma": 132, "T_nabla": 25, "solve_residual": 0}
    assert np.array_equal(gabc._OPERATOR[:, at], full)
    assert np.array_equal(at == zero, ~full.any(axis=0))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_generic_operator_is_the_stepwise_route(scale):
    # c and gamma bit for bit, c with no -0.0; T by nabla to round-off, and the torsion
    # solve's residual zero on every triple
    eps = np.finfo(np.float64).eps
    residual = full_operator()[:, gabc._COLUMNS["solve_residual"]]
    for t in family_stacks(scale):
        c, _ = build(t)
        gamma = levi_civita(c)
        got = {name: product_columns(t, name).reshape((len(c), DIM, DIM, DIM)[:shape])
               for name, shape in (("c", 4), ("gamma", 4), ("T_nabla", 3))}
        assert same_bits(got["c"], c) and not np.signbit(got["c"][got["c"] == 0.0]).any()
        assert same_bits(got["gamma"], gamma)
        bound = 16 * eps * np.maximum(1.0, np.abs(t.abc).max(axis=(-3, -2, -1)))
        gap = np.abs(got["T_nabla"] - full_torsion_from_nabla(gamma)).max(axis=(-2, -1))
        assert np.all(gap <= bound), gap / bound
        assert not _vecmat(t.abc.reshape(-1, 48), residual).any()


def test_a_nabla_phi_with_one_sign_flipped_on_a_live_row_of_gamma_does_not_build(monkeypatch):
    # row 7j + k of NABLA_PHI meets gamma[i, j, k]: one sign flipped where g_{A,B,C} has a
    # nonzero gamma breaks nabla phi = iota_T psi, and the build raises; where every
    # gamma[i, j, k] of g_{A,B,C} is zero, the operator is the same
    gamma = full_operator()[:, gabc._COLUMNS["gamma"]]
    live_rows = gamma.any(axis=0).reshape(DIM, DIM * DIM).any(axis=0)
    nabla_phi = g2core.NABLA_PHI
    broken = []
    for flat in np.flatnonzero(nabla_phi)[:40]:
        flipped = nabla_phi.copy()
        flipped.flat[flat] *= -1.0
        monkeypatch.setattr(g2core, "NABLA_PHI", flipped)
        try:
            operator = gabc._operator()
        except TorsionSolveError as err:
            assert str(err).startswith("torsion solve failed: the residual of the generic "
                                       "operator reaches ")
            broken.append(True)
        else:
            assert all(map(np.array_equal, operator, (gabc._OPERATOR, gabc._LIVE_AT)))
            broken.append(False)
        assert broken[-1] == live_rows[flat // nabla_phi.shape[1]], flat
    assert broken.count(True) == 23


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_a_pass_s_generic_results_are_the_stepwise_route_s_bit_for_bit(scale):
    kinds = list(FamilyKind) * 4
    for t in [*family_stacks(scale), generate_many(kinds, 32, range(len(kinds)), scale)]:
        c, s = build(t)
        td, gamma = torsion_data(s), levi_civita(c)
        arrays = cross_validate_stack(t)
        expected = {"tau0": td.tau0, "tau1": td.tau1, "tau2": td.tau2, "tau3": td.tau3,
                    "torsion_matrix": td.T, "ricci_matrix": ricci(c, gamma),
                    "divergence": div_torsion(gamma, td.T)}
        for name, value in expected.items():
            assert same_bits(np.ascontiguousarray(getattr(arrays, name)), value), name


# -- closed-form connection / Ricci / divergence ---------------------------------------

def test_connection_a_a_branch_zero():
    t = generate(FamilyKind.GENERAL, 210)
    gamma = closed_form_connection(t)
    assert not np.any(gamma[0, 6])  # nabla_{e1} e7 = 0


def test_connection_diag_branch_values():
    t = make(A=DIAG_A)
    gamma = closed_form_connection(t)
    assert np.array_equal(gamma[2, 6], -DIAG_A[0, 0] * np.eye(7)[2])  # nabla_{e3}e7 = -a33 e3
    assert not np.any(gamma[6, 2])


def test_connection_matches_koszul_exactly():
    for kind in FamilyKind:
        for seed in range(5):
            t = generate(kind, 220 + seed)
            c, s = build(t)
            dev = np.max(np.abs(closed_form_connection(t) - levi_civita(c)))
            assert dev <= 1e-12, (kind, seed, dev)


def test_ricci_skew_is_zero():
    t = generate(FamilyKind.SKEW, 230)
    assert not np.any(closed_form_ricci(t))


def test_ricci_diagonal_structure():
    t = generate(FamilyKind.DIAGONAL, 231)
    ric = closed_form_ricci(t)
    assert not np.any(ric[2:6, 2:6])
    aa = ric[np.ix_([6, 0, 1], [6, 0, 1])]
    assert np.all(np.linalg.eigvalsh(aa) <= 1e-12)  # negative semidefinite Gram


def test_ricci_antidiagonal_example():
    # the curvature oracle fixes the a-block: -tr(S(C)^2) = -1/2 sits at e2
    t = make(C=e_matrix(3, 6))
    ric = closed_form_ricci(t)
    expected = np.zeros((7, 7))
    expected[2:6, 2:6] = 0.5 * np.diag([1.0, 0.0, 0.0, -1.0])
    expected[1, 1] = -0.5
    assert np.max(np.abs(ric - expected)) <= 1e-15
    c, s = build(t)
    oracle = ricci(c, levi_civita(c))
    assert np.max(np.abs(ric - oracle)) <= 1e-12


def test_generic_ricci_keeps_its_scale_at_small_scales():
    # at scale 1e-8 every entry of Ric is about 1e-16: nothing may be zeroed
    t = generate(FamilyKind.ANTIDIAGONAL, 3, 1e-8)
    c, _ = build(t)
    generic = ricci(c, levi_civita(c))
    closed = closed_form_ricci(t)
    assert np.any(generic)
    assert np.max(np.abs(generic - closed)) <= 1e-12 * np.max(np.abs(closed))


def test_ricci_matches_curvature_oracle():
    assert RICCI_A_BLOCK_ORDER == "(e7, e1, e2) <-> (A, B, C)"
    for kind in FamilyKind:
        for seed in range(5):
            t = generate(kind, 240 + seed)
            c, s = build(t)
            oracle = ricci(c, levi_civita(c))
            assert np.max(np.abs(closed_form_ricci(t) - oracle)) <= 1e-9


def test_divergence_closed_form_vanishes_for_families():
    for kind in (FamilyKind.SKEW, FamilyKind.DIAGONAL):
        t = generate(kind, 250)
        _, s = build(t)
        _, _, _, t3 = torsion_forms(s)
        div = closed_form_divergence(t, tau27_tensor(t3))
        assert not np.any(div)


def test_divergence_closed_form_matches_generic():
    from g2abc.g2core import full_torsion_from_forms
    from g2abc.riemann import div_torsion
    for seed in range(6):
        t = generate(FamilyKind.GENERAL, 260 + seed)
        c, s = build(t)
        t0, t1, t2, t3 = torsion_forms(s)
        tau27 = tau27_tensor(t3)
        T = full_torsion_from_forms(t0, t1, t2, tau27)
        generic = div_torsion(levi_civita(c), T)
        closed = closed_form_divergence(t, tau27)
        assert np.max(np.abs(generic - closed)) <= 1e-9
        assert np.all(closed[2:6] == 0.0) and np.all(generic[2:6] == 0.0)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_whole_stack_closed_forms_match_the_per_matrix_reference(scale):
    ulp = np.finfo(np.float64).eps
    t = generate_many(list(FamilyKind) * 8, 0, range(40), scale)
    tau27 = torsion_data(build(t)[1]).tau27
    top = lambda x: np.abs(x).max(axis=tuple(range(1, x.ndim)))  # per triple
    # every connection entry is a single term
    assert np.array_equal(closed_form_connection(t), closed_form_connection_reference(t))
    ric = closed_form_ricci_reference(t)
    assert np.all(top(closed_form_ricci(t) - ric) <= 4 * ulp * top(ric))
    # the divergence cancels to round-off on four families: measure it by its terms
    terms = top((np.abs(gabc._sym(t.abc)) * np.abs(tau27[:, None, 2:6, 2:6])).sum(axis=(-2, -1)))
    div = closed_form_divergence(t, tau27) - closed_form_divergence_reference(t, tau27)
    assert np.all(top(div) <= 2 * ulp * terms)


def test_closed_forms_of_a_triple_do_not_depend_on_its_stack():
    kinds = [*FamilyKind, FamilyKind.SYMMETRIC, FamilyKind.ANTIDIAGONAL]
    for scale in (1e-3, 1.0, 1e3):
        stack = generate_many(kinds, 0, range(7), scale)
        tau27 = torsion_data(build(stack)[1]).tau27
        connection, ric = closed_form_connection(stack), closed_form_ricci(stack)
        div = closed_form_divergence(stack, tau27)
        for n, t in enumerate(unstack(stack)):
            assert np.array_equal(closed_form_connection(t), connection[n])
            assert np.array_equal(closed_form_ricci(t), ric[n])
            assert np.array_equal(closed_form_divergence(t, tau27[n]), div[n])


def pass_residuals(t):
    """The raw residual of every gated quantity of the pass on the stack t, each
    recomputed here from the public stages and the blocks of the torsion tail, in the
    pass's order; T by nabla is the generic operator's block, as the pass reads it."""
    c, s = build(t)
    td = torsion_data(s)
    block = lambda name: td.tail[:, TAIL_COLUMNS[name]]
    gamma = levi_civita(c)
    div = div_torsion(gamma, td.T)
    iota = block("iota_tau1_phi")
    general = lambda part: product_columns(t, f"{part}[general]")  # as the pass reads it
    # the coefficients of the monomials outside a support
    outside = lambda form, support: form[:, [key not in support for key in COMBS[len(support[0])]]]
    tau3 = td.tau3
    return {
        **{name: tab.values - f for name, tab, f in zip(
            ("dphi", "star_dphi", "dpsi", "star_dpsi"), tabulated_derivatives(t),
            (s.dphi, s.dphi @ STAR[4].T, s.dpsi, s.dpsi @ STAR[5].T))},
        "tau1": general("tau1") - td.tau1,
        "tau2": general("tau2") - td.tau2,
        "iota_tau1_phi": general("iota_tau1_phi") - iota,
        **{name: block(name) for name in ("reconstruction_dphi", "reconstruction_dpsi",
                                          "tau2_type14", "tau3_type27_phi", "tau3_type27_psi")},
        "support_iota_tau1_phi": outside(iota, gabc.TWO_FORM_SUPPORT),
        "support_tau2": outside(td.tau2, gabc.TWO_FORM_SUPPORT),
        "support_tau3": outside(tau3, gabc.TAU3_SUPPORT),
        "tau27_mixed_block": td.tau27[:, [6, 0, 1], 2:6],
        "torsion_routes": td.T - product_columns(t, "T_nabla").reshape(td.T.shape),
        "connection": closed_form_connection(t) - gamma,
        "ricci": closed_form_ricci(t) - ricci(c, gamma),
        "divergence": closed_form_divergence(t, td.tau27) - div,
        "divergence_free": div,
        "tau27_diagonal_nn": td.tau27[:, range(2, 6), range(2, 6)],
        "support_tau3_diagonal": outside(tau3, gabc.TAU3_SUPPORT_DIAGONAL),
        "tau27_antidiagonal_pairs": td.tau27[:, range(2, 6), range(5, 1, -1)],
        "support_tau3_antidiagonal": outside(tau3, gabc.TAU3_SUPPORT_ANTIDIAGONAL),
    }


def test_each_deviation_is_the_largest_magnitude_of_its_own_residual():
    t = stack_of(mixed_triples(5, 3))
    arrays = cross_validate_stack(t)
    residuals = pass_residuals(t)
    assert arrays.quantities == tuple(residuals) and len(residuals) == 25
    for q, (name, residual) in enumerate(residuals.items()):
        expected = np.abs(residual).reshape(len(residual), -1).max(axis=1)
        assert np.array_equal(arrays.deviations[:, q], expected), name


def test_every_compared_column_gates_or_is_dual_reported_on_some_family(monkeypatch):
    # one triple per family; each column of the tabulated layout moved by 1 in turn.  The
    # pass reads the live columns of its product through the operator's live-column map; it
    # gets the full operator's product here, all 2090 columns and one zero column, with the
    # layout of that full product, so that each column moves alone.  The last 343 of the
    # tabulated half are the closed-form connection's
    t = stack_of(mixed_triples(9, 1))
    values = with_zero_column(_vecmat(t.abc.reshape(-1, 48), full_operator()))
    reference = cross_validate_stack(t)
    use_layout(monkeypatch, *full_layout(values))
    product = [values]  # what the pass's product of the entries gives
    monkeypatch.setattr(gabc, "_vecmat", lambda x, m: product[0] if m is gabc._OPERATOR
                        else _vecmat(x, m))
    unmoved = cross_validate_stack(t)
    assert np.array_equal(unmoved.deviations, reference.deviations)
    assert all(np.array_equal(x, y) for x, y in zip(unmoved.dual_reports, reference.dual_reports))
    labels = gabc._column_labels() + [("connection", k) for k in range(DIM ** 3)]
    seen = []
    for column in range(len(labels)):
        product[0] = values.copy()
        product[0][:, column] += 1.0
        arrays = cross_validate_stack(t)
        gated = not np.array_equal(arrays.deviations[arrays.applies],
                                   reference.deviations[reference.applies])
        reported = column in arrays.dual_reports[1].tolist()
        if column < N_COMPARED:
            assert gated or reported, labels[column]
        seen.append(gated or reported or not all(
            np.array_equal(x, y) for x, y in zip(arrays.dual_reports, reference.dual_reports)))
    # every column is read: the compared ones, the definitional theta as their oracles, and
    # the closed-form connection, dead columns too, as the gated connection
    assert [labels[column] for column, read in enumerate(seen) if not read] == []
    assert N_COMPARED == 641 - 63 and len(labels) == 830 - 63 + DIM ** 3


def same_bits(x, y):
    """Whether x and y are equal, arrays bit for bit (dtype, shape, signs of zero), dicts,
    lists and tuples item by item."""
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same_bits(x[key], y[key]) for key in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(map(same_bits, x, y))
    return x == y


def test_a_pass_does_not_depend_on_the_order_of_its_sources(monkeypatch):
    # the pass builds its arrays by name and reads them where _pass_layout puts them, so
    # with _SOURCES reversed every array of a mixed pass is the same, signs of zero included
    kinds = list(FamilyKind) * 3
    stacks = [generate_many(kinds, 11, range(len(kinds)), scale) for scale in (1e-3, 1.0, 1e3)]
    runs, reads = [], gabc._PAIRS
    for order in (list, reversed):
        runs.append([])
        use_layout(monkeypatch, dict(order(gabc._SOURCES.items())), gabc._LIVE_AT)
        for t in stacks:
            arrays = cross_validate_stack(t)
            runs[-1].append({**arrays._asdict(), "flags": arrays.flags, "passed": arrays.passed()})
        assert any(len(run["dual_reports"][0]) for run in runs[-1])
    # reversed, every column the pass reads is elsewhere in its concatenation
    assert list(gabc._SOURCES)[0] == "div"
    assert (reads != gabc._PAIRS).all()
    assert same_bits(*runs)


def test_dual_report_mask_is_the_shape_pattern_table_s_on_every_shape_pattern():
    # the (16, 578) table of masks by shape pattern that a pass used to read, recomputed:
    # per compared column of the layout whether any triple dual-reports it, and the column
    # of _shapes that picks those that do
    widths = [gabc._WIDTHS[formula] for formula, *_ in gabc._BLOCKS]
    reported = np.repeat([kind is not None for *_, kind, _ in gabc._BLOCKS], widths)[:N_COMPARED]
    reported_on = np.repeat([gabc._FAMILIES.index(kind or FamilyKind.GENERAL)
                             for *_, kind, _ in gabc._BLOCKS], widths)[:N_COMPARED]
    bits = 1 << np.arange(4)
    pattern_shapes = np.c_[(np.arange(16)[:, None] & bits) > 0, np.ones(16, dtype=bool)]
    table = pattern_shapes[:, reported_on] & reported
    left_out = np.setdiff1d(np.arange(N_COMPARED), gabc._REPORTED)
    gated_only = np.concatenate([np.arange(N_COMPARED)[gabc._COLUMNS[f]] for f in GATED_ONLY])
    for pattern, shapes in enumerate(pattern_shapes):
        # the pass's mask is one gather of the triple's shapes on the columns it compares
        assert np.array_equal(shapes[gabc._REPORTED_ON], table[pattern, gabc._REPORTED]), pattern
        # of the others, the table masks no gated-only column, and only dead ones, which the
        # pass leaves out as pairs of two zero columns that read 0 on every triple
        assert not table[pattern, gated_only].any()
        masked = left_out[table[pattern, left_out]]
        assert np.all(gabc._LIVE_AT[masked] == gabc._SOURCES["product"] - 1), pattern


def test_a_verify_request_computes_no_flags(monkeypatch, capsys):
    def flags(td, tol):
        raise AssertionError("a verify request computed the torsion flags")
    monkeypatch.setattr(gabc, "_flags", flags)
    assert cli.main(["verify", "--case", "all", "--trials", "3", "--seed", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


def test_flags_are_those_of_the_torsion_forms_of_the_pass():
    t = stack_of(mixed_triples(3, 2) + [make()])  # the zero triple is torsion-free
    seen = set()
    for tol in (1e-9, 0.05, 0.5):
        arrays = cross_validate_stack(t, tol)
        forms = SimpleNamespace(**{name: getattr(arrays, name)
                                   for name in ("tau0", "tau1", "tau2", "tau3")})
        expected = g2core._flags(forms, tol).T
        assert np.array_equal(arrays.flags, expected)
        assert [list(vars(rep.flags).values()) for rep in arrays.reports()] == expected.tolist()
        seen.update(map(tuple, expected.tolist()))
    assert len(seen) > 2


def test_a_nan_residual_fails_only_its_quantity_and_triple(monkeypatch):
    t = stack_of(mixed_triples(6, 2))
    reference = cross_validate_stack(t)
    assert reference.passed().all()
    ricci_fn = gabc.closed_form_ricci

    def nan_for_triple_3(t):
        ric = ricci_fn(t)
        ric[3, 4, 5] = np.nan
        return ric

    monkeypatch.setattr(gabc, "closed_form_ricci", nan_for_triple_3)
    arrays = cross_validate_stack(t)
    q = arrays.quantities.index("ricci")
    assert np.isnan(arrays.deviations[3, q])
    moved = np.zeros(arrays.deviations.shape, dtype=bool)
    moved[3, q] = True
    assert np.array_equal(arrays.deviations[~moved], reference.deviations[~moved])
    assert arrays.passed().tolist() == [n != 3 for n in range(len(t.abc))]


def test_cross_validate_makes_no_wedge_or_contract_call(monkeypatch):
    # every product with phi or psi in a pass is one of g2core's matrices
    cross_validate(generate(FamilyKind.GENERAL, 0))  # builds the tabulated operator
    calls = count_calls(monkeypatch, exterior, ("wedge",))
    monkeypatch.setattr(gabc, "wedge", exterior.wedge)
    for label, run in one_pass_runs():
        run()
        assert not calls, label


def test_a_pass_builds_the_same_few_forms_whatever_its_size(monkeypatch):
    # the stages pass coefficient arrays; the Forms are the two results of ce_diff,
    # the differentials of phi and psi
    cross_validate(generate(FamilyKind.GENERAL, 0))  # builds the tabulated operator
    stacks = {n: generate_many([list(FamilyKind)[k % 5] for k in range(n)], 0, range(n))
              for n in (1, 4, 32)}
    built = Counter()
    init = exterior.Form.__init__

    def counted(form, *args):
        built["Form"] += 1
        init(form, *args)

    monkeypatch.setattr(exterior.Form, "__init__", counted)
    counts = {}
    for n, stack in stacks.items():
        built.clear()
        cross_validate_stack(stack)
        counts[n] = built["Form"]
    assert counts == {1: 2, 4: 2, 32: 2}, counts


# -- generators ----------------------------------------------------------------------

def test_generate_skew_is_exactly_skew():
    t = generate(FamilyKind.SKEW, 270)
    for m in t.matrices():
        assert np.array_equal(m, -m.T)
        assert np.max(np.abs(t.A @ m - m @ t.A)) <= 1e-12


def test_generate_antidiagonal_shape_exact():
    t = generate(FamilyKind.ANTIDIAGONAL, 271)
    mask = np.ones((4, 4), dtype=bool)
    for slot in ((0, 3), (1, 2), (2, 1), (3, 0)):
        mask[slot] = False
    for m in t.matrices():
        assert np.all(m[mask] == 0.0)


def test_generate_symmetric_is_exactly_symmetric():
    t = generate(FamilyKind.SYMMETRIC, 272)
    for m in t.matrices():
        assert np.array_equal(m, m.T)


def test_generate_general_commutes():
    t = generate(FamilyKind.GENERAL, 273)
    A, B, C = t.matrices()
    assert np.max(np.abs(A @ B - B @ A)) <= 1e-10


def test_generate_is_deterministic():
    t1 = generate(FamilyKind.GENERAL, 274)
    t2 = generate(FamilyKind.GENERAL, 274)
    assert all(np.array_equal(x, y) for x, y in zip(t1.matrices(), t2.matrices()))


def test_generate_scale_bounds_entries():
    t = generate(FamilyKind.DIAGONAL, 275, scale=0.5)
    # the exact-traceless fourth entry may exceed the draw range, nothing else
    for m in t.matrices():
        assert np.max(np.abs(np.diag(m)[:3])) <= 0.5
    # so the diagonal and symmetric families reach up to 3 scale; the others
    # stay within scale, up to a rounding
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        for kind in FamilyKind:
            top = np.abs(generate_many(kind, 0, range(500), scale).abc).max()
            if kind in (FamilyKind.DIAGONAL, FamilyKind.SYMMETRIC):
                assert scale < top <= 3 * scale, (kind, scale)
            else:
                assert top <= (1 + 4 * np.finfo(np.float64).eps) * scale, (kind, scale)


# -- the cross-validator ----------------------------------------------------------------

def test_cross_validate_abelian_all_zero():
    rep = cross_validate(make())
    assert rep.passed
    assert max(rep.deviations.values()) == 0.0
    assert rep.flags.torsion_free
    assert not rep.dual_reports


def test_cross_validate_passes_per_family():
    for kind in FamilyKind:
        rep = cross_validate(generate(kind, 280))
        worst = max(rep.deviations, key=rep.deviations.get)
        assert rep.passed, (kind, worst, rep.deviations[worst])
        assert max(rep.deviations.values()) <= 1e-12


def test_cross_validate_diag_example_report():
    rep = cross_validate(make(A=DIAG_A))
    assert rep.passed
    assert rep.flags.closed
    assert not np.any(rep.divergence)
    assert Form(2, rep.tau2).coeffs == {(3, 4): -2.0, (5, 6): 2.0}


def test_cross_validate_dual_reports_are_the_documented_misprints():
    labels = set()
    for kind in FamilyKind:
        for seed in range(8):
            rep = cross_validate(generate(kind, 290 + seed))
            labels |= {(r.formula.split("[")[0], r.component) for r in rep.dual_reports}
    assert labels <= {
        ("tau0", ""),
        ("tau2", "e34"), ("tau2", "e46"), ("tau2", "e56"),
        ("tau3", "e134"), ("tau3", "e136"),
        ("theta_omega1", "e35"), ("theta_omega2", "e46"),
    }
    # the tau0 a-slot misprint must actually be detected on general triples
    assert ("tau0", "") in labels


def count_calls(monkeypatch, module, names):
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def mixed_triples(seed, trials):
    """`trials` triples of every family, family-major."""
    return [t for kind in FamilyKind
            for t in unstack(generate_many(kind, seed, range(trials)))]


def one_pass_runs():
    """(label, run): cross_validate of one triple per family, then the reports
    of cross_validate_stack over 5 and over 15 mixed-family triples."""
    for kind in FamilyKind:
        yield kind.value, lambda kind=kind: cross_validate(generate(kind, 0))
    for trials in (1, 3):
        yield f"mixed pass of {5 * trials}", \
            lambda trials=trials: cross_validate_stack(stack_of(mixed_triples(1, trials))).reports()


def test_cross_validate_evaluates_each_theta_map_once(monkeypatch):
    # the formula text runs once per process, at import, to build the tabulated operator;
    # no pass evaluates it again or rebuilds the operator, the first one neither
    calls = count_calls(monkeypatch, gabc, (
        "theta", "theta_omega_tabulated", "_torsion_general", "_torsion_skew",
        "_torsion_diagonal", "_torsion_antidiagonal", "_text_values", "_operator"))
    for label, run in one_pass_runs():
        run()
        assert not calls, label


def test_a_pass_builds_no_layout_after_a_warm_up(monkeypatch):
    # the gather of the gated residuals, its reduceat starts and the applies rows
    # are built once at import: a pass looks up no support mask and sums no widths
    stacks = [generate(kind, 0) for kind in FamilyKind]
    stacks += [stack_of(mixed_triples(1, trials)) for trials in (1, 3)]
    cross_validate_stack(stacks[0])
    calls = Counter()
    for module, name in ((gabc, "_off_support"), (np, "cumsum"), (np, "hstack")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    for stack in stacks:
        cross_validate_stack(stack).reports()
        assert not calls, len(stack.abc)


def test_a_pass_draws_no_per_trial_generator_after_a_warm_up(monkeypatch):
    # a stack of every family keys one Philox stream, and the draws and the pass make no
    # SeedSequence, default_rng, QR or determinant
    kinds = [kind for kind in FamilyKind for _ in range(4)]
    trials = [k for _ in FamilyKind for k in range(4)]
    cross_validate_stack(generate_many(kinds, 0, trials))
    calls = Counter()
    for module, name in ((np.random, "SeedSequence"), (np.random, "default_rng"),
                         (np.random, "Philox"), (np.linalg, "qr"), (np.linalg, "det")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    for seed in range(3):
        cross_validate_stack(generate_many(kinds, seed, trials)).reports()
    assert calls == {"Philox": 3}


def test_a_pass_constructs_no_algebra_and_checks_no_jacobi_identity(monkeypatch, capsys):
    # TripleABC's checks bound the Jacobi residual of g_{A,B,C} already, so a pass
    # takes the structure constants as they are; ce_diff is differentiated under
    # every name the package binds it by, as a tracer of liealg.ce_diff sees it
    calls = Counter()
    for name in ("_jacobi_residuals", "ce_diff"):
        def counted(*args, _name=name, _fn=getattr(liealg, name)):
            calls[_name] += 1
            return _fn(*args)
        for module in (liealg, g2core, gabc):
            if name in vars(module):
                monkeypatch.setattr(module, name, counted)
    init = liealg.LieAlgebra7.__init__

    def constructed(self, c):
        calls["LieAlgebra7"] += 1
        init(self, c)
    monkeypatch.setattr(liealg.LieAlgebra7, "__init__", constructed)
    for label, run in one_pass_runs():
        calls.clear()
        run()
        assert calls == {"ce_diff": 2}, label
    calls.clear()  # 35 triples in passes of 32 and 3
    assert cli.main(["verify", "--case", "all", "--trials", "7", "--seed", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] and calls == {"ce_diff": 4}


def test_a_pass_contracts_no_constant_form(monkeypatch):
    # phi and psi keep their contractions and, from import on, the operators of their
    # ce_diff, so ce_diff reaches them without contracting or building again
    for form in (g2core.STANDARD_PHI, g2core.STANDARD_PSI):
        assert contractions(form) is contractions(form) and not contractions(form).flags.writeable
        assert form._ce is not None and liealg._ce_operator(form) is form._ce
        assert not form._ce.flags.writeable
    contracted = count_calls(monkeypatch, exterior, ("_iota_rows",))
    rows_read = count_calls(monkeypatch, liealg, ("contractions",))  # what a build would read
    differentiated = count_calls(monkeypatch, liealg, ("ce_diff",))
    for module in (g2core, gabc):  # the same counter under every name
        monkeypatch.setattr(module, "ce_diff", liealg.ce_diff)
    for label, run in one_pass_runs():
        differentiated.clear()
        run()
        assert not contracted and not rows_read and differentiated == {"ce_diff": 2}, label


def test_cross_validate_differentiates_phi_and_psi_once(monkeypatch):
    calls = count_calls(monkeypatch, g2core, ("ce_diff",))
    monkeypatch.setattr(gabc, "ce_diff", g2core.ce_diff)  # same counter under gabc's name
    for label, run in one_pass_runs():
        calls.clear()
        run()
        assert calls == {"ce_diff": 2}, label


def test_cross_validate_evaluates_each_shape_predicate_once_per_pass(monkeypatch):
    # the family labels and the family tables' dual reports share the pass's shape masks,
    # computed once by one gather of the entries
    triples = mixed_triples(2, 2)
    calls = count_calls(monkeypatch, gabc, ("_shapes",))
    reports = cross_validate_stack(stack_of(triples)).reports()
    assert {rep.family for rep in reports} == {kind.value for kind in FamilyKind}
    assert calls == {"_shapes": 1}
    # the gather gives the shapes of the per-matrix predicates: on every family, on the
    # triples of several shapes, on the zero triple, with -0.0 for some zeros, and with
    # each entry of each triple moved in turn
    several = [ZERO4, np.diag([1.0, 2.0, -1.0, -2.0]), np.fliplr(np.diag([1.0, 2.0, 2.0, 1.0])),
               np.fliplr(np.diag([1.0, 2.0, -2.0, -1.0]))]
    abc = np.array([t.abc for t in triples] + [make(A=A).abc for A in several])
    signed = np.where(np.random.default_rng(0).random(abc.shape) < 0.5, -abc, abc)
    assert np.signbit(signed[signed == 0.0]).any()
    moved = np.repeat(abc, 48, axis=0).reshape(-1, 48)
    moved[np.arange(len(moved)), np.tile(np.arange(48), len(abc))] += 0.5
    for x in (abc, signed, moved.reshape(-1, 3, 4, 4), abc[-4]):
        assert np.array_equal(gabc._shapes(x), shapes_reference(x))


def test_cross_validate_stars_dphi_and_dpsi_once_per_pass(monkeypatch):
    # every star of g2core is a product x @ STAR[k].T: record each x.  A pass takes the
    # stars of dphi and dpsi from the torsion tail instead, with no product with STAR
    derivatives, starred = [], []
    ce_diff_fn = g2core.ce_diff

    def recorded(*args):
        derivatives.append(ce_diff_fn(*args))
        return derivatives[-1]

    class Star:
        """Stands for STAR[k].T on the right of @; records the left factor."""
        __array_ufunc__ = None  # x @ Star(...) defers to __rmatmul__

        def __init__(self, op):
            self.op = op

        def __rmatmul__(self, x):
            starred.append(x)
            return x @ self.op

    for module in (g2core, gabc):  # under every name the package binds it by
        monkeypatch.setattr(module, "ce_diff", recorded)
    stars = {k: SimpleNamespace(T=Star(op.T)) for k, op in STAR.items()}
    monkeypatch.setattr(g2core, "STAR", stars)
    for label, run in one_pass_runs():
        derivatives.clear()
        starred.clear()
        run()
        assert len(derivatives) == 2 and not starred, label
    # STAR[4] and STAR[5] are signed permutations, so the tail's stars are bit for bit
    monkeypatch.undo()
    _, s = build(stack_of(mixed_triples(1, 3)))
    tail = torsion_data(s).tail
    assert np.array_equal(tail[:, TAIL_COLUMNS["star_dphi"]], s.dphi @ STAR[4].T)
    assert np.array_equal(tail[:, TAIL_COLUMNS["star_dpsi"]], s.dpsi @ STAR[5].T)


def assert_same_report(a, b, tol=1e-13):
    assert (a.family, a.flags, a.exact_checks, a.passed) == \
        (b.family, b.flags, b.exact_checks, b.passed)
    assert list(a.deviations) == list(b.deviations)
    for key, value in a.deviations.items():
        assert abs(value - b.deviations[key]) <= tol, key
    assert abs(a.tau0 - b.tau0) <= tol
    for x, y in ((a.tau1, b.tau1), (a.tau2, b.tau2), (a.tau3, b.tau3),
                 (a.torsion_matrix, b.torsion_matrix), (a.ricci_matrix, b.ricci_matrix),
                 (a.divergence, b.divergence)):
        assert np.max(np.abs(x - y)) <= tol
    assert [(r.formula, r.component) for r in a.dual_reports] == \
        [(r.formula, r.component) for r in b.dual_reports]
    for r, q in zip(a.dual_reports, b.dual_reports):
        assert abs(r.tabulated - q.tabulated) <= tol and abs(r.computed - q.computed) <= tol


def test_cross_validate_stack_is_one_pass_that_matches_cross_validate_one_at_a_time(
        monkeypatch):
    triples = mixed_triples(7, 8)  # 40 triples, more than the command line puts in a pass
    assert len(triples) > cli.PASS_SIZE
    calls = count_calls(monkeypatch, g2core, ("ce_diff",))
    monkeypatch.setattr(gabc, "ce_diff", g2core.ce_diff)  # same counter under gabc's name
    arrays = cross_validate_stack(stack_of(triples))
    assert isinstance(arrays, gabc.CrossValidationArrays)
    assert calls == {"ce_diff": 2}
    reports = arrays.reports()
    assert len(reports) == len(triples)
    for t, rep in zip(triples, reports):
        assert_same_report(cross_validate(t), rep, tol=0.0)
    assert {rep.family for rep in reports} == {kind.value for kind in FamilyKind}
    assert any(rep.dual_reports for rep in reports)


def test_cross_validate_stack_does_not_depend_on_order_or_pass_size(monkeypatch):
    triples = mixed_triples(8, 3)
    reference = cross_validate_stack(stack_of(triples)).reports()
    order = np.random.default_rng(3).permutation(len(triples))
    shuffled = cross_validate_stack(stack_of([triples[i] for i in order])).reports()
    for i, rep in zip(order, shuffled):
        assert_same_report(reference[i], rep)
    # 15 triples in passes of at most 4: four passes, two CE differentials each
    calls = count_calls(monkeypatch, g2core, ("ce_diff",))
    monkeypatch.setattr(gabc, "ce_diff", g2core.ce_diff)  # same counter under gabc's name
    in_passes = [rep for start in range(0, len(triples), 4)
                 for rep in cross_validate_stack(stack_of(triples[start:start + 4])).reports()]
    for ref, rep in zip(reference, in_passes, strict=True):
        assert_same_report(ref, rep)
    assert calls == {"ce_diff": 8}


def test_cross_validate_stack_takes_a_single_triple_as_a_stack_of_one():
    t = generate(FamilyKind.GENERAL, 0)
    arrays = cross_validate_stack(t)
    assert arrays.deviations.shape[0] == 1
    (rep,) = arrays.reports()
    assert_same_report(cross_validate(t), rep, tol=0.0)


def test_records_with_array_fields_compare_and_hash_by_identity():
    t = generate(FamilyKind.SKEW, 0)
    td = torsion_data(build(t)[1])
    records = [t, td, closed_form_torsion(t, FamilyKind.SKEW), cross_validate(t)]
    twins = [generate(FamilyKind.SKEW, 0), torsion_data(build(t)[1]),
             closed_form_torsion(t, FamilyKind.SKEW), cross_validate(t)]
    for record, twin in zip(records, twins):
        assert record == record and record != twin, type(record)
    assert len(set(records + twins)) == len(records) + len(twins)


def test_cross_validate_divergence_free_key_for_families():
    rep = cross_validate(generate(FamilyKind.ANTIDIAGONAL, 300))
    assert "divergence_free" in rep.deviations
    assert rep.deviations["divergence_free"] <= 1e-12
    rep_gen = cross_validate(generate(FamilyKind.GENERAL, 300))
    assert "divergence_free" not in rep_gen.deviations


# -- the fundamental 2-forms ---------------------------------------------------------------

def star_n(eta):
    """Hodge star of the 4-dim ideal span{e3..e6}: star_n(eta) = star(eta ^ e127)."""
    return hodge(wedge(eta, Form.monomial((1, 2, 7))))


def test_omega_lemma_i_and_ii_decompositions():
    e7, e1, e2 = Form.monomial((7,)), Form.monomial((1,)), Form.monomial((2,))
    phi = (Form.monomial((1, 2, 7)) + wedge(OMEGA[7], e7)
           + wedge(OMEGA[1], e1) + wedge(OMEGA[2], e2))
    assert (phi - STANDARD_PHI).is_zero()
    psi = (Form.monomial((3, 4, 5, 6)) + wedge(OMEGA[7], Form.monomial((1, 2)))
           + wedge(OMEGA[1], Form.monomial((2, 7)))
           - wedge(OMEGA[2], Form.monomial((1, 7))))
    assert (psi - STANDARD_PSI).is_zero()


def test_omega_lemma_iii_self_duality():
    for i in (7, 1, 2):
        assert (star_n(OMEGA[i]) - OMEGA[i]).is_zero()
        assert (star_n(OMEGA_BAR[i]) + OMEGA_BAR[i]).is_zero()


def test_omega_lemma_iv_and_v_wedge_table():
    top = Form.monomial((3, 4, 5, 6))
    for i in (7, 1, 2):
        for j in (7, 1, 2):
            if i == j:
                assert (wedge(OMEGA[i], OMEGA[j]) - 2.0 * top).is_zero()
                assert (wedge(OMEGA_BAR[i], OMEGA_BAR[j]) + 2.0 * top).is_zero()
            else:
                assert wedge(OMEGA[i], OMEGA[j]).is_zero()
                assert wedge(OMEGA[i], OMEGA_BAR[j]).is_zero()
                assert wedge(OMEGA_BAR[i], OMEGA_BAR[j]).is_zero()


def test_omega_lemma_vi_basis_change():
    half = 0.5
    table = {
        (3, 4): half * (OMEGA_BAR[7] + OMEGA[7]),
        (3, 5): half * (OMEGA_BAR[1] + OMEGA[1]),
        (3, 6): -half * (OMEGA_BAR[2] + OMEGA[2]),
        (4, 5): half * (OMEGA_BAR[2] - OMEGA[2]),
        (4, 6): half * (OMEGA_BAR[1] - OMEGA[1]),
        (5, 6): -half * (OMEGA_BAR[7] - OMEGA[7]),
    }
    for key, expected in table.items():
        assert (Form.monomial(key) - expected).is_zero(), key


def test_omega_lemma_vii_orthogonal_basis_of_norm_sqrt2():
    basis = [OMEGA_BAR[7], OMEGA_BAR[1], OMEGA_BAR[2], OMEGA[7], OMEGA[1], OMEGA[2]]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            expected = 2.0 if i == j else 0.0
            assert form_inner(x, y) == expected


# -- support patterns ----------------------------------------------------------------------

def test_torsion_support_patterns():
    from g2abc.gabc import TAU3_SUPPORT, TWO_FORM_SUPPORT
    for seed in range(5):
        t = generate(FamilyKind.GENERAL, 310 + seed)
        _, s = build(t)
        _, t1, t2, t3 = torsion_forms(s)
        iota = Form(2, t1 @ contractions(s.phi))
        assert set(iota.coeffs) <= set(TWO_FORM_SUPPORT)
        assert set(Form(2, t2).coeffs) <= set(TWO_FORM_SUPPORT)
        assert set(Form(3, t3).coeffs) <= set(TAU3_SUPPORT)


def test_diag_tau2_misprint_detected_when_b55_nonzero():
    t = make(B=np.diag([1.0, 2.0, 3.0, -6.0]))
    rep = cross_validate(t)
    hits = {(r.formula, r.component) for r in rep.dual_reports}
    assert ("tau2[diagonal]", "e46") in hits
    # tabulated -(b33 - b55) = 2 vs computed -(b33 + b55) = -4
    entry = next(r for r in rep.dual_reports if r.formula == "tau2[diagonal]")
    assert abs(entry.tabulated - 2.0) <= 1e-12 and abs(entry.computed - (-4.0)) <= 1e-12


def test_adiag_tau2_misprints_detected():
    B = np.zeros((4, 4))
    B[0, 3] = 1.0   # b36
    B[2, 1] = 0.5   # b54
    t = make(B=B)
    rep = cross_validate(t)
    hits = {(r.formula, r.component) for r in rep.dual_reports}
    assert ("tau2[antidiagonal]", "e34") in hits


def test_skew_tau0_misprint_detected():
    t = make(A=e_matrix(4, 6) - e_matrix(6, 4))
    rep = cross_validate(t)
    hits = {r.formula for r in rep.dual_reports}
    assert "tau0[skew]" in hits and "tau0[general]" in hits
