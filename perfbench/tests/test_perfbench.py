"""Tests of the benchmark itself: inputs, correctness checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import hostspeed
import tracing
import workloads
from g2abc import cli, exterior, gabc, g2core, liealg

ROOT = Path(__file__).resolve().parents[2]
TOL = workloads.TOL


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0
    return json.loads(out.getvalue())


# -- inputs -------------------------------------------------------------------

def test_analyze_triples_are_deterministic_in_the_seed():
    first = workloads.analyze_triples(7, 5)
    again = workloads.analyze_triples(7, 5)
    other = workloads.analyze_triples(8, 5)
    for a, b in zip(first, again):
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
    assert not np.array_equal(first[0][0], other[0][0])


def test_verify_requests_are_deterministic_in_the_seed(tmp_path):
    for workload in ("campaign", "sparse_families"):
        assert workloads.cycle(workload, 3, tmp_path) == workloads.cycle(workload, 3, tmp_path)
        assert workloads.cycle(workload, 3, tmp_path) != workloads.cycle(workload, 4, tmp_path)


def test_analyze_triples_are_traceless_commuting_and_in_range():
    lo, hi = workloads.SCALE_RANGE
    for triple in workloads.analyze_triples(11, 40):
        scale = max(float(np.max(np.abs(m))) for m in triple)
        assert lo <= scale <= hi
        for m in triple:
            assert abs(np.trace(m)) <= 1e-13 * scale
        for x, y in ((0, 1), (0, 2), (1, 2)):
            comm = triple[x] @ triple[y] - triple[y] @ triple[x]
            assert np.max(np.abs(comm)) <= 1e-13 * scale**2
        t = gabc.TripleABC(*triple)
        assert gabc.classify_triple(t) is gabc.FamilyKind.GENERAL


def test_cycle_rejects_an_unknown_workload(tmp_path):
    with pytest.raises(ValueError):
        workloads.cycle("nope", 0, tmp_path)


# -- the benchmark's own Ricci computation ----------------------------------------

def test_ricci_of_a_single_symmetric_matrix():
    # [e7, v] = A v with A symmetric: Ric(e7, e7) = -tr(A^2), every other entry 0
    A = np.diag([1.0, 2.0, -1.0, -2.0])
    Z = np.zeros((4, 4))
    expected = np.zeros((7, 7))
    expected[6, 6] = -10.0
    assert np.allclose(checks.ricci_matrix(A, Z, Z), expected, atol=1e-14)


def test_ricci_of_a_single_skew_matrix_is_flat():
    # A skew: the metric is flat
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0], A[2, 3], A[3, 2] = -1.0, 1.0, -2.0, 2.0
    Z = np.zeros((4, 4))
    assert np.allclose(checks.ricci_matrix(A, Z, Z), 0.0, atol=1e-14)


# -- each check rejects a corrupted output ------------------------------------------

@pytest.fixture(scope="module")
def analyze_case(tmp_path_factory):
    triple = workloads.analyze_triples(5, 1)[0]
    path = tmp_path_factory.mktemp("in") / "t.json"
    workloads.write_triple(path, triple)
    report = run_cli(["analyze", "--input", str(path), "--tol", repr(TOL), "--json"])
    return triple, report


@pytest.fixture(scope="module")
def campaign_report():
    return run_cli(["verify", "--case", "all", "--trials", "1", "--seed", "2",
                    "--tol", repr(TOL), "--json"])


def test_analyze_check_accepts_the_program_output(analyze_case):
    triple, report = analyze_case
    assert checks.check_analyze(report, triple, TOL) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r["ricci"][6].__setitem__(6, r["ricci"][6][6] * (1 + 1e-6)),
    lambda r: r["ricci"][2].__setitem__(3, r["ricci"][2][3] + 1e-6),
    lambda r: r.__setitem__("passed", False),
    lambda r: r.__setitem__("tau0", r["tau0"] * 1.001 + 1e-9),
    lambda r: r["torsion_matrix"][0].__setitem__(0, r["torsion_matrix"][0][0] + 1e-6),
    lambda r: r.__setitem__("family", "symmetric"),
    lambda r: r["input"]["B"][0].__setitem__(0, r["input"]["B"][0][0] + 1.0),
    lambda r: r.pop("ricci"),
])
def test_analyze_check_rejects_a_corrupted_output(analyze_case, corrupt):
    triple, report = analyze_case
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert checks.check_analyze(bad, triple, TOL)


def test_verify_check_accepts_the_program_output(campaign_report):
    assert checks.check_verify(campaign_report, workloads.ALL_CASES, 1, TOL) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r.__setitem__("passed", False),
    lambda r: r.__setitem__("failing_trials", 1),
    lambda r: r["cases"].pop("adiag"),
    lambda r: r["cases"]["sym"].__setitem__("trials", 0),
    lambda r: r["worst_deviations"].__setitem__("divergence_free", 1e-3),
    lambda r: r["worst_deviations"].pop("divergence_free"),
    lambda r: r["worst_deviations"].__setitem__("ricci", 1e-6),
    lambda r: r.__setitem__("dual_reports", [d for d in r["dual_reports"]
                                             if d["formula"] != "tau0[general]"]),
])
def test_verify_check_rejects_a_corrupted_output(campaign_report, corrupt):
    bad = copy.deepcopy(campaign_report)
    corrupt(bad)
    assert checks.check_verify(bad, workloads.ALL_CASES, 1, TOL)


# -- tracing --------------------------------------------------------------------------

def _bindings():
    mods = [m for name, m in sys.modules.items() if name == "g2abc" or name.startswith("g2abc.")]
    snapshot = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snapshot["Form.__init__"] = exterior.Form.__init__
    snapshot["LieAlgebra7.__init__"] = liealg.LieAlgebra7.__init__
    return snapshot


def _traced_verify(case):
    tracer = tracing.Tracer()
    with tracer.installed():
        assert gabc.ce_diff is g2core.ce_diff is liealg.ce_diff
        assert liealg.ce_diff.__wrapped__ is not None
        run_cli(["verify", "--case", case, "--trials", "2", "--seed", "9", "--json"])
    return tracer


def test_wrappers_are_installed_under_every_name_and_removed():
    before = _bindings()
    original = liealg.ce_diff
    tracer = _traced_verify("diag")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert liealg.ce_diff is original and not hasattr(original, "__wrapped__")
    assert tracer.totals()["liealg.ce_diff"][0] > 0


def test_wrappers_are_removed_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_exactly():
    first, second = _traced_verify("general"), _traced_verify("general")
    counts = lambda t: {k: c for k, (c, _) in t.totals().items()}
    assert counts(first) == counts(second)
    assert first.forms_created == second.forms_created > 0


def test_self_time_excludes_child_spans():
    tracer = _traced_verify("adiag")
    label, parent, start, end = tracer._arrays()
    self_total = sum(ns for _, ns in tracer.totals().values())
    roots = parent < 0
    assert self_total == pytest.approx(float(np.sum(end[roots] - start[roots])))


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.per_layer_units())
    tracer = _traced_verify("sym")
    metrics = tracer.metrics(2)
    assert set(metrics) == set(tracing.per_layer_units()) - {tracing.TABLES_BUILD, tracing.OVERHEAD}


# -- host speed ----------------------------------------------------------------------

def test_slowness_is_one_at_the_reference_speed_and_scales_linearly():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.slowness(ref, ref) == 1.0
    assert hostspeed.slowness(ref, 3 * ref) == 2.0


def test_kernel_computes_the_same_value_every_time():
    assert hostspeed.kernel() == hostspeed.kernel()
    assert hostspeed.kernel_seconds() > 0.0
