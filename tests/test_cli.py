import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from g2abc import cli, gabc
from g2abc.cli import main

from helpers import python_dash_m_env

ZERO = [[0.0] * 4 for _ in range(4)]
DIAG_A = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, -1.0]]


def write_triple(path, A=ZERO, B=ZERO, C=ZERO):
    path.write_text(json.dumps({"A": A, "B": B, "C": C}))
    return str(path)


# -- analyze -----------------------------------------------------------------

def test_analyze_zero_triple_torsion_free(tmp_path, capsys):
    path = write_triple(tmp_path / "t.json")
    assert main(["analyze", "--input", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"] == {"closed": True, "coclosed": True, "torsion_free": True}
    assert report["tau0"] == 0.0 and report["tau1"] == {}


def test_analyze_diag_example(tmp_path, capsys):
    path = write_triple(tmp_path / "t.json", A=DIAG_A)
    assert main(["analyze", "--input", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["family"] == "diagonal"
    assert report["tau2"] == {"34": -2.0, "56": 2.0}
    assert report["div_torsion"] == [0.0] * 7
    assert report["flags"]["closed"] and not report["flags"]["coclosed"]
    assert report["passed"] is True


def test_analyze_is_deterministic(tmp_path, capsys):
    path = write_triple(tmp_path / "t.json", A=DIAG_A)
    main(["analyze", "--input", path, "--json"])
    first = capsys.readouterr().out
    main(["analyze", "--input", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_rejects_non_commuting(tmp_path, capsys):
    A = [[0, 1.0, 0, 0], [0] * 4, [0] * 4, [0] * 4]
    B = [[0] * 4, [0, 0, 1.0, 0], [0] * 4, [0] * 4]
    path = write_triple(tmp_path / "t.json", A=A, B=B)
    assert main(["analyze", "--input", path]) == 1
    assert "pairwise commutation violated" in capsys.readouterr().err


def test_analyze_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", "--input", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_analyze_rejects_json_nested_too_deep_for_the_decoder(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"A": ' + "[" * 100000 + "]" * 100000 + ', "B": [], "C": []}')
    assert main(["analyze", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path} is not valid JSON: maximum recursion depth")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not captured.out


@pytest.mark.parametrize("content, message", [
    (b'{"A": "\xff"}', "cannot read {}: 'utf-8' codec can't decode byte 0xff in position 7: "
                       "invalid start byte"),
    (b"[1, 2, 3]", "{} must hold a JSON object with matrices A, B, C"),
    (b"42", "{} must hold a JSON object with matrices A, B, C"),
    (b'{"A": [], "B": [], "C": "x"}',
     "{} holds non-numeric matrix data: could not convert string to float: 'x'"),
])
def test_analyze_rejects_malformed_file(tmp_path, capsys, content, message):
    path = tmp_path / "t.json"
    path.write_bytes(content)
    assert main(["analyze", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(path)}\n" and not captured.out


NOT_A_NUMBER = "has an entry that is a string, a boolean or null"


@pytest.mark.parametrize("matrices, message", [
    # numpy's float cast reads "1" and true as 1.0, so each of the first two is a diagonal triple
    ({"A": [["1", 0, 0, 0], [0, "1", 0, 0], [0, 0, "-1", 0], [0, 0, 0, "-1"]]}, f"matrix A {NOT_A_NUMBER}"),
    ({"A": [[True, 0, 0, 0], [0, True, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]}, f"matrix A {NOT_A_NUMBER}"),
    ({"B": [[None, 0, 0, 0]] + ZERO[1:]}, f"matrix B {NOT_A_NUMBER}"),
    ({"C": [[10 ** 400, 0, 0, 0]] + ZERO[1:]}, "int too large to convert to float"),
])
def test_analyze_rejects_entries_that_are_not_json_numbers(tmp_path, capsys, matrices, message):
    path = write_triple(tmp_path / "t.json", **matrices)
    assert main(["analyze", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path} holds non-numeric matrix data: {message}\n"
    assert not captured.out


def test_analyze_rejects_missing_file(capsys):
    assert main(["analyze", "--input", "/nonexistent/x.json"]) == 1


def test_analyze_text_output(tmp_path, capsys):
    path = write_triple(tmp_path / "t.json", A=DIAG_A)
    assert main(["analyze", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "family: diagonal" in out and "passed: True" in out


def test_analyze_text_output_names_a_nan_deviation_as_the_worst(tmp_path, capsys):
    # at 1e160 the Ricci tensor overflows to NaN; the other deviations are 0
    path = write_triple(tmp_path / "t.json", A=(1e160 * np.array(DIAG_A)).tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["analyze", "--input", path]) == 2
        text = capsys.readouterr().out
        assert main(["analyze", "--input", path, "--json"]) == 2
    assert np.isnan(json.loads(capsys.readouterr().out)["deviations"]["ricci"])
    assert "cross-validation: worst deviation nan (ricci), tol 1e-09\n" in text
    assert text.endswith("passed: False\n")


# -- verify ------------------------------------------------------------------

def test_verify_skew_small_campaign(capsys):
    assert main(["verify", "--case", "skew", "--trials", "5", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_all_cases_with_dual_reports(capsys):
    assert main(["verify", "--case", "all", "--trials", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "tabulated-formula mismatches" in out
    assert "tau0[general]" in out


def test_verify_reproducible(capsys):
    args = ["verify", "--case", "adiag", "--trials", "4", "--seed", "3", "--json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_verify_unsatisfiable_tolerance_exits_2(capsys):
    # a general triple: on the sparse families the two routes can agree exactly
    assert main(["verify", "--case", "general", "--trials", "1", "--tol", "1e-30"]) == 2


def test_verify_unknown_case_is_input_error(capsys):
    assert main(["verify", "--case", "bogus"]) == 1


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_verify_rejects_trials_below_one(capsys, trials):
    assert main(["verify", "--case", "diag", "--trials", trials]) == 1
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "abc"])
def test_verify_rejects_bad_tolerance(capsys, tol):
    assert main(["verify", "--case", "diag", "--trials", "1", "--tol", tol]) == 1
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--trials", "--seed"])
def test_verify_rejects_a_non_integer(capsys, option):
    assert main(["verify", "--case", "diag", option, "x"]) == 1
    assert capsys.readouterr().err.endswith(f"error: argument {option}: 'x' is not an integer\n")


def test_verify_rejects_negative_seed(capsys):
    assert main(["verify", "--case", "diag", "--trials", "1", "--seed", "-1"]) == 1
    assert "error: argument --seed" in capsys.readouterr().err


def test_verify_json_reports_worst_deviations_per_case(capsys):
    assert main(["verify", "--case", "all", "--trials", "3", "--seed", "0", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    cases = out["cases"]
    for case in ("skew", "diag", "adiag", "sym"):
        assert cases[case]["worst_deviations"]["divergence_free"] <= out["tol"]
    assert "divergence_free" not in cases["general"]["worst_deviations"]
    for key, val in out["worst_deviations"].items():
        assert val == max(c["worst_deviations"].get(key, 0.0) for c in cases.values())


@pytest.mark.parametrize("pass_size", [32, 2])
@pytest.mark.parametrize("tol", ["1e-9", "1e-17"])
def test_verify_json_aggregates_like_the_reports_one_at_a_time(capsys, monkeypatch, tol,
                                                               pass_size):
    # passes of 2 split every case, and some pass holds two cases
    monkeypatch.setattr(cli, "PASS_SIZE", pass_size)
    argv = ["verify", "--case", "all", "--trials", "3", "--seed", "5", "--tol", tol, "--json"]
    main(argv)
    out = json.loads(capsys.readouterr().out)
    # the reference: each trial's report, folded in (trial, quantity) order
    failures, worst, duals = 0, {}, {}
    for i, case in enumerate(cli.CASES):
        triples = [gabc.generate(cli.CASES[case], np.random.SeedSequence((5, i, k)))
                   for k in range(3)]
        top, top_key, devs = 0.0, "", {}
        for rep in (gabc.cross_validate(t, tol=float(tol)) for t in triples):
            failures += not rep.passed
            for key, val in rep.deviations.items():
                devs[key] = max(devs.get(key, 0.0), val)
                worst[key] = max(worst.get(key, 0.0), val)
                if val > top:
                    top, top_key = val, key
            for r in rep.dual_reports:
                ident = (r.formula, r.component)
                if ident not in duals or duals[ident].delta < r.delta:
                    duals[ident] = r
        assert out["cases"][case] == {"trials": 3, "worst": top, "worst_quantity": top_key,
                                      "worst_deviations": devs}, case
    assert out["worst_deviations"] == worst
    assert out["failing_trials"] == failures and out["passed"] == (failures == 0)
    assert [(d["formula"], d["component"], d["tabulated"], d["computed"])
            for d in out["dual_reports"]] == \
        [(f, c, r.tabulated, r.computed) for (f, c), r in sorted(duals.items())]
    if tol == "1e-17":
        assert failures > 0


def test_verify_json_does_not_depend_on_pass_size(capsys, monkeypatch):
    argv = ["verify", "--case", "all", "--trials", "3", "--seed", "4", "--json"]
    assert main(argv) == 0
    reference = json.loads(capsys.readouterr().out)
    # 15 triples in passes of 2: passes straddle the case boundaries
    monkeypatch.setattr(cli, "PASS_SIZE", 2)
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("passed", "failing_trials"):
        assert out[key] == reference[key]
    assert [(d["formula"], d["component"]) for d in out["dual_reports"]] == \
        [(d["formula"], d["component"]) for d in reference["dual_reports"]]
    for case, ref in reference["cases"].items():
        got = out["cases"][case]
        assert got["trials"] == ref["trials"] == 3
        assert got["worst_deviations"].keys() == ref["worst_deviations"].keys()
        for key, val in ref["worst_deviations"].items():
            assert abs(got["worst_deviations"][key] - val) <= 1e-13, (case, key)


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_verify_draws_checks_and_names_dual_reports_once_per_pass(capsys, monkeypatch, json_flag):
    # 35 triples in passes of 32 and 3: the first holds every case, the second
    # only general triples, which need no rotation
    calls, built = Counter(), []
    for module, name in ((gabc, "_checked"), (np.linalg, "qr")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    init = gabc.ReferenceCheck.__init__

    def recorded(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(gabc.ReferenceCheck, "__init__", recorded)
    assert main(["verify", "--case", "all", "--trials", "7", "--seed", "2", *json_flag]) == 0
    out = capsys.readouterr().out
    printed = len(json.loads(out)["dual_reports"]) if json_flag else out.count(" vs computed ")
    assert calls == {"_checked": 2, "qr": 1}
    assert printed > 0 and len(built) == printed


@pytest.mark.parametrize("case, pass_size", [("sym", 32), ("all", 32), ("all", 2)])
def test_verify_names_the_case_and_trial_of_a_rejected_triple(capsys, monkeypatch, case,
                                                              pass_size):
    monkeypatch.setattr(cli, "PASS_SIZE", pass_size)
    # the draws of trial 3 of case sym, case index i of the request: its normals, then its diagonals
    i = list(cli.CASES).index("sym") if case == "all" else 0
    rng = np.random.default_rng(np.random.SeedSequence((4, i, 3)))
    rng.standard_normal((4, 4))
    bad = rng.uniform(-1.0, 1.0, (3, 4))[:, :3]
    traceless_diagonals = gabc._traceless_diagonals

    def drawn(d):  # adds e34 to A and e45 to B where the draw is trial 3's
        m = traceless_diagonals(d)
        hit = (d[..., :3] == bad).all(axis=(-2, -1))
        m[hit, 0, 0, 1] = m[hit, 1, 1, 2] = 1.0
        return m
    monkeypatch.setattr(gabc, "_traceless_diagonals", drawn)
    assert main(["verify", "--case", case, "--trials", "5", "--seed", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: case sym, trial 3: pairwise commutation violated: ")
    assert not captured.out


# -- gen ----------------------------------------------------------------------

def test_gen_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for case in ("skew", "diag", "adiag", "sym", "general"):
        for seed in map(str, range(5)):
            assert main(["gen", "--case", case, "--seed", seed, "--out", str(p1)]) == 0
            assert main(["gen", "--case", case, "--seed", seed, "--out", str(p2)]) == 0
            assert p1.read_bytes() == p2.read_bytes(), (case, seed)


def test_gen_antidiagonal_shape(tmp_path):
    path = tmp_path / "adiag.json"
    assert main(["gen", "--case", "adiag", "--seed", "1", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    for name in ("A", "B", "C"):
        m = np.asarray(data[name])
        mask = np.ones((4, 4), dtype=bool)
        for slot in ((0, 3), (1, 2), (2, 1), (3, 0)):
            mask[slot] = False
        assert np.all(m[mask] == 0.0)


def test_gen_writes_the_generated_triple_at_the_given_scale(tmp_path):
    path = tmp_path / "adiag.json"
    assert main(["gen", "--case", "adiag", "--seed", "1", "--scale", "1e3", "--out", str(path)]) == 0
    t = gabc.generate(gabc.FamilyKind.ANTIDIAGONAL, 1, 1e3)
    assert json.loads(path.read_text()) == {"A": t.A.tolist(), "B": t.B.tolist(),
                                            "C": t.C.tolist(), "family": "antidiagonal", "seed": 1}


def test_gen_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["gen", "--case", "diag", "--seed", "-1", "--out", str(out)]) == 1
    assert "error: argument --seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0", "big", "1e308"])
def test_gen_rejects_bad_scale(tmp_path, capsys, scale):
    out = tmp_path / "x.json"
    assert main(["gen", "--case", "diag", "--scale", scale, "--out", str(out)]) == 1
    assert "error: argument --scale" in capsys.readouterr().err
    assert not out.exists()


def test_gen_unwritable_path(capsys):
    assert main(["gen", "--case", "diag", "--seed", "0",
                 "--out", "/nonexistent-dir/x.json"]) == 1


@pytest.mark.parametrize("case", ["skew", "diag", "adiag", "sym", "general"])
def test_gen_analyze_round_trip(tmp_path, capsys, case):
    path = tmp_path / f"{case}.json"
    assert main(["gen", "--case", case, "--seed", "2", "--out", str(path)]) == 0
    assert main(["analyze", "--input", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


# -- environment ------------------------------------------------------------------

def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("G2ABC_TOL", "1e-3")
    import importlib
    from g2abc import cli
    importlib.reload(cli)
    path = write_triple(tmp_path / "t.json", A=DIAG_A)
    assert cli.main(["analyze", "--input", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tol"] == 1e-3
    monkeypatch.delenv("G2ABC_TOL")
    importlib.reload(cli)


def test_malformed_env_tolerance_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("G2ABC_TOL", "1e-9x")
    assert main(["verify", "--case", "diag", "--trials", "1"]) == 1
    assert "G2ABC_TOL" in capsys.readouterr().err
    path = write_triple(tmp_path / "t.json", A=DIAG_A)
    assert main(["analyze", "--input", path]) == 1


def test_analyze_rejects_non_finite_matrix(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"A": [[NaN, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],'
                    ' "B": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],'
                    ' "C": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}')
    assert main(["analyze", "--input", str(path)]) == 1
    assert "matrix A has non-finite entries" in capsys.readouterr().err


def test_analyze_rejects_missing_matrix_key(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"A": ZERO, "B": ZERO}))
    assert main(["analyze", "--input", str(path)]) == 1
    assert "missing matrix" in capsys.readouterr().err


# -- one process, many requests -------------------------------------------------

def test_main_calls_in_one_process_match_fresh_parsers(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; no state may carry over between calls
    monkeypatch.delenv("G2ABC_TOL", raising=False)
    path = tmp_path / "t.json"
    calls = [
        (["verify", "--case", "diag", "--trials", "1", "--tol", "1e-3", "--json"], None),
        (["verify", "--case", "diag", "--trials", "1", "--json"], "1e-4"),
        (["gen", "--case", "adiag", "--seed", "3", "--out", str(path)], None),
        (["analyze", "--input", str(path), "--json"], None),
        (["verify", "--case", "bogus"], None),
    ]

    def run_all():
        results = []
        for argv, env_tol in calls:
            with monkeypatch.context() as m:
                if env_tol is not None:
                    m.setenv("G2ABC_TOL", env_tol)
                code = cli.main(argv)
            out = capsys.readouterr()
            results.append((code, out.out, out.err))
        return results

    cached = run_all()
    monkeypatch.setattr(cli, "_parser", cli.make_parser)  # a fresh parser for every call
    assert run_all() == cached
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 1]
    assert [json.loads(cached[n][1])["tol"] for n in (0, 1, 3)] == [1e-3, 1e-4, 1e-9]


# -- the process ---------------------------------------------------------------

@pytest.mark.parametrize("argv, status", [
    (["verify", "--case", "diag", "--trials", "2"], 0),
    (["verify", "--case", "diag", "--trials", "2", "--tol", "0"], 2),
    (["verify", "--tol", "nan"], 1),
])
def test_python_dash_m_exits_with_the_status_of_the_request(argv, status):
    # runs __main__ and cli.entry, which turn main's return value into the exit status
    proc = subprocess.run([sys.executable, "-m", "g2abc", *argv], env=python_dash_m_env(),
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == status, proc.stderr


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_closed_output_pipe_exits_1_without_a_traceback(json_flag):
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child writes, so its first write fails
    try:
        proc = subprocess.run([sys.executable, "-m", "g2abc", "verify", "--case", "diag",
                               "--trials", "2", *json_flag], env=python_dash_m_env(),
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                              check=False)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
