import json

import numpy as np
import pytest

from g2abc import cli, gabc
from g2abc.cli import main

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


def test_analyze_rejects_missing_file(capsys):
    assert main(["analyze", "--input", "/nonexistent/x.json"]) == 1


def test_analyze_text_output(tmp_path, capsys):
    path = write_triple(tmp_path / "t.json", A=DIAG_A)
    assert main(["analyze", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "family: diagonal" in out and "passed: True" in out


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
    assert main(["verify", "--case", "diag", "--trials", "1", "--tol", "1e-30"]) == 2


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


def test_verify_json_does_not_depend_on_pass_size(capsys, monkeypatch):
    argv = ["verify", "--case", "all", "--trials", "3", "--seed", "4", "--json"]
    assert main(argv) == 0
    reference = json.loads(capsys.readouterr().out)
    # 15 triples in passes of 2: passes straddle the case boundaries
    monkeypatch.setattr(cli, "PASS_SIZE", 2)
    monkeypatch.setattr(gabc, "PASS_SIZE", 2)
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


# -- gen ----------------------------------------------------------------------

def test_gen_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--case", "skew", "--seed", "1", "--out", str(p1)]) == 0
    assert main(["gen", "--case", "skew", "--seed", "1", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


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
