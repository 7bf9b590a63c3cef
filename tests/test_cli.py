import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2abc import cli, gabc
from g2abc._tables import DIMS
from g2abc.cli import main
from g2abc.exterior import Form

from helpers import python_dash_m_env

ZERO = [[0.0] * 4 for _ in range(4)]
DEEP = json.loads("[" * 200 + "0" + "]" * 200)  # too deep for a numpy array
DIAG_A = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, -1.0]]


def write_triple(path, A=ZERO, B=ZERO, C=ZERO):
    path.write_text(json.dumps({"A": A, "B": B, "C": C}))
    return str(path)


def assert_rejected(capsys, argv, error, out=None):
    """main(argv) exits 1, prints nothing to stdout, writes no file at out and prints one
    error line, which starts with error; a rejected option's value prints the usage first."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert not captured.out and not (out and out.exists())
    errors = [line for line in captured.err.splitlines() if line.startswith("error")]
    assert len(errors) == 1 and errors[0].startswith(error), captured.err
    assert captured.err.startswith("usage: g2abc ") == error.startswith("error: argument ")


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


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_report_coefficient_maps_are_those_of_forms(degree):
    # NaN kept, -0.0 and 0.0 dropped, in rank order, as Form.coeffs gives them
    rng = np.random.default_rng(degree)
    values = rng.standard_normal(DIMS[degree])
    values[rng.permutation(DIMS[degree])[:3]] = [np.nan, -0.0, 0.0]
    got = cli._form_map(degree, values)
    expected = {"".join(map(str, key)): v for key, v in Form(degree, values).coeffs.items()}
    assert repr(list(got.items())) == repr(list(expected.items()))
    assert len(got) == DIMS[degree] - 2 and all(type(v) is float for v in got.values())


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
    # the matrices go to TripleABC as they are, which names the first bad one
    pytest.param(json.dumps({"A": ZERO, "B": ZERO, "C": "x"}).encode(),
                 "matrix C has an entry that is not a real number", id="matrix-C-a-string"),
    (b'{"A": [], "B": [], "C": "x"}', "matrix A must be 4x4, got (0,)"),
    # numpy's own words, whose limit on dimensions depends on its version
    pytest.param(json.dumps({"A": DEEP, "B": [], "C": []}).encode(),
                 f"matrix A must be 4x4: {pytest.raises(ValueError, np.asarray, DEEP).value}",
                 id="nested-deeper-than-numpy-allows"),
])
def test_analyze_rejects_malformed_file(tmp_path, capsys, content, message):
    path = tmp_path / "t.json"
    path.write_bytes(content)
    assert main(["analyze", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(path)}\n" and not captured.out


NOT_A_NUMBER = "has an entry that is not a real number"


@pytest.mark.parametrize("matrices, message", [
    # numpy's float cast reads "1" and true as 1.0, so each of the first two is a diagonal triple
    ({"A": [["1", 0, 0, 0], [0, "1", 0, 0], [0, 0, "-1", 0], [0, 0, 0, "-1"]]}, f"matrix A {NOT_A_NUMBER}"),
    ({"A": [[True, 0, 0, 0], [0, True, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]}, f"matrix A {NOT_A_NUMBER}"),
    ({"B": [[None, 0, 0, 0]] + ZERO[1:]}, f"matrix B {NOT_A_NUMBER}"),
    ({"C": [[10 ** 400, 0, 0, 0]] + ZERO[1:]}, "matrix C has an entry too large for a float64"),
])
def test_analyze_rejects_entries_that_are_not_json_numbers(tmp_path, capsys, matrices, message):
    path = write_triple(tmp_path / "t.json", **matrices)
    assert main(["analyze", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not captured.out


def test_analyze_rejects_missing_file(capsys):
    assert main(["analyze", "--input", "/nonexistent/x.json"]) == 1


def test_analyze_text_output(tmp_path, capsys):
    path = write_triple(tmp_path / "t.json", A=DIAG_A)
    assert main(["analyze", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "family: diagonal" in out and "passed: True" in out


def nan_ricci(t):
    """A closed-form Ricci tensor that is NaN throughout: a stage that broke."""
    return np.full(t.abc.shape[:-3] + (7, 7), np.nan)


def test_analyze_text_output_names_a_nan_deviation_as_the_worst(tmp_path, capsys, monkeypatch):
    # the closed Ricci tensor is NaN, so its deviation is; the other deviations are 0
    monkeypatch.setattr(gabc, "closed_form_ricci", nan_ricci)
    path = write_triple(tmp_path / "t.json", A=DIAG_A)
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
    assert_rejected(capsys, ["verify", "--case", "diag", "--trials", trials],
                    "error: argument --trials: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "abc"])
def test_verify_rejects_bad_tolerance(capsys, tol):
    assert_rejected(capsys, ["verify", "--case", "diag", "--trials", "1", "--tol", tol],
                    "error: argument --tol: ")


@pytest.mark.parametrize("option", ["--trials", "--seed"])
def test_verify_rejects_a_non_integer(capsys, option):
    low = {"--trials": 1, "--seed": 0}[option]
    assert_rejected(capsys, ["verify", "--case", "diag", option, "x"],
                    f"error: argument {option}: 'x' is not an integer of at least {low}")


def test_verify_rejects_negative_seed(capsys):
    assert_rejected(capsys, ["verify", "--case", "diag", "--trials", "1", "--seed", "-1"],
                    "error: argument --seed: ")


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
        triples = [gabc.generate_many(cli.CASES[case], 5, [k]) for k in range(3)]
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
    # 35 triples in passes of 32 and 3: the first holds every case, the second only
    # general triples; each pass keys one Philox stream and draws no per-trial generator
    calls, built = Counter(), []
    for module, name in ((gabc, "_checked"), (np.random, "Philox"), (np.random, "SeedSequence"),
                         (np.random, "default_rng"), (np.linalg, "qr")):
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
    assert calls == {"_checked": 2, "Philox": 2}
    assert printed > 0 and len(built) == printed


@pytest.mark.parametrize("case, pass_size", [("sym", 32), ("all", 32), ("all", 2)])
def test_verify_names_the_case_and_trial_of_a_rejected_triple(capsys, monkeypatch, case,
                                                              pass_size):
    monkeypatch.setattr(cli, "PASS_SIZE", pass_size)
    # the block of trial 3 of the symmetric family under seed 4, whatever the other cases:
    # the Philox stream of the seed from counter (8 * 3, index of SYMMETRIC in FamilyKind),
    # set one step below, as numpy steps it before each output
    bits = np.random.Philox(4)
    state = bits.state
    state["state"]["counter"][:2] = [8 * 3 - 1, list(gabc.FamilyKind).index(cli.CASES["sym"])]
    bits.state = state
    bad = np.random.Generator(bits).random(gabc.BLOCK)
    family_matrices = gabc._family_matrices

    def drawn(kind, u, scale):  # adds e34 to A and e45 to B where the block is trial 3's
        m = family_matrices(kind, u, scale)
        hit = (u == bad).all(axis=-1)
        m[hit, 0, 0, 1] = m[hit, 1, 1, 2] = 1.0
        return m
    monkeypatch.setattr(gabc, "_family_matrices", drawn)
    assert main(["verify", "--case", case, "--trials", "5", "--seed", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: case sym, trial 3: pairwise commutation violated: ")
    assert not captured.out


def test_verify_draws_each_case_s_trials_whatever_the_other_cases_and_trials(monkeypatch):
    # trial k of a case is trial k of its family under the seed: the diag triples of
    # --case diag are those of --case all, and the first of --trials 5 are --trials 3
    stacks = []
    validate = cli.cross_validate_stack

    def recorded(stack, tol):
        stacks.append(stack.abc)
        return validate(stack, tol)
    monkeypatch.setattr(cli, "cross_validate_stack", recorded)
    triples = {}
    for case, trials in (("diag", 3), ("diag", 5), ("all", 3)):
        stacks.clear()
        assert main(["verify", "--case", case, "--trials", str(trials), "--seed", "6",
                     "--json"]) == 0
        triples[case, trials] = np.concatenate(stacks)
    diag = gabc.generate_many(gabc.FamilyKind.DIAGONAL, 6, range(5)).abc
    assert triples["diag", 5].tobytes() == diag.tobytes()
    assert triples["diag", 3].tobytes() == diag[:3].tobytes()
    at = list(cli.CASES).index("diag")
    assert triples["all", 3][3 * at:3 * at + 3].tobytes() == diag[:3].tobytes()


# -- gen ----------------------------------------------------------------------

@pytest.mark.parametrize("case", ["skew", "diag", "adiag", "sym", "general"])
def test_gen_writes_trial_0_of_the_family(tmp_path, case):
    path = tmp_path / "t.json"
    assert main(["gen", "--case", case, "--seed", "8", "--out", str(path)]) == 0
    t = gabc.generate_many(cli.CASES[case], 8, range(3)).abc[0]
    data = json.loads(path.read_text())
    assert [data[name] for name in "ABC"] == t.tolist()
    assert data["family"] == cli.CASES[case].value and data["seed"] == 8


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
                                            "C": t.C.tolist(), "family": "antidiagonal", "seed": 1,
                                            "trial": 0}


def test_gen_trial_is_the_trial_verify_checks(tmp_path, capsys):
    path = tmp_path / "sym.json"
    assert main(["gen", "--case", "sym", "--seed", "5", "--trial", "3", "--out", str(path)]) == 0
    stack = gabc.generate_many(gabc.FamilyKind.SYMMETRIC, 5, range(4))
    data = json.loads(path.read_text())
    assert [data[name] for name in "ABC"] == stack.abc[3].tolist()
    assert (data["family"], data["seed"], data["trial"]) == ("symmetric", 5, 3)
    assert main(["analyze", "--input", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    arrays = gabc.cross_validate_stack(stack)
    row = arrays.reports()[3]
    assert report["deviations"] == row.deviations and report["passed"] == row.passed
    assert report["dual_reports"] == [vars(r) for r in row.dual_reports]
    assert report["flags"] == vars(row.flags) and report["tau0"] == row.tau0
    assert report["torsion_matrix"] == arrays.torsion_matrix[3].tolist()
    assert report["div_torsion"] == arrays.divergence[3].tolist()
    assert report["ricci"] == arrays.ricci_matrix[3].tolist()


def test_gen_rejects_a_trial_above_the_largest(tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["gen", "--case", "diag", "--out", str(out), "--trial"]
    # the library's message, as the error of the option
    assert_rejected(capsys, argv + [str(gabc.MAX_TRIAL + 1)],
                    f"error: argument --trial: trial index {gabc.MAX_TRIAL + 1} is not an integer "
                    f"in [0, {gabc.MAX_TRIAL}]", out)
    assert main(argv + [str(gabc.MAX_TRIAL)]) == 0
    assert json.loads(out.read_text())["trial"] == gabc.MAX_TRIAL


def test_gen_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert_rejected(capsys, ["gen", "--case", "diag", "--seed", "-1", "--out", str(out)],
                    "error: argument --seed: ", out)


@pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0", "big", "1e200", "1e308"])
def test_gen_rejects_bad_scale(tmp_path, capsys, scale):
    out = tmp_path / "x.json"
    assert_rejected(capsys, ["gen", "--case", "diag", "--scale", scale, "--out", str(out)],
                    "error: argument --scale: ", out)


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


# -- rejected values --------------------------------------------------------------

VERIFY = ["verify", "--case", "diag", "--trials", "1"]
ANALYZE = ["analyze", "--input", "{triple}"]
GEN = ["gen", "--case", "diag", "--out", "{out}"]


# the values that the tests of each command above do not hold
@pytest.mark.parametrize("option, value, argv", [
    *[("--tol", tol, ANALYZE) for tol in ("nan", "inf", "-0.5", "abc")],
    *[("--trial", trial, GEN) for trial in ("-1", "1.5", "x")],
    ("--seed", "x", GEN),
    *[("G2ABC_TOL", tol, command) for tol in ("nan", "-1") for command in (VERIFY, ANALYZE)],
])
def test_a_rejected_value_exits_1_with_one_error_that_names_its_option(tmp_path, capsys, monkeypatch,
                                                                       option, value, argv):
    out = tmp_path / "out.json"
    argv = [arg.format(out=out, triple=write_triple(tmp_path / "t.json")) for arg in argv]
    if option == "G2ABC_TOL":
        monkeypatch.setenv(option, value)
        assert_rejected(capsys, argv, "error: G2ABC_TOL: ", out)
    else:
        assert_rejected(capsys, argv + [option, value], f"error: argument {option}: ", out)


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
    assert_rejected(capsys, ["verify", "--case", "diag", "--trials", "1"], "error: G2ABC_TOL: ")
    path = write_triple(tmp_path / "t.json", A=DIAG_A)
    assert_rejected(capsys, ["analyze", "--input", path], "error: G2ABC_TOL: ")


def test_analyze_rejects_non_finite_matrix(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"A": [[NaN, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],'
                    ' "B": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],'
                    ' "C": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}')
    assert main(["analyze", "--input", str(path)]) == 1
    assert "matrix A has non-finite entries" in capsys.readouterr().err


def commuting_diagonals(s):
    """A = diag(s, -s, 0, 0), B = diag(0, 0, s, -s), C = diag(s, 0, -s, 0): they commute
    exactly, but a product of two of their entries overflows beyond s = 1.34e154."""
    return {name: np.diag(d).tolist() for name, d in
            zip("ABC", ([s, -s, 0.0, 0.0], [0.0, 0.0, s, -s], [s, 0.0, -s, 0.0]))}


def test_analyze_rejects_an_entry_beyond_the_largest_before_any_product(tmp_path, capsys):
    # the suite turns every numpy warning into an error: no commutator is formed
    path = write_triple(tmp_path / "t.json", **commuting_diagonals(1e160))
    assert_rejected(capsys, ["analyze", "--input", path],
                    f"error: matrix A has an entry beyond {gabc.MAX_ENTRY:g}")


def test_analyze_takes_a_triple_at_the_largest_entry(tmp_path, capsys, monkeypatch):
    # not an input error; the gates fail on round-off against the absolute tol (ROADMAP 2)
    monkeypatch.delenv("G2ABC_TOL", raising=False)
    path = write_triple(tmp_path / "t.json", **commuting_diagonals(gabc.MAX_ENTRY))
    assert main(["analyze", "--input", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert not captured.err and json.loads(captured.out)["family"] == "diagonal"


def test_analyze_rejects_missing_matrix_key(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"A": ZERO, "B": ZERO}))
    assert main(["analyze", "--input", str(path)]) == 1
    assert "missing matrix" in capsys.readouterr().err


# -- the JSON writer -------------------------------------------------------------

def stdlib_dumps(x):
    """The layout every --json report and gen file must have, byte for byte."""
    return json.dumps(x, sort_keys=True, indent=2)


# quotes, brackets, braces, a newline, a backslash and non-ASCII, which json escapes
JSON_TEXT = st.text(st.sampled_from('ab"[]{},: \n\\é☃\U0001f600'), max_size=5)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**200, 2**200), st.floats(), JSON_TEXT,
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-310, 1e308]))
# containers of scalars, the empty ones too, and lists of them: the matrices and the
# dual reports, with an empty row among them now and then
JSON_ROWS = st.lists(JSON_SCALARS, max_size=4) | st.dictionaries(JSON_TEXT, JSON_SCALARS,
                                                                  max_size=4)
JSON_TREES = st.recursive(
    JSON_SCALARS | JSON_ROWS | st.lists(st.lists(JSON_SCALARS, max_size=3), max_size=4)
    | st.lists(st.dictionaries(JSON_TEXT, JSON_SCALARS, max_size=3), max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=40)


@settings(max_examples=250, deadline=None)
@given(JSON_TREES)
@example(1.5)
@example([[1.0, float("nan")], [], [-0.0, 1e308]])
@example([{"a": "]"}, {"b": "\n[", "c": [[]]}])
@example({"tau1": {}, "dual_reports": [], "x": [[[], []], [[], []]]})
def test_writer_lays_out_any_tree_as_json_dumps_with_indent_2(tree):
    assert cli._dumps(tree) == stdlib_dumps(tree)


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "all", "--trials", "2", "--json"],
    ["analyze", "--input", "{zero}", "--json"],
    # README's example with a closed Ricci tensor that is NaN, so the report holds NaN
    ["analyze", "--input", "{diag_nan_ricci}", "--json"],
    ["gen", "--case", "general", "--seed", "5", "--trial", "3", "--out", "{out}"],
])
def test_requests_write_the_stdlib_bytes_through_json_s_c_encoder(tmp_path, capsys,
                                                                  monkeypatch, argv):
    inputs = {"zero": write_triple(tmp_path / "zero.json"),
              "diag_nan_ricci": write_triple(tmp_path / "diag.json", A=DIAG_A)}
    if "{diag_nan_ricci}" in argv:
        monkeypatch.setattr(gabc, "closed_form_ricci", nan_ricci)

    def run(out):
        code = main([arg.format(out=out, **inputs) for arg in argv])
        return code, capsys.readouterr().out, out.read_bytes() if out.exists() else None

    with monkeypatch.context() as m:
        m.setattr(cli, "_dumps", stdlib_dumps)
        expected = run(tmp_path / "stdlib.json")

    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    got = run(tmp_path / "writer.json")
    assert got == expected
    code, stdout, written = got
    if "{zero}" in argv:
        assert '"tau1": {},' in stdout and '"dual_reports": [],' in stdout
    if "{diag_nan_ricci}" in argv:
        assert code == 2 and "NaN" in stdout
    if "{out}" in argv:
        assert written.endswith(b"\n}\n") and json.loads(written)["trial"] == 3
    else:
        assert stdout and written is None


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
