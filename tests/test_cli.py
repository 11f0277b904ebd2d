"""Command-line interface: outputs, exit codes, determinism, fault hook."""

import json
import math
import os
import time

import pytest

from blowlab import model as md
from blowlab import spectral as spec
from blowlab import validate as vl
from blowlab.cli import main
from blowlab.errors import SolverError


def run(args):
    return main(args)


def test_spectrum_p3(tmp_path):
    out = tmp_path / "s.json"
    assert run(["spectrum", "--p", "3", "--n", "64", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["analytic"] == [1.0]
    assert doc["projection_rank"] == 1
    stable = [d for d in doc["discrete"] if d["stable"]]
    assert len(stable) == 1 and abs(stable[0]["re"] - 1.0) <= 1e-8


def test_spectrum_json_records_phase_timings(tmp_path):
    out = tmp_path / "s.json"
    assert run(["spectrum", "--p", "2", "--n", "48", "--out", str(out)]) == 0
    timings = json.loads(out.read_text())["timings"]
    for key in ("operators_s", "eigenvalues_s", "projection_s"):
        assert isinstance(timings[key], float)
        assert math.isfinite(timings[key]) and timings[key] >= 0.0


def test_spectrum_halfplane_p2(tmp_path):
    out = tmp_path / "s2.json"
    assert run(["spectrum", "--p", "2", "--n", "64", "--halfplane", "-1.4",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["analytic"] == [-1.0, 1.0]


def test_spectrum_rejects_bad_exponent(tmp_path, capsys):
    assert run(["spectrum", "--p", "5", "--n", "64",
                "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "p=5.0" in err


def test_spectrum_solver_failure_exit_code(tmp_path, monkeypatch):
    from blowlab.errors import SolverError

    def boom(matrix):
        raise SolverError("eigenvalue solve failed (injected)")

    monkeypatch.setattr(spec, "_eigvals", boom)
    assert run(["spectrum", "--p", "3", "--n", "64",
                "--out", str(tmp_path / "x.json")]) == 3


@pytest.mark.parametrize("command,code", [("validate", 2), ("evolve", 2),
                                          ("energy", 2), ("spectrum", 0)])
def test_exponent_near_one(tmp_path, capsys, command, code):
    # kappa0^(1/(p-1)) overflows a float at p = 1.01; the spectrum never
    # forms it
    assert run([command, "--p", "1.01", "--n", "32",
                "--out", str(tmp_path / "x.out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: domain:") if code else err == ""


@pytest.mark.parametrize("args", [
    ["evolve", "--seed", "-1"],
    ["validate", "--seed", "-1"],
    ["evolve", "--tau-end", "nan", "--no-tune"],
    ["evolve", "--tau-end", "nan", "--tune-T"],
    ["evolve", "--tau-end", "inf", "--no-tune"],
    ["evolve", "--tau-end", "inf", "--tune-T"],
    ["evolve", "--tau-end", "0.05", "--tune-T"],
    ["evolve", "--tau-end", "1", "--tune-T"],
    ["evolve", "--amplitude", "nan"],
    ["evolve", "--amplitude", "inf"],
    ["spectrum", "--halfplane", "nan"],
], ids=" ".join)
def test_bad_numeric_input(tmp_path, capsys, args):
    assert run(args + ["--n", "32", "--out", str(tmp_path / "x.out")]) == 2
    assert capsys.readouterr().err.startswith("error: domain:")


@pytest.mark.parametrize("out, summary", [
    ("e.csv", "e.summary.json"),
    ("run.v2/energy", "run.v2/energy.summary.json"),
    ("./energy", "energy.summary.json"),
])
def test_summary_beside_output(tmp_path, monkeypatch, out, summary):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    assert run(["energy", "--p", "3", "--n", "32", "--out", out]) == 0
    written = {str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*")
               if f.is_file()}
    assert written == {os.path.normpath(out), summary}


def test_evolve_zero_amplitude_trajectory(tmp_path):
    out = tmp_path / "z.csv"
    assert run(["evolve", "--p", "3", "--n", "32", "--amplitude", "0",
                "--tau-end", "3", "--no-tune", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert all(abs(float(r.split(",")[1])) <= 1e-12 for r in rows)


def test_evolve_untuned_growth_aborts_with_partial_output(tmp_path):
    out = tmp_path / "u.csv"
    code = run(["evolve", "--p", "3", "--n", "32", "--amplitude", "1e-3",
                "--no-tune", "--T", "1", "--tau-end", "8", "--out", str(out)])
    assert code == 4
    summary = json.loads((tmp_path / "u.summary.json").read_text())
    assert summary["aborted_at"] is not None
    assert summary["growth_rate"] == pytest.approx(1.0, abs=0.05)


def test_evolve_overlarge_step_is_domain_error(tmp_path):
    assert run(["evolve", "--p", "3", "--n", "96", "--amplitude", "0",
                "--tau-end", "1", "--dtau", "0.5",
                "--out", str(tmp_path / "d.csv")]) == 2


def test_evolve_tuned_summary(tmp_path):
    out = tmp_path / "t.csv"
    start = time.perf_counter()
    assert run(["evolve", "--p", "3", "--n", "32", "--amplitude", "1e-3",
                "--tune-T", "--tau-end", "6", "--out", str(out)]) == 0
    wall = time.perf_counter() - start
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    # the phases are timed back to back, inside the run
    timings = summary["timings"]
    assert list(timings) == ["grid_operator_s", "projection_s", "data_s",
                             "solve_s", "step_error_s", "fits_s", "writes_s"]
    assert all(value >= 0.0 for value in timings.values())
    assert sum(timings.values()) <= wall
    assert 0.9 < summary["T_star"] < 1.1
    assert summary["rate"] is not None and summary["rate"] >= 0.35
    tuning = summary["tuning"]
    assert 2 <= len(tuning) <= 3
    assert tuning[0]["T"] == summary["T_lin"]
    # the search returns the integrated run with the smallest |a|, which
    # need not be the last one integrated
    assert summary["T_star"] in [step["T"] for step in tuning]
    assert summary["tuning_stop"] in ("zero", "sub_ulp", "repeat")
    # the step-halving estimate after the first sample reads 2.0e-11 here,
    # under the 6.1e-9 state error of 4 steps per sample over tau <= 4
    integrator = summary["integrator"]
    assert 0.0 < integrator.pop("step_error") <= 1e-9
    assert integrator == {"scheme": "lawson-rk4", "substep": 0.025,
                          "steps": 4 * 60}


def test_energy_slope(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["energy", "--p", "3", "--n", "48", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "e.summary.json").read_text())
    assert summary["slope_error"] <= 1e-3
    rows = out.read_text().splitlines()
    assert rows[0] == "t,energy_norm"


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--p", "3", "--n", "32", "--amplitude", "1e-4",
            "--tau-end", "3", "--no-tune", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # equal apart from the wall-clock phase timings
    sa, sb = (json.loads((tmp_path / f"{x}.summary.json").read_text())
              for x in "ab")
    assert sa.pop("timings").keys() == sb.pop("timings").keys()
    assert sa == sb


def test_fault_injection_trips_lipschitz_and_rhs_suites(tmp_path, capsys,
                                                       monkeypatch):
    # pytest runs every suite in test_validate.py; this checks the CLI's
    # wiring on two fast suites: printed lines, --out rows and exit codes
    monkeypatch.setattr(vl, "SUITES", (vl.suite_lipschitz, vl.suite_rhs))
    out = tmp_path / "v.json"
    assert run(["validate", "--p", "3", "--n", "96", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith(("PASS", "validate:")) for line in lines)
    rows = json.loads(out.read_text())
    assert [vl.CheckResult(**row).line() for row in rows] == lines[:-1]
    assert lines[-1] == f"validate: {len(rows)}/{len(rows)} checks passed"

    monkeypatch.setattr(md, "_SIGN_HOOK", -1.0)
    assert run(["validate", "--p", "3", "--n", "96"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert any(line.startswith("FAIL lipschitz/") for line in failed)
    assert any(line.startswith("FAIL rhs/") for line in failed)


def test_validate_prints_suites_before_a_solver_error(capsys, monkeypatch):
    def broken(params, n, seed):
        raise SolverError("series failed (injected)")

    monkeypatch.setattr(vl, "SUITES", (vl.suite_lipschitz, broken))
    assert run(["validate", "--p", "3", "--n", "48"]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines and all(line.startswith("PASS lipschitz/") for line in lines)
    assert captured.err.startswith("error: solver:")
