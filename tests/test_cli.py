"""Command-line interface: outputs, exit codes, determinism, fault hook."""

import argparse
import ast
import json
import math
import os
import re
import shlex
import time
from pathlib import Path

import pytest

from blowlab import model as md
from blowlab import spectral as spec
from blowlab import validate as vl
from blowlab.cli import build_parser, main
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
    for key in ("operators_s", "eigenvalues_s", "refinement_s",
                "projection_s"):
        assert isinstance(timings[key], float)
        assert math.isfinite(timings[key]) and timings[key] >= 0.0


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
                                          ("spectrum", 0)])
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
], ids=" ".join)
def test_bad_numeric_input(tmp_path, capsys, args):
    assert run(args + ["--n", "32", "--out", str(tmp_path / "x.out")]) == 2
    assert capsys.readouterr().err.startswith("error: domain:")


@pytest.mark.parametrize("args", [
    ["spectrum", "--seed"], ["spectrum", "--eps"],
    # evolve always steps by the state's size; integrate's dtau is not an
    # option
    ["evolve", "--dtau"],
    # the window is omega_tilde + 0.1 and eps is 0.1, always
    ["spectrum", "--halfplane"], ["evolve", "--eps"], ["validate", "--eps"],
], ids=" ".join)
def test_commands_reject_options_they_do_not_read(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run(args + ["1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {args[1]}" in capsys.readouterr().err


def _readme():
    return (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _readme_command_lines():
    block = _readme().split("## Command line\n", 1)[1].split("```\n")[1]
    return [line for line in block.splitlines() if line.startswith("blowlab ")]


def _options(command):
    """The option strings the parser's `command` subparser accepts."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[command]._actions
            for s in a.option_strings} - {"-h", "--help"}


def test_readme_command_lines_parse():
    # the README's examples name only commands and options the parser has;
    # they are parsed, not run
    commands = {build_parser().parse_args(shlex.split(line)[1:]).command
                for line in _readme_command_lines()}
    assert commands == {"spectrum", "evolve", "validate"}


def test_readme_lists_every_evolve_option():
    sentence = re.search(r"Its\s+options are (.+?`)\.", _readme(), re.S)
    assert set(re.findall(r"`(--[\w-]+)`", sentence[1])) == _options("evolve")


def test_readme_command_lines_spell_options_in_full():
    # argparse takes a prefix of an option, so parsing alone lets a stale
    # or shortened option name through
    for line in _readme_command_lines():
        words = shlex.split(line)
        assert {w for w in words if w.startswith("--")} <= _options(words[1])


@pytest.mark.parametrize("out, summary", [
    ("e.csv", "e.summary.json"),
    ("run.v2/energy", "run.v2/energy.summary.json"),
    ("./energy", "energy.summary.json"),
])
def test_summary_beside_output(tmp_path, monkeypatch, out, summary):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    assert run(["evolve", "--p", "3", "--n", "32", "--tau-end", "0.5",
                "--no-tune", "--out", out]) == 0
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


def test_evolve_tune_T_rejects_T(tmp_path, capsys):
    # a tuned run searches for T, so a given --T would be ignored
    assert run(["evolve", "--p", "3", "--n", "32", "--tau-end", "2",
                "--tune-T", "--T", "1.2",
                "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: domain:")
    assert not any(tmp_path.iterdir())


def test_evolve_failed_tuning_exits_4(tmp_path, capsys):
    # amplitude 3 at p = 3: the secant search for T leaves (1/2, 3/2)
    assert run(["evolve", "--p", "3", "--n", "32", "--amplitude", "3",
                "--tune-T", "--tau-end", "4",
                "--out", str(tmp_path / "t.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: overflow: tune_T: secant iterate")


def test_evolve_field_out_is_the_tuned_background_at_the_last_sample(
        tmp_path):
    # the last sample, tau = 4, of the tuned run sits at t = T*(1 - e^-4)
    # on r in [0, T* - t], where psi and psi_t read psi^T* and its
    # t-derivative to 8.7e-6 and 1.7e-5
    field = tmp_path / "f.csv"
    assert run(["evolve", "--p", "3", "--n", "32", "--tune-T", "--tau-end",
                "4", "--out", str(tmp_path / "t.csv"),
                "--field-out", str(field)]) == 0
    t_star = json.loads((tmp_path / "t.summary.json").read_text())["T_star"]
    header, *rows = field.read_text().splitlines()
    assert header == "t,r,psi,psi_t" and len(rows) == 32
    t, r, psi, psi_t = (list(col) for col in
                        zip(*([float(x) for x in row.split(",")]
                              for row in rows)))
    t_end = t_star * (1.0 - math.exp(-4.0))
    assert all(f"{value:.10g}" == f"{t_end:.10g}" for value in t)
    assert r[0] == 0.0 and r == sorted(r)
    assert r[-1] == pytest.approx(t_star - t_end, rel=1e-14)
    params = md.params_new(3.0, T=t_star)
    assert psi == pytest.approx([md.psi_T(params, t_end)] * 32, rel=1e-4)
    assert psi_t == pytest.approx([md.psi_T_t(params, t_end)] * 32,
                                  rel=1e-4)


def test_evolve_tuned_summary(tmp_path):
    out = tmp_path / "t.csv"
    start = time.perf_counter()
    assert run(["evolve", "--p", "3", "--n", "32", "--amplitude", "1e-3",
                "--tune-T", "--tau-end", "6", "--out", str(out)]) == 0
    wall = time.perf_counter() - start
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    # the step policy is not an option, so the summary records none
    assert "dtau" not in summary
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
    # the search starts at the Duhamel prediction, not at T_lin
    assert tuning[0]["T"] == summary["T_pred"]
    assert summary["T_lin"] != summary["T_pred"]
    # the search returns the integrated run with the smallest |a|, which
    # need not be the last one integrated
    assert summary["T_star"] in [step["T"] for step in tuning]
    assert summary["tuning_stop"] in ("zero", "sub_ulp", "repeat")
    # the step-halving estimate after the first sample, taken at 0.025,
    # reads 2.0e-11 here, under the state error of the default stepping
    integrator = summary["integrator"]
    assert 0.0 < integrator.pop("step_error") <= 1e-9
    # the tuned run decays, so it takes 4, then 2, then 1 step per sample:
    # 164 steps where a fixed 0.025 would take 4 * 60, spanning tau = 6
    by_substep = integrator.pop("steps_by_substep")
    assert by_substep == {"0.025": 120, "0.05": 28, "0.1": 16}
    assert sum(float(h) * count for h, count in by_substep.items()) \
        == pytest.approx(6.0, rel=1e-12)
    assert integrator == {"scheme": "lawson-rk4", "substep": 0.025,
                          "steps": sum(by_substep.values())}
    assert integrator["steps"] < 4 * 60


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
    # each row's verdict is the one its value and ends give
    results = [vl.CheckResult(**{k: v for k, v in row.items() if k != "ok"})
               for row in rows]
    assert [res.ok for res in results] == [row["ok"] for row in rows]
    assert [res.line() for res in results] == lines[:-1]
    assert lines[-1] == f"validate: {len(rows)}/{len(rows)} checks passed"

    monkeypatch.setattr(md, "_SIGN_HOOK", -1.0)
    assert run(["validate", "--p", "3", "--n", "96"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert any(line.startswith("FAIL lipschitz/") for line in failed)
    assert any(line.startswith("FAIL rhs/") for line in failed)


def test_only_cli_writes_files():
    # the other modules compute and return data; cli alone knows the
    # output formats, so only it calls open or np.savetxt
    writers = set()
    for path in Path(md.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("open", "savetxt"):
                    writers.add(path.name)
    assert writers == {"cli.py"}


def test_validate_prints_suites_before_a_solver_error(capsys, monkeypatch):
    def broken(params, n, seed):
        raise SolverError("series failed (injected)")

    monkeypatch.setattr(vl, "SUITES", (vl.suite_lipschitz, broken))
    assert run(["validate", "--p", "3", "--n", "48"]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines and all(line.startswith("PASS lipschitz/") for line in lines)
    assert captured.err.startswith("error: solver:")
