"""Scenario files, CSV round trips through the CLI, manifests, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sizepop import cli, optimizer, oracles
from sizepop.characteristics import RootBracketError
from sizepop.cli import main
from sizepop.forward import StepContext
from sizepop.model import Grid3, NumericalError, _grid_eval_full, validate_scenario
from sizepop.oracles import oracle_transpose_duality, run_oracles
from sizepop.scenario_io import (
    ScenarioFileError,
    parse_scenario,
    read_field_csv,
    write_field_csv,
)
from conftest import assert_no_child_left, fork_csv_workers, full_field

MINIMAL = {
    "grid": {"Ns": 6, "Nt": 6, "Nx": 4, "s_f": 1.0, "T": 1.0, "L": 1.0},
    "rates": {"gamma": 1.0, "mu": 0.1, "r": 0.5, "f": 0.0, "C": 0.1, "p0": 1.0},
    "diffusion_k": 0.01,
    "bounds": {"phi_l": 0.0, "phi_m": 1.0},
    "cost": {"rho": 5.0, "c": 1.0, "sign_variant": "minus"},
    "tolerances": {"fixed_point_tol": 1e-9, "max_iters": 100, "relax_omega": 1.0, "seed": 0},
}


def _write(tmp_path, doc, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _assert_manifest_checksums(out: Path, names: set[str]) -> None:
    """Every artifact of out/manifest.json is listed with its file's SHA-256."""
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert set(artifacts) == names
    for name, digest in artifacts.items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()


def _with(key: str, value) -> dict:
    """A copy of MINIMAL with the dotted `key` set to `value`."""
    doc = json.loads(json.dumps(MINIMAL))
    *parents, last = key.split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[last] = value
    return doc


class TestParseScenario:
    def test_minimal_constants(self, tmp_path):
        sc = parse_scenario(_write(tmp_path, MINIMAL))
        vsc = validate_scenario(sc)
        assert vsc.growth_case.tag == "a"
        np.testing.assert_allclose(_grid_eval_full(vsc.rates.mu, vsc.grid), 0.1)

    def test_wrong_table_shape_names_key(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["rates"]["mu"] = {"table": [[0.1, 0.2], [0.3, 0.4]]}
        with pytest.raises(ScenarioFileError, match="rates.mu"):
            parse_scenario(_write(tmp_path, doc))

    def test_missing_diffusion_k(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["diffusion_k"]
        with pytest.raises(ScenarioFileError, match="diffusion_k required"):
            parse_scenario(_write(tmp_path, doc))

    def test_unknown_key_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["rates"]["beta"] = 0.5
        with pytest.raises(ScenarioFileError, match="unknown key 'beta'"):
            parse_scenario(_write(tmp_path, doc))

    def test_unknown_preset_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["rates"]["gamma"] = {"preset": "quadratic-in-s", "a": 1.0}
        with pytest.raises(ScenarioFileError, match="unknown preset"):
            parse_scenario(_write(tmp_path, doc))

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "grid": [,]\n}')
        with pytest.raises(ScenarioFileError, match="line 2"):
            parse_scenario(path)

    def test_tabulated_rate_round_trip(self, tmp_path, rng):
        doc = json.loads(json.dumps(MINIMAL))
        table = (0.2 + 0.5 * rng.random((6, 7, 4))).tolist()
        doc["rates"]["mu"] = {"table": table}
        vsc = validate_scenario(parse_scenario(_write(tmp_path, doc)))
        np.testing.assert_allclose(_grid_eval_full(vsc.rates.mu, vsc.grid), np.asarray(table))


class TestSubcommands:
    def test_simulate_outputs_and_manifest(self, tmp_path):
        scenario = _write(tmp_path, MINIMAL)
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", scenario, "--beta", "0.4",
                     "--out", str(out)]) == 0
        for name in ("p.csv", "newborns.csv", "population.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert set(manifest["artifacts"]) == {"p.csv", "newborns.csv", "population.csv"}
        assert all(len(v) == 64 for v in manifest["artifacts"].values())
        assert set(manifest["versions"]) == {"sizepop", "python", "numpy"}
        _assert_manifest_checksums(out, {"p.csv", "newborns.csv", "population.csv"})

    def test_simulate_deterministic(self, tmp_path):
        scenario = _write(tmp_path, MINIMAL)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["simulate", "--scenario", scenario, "--beta", "0.4",
                         "--out", str(out)]) == 0
            outs.append({n: (out / n).read_bytes()
                         for n in ("p.csv", "newborns.csv", "population.csv")})
        assert outs[0] == outs[1]

    def test_adjoint_outputs(self, tmp_path):
        scenario = _write(tmp_path, MINIMAL)
        out = tmp_path / "adj"
        assert main(["adjoint", "--scenario", scenario, "--beta", "0.4",
                     "--out", str(out)]) == 0
        grid = Grid3(**MINIMAL["grid"])
        phi = read_field_csv(out / "phi.csv", grid)
        assert phi.axes == ("size", "time", "space")
        assert np.abs(phi.values[:, -1, :]).max() == 0.0

    def test_beta_from_field_file(self, tmp_path):
        scenario = _write(tmp_path, MINIMAL)
        grid = Grid3(**MINIMAL["grid"])
        beta = full_field(grid, ("size", "time", "space"), 0.25)
        beta_path = tmp_path / "beta.csv"
        write_field_csv(beta, beta_path)
        out = tmp_path / "simfile"
        assert main(["simulate", "--scenario", scenario, "--beta", str(beta_path),
                     "--out", str(out)]) == 0
        # constant file equals the constant run
        out2 = tmp_path / "simconst"
        assert main(["simulate", "--scenario", scenario, "--beta", "0.25",
                     "--out", str(out2)]) == 0
        assert (out / "p.csv").read_bytes() == (out2 / "p.csv").read_bytes()

    def test_simulate_with_tabulated_rates(self, tmp_path, rng):
        doc = json.loads(json.dumps(MINIMAL))
        doc["rates"]["mu"] = {"table": (0.05 + 0.2 * rng.random((6, 7, 4))).tolist()}
        doc["rates"]["p0"] = {"table": (0.5 + rng.random((6, 4))).tolist()}
        out = tmp_path / "tab"
        assert main(["simulate", "--scenario", _write(tmp_path, doc),
                     "--beta", "0.3", "--out", str(out)]) == 0
        grid = Grid3(**MINIMAL["grid"])
        p = read_field_csv(out / "p.csv", grid)
        assert p.values.min() >= 0.0
        np.testing.assert_allclose(p.values[:, 0, :], np.asarray(doc["rates"]["p0"]["table"]))

    def test_optimize_report(self, tmp_path):
        scenario = _write(tmp_path, MINIMAL)
        out = tmp_path / "opt"
        assert main(["optimize", "--scenario", scenario, "--out", str(out),
                     "--tol", "1e-8", "--max-iters", "50"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "converged"
        assert len(report["J_history"]) == report["iterations"]
        assert report["contraction"] is not None
        assert (np.asarray(report["update_residuals"][:-1]) > 0).all()
        _assert_manifest_checksums(out, {"beta_opt.csv", "report.json"})

    def test_relaxed_optimum_in_a_pinned_box_simulates(self, tmp_path):
        doc = _with("bounds", {"phi_l": 0.1, "phi_m": 0.1})
        scenario = _write(tmp_path, doc)
        out = tmp_path / "opt"
        assert main(["optimize", "--scenario", scenario, "--out", str(out),
                     "--relax", "0.3"]) == 0
        assert json.loads((out / "report.json").read_text())["contraction"] is None
        assert main(["simulate", "--scenario", scenario, "--beta", str(out / "beta_opt.csv"),
                     "--out", str(tmp_path / "sim")]) == 0

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--directions", "2", "--seed", "1"]) == 0
        assert "all pass" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "adjoint"])
    @pytest.mark.parametrize("gamma, beta, cell", [
        (1.0, (1, 2, 1), "(i=1, j=2, k=1)"),
        # growth case c: no renewal boundary, so the control enters no solve
        ({"preset": "linear-in-s", "a": 0, "b": 1.0}, "nan", "(i=0, j=0, k=0)"),
        # case a, NaN only at the last level, which feeds no later level
        (1.0, (0, 6, 1), "(i=0, j=6, k=1)"),
    ], ids=["interior", "case-c", "last-level"])
    def test_non_finite_control_is_numerical_failure(self, tmp_path, capsys, command, gamma,
                                                     beta, cell):
        if isinstance(beta, tuple):
            grid = Grid3(**MINIMAL["grid"])
            from sizepop.model import Field
            vals = np.full((grid.Ns, grid.Nt + 1, grid.Nx), 0.2)
            vals[beta] = np.nan
            beta = str(tmp_path / "bad_beta.csv")
            write_field_csv(Field(grid, ("size", "time", "space"), vals), beta)
        scenario = _write(tmp_path, _with("rates.gamma", gamma))
        assert main([command, "--scenario", scenario, "--beta", beta,
                     "--out", str(tmp_path / "nf")]) == 3
        err = capsys.readouterr().err
        assert err == f"numerical failure: --beta: control nan at {cell} is not finite\n"
        assert not (tmp_path / "nf").exists()

    @pytest.mark.parametrize("key, value, flags", [
        ("max_iters", 0, ["--max-iters", "0"]),
        ("max_iters", -3, ["--max-iters", "-3"]),
        ("fixed_point_tol", 0.0, ["--tol", "0"]),
        ("fixed_point_tol", -1e-9, ["--tol=-1e-9"]),
        ("seed", -1, ["--seed", "-1"]),
    ])
    def test_bad_iteration_tolerances_are_usage_errors(self, tmp_path, capsys, key, value, flags):
        doc = json.loads(json.dumps(MINIMAL))
        doc["tolerances"][key] = value
        from_file = ["optimize", "--scenario", _write(tmp_path, doc, "bad.json"),
                     "--out", str(tmp_path / "f")]
        from_flag = ["optimize", "--scenario", _write(tmp_path, MINIMAL),
                     "--out", str(tmp_path / "o"), *flags]
        for argv in (from_file, from_flag):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert key in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("rates.mu", float("nan")),
        ("rates.C", float("inf")),
        ("bounds.phi_m", float("inf")),
        ("rates.r", float("nan")),
        ("rates.gamma", float("nan")),
        ("bounds.phi_l", float("nan")),
        ("diffusion_k", float("inf")),
        ("cost.rho", float("inf")),
        ("cost.c", float("inf")),
        # k*dt/dx^2 overflows or underflows in the diffusion bands
        ("grid.L", 1e300),
        ("grid.L", 1e-300),
        # 1 + 2*k*dt/dx^2 rounds to 2*k*dt/dx^2: a singular diffusion matrix
        ("grid.T", 1e300),
    ])
    def test_non_finite_inputs_are_usage_errors(self, tmp_path, capsys, key, value):
        # json writes and reads NaN and Infinity, so a scenario file can carry them
        assert main(["simulate", "--scenario", _write(tmp_path, _with(key, value)),
                     "--beta", "0.4", "--out", str(tmp_path / "nf")]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("grid.Ns", 2.7),
        ("grid.Nt", 6.5),
        ("grid.Nx", 4.2),
        ("tolerances.max_iters", 2.5),
        ("tolerances.seed", 0.5),
    ])
    def test_non_integral_counts_are_usage_errors(self, tmp_path, capsys, key, value):
        assert main(["simulate", "--scenario", _write(tmp_path, _with(key, value)),
                     "--beta", "0.4", "--out", str(tmp_path / "ni")]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_integral_float_count_is_accepted(self, tmp_path):
        assert main(["simulate", "--scenario", _write(tmp_path, _with("grid.Ns", 6.0)),
                     "--beta", "0.4", "--out", str(tmp_path / "f")]) == 0

    def test_missing_beta_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.csv"
        assert main(["simulate", "--scenario", _write(tmp_path, MINIMAL),
                     "--beta", str(missing), "--out", str(tmp_path / "m")]) == 1
        err = capsys.readouterr().err
        assert f"cannot read {missing}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("args, message", [
        (["optimize", "--out", "d"], "--scenario"),
        (["optimize", "--scenario", "{scenario}", "--out", "d", "--tol", "-1e-9"],
         "--tol|fixed_point_tol"),
        # simulate and adjoint use no random numbers, so they take no seed
        (["simulate", "--scenario", "{scenario}", "--beta", "0.4", "--out", "d", "--seed", "3"],
         "unrecognized arguments: --seed 3"),
        # refused before anything runs, by a message that names the option
        (["oracle", "--seed", "-1"], "seed"),
        (["gradcheck", "--directions", "0"], "directions"),
        (["gradcheck", "--directions", "-2"], "directions"),
    ])
    def test_argument_errors_exit_with_usage_code(self, tmp_path, capsys, args, message):
        # argparse exits through SystemExit; where a newer argparse accepts
        # "-1e-9" as a value, validation rejects it and main returns 1
        scenario = _write(tmp_path, MINIMAL)
        try:
            code = main([a.format(scenario=scenario) for a in args])
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and re.search(message, err)

    def test_invalid_scenario_is_usage_error(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["rates"]["r"] = 1.0  # violates the female-ratio assumption
        assert main(["simulate", "--scenario", _write(tmp_path, doc),
                     "--beta", "0.4", "--out", str(tmp_path / "x")]) == 1

    def test_oracle_only_filter(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        assert main(["oracle", "--only", "heat_mode_decay", "--out", str(out)]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert [r["name"] for r in report["oracles"]] == ["heat_mode_decay"]

    def test_oracle_gradcheck_alias_runs_fd_gradient(self, capsys):
        assert main(["oracle", "--only", "gradcheck"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in report["oracles"]] == ["fd_gradient"]

    def test_unknown_oracle_is_usage_error(self):
        assert main(["oracle", "--only", "nonexistent"]) == 1


    @pytest.mark.parametrize("argv", [
        ["simulate", "--beta", "0.4"],
        ["adjoint", "--beta", "0.4"],
        ["optimize", "--max-iters", "2"],
        ["gradcheck", "--directions", "1"],
    ])
    def test_manifest_duration_includes_loading(self, tmp_path, monkeypatch, argv):
        load = cli._load_validated

        def slow_load(path):
            time.sleep(0.05)
            return load(path)

        monkeypatch.setattr(cli, "_load_validated", slow_load)
        out = tmp_path / "run"
        main([*argv, "--scenario", _write(tmp_path, MINIMAL), "--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["duration_s"] >= 0.05

    @pytest.mark.parametrize("argv, names", [
        (["simulate", "--beta", "0.4"], {"p.csv", "newborns.csv", "population.csv"}),
        (["adjoint", "--beta", "0.4"], {"phi.csv", "phi0.csv"}),
        (["optimize", "--max-iters", "2"], {"beta_opt.csv", "report.json"}),
        (["gradcheck", "--directions", "1"], {"gradcheck.json"}),
        (["oracle", "--only", "heat_mode_decay"], {"oracle_report.json"}),
    ])
    def test_manifest_describes_the_run(self, tmp_path, capsys, argv, names):
        out = tmp_path / "run"
        scenario = [] if argv[0] == "oracle" else ["--scenario", _write(tmp_path, MINIMAL)]
        argv = [*argv, *scenario, "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == argv[0]
        # the options given and nothing else: no handler, subcommand or start stamp
        assert set(manifest["options"]) == {a[2:].replace("-", "_") for a in argv
                                            if a.startswith("--")}
        if argv[0] == "oracle":
            # the oracles run no single scenario
            assert "grid" not in manifest and "growth_case" not in manifest
        else:
            assert set(manifest["grid"]) == {"Ns", "Nt", "Nx", "s_f", "T", "L"}
            assert "growth_case" in manifest
        _assert_manifest_checksums(out, names)

    def test_manifest_duration_ignores_wall_clock_steps(self, tmp_path, monkeypatch):
        wall = [1e9]

        def stepping_back():
            wall[0] -= 3600.0
            return wall[0]

        monkeypatch.setattr(cli.time, "time", stepping_back)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", _write(tmp_path, MINIMAL), "--beta", "0.4",
                     "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["duration_s"] >= 0

    @pytest.mark.parametrize("beta, message", [
        ("-5", r"control -5.0 at \(i=0, j=0, k=0\) is below bounds.phi_l = 0.0"),
        ("1.5", r"control 1.5 at \(i=0, j=0, k=0\) is above bounds.phi_m = 1.0"),
        ("csv", r"control 1.25 at \(i=2, j=3, k=1\) is above bounds.phi_m = 1.0"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "adjoint"])
    def test_control_outside_box_is_usage_error(self, tmp_path, capsys, command, beta, message):
        if beta == "csv":
            grid = Grid3(**MINIMAL["grid"])
            from sizepop.model import Field
            vals = np.full((grid.Ns, grid.Nt + 1, grid.Nx), 0.5)
            vals[2, 3, 1] = 1.25
            vals[4, 0, 0] = -0.5  # later in row order than (2, 3, 1)
            beta = str(tmp_path / "beta.csv")
            write_field_csv(Field(grid, ("size", "time", "space"), vals), beta)
        assert main([command, "--scenario", _write(tmp_path, MINIMAL), "--beta", beta,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("beta", ["0", "1", "0.0", "1.0"])
    def test_control_on_the_box_edges_runs(self, tmp_path, beta):
        assert main(["simulate", "--scenario", _write(tmp_path, MINIMAL), "--beta", beta,
                     "--out", str(tmp_path / "o")]) == 0


def _raise(err):
    def fail(*args, **kwargs):
        raise err
    return fail


@pytest.mark.parametrize("case, code, message", [
    ("out is a file", 1, "error: .*File exists"),
    ("out below a file", 1, "error: .*Not a directory"),
    ("lost bracket", 3, "numerical failure: no sign change"),
    ("float overflow", 3, "numerical failure: .*out of range"),
    ("unexpected", 4, "internal error: KeyError: 'boom'"),
    # optimize: the diagnostics run here while a child writes beta_opt.csv
    ("diagnostics fail", 3, "numerical failure: non-finite M3"),
    ("beta_opt.csv is a directory", 1, "error: .*Is a directory"),
])
def test_failures_exit_with_one_line(tmp_path, capsys, monkeypatch, case, code, message):
    forks = fork_csv_workers(monkeypatch, 2)
    (tmp_path / "file").write_text("")
    out = tmp_path / "out"
    argv = ["simulate", "--beta", "0.4"]
    if case == "out is a file":
        out = tmp_path / "file"
    elif case == "out below a file":
        out = tmp_path / "file" / "sub"
    elif case == "lost bracket":
        monkeypatch.setattr(cli, "solve_state", _raise(RootBracketError("no sign change")))
    elif case == "float overflow":
        monkeypatch.setattr(cli, "solve_state", _raise(OverflowError(34, "out of range")))
    elif case == "unexpected":
        monkeypatch.setattr(cli, "solve_state", _raise(KeyError("boom")))
    elif case == "diagnostics fail":
        monkeypatch.setattr(optimizer, "contraction_diagnostics",
                            _raise(NumericalError("non-finite M3")))
        argv = ["optimize"]
    else:
        (out / "beta_opt.csv").mkdir(parents=True)
        argv = ["optimize"]
    assert main([*argv, "--scenario", _write(tmp_path, MINIMAL), "--out", str(out)]) == code
    assert len(forks) == (argv[0] == "optimize")  # the writer child
    assert_no_child_left()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert re.match(message, err), err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_optimize_writes_what_the_library_computes(tmp_path, monkeypatch):
    # the CSV is written in a child while the diagnostics run in the command
    forks = fork_csv_workers(monkeypatch, 2)
    scenario = _write(tmp_path, MINIMAL)
    out = tmp_path / "opt"
    assert main(["optimize", "--scenario", scenario, "--seed", "7", "--out", str(out)]) == 0
    assert forks
    assert_no_child_left()
    report = optimizer.optimize(
        validate_scenario(parse_scenario(scenario)).with_tolerances(seed=7))
    assert report.contraction is not None
    assert (out / "report.json").read_text() == json.dumps(report.to_dict(), indent=2) + "\n"
    digest = json.loads((out / "manifest.json").read_text())["artifacts"]["beta_opt.csv"]
    assert digest == write_field_csv(report.beta_opt, tmp_path / "beta_opt.csv")


def test_failed_write_after_fork_is_usage_error(tmp_path, capsys, monkeypatch):
    # the caller's own write fails after the workers started: still OSError
    forks = fork_csv_workers(monkeypatch, 2)
    out = tmp_path / "out"
    (out / "p.csv").mkdir(parents=True)
    assert main(["simulate", "--scenario", _write(tmp_path, MINIMAL), "--beta", "0.4",
                 "--out", str(out)]) == 1
    assert forks
    assert_no_child_left()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert re.match("error: .*Is a directory", err), err


# a worker writes to the real stderr, which only a separate process captures
DEAD_WORKER = """
import os, sys
from sizepop import scenario_io
from sizepop.cli import main

scenario_io.PARALLEL_MIN_VALUES = 1
os.sched_getaffinity = lambda pid: {0, 1}
format_slice = scenario_io._format_slice

def fail_on_slice_one(i, *layout):
    if i == 1:
        raise RuntimeError("slice 1")
    return format_slice(i, *layout)

scenario_io._format_slice = fail_on_slice_one
code = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child outlived the command", file=sys.stderr)
except ChildProcessError:
    pass
sys.exit(code)
"""


def test_dead_worker_is_internal_error(tmp_path):
    # optimize's workers are forked by the child that writes beta_opt.csv
    for argv in (["simulate", "--beta", "0.4"], ["optimize"]):
        out = tmp_path / argv[0]
        done = _run_python("-c", DEAD_WORKER, *argv, "--scenario", _write(tmp_path, MINIMAL),
                           "--out", str(out))
        assert done.returncode == 4
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith("internal error: RuntimeError: "), done.stderr
        assert "formatting worker stopped before slice 1" in done.stderr
        assert not (out / "manifest.json").exists()


def test_optimize_warns_of_nothing_in_dev_mode(tmp_path):
    # -X dev reports a pipe or file left unclosed, in this process or in a
    # forked one, as a ResourceWarning, which -W error turns into a message
    script = ("import sys; from sizepop import scenario_io; from sizepop.cli import main; "
              "scenario_io.PARALLEL_MIN_VALUES = 1; sys.exit(main(sys.argv[1:]))")
    done = _run_python("-X", "dev", "-W", "error", "-c", script, "optimize",
                       "--scenario", _write(tmp_path, MINIMAL), "--out", str(tmp_path / "o"))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def _run_python(*args, env=None) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's package on its path and the
    variables in `env` set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_numpy_warnings_do_not_reach_stderr(tmp_path):
    # a tiny growth rate and a huge initial density overflow the transport
    # step; pytest would capture a RuntimeWarning in-process, so the command
    # runs in its own interpreter
    doc = _with("rates.gamma", 1e-300)
    doc["rates"]["p0"] = 1e300
    done = _run_python("-m", "sizepop.cli", "simulate",
                       "--scenario", _write(tmp_path, doc),
                       "--beta", "0.4", "--out", str(tmp_path / "o"))
    assert done.returncode == 3
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith("numerical failure: ")
    assert "RuntimeWarning" not in done.stderr


def test_import_leaves_scipy_interpolate_unloaded():
    # the package runs on numpy alone: no scipy module at all, which also
    # keeps scipy.interpolate out
    probe = "import sys, sizepop.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    done = _run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_leaves_oracles_and_presets_unloaded():
    # only the oracle and gradcheck commands import them
    probe = ("import sys, sizepop.cli; "
             "print(sorted(m for m in ('sizepop.oracles', 'sizepop.presets') if m in sys.modules))")
    done = _run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_oracle_help_names_the_oracles(capsys):
    assert cli.ORACLE_NAMES == oracles.ORACLE_NAMES
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"comma-separated subset of {', '.join(oracles.ORACLE_NAMES)}" in out


def test_dense_diffusion_is_the_same_at_one_and_two_blas_threads():
    # the largest grid on the dense diffusion path, with enough rows that a
    # threaded BLAS product would split the work (one past the limit, 160
    # rows give other bits at two threads)
    probe = (
        "import hashlib; from sizepop.adjoint import solve_adjoint; "
        "from sizepop.forward import DENSE_DIFFUSION_MAX_NX, solve_state; "
        "from sizepop.presets import smooth_default; "
        "vsc = smooth_default(160, 2, DENSE_DIFFUSION_MAX_NX); "
        "st = solve_state(vsc, 0.4); adj = solve_adjoint(vsc, st); "
        "print(hashlib.sha256(st.p.values.tobytes() + adj.phi.values.tobytes()).hexdigest())"
    )
    digests = set()
    for threads in ("1", "2"):
        done = _run_python("-c", probe, env={"OPENBLAS_NUM_THREADS": threads})
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def _corrupt_adjoint(monkeypatch) -> None:
    """Flip the sign of one entry of every transposed step, in the step the
    oracle and solve_adjoint both call."""
    exact = StepContext.apply_step_adjoint

    def corrupted(self, j, beta_j, lam):
        out, yhat = exact(self, j, beta_j, lam)
        out[0, 0] = -out[0, 0]
        return out, yhat

    monkeypatch.setattr(StepContext, "apply_step_adjoint", corrupted)


@pytest.mark.parametrize("seed", [72, 152, 154, 280, 287, 388])
def test_duality_oracle_on_seeds_where_the_pairing_cancels(seed, monkeypatch):
    # <Au, v> cancels to about 1e-5 of |Au| |v| on these seeds, so a defect
    # relative to |<Au, v>| read as a failure although the step is exact
    assert oracle_transpose_duality(seed=seed)["passed"]
    _corrupt_adjoint(monkeypatch)
    assert not oracle_transpose_duality(seed=seed)["passed"]


def test_corrupted_adjoint_fails_duality_oracle(monkeypatch):
    clean = run_oracles(names=["transpose_duality"])
    assert clean["all_passed"]
    _corrupt_adjoint(monkeypatch)
    report = run_oracles(names=["transpose_duality"])
    assert not report["all_passed"]
    assert main(["oracle", "--only", "transpose_duality"]) == 2
