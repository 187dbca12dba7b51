"""Input generation and output checks, run in their own interpreter.

Usage:
  python3 bench/helper.py prepare SPEC_JSON   -> prints library versions
  python3 bench/helper.py check SPEC_JSON     -> prints one verdict per invocation

SPEC_JSON is written by run.py.  Keeping numpy and sizepop out of the
benchmark's own process keeps that process small, so its memory never shows
in a command's peak RSS, which the kernel carries over across exec.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import scipy

from sizepop.forward import solve_state
from sizepop.model import Field, validate_scenario
from sizepop.scenario_io import parse_scenario, write_field_csv


def seeded_control(vsc, seed: int) -> np.ndarray:
    """Uniform-random control inside the box [phi_l, phi_m]."""
    g = vsc.grid
    u = np.random.default_rng(seed).random((g.Ns, g.Nt + 1, g.Nx))
    return vsc.phi_l_grid + u * (vsc.phi_m_grid - vsc.phi_l_grid)


def prepare(spec: dict) -> dict:
    if spec.get("control"):
        vsc = validate_scenario(parse_scenario(spec["scenario"]))
        beta = seeded_control(vsc, spec["seed"])
        write_field_csv(Field(vsc.grid, ("size", "time", "space"), beta), spec["control"])
    return {"numpy": np.__version__, "scipy": scipy.__version__}


_AXIS_COLUMN = {"size": 0, "time": 1, "space": 2}


class Mismatch(Exception):
    """An output differs from what the check expects."""


def read_field(path: Path, grid, axes: tuple[str, ...]) -> np.ndarray:
    """Values of a field CSV (header s,t,x,value), shaped to `axes`.

    Every row's coordinates must equal the grid's, in the order the writer
    walks the axes, and the columns of the axes the field lacks must be
    empty: this is the file format that read_field_csv accepts.
    """
    with open(path) as fh:
        if fh.readline().strip() != "s,t,x,value":
            raise Mismatch(f"{path.name}: bad header")
        first = fh.readline().rstrip("\n").split(",")
    unused = [c for a, c in _AXIS_COLUMN.items() if a not in axes]
    if len(first) != 4 or any(first[c] for c in unused):
        raise Mismatch(f"{path.name}: row 2 does not match axes {axes}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=[_AXIS_COLUMN[a] for a in axes] + [3])
    shape = tuple(grid.axis_len(a) for a in axes)
    if data.shape[0] != int(np.prod(shape)):
        raise Mismatch(f"{path.name} has {data.shape[0]} rows, want {int(np.prod(shape))}")
    for j, a in enumerate(axes):
        coords = grid.axis_coords(a).reshape([-1 if b == a else 1 for b in axes])
        bad = np.flatnonzero(data[:, j] != np.broadcast_to(coords, shape).ravel())
        if bad.size:
            got = float(data[bad[0], j])
            raise Mismatch(f"{path.name}: row {bad[0] + 2}: {a} coordinate {got!r} "
                           f"is not the grid's")
    return data[:, -1].reshape(shape)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def control_sums(beta: np.ndarray, grid) -> dict:
    """Sums of a (size, time, space) control; all but `beta_sum` change
    when values move to other rows."""
    return {
        "beta_sum": float(beta.sum()),
        "beta_s_sum": float((beta * grid.s_centers[:, None, None]).sum()),
        "beta_t_sum": float((beta * grid.t_points[None, :, None]).sum()),
        "beta_x_sum": float((beta * grid.x_points[None, None, :]).sum()),
        "beta_row_sum": float(beta.reshape(-1) @ np.arange(beta.size, dtype=float)),
    }


def check_optimize(out: Path, grid, ref: dict, tol: float) -> str:
    report = json.loads((out / "report.json").read_text())
    if report["status"] != "converged":
        return f"status {report['status']!r}, want 'converged'"
    J = report["J_history"][-1]
    if _rel(J, ref["J"]) > tol:
        return f"final J {J!r} differs from reference {ref['J']!r} by more than {tol:g}"
    beta = read_field(out / "beta_opt.csv", grid, ("size", "time", "space"))
    for name, value in control_sums(beta, grid).items():
        if _rel(value, ref[name]) > tol:
            return f"{name} of beta_opt.csv {value!r} differs from reference {ref[name]!r}"
    return ""


class SimulateCheck:
    """p.csv and newborns.csv against an in-process solve of the same
    control; population.csv against an independent quadrature of the p.csv
    read back."""

    def __init__(self, spec: dict):
        vsc = validate_scenario(parse_scenario(spec["scenario"]))
        g = vsc.grid
        self.grid = g
        state = solve_state(vsc, seeded_control(vsc, spec["seed"]))
        self.p_ref = state.p.values
        self.newborns_ref = state.newborn_density.values
        wx = np.full(g.Nx, g.L / (g.Nx - 1))
        wx[0] = wx[-1] = 0.5 * wx[0]
        self.wx, self.ds = wx, g.s_f / g.Ns
        self.tol = spec["tolerance"]

    def compare(self, name: str, got: np.ndarray, want: np.ndarray, against: str) -> None:
        err = float(np.abs(got - want).max()) / float(np.abs(want).max())
        if err > self.tol:
            raise Mismatch(f"{name} differs from {against} by {err:.3e} (relative)")

    def __call__(self, out: Path) -> str:
        p = read_field(out / "p.csv", self.grid, ("size", "time", "space"))
        self.compare("p.csv", p, self.p_ref, "the in-process solve")
        newborns = read_field(out / "newborns.csv", self.grid, ("time", "space"))
        self.compare("newborns.csv", newborns, self.newborns_ref, "the in-process solve")
        pop = read_field(out / "population.csv", self.grid, ("time",))
        quad = (p * self.wx[None, None, :]).sum(axis=(0, 2)) * self.ds
        self.compare("population.csv", pop, quad, "the quadrature of p.csv")
        return ""


def check_oracle(out: Path, seed: int, n_oracles: int) -> str:
    report = json.loads((out / "stdout.txt").read_text())
    if report["seed"] != seed:
        return f"report seed {report['seed']}, want {seed}"
    if len(report["oracles"]) != n_oracles:
        return f"{len(report['oracles'])} oracles ran, want {n_oracles}"
    if not report["all_passed"]:
        failed = [o["name"] for o in report["oracles"] if not o["passed"]]
        return f"oracles failed: {', '.join(failed)}"
    return ""


def check(spec: dict) -> list[str]:
    kind = spec["kind"]
    if kind == "simulate":
        checker = SimulateCheck(spec)
    elif kind == "optimize":
        grid = validate_scenario(parse_scenario(spec["scenario"])).grid
        checker = lambda out: check_optimize(out, grid, spec["reference"], spec["tolerance"])
    else:
        checker = lambda out: check_oracle(out, spec["seed"], spec["n_oracles"])
    verdicts = []
    for out in spec["outputs"]:
        try:
            verdicts.append(checker(Path(out)))
        except Mismatch as err:
            verdicts.append(str(err))
        except (OSError, ValueError, KeyError, TypeError) as err:
            verdicts.append(f"unreadable output: {type(err).__name__}: {err}")
    return verdicts


if __name__ == "__main__":
    mode, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text())
    result = prepare(spec) if mode == "prepare" else check(spec)
    print(json.dumps(result))
