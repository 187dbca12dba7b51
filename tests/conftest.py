"""Shared helpers: smooth random rates, small scenario builders, and a dense
assembly of the one-step map for transpose checks."""

from __future__ import annotations

import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from sizepop import rates as rate_lib
from sizepop import scenario_io
from sizepop.adjoint import AdjointSolution
from sizepop.forward import StateSolution, _check_level, solve_state
from sizepop.model import (
    CostParams,
    Field,
    Grid3,
    Scenario,
    ValidatedScenario,
    control_array,
    validate_scenario,
)
from sizepop.optimizer import _level_cost, _update_target

AXIS_SPANS = {"size": 1.0, "time": 1.0, "space": 1.0}


def smooth_random_rate(rng, axes, base, amp, n_modes=2):
    """Random smooth positive function of the given axes on the unit box.

    A low-order cosine series with coefficients scaled so the value stays
    within [base - amp, base + amp]; evaluable on any grid, which lets the
    same draw be sampled on two refinement levels.
    """
    coeffs = rng.uniform(-1.0, 1.0, size=(n_modes,) * len(axes))
    coeffs *= amp / max(np.abs(coeffs).sum(), 1e-12)

    def fn(*args):
        out = np.full_like(args[0], float(base))
        for multi in np.ndindex(*coeffs.shape):
            term = np.full_like(args[0], coeffs[multi])
            for ax_i, m in enumerate(multi):
                term = term * np.cos(np.pi * (m + 1) * args[ax_i])
            out = out + term
        return out

    return rate_lib.from_callable(fn, axes)


def scenario_of(grid: Grid3, rates: dict, *, k: float, bounds=(0.0, 1.0), cost=None,
                tol=None) -> Scenario:
    """A scenario parsed by ``scenario_from_dict``, as the built-in ones are.

    `rates` and `bounds` hold scenario-file entries: numbers, presets and
    tables.  A RateField, such as a callable, which the file format cannot
    express, replaces its parsed placeholder; `cost` and `tol` objects
    replace the defaults.
    """
    fields = {name: v for name, v in rates.items() if isinstance(v, rate_lib.RateField)}
    sc = scenario_io.scenario_from_dict({
        "grid": asdict(grid),
        "rates": {name: 0.0 if name in fields else v for name, v in rates.items()},
        "diffusion_k": k,
        "bounds": dict(zip(("phi_l", "phi_m"), bounds)),
    })
    return replace(sc, rates=replace(sc.rates, **fields), cost=cost or sc.cost,
                   tolerances=tol or sc.tolerances)


def unit_scenario(grid=None, *, gamma=1.0, mu=0.0, r=0.5, f=0.0, C=0.0, p0=1.0,
                  k=1e-300, phi_l=0.0, phi_m=1.0, cost=None, tol=None) -> "ValidatedScenario":
    """Constant-rate scenario on the unit box; diffusion defaults to inert."""
    grid = grid or Grid3(Ns=10, Nt=10, Nx=3, s_f=1.0, T=1.0, L=1.0)
    return validate_scenario(scenario_of(grid, dict(gamma=gamma, mu=mu, r=r, f=f, C=C, p0=p0),
                                         k=k, bounds=(phi_l, phi_m), cost=cost, tol=tol))


def evaluate_cost(state: StateSolution, beta, cost: CostParams) -> float:
    """J = integral of [p -/+ rho/2 * beta^2] under the volume quadrature,
    for the state solved at the control `beta`, summed level by level as the
    sweep sums it: the stored-field form of the cost, which the tests hold
    the sweep's J_history and evaluate_costs to, bit for bit."""
    grid = state.p.grid
    beta = control_array(grid, beta)
    w = grid.volume_weights()
    J = 0.0
    for j in range(grid.Nt + 1):
        J += float(_level_cost(w[j], state.p.values[:, j, :], beta[:, j, :], cost))
    return J


def stored_sensitivity(vsc: ValidatedScenario, beta, delta) -> np.ndarray:
    """The sensitivity z, shape (Ns, Nt+1, Nx), marched on a stored state
    into a stored field: the stored form of forward.march_sensitivity,
    which the tests hold its levels to, bit for bit."""
    ctx = vsc.step_context
    grid = vsc.grid
    beta = control_array(grid, beta)
    delta = control_array(grid, delta)
    p = solve_state(vsc, beta).p.values
    z = np.zeros((grid.Ns, grid.Nt + 1, grid.Nx))
    for j in range(grid.Nt):
        b = (ctx.births(j, beta[:, j, :], z[:, j, :])
             + ctx.births(j, delta[:, j, :], p[:, j, :]))
        z[:, j + 1, :] = ctx._advance(j, z[:, j, :], b)
        _check_level(z[:, j + 1, :], "sensitivity", j + 1)
    return z


def fixed_point_update(state: StateSolution, adjoint: AdjointSolution,
                       vsc: ValidatedScenario) -> Field:
    """Projected stationarity map over the whole grid: the sweep's per-level
    update applied to a stored state and adjoint, the stored-field form the
    tests check the streamed sweep and its converged control against."""
    return Field(vsc.grid, ("size", "time", "space"),
                 _update_target(vsc, state.p.values, adjoint.phi_at_zero.values[None, :, :]))


def full_field(grid: Grid3, axes: tuple[str, ...], value: float) -> Field:
    """A field of one constant value over the given axes."""
    shape = tuple(grid.axis_len(a) for a in axes)
    return Field(grid, axes, np.full(shape, float(value)))


def count_forks(monkeypatch) -> list:
    """A list that gets one entry per ``os.fork`` call of this process."""
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, such as a CSV writer."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def with_cost(vsc: ValidatedScenario, **kw) -> ValidatedScenario:
    """The same validated scenario with some cost parameters replaced."""
    sc = replace(vsc.scenario, cost=replace(vsc.scenario.cost, **kw))
    return replace(vsc, scenario=sc)


def random_nonneg_scenario(seed: int, Ns: int = 6, Nt: int = 8, Nx: int = 6) -> ValidatedScenario:
    """Randomized nonnegative-data scenario for positivity sweeps.

    Cycles through growth rates covering all four boundary sign cases.
    """
    rng = np.random.default_rng(seed)
    grid = Grid3(Ns=Ns, Nt=Nt, Nx=Nx, s_f=1.0, T=1.0, L=1.0)
    gamma_choice = rng.integers(0, 5)
    if gamma_choice == 0:
        gamma = 0.2 + rng.random()                                             # case a
    elif gamma_choice == 1:
        gamma = {"preset": "linear-in-s", "a": 0.2 + 0.5 * rng.random(), "b": 0.6 * rng.random()}
    elif gamma_choice == 2:
        gamma = {"preset": "linear-in-s", "a": 0.0, "b": 0.5 + rng.random()}  # case c
    elif gamma_choice == 3:
        a = 0.3 + 0.7 * rng.random()                                           # case b
        gamma = {"preset": "linear-in-s", "a": a, "b": -a / grid.s_f}
    else:
        scale = 0.5 + rng.random()                                             # case d
        gamma = rate_lib.from_callable(
            lambda s, t, _c=scale: _c * s * (grid.s_f - s), ("size", "time"),
            d_ds=lambda s, t, _c=scale: _c * (grid.s_f - 2.0 * s))

    def table(name, lo=0.0, hi=1.0):
        shape = tuple(grid.axis_len(a) for a in scenario_io.RATE_AXES[name])
        return {"table": lo + (hi - lo) * rng.random(shape)}

    rates = dict(gamma=gamma, mu=table("mu", 0.0, 0.5), r=table("r", 0.1, 0.9),
                 f=table("f", 0.0, 0.3), C=table("C", 0.0, 0.4), p0=table("p0", 0.0, 2.0))
    return validate_scenario(scenario_of(grid, rates, k=0.001 + 0.05 * rng.random(),
                                         bounds=(0.0, 2.0)))


def tabulated_scenario(seed: int = 12, Ns: int = 6, Nt: int = 5, Nx: int = 4) -> ValidatedScenario:
    """mu, r, f, phi_l and phi_m tabulated on (size, time, space): every
    rate the solvers sample on the full grid varies over all three axes."""
    rng = np.random.default_rng(seed)
    grid = Grid3(Ns=Ns, Nt=Nt, Nx=Nx, s_f=1.0, T=1.0, L=1.0)
    shape = tuple(grid.axis_len(a) for a in ("size", "time", "space"))

    def table(lo, hi):
        return {"table": lo + (hi - lo) * rng.random(shape)}

    rates = dict(gamma={"preset": "linear-in-s", "a": 0.4, "b": 0.3},
                 mu=table(0.0, 0.3), r=table(0.2, 0.8), f=table(0.0, 0.1), C=0.2, p0=1.0)
    return validate_scenario(scenario_of(grid, rates, k=0.01,
                                         bounds=(table(0.0, 0.2), table(0.8, 1.0)),
                                         cost=CostParams(rho=10.0)))


def assemble_step_matrix(vsc: ValidatedScenario, beta, j: int, adjoint: bool = False) -> np.ndarray:
    """Dense matrix of the linear one-step map (or its adjoint) at level j.

    Columns are the images of the unit vectors on the flattened (size, space)
    slice, so the two matrices can be compared entry by entry.
    """
    ctx = vsc.step_context
    grid = vsc.grid
    beta_arr = control_array(grid, beta)
    n = grid.Ns * grid.Nx
    mat = np.empty((n, n))
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        u = e.reshape(grid.Ns, grid.Nx)
        if adjoint:
            out, _ = ctx.apply_step_adjoint(j, beta_arr[:, j, :], u)
        else:
            out = ctx.apply_step_linear(j, beta_arr[:, j, :], u)
        mat[:, col] = out.ravel()
    return mat


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
