"""Adjoint and sensitivity systems: transpose exactness, duality, traces."""

from __future__ import annotations

import numpy as np
import pytest

import sizepop as sp
from sizepop import rates as rate_lib
from sizepop.adjoint import duality_residual, march_adjoint, solve_adjoint, solve_sensitivity
from sizepop.model import Grid3, NumericalError, Scenario, VitalRates, validate_scenario
from sizepop.presets import smooth_default, tiny_random
from sizepop.optimizer import evaluate_cost, optimize
from conftest import assemble_step_matrix, unit_scenario


def test_terminal_condition_is_exactly_zero():
    vsc = tiny_random(seed=2)
    st = sp.solve_state(vsc, 0.5)
    adj = solve_adjoint(vsc, st)
    assert np.abs(adj.phi.values[:, -1, :]).max() == 0.0
    assert np.abs(adj.phi_at_zero.values[-1]).max() == 0.0


def test_unit_source_solution_reaches_nearest_exit():
    # gamma = 1, no mortality, no births, inert diffusion: the adjoint
    # accumulates the source -c along the forward curve until it exits at
    # t = T or s = s_f, so phi -> -c * min(T - t, s_f - s) as the grid
    # refines (the duality convention makes phi nonpositive; see ledger).
    errs = []
    for n in (20, 40):
        grid = Grid3(Ns=n, Nt=n, Nx=3, s_f=1.0, T=1.0, L=1.0)
        vsc = unit_scenario(grid, gamma=1.0, mu=0.0)
        st = sp.solve_state(vsc, 0.0)
        adj = solve_adjoint(vsc, st)
        S, T = np.meshgrid(grid.s_centers, grid.t_points, indexing="ij")
        expected = -np.minimum(grid.T - T, grid.s_f - S)
        errs.append(np.abs(adj.phi.values[:, :, 1] - expected).max())
        assert errs[-1] <= grid.ds + grid.dt
    assert errs[1] <= 0.6 * errs[0]  # first-order consistency


def test_boundary_trace_converges_to_dual_trace():
    # gamma = 0.4 constant, no mortality, no births: the dual trace at the
    # newborn boundary is -c * min(T - t, s_f / 0.4); phi0 must approach it
    # at first order
    errs = []
    for n in (20, 40):
        grid = Grid3(Ns=n, Nt=n, Nx=3, s_f=1.0, T=1.0, L=1.0)
        vsc = unit_scenario(grid, gamma=0.4, mu=0.0)
        st = sp.solve_state(vsc, 0.0)
        adj = solve_adjoint(vsc, st)
        t = grid.t_points
        expected = -np.minimum(grid.T - t, grid.s_f / 0.4)
        expected[-1] = 0.0
        errs.append(np.abs(adj.phi_at_zero.values[:, 1] - expected).max())
    assert errs[0] <= 2 * (1.0 / 20)
    assert errs[1] <= 0.6 * errs[0]


def test_step_matrix_transpose_entrywise():
    vsc = tiny_random(seed=3)  # Ns=3, Nt=3, Nx=4
    rng = np.random.default_rng(3)
    beta = 0.2 + rng.random((3, 4, 4))
    for j in range(vsc.grid.Nt):
        fwd = assemble_step_matrix(vsc, beta, j, adjoint=False)
        adj = assemble_step_matrix(vsc, beta, j, adjoint=True)
        assert np.abs(fwd.T - adj).max() <= 1e-12


def test_one_step_pairing(rng):
    vsc = tiny_random(seed=4)
    ctx = vsc.step_context
    grid = vsc.grid
    beta = 0.2 + rng.random((grid.Ns, grid.Nt + 1, grid.Nx))
    for j in range(grid.Nt):
        for _ in range(10):
            u = rng.standard_normal((grid.Ns, grid.Nx))
            v = rng.standard_normal((grid.Ns, grid.Nx))
            lhs = float((ctx.apply_step_linear(j, beta[:, j, :], u) * v).sum())
            rhs = float((u * ctx.apply_step_adjoint(j, beta[:, j, :], v)[0]).sum())
            scale = np.linalg.norm(u) * np.linalg.norm(v)
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestSensitivity:
    def test_zero_direction_gives_zero(self):
        vsc = tiny_random(seed=5)
        st = sp.solve_state(vsc, 0.7)
        z = solve_sensitivity(vsc, st, 0.0).values
        assert np.abs(z).max() == 0.0

    def test_non_finite_level_is_named(self):
        vsc = tiny_random(seed=3)
        grid = vsc.grid
        st = sp.solve_state(vsc, 0.5)
        delta = np.zeros((grid.Ns, grid.Nt + 1, grid.Nx))
        delta[0, 0, 0] = np.nan
        with pytest.raises(NumericalError,
                           match=r"non-finite sensitivity at \(i=0, j=1, k=0\)"):
            solve_sensitivity(vsc, st, delta)

    def test_matches_state_response_to_newborn_inflow(self):
        # with beta = 0 the linearized system is the state system driven by
        # the extra birth integral as a newborn immigration term
        grid = Grid3(Ns=8, Nt=8, Nx=4, s_f=1.0, T=1.0, L=1.0)
        vsc = unit_scenario(grid, gamma=1.0, mu=0.2, r=0.5, p0=1.0, k=0.02)
        st = sp.solve_state(vsc, 0.0)
        delta = 0.3
        z = solve_sensitivity(vsc, st, delta).values

        c_inflow = (vsc.r_grid * delta * st.p.values).sum(axis=0) * grid.ds
        rates2 = VitalRates(
            gamma=vsc.rates.gamma, mu=vsc.rates.mu, r=vsc.rates.r, f=vsc.rates.f,
            C=rate_lib.from_table(c_inflow, ("time", "space"),
                                  [grid.t_points, grid.x_points]),
            p0=rate_lib.constant(0.0, ("size", "space")),
        )
        vsc2 = validate_scenario(Scenario(grid=grid, rates=rates2, k=vsc.k,
                                          bounds=vsc.scenario.bounds))
        st2 = sp.solve_state(vsc2, 0.0)
        np.testing.assert_allclose(z, st2.p.values, atol=1e-13)

    def test_directional_derivative_of_cost(self, rng):
        vsc = smooth_default(20, 20, 10)
        grid = vsc.grid
        beta = 0.2 + 0.3 * rng.random((grid.Ns, grid.Nt + 1, grid.Nx))
        delta = rng.random(beta.shape) - 0.2
        st = sp.solve_state(vsc, beta)
        z = solve_sensitivity(vsc, st, delta).values
        w = grid.volume_weights()
        analytic = float((w * z).sum()) \
            + vsc.cost.control_sign * vsc.cost.rho * float((w * beta * delta).sum())
        eps = 1e-5
        j0 = evaluate_cost(st, vsc.cost)
        b1 = beta + eps * delta
        j1 = evaluate_cost(sp.solve_state(vsc, b1), vsc.cost)
        fd = (j1 - j0) / eps
        assert abs(fd - analytic) <= 1e-3 * abs(analytic)


class TestDualityResidual:
    def test_zero_direction(self):
        vsc = tiny_random(seed=6)
        st = sp.solve_state(vsc, 0.5)
        adj = solve_adjoint(vsc, st)
        assert duality_residual(vsc, st, adj, 0.0) == 0.0

    def test_machine_precision_on_random_rates(self, rng):
        for seed in range(5):
            vsc = tiny_random(seed=seed)
            grid = vsc.grid
            beta = 0.2 + rng.random((grid.Ns, grid.Nt + 1, grid.Nx))
            delta = rng.standard_normal(beta.shape)
            st = sp.solve_state(vsc, beta)
            adj = solve_adjoint(vsc, st)
            assert duality_residual(vsc, st, adj, delta) < 1e-10

    def test_zero_data_gives_zero(self, rng):
        vsc = unit_scenario(gamma=1.0, mu=0.1, f=0.0, C=0.0, p0=0.0, k=0.01)
        st = sp.solve_state(vsc, 0.0)
        adj = solve_adjoint(vsc, st)
        delta = rng.standard_normal((vsc.grid.Ns, vsc.grid.Nt + 1, vsc.grid.Nx))
        assert duality_residual(vsc, st, adj, delta) == 0.0


def test_state_from_another_grid_rejected():
    vsc = tiny_random(seed=7)
    st = sp.solve_state(tiny_random(seed=7, Nx=5), 0.5)
    with pytest.raises(ValueError, match="different grid"):
        solve_adjoint(vsc, st)
    with pytest.raises(ValueError, match="different grid"):
        solve_sensitivity(vsc, st, 0.1)


def test_adjoint_bound_stable_under_refinement():
    sups = []
    for n in (10, 20):
        vsc = smooth_default(n, n, 6)
        st = sp.solve_state(vsc, 0.4)
        adj = solve_adjoint(vsc, st)
        sups.append(float(np.abs(adj.phi.values).max()))
        assert np.isfinite(sups[-1])
    assert sups[1] <= 2.0 * sups[0] and sups[0] <= 2.0 * sups[1]


def test_trace_lipschitz_in_control(rng):
    vsc = smooth_default(10, 10, 6)
    grid = vsc.grid
    ratios = []
    for _ in range(5):
        b1 = rng.uniform(0.0, 1.0, size=(grid.Ns, grid.Nt + 1, grid.Nx))
        b2 = rng.uniform(0.0, 1.0, size=b1.shape)
        a1 = solve_adjoint(vsc, sp.solve_state(vsc, b1))
        a2 = solve_adjoint(vsc, sp.solve_state(vsc, b2))
        num = np.abs(a1.phi_at_zero.values - a2.phi_at_zero.values).max()
        ratios.append(num / np.abs(b1 - b2).max())
    assert np.isfinite(ratios).all()


def test_non_finite_adjoint_level_is_a_numerical_error():
    # the adjoint reads only the control, so its own march catches a NaN
    # control level, also first thing in the optimizer's adjoint-first sweep
    vsc = tiny_random(seed=0)
    grid = vsc.grid
    beta = np.full((grid.Ns, grid.Nt + 1, grid.Nx), 0.4)
    beta[1, 1, 0] = np.nan
    with pytest.raises(NumericalError, match=r"non-finite adjoint at \(i=\d+, j=1, k=\d+\)"):
        list(march_adjoint(vsc, beta))
    with pytest.raises(NumericalError, match=r"adjoint in batch member 1 at \(i=\d+, j=1, "):
        list(march_adjoint(vsc, [np.full_like(beta, 0.4), beta]))
    with pytest.raises(NumericalError, match="non-finite adjoint"):
        optimize(vsc, beta0=beta, compute_diagnostics=False)
