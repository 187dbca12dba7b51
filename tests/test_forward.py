"""Forward solver: renewal row, transport/reaction, diffusion, full marching."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import sizepop as sp
from sizepop import oracles
from sizepop import rates as rate_lib
from sizepop.forward import (
    DENSE_DIFFUSION_MAX_NX,
    DiffusionSolve,
    StepContext,
    _neumann_bands,
    total_population,
)
from sizepop.model import (
    Field,
    Grid3,
    NumericalError,
    control_array,
)
from sizepop.optimizer import optimize
from sizepop.presets import mass_balance_preset, tiny_random
from conftest import full_field, random_nonneg_scenario, unit_scenario


class TestComputeRenewal:
    """The renewal row of StepContext: newborn value from the birth integral."""

    GRID = Grid3(Ns=10, Nt=10, Nx=3, s_f=1.0, T=1.0, L=1.0)

    def newborn(self, vsc, beta, j=3):
        # j = 3 is t = 0.3
        ones = np.ones((self.GRID.Ns, self.GRID.Nx))
        return vsc.step_context.newborn_value(j, control_array(vsc.grid, beta)[:, j, :], ones)

    def test_birth_integral(self):
        vsc = unit_scenario(self.GRID, gamma=1.0, r=0.5, C=0.0)
        np.testing.assert_allclose(self.newborn(vsc, 2.0), 1.0, atol=1e-14)

    def test_additive_inflow(self):
        vsc = unit_scenario(self.GRID, gamma=1.0, r=0.5, C=0.3)
        np.testing.assert_allclose(self.newborn(vsc, 2.0), 1.3, atol=1e-14)

    def test_no_births_no_inflow(self):
        vsc = unit_scenario(self.GRID, gamma=1.0, r=0.5, C=0.0)
        np.testing.assert_allclose(self.newborn(vsc, 0.0), 0.0, atol=1e-14)

    def test_undefined_without_boundary_growth(self):
        # growth case c has no renewal boundary: births and inflow never
        # reach the state, and no transport row reads the newborn column
        gamma = rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 0.0, "b": 1.0})
        vsc = unit_scenario(self.GRID, gamma=gamma, C=0.3)
        ctx = vsc.step_context
        assert not ctx.has_renewal
        assert np.abs(self.newborn(vsc, 1.0)).max() == 0.0
        assert all(w[:, 2].sum() == 0.0 for w in ctx.stencil_weights)


class TestStepTransportReaction:
    """One StepContext step with inert diffusion is transport plus reaction."""

    @staticmethod
    def step(vsc, p_j, beta, j=0):
        return vsc.step_context.step(j, control_array(vsc.grid, beta)[:, j, :], p_j)[0]

    def test_pure_shift_of_linear_profile(self):
        grid = Grid3(Ns=10, Nt=10, Nx=3, s_f=1.0, T=1.0, L=1.0)
        vsc = unit_scenario(grid, gamma=1.0, mu=0.0)
        p_j = np.tile(grid.s_centers[:, None], (1, grid.Nx))
        out = self.step(vsc, p_j, 0.0)
        # interior cells: value shifts down by dt = 0.1 exactly
        for i in range(2, grid.Ns):
            np.testing.assert_allclose(out[i], grid.s_centers[i] - 0.1, atol=1e-12)

    def test_expanding_growth_scales_by_decay_factor(self):
        grid = Grid3(Ns=10, Nt=10, Nx=3, s_f=1.0, T=1.0, L=1.0)
        gamma = rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 0.0, "b": 1.0})
        vsc = unit_scenario(grid, gamma=gamma, mu=0.0)
        out = self.step(vsc, np.ones((grid.Ns, grid.Nx)), 0.0)
        np.testing.assert_allclose(out, np.exp(-grid.dt), atol=1e-12)

    def test_exact_mortality_decay(self):
        grid = Grid3(Ns=10, Nt=10, Nx=3, s_f=1.0, T=1.0, L=1.0)
        vsc = unit_scenario(grid, gamma=1.0, mu=0.3)
        out = self.step(vsc, np.ones((grid.Ns, grid.Nx)), 0.0)
        for i in range(2, grid.Ns):
            np.testing.assert_allclose(out[i], np.exp(-0.3 * grid.dt), atol=1e-12)


class TestStepDiffusion:
    GRID = Grid3(Ns=2, Nt=2, Nx=51, s_f=1.0, T=1.0, L=1.0)
    K, DT = 0.01, 0.01
    DIFFUSION = DiffusionSolve(*_neumann_bands(GRID.Nx, GRID.dx, K, DT))

    def test_constants_preserved(self):
        out = self.DIFFUSION.solve(np.full((2, self.GRID.Nx), 3.7))
        np.testing.assert_allclose(out, 3.7, atol=1e-12)

    def test_spatial_mass_conserved(self, rng):
        vals = rng.random((2, self.GRID.Nx))
        out = self.DIFFUSION.solve(vals)
        w = self.GRID.space_weights()
        before = float((vals * w).sum())
        after = float((out * w).sum())
        assert abs(after - before) <= 1e-12 * abs(before)

    def test_first_cosine_mode_decay(self):
        # expected factor from the eigenvalue of the ghost-closed operator
        grid = self.GRID
        lam1 = 2.0 * (1.0 - np.cos(np.pi * grid.dx / grid.L)) / grid.dx**2
        factor = 1.0 / (1.0 + self.K * lam1 * self.DT)
        mode = np.cos(np.pi * grid.x_points / grid.L)
        out = self.DIFFUSION.solve(np.tile(mode, (2, 1)))
        assert np.abs(out - factor * mode[None, :]).max() <= 1e-12


    def test_singular_bands_raise_numerical_error(self):
        ones = np.ones(1)
        with pytest.raises(NumericalError, match="singular diffusion matrix"):
            DiffusionSolve(ones, np.ones(2), ones)

    def test_dense_inverse_holds_no_subnormal_entry(self):
        # a small k*dt/dx^2 makes the inverse decay below the normal range
        # within 256 points; a subnormal entry makes every product slow
        n, a = DENSE_DIFFUSION_MAX_NX, 0.0256
        sub, diag = np.full(n - 1, -a), np.full(n, 1.0 + 2.0 * a)

        def has_subnormal(m):
            return ((m != 0.0) & (np.abs(m) < np.finfo(float).tiny)).any()

        assert has_subnormal(np.linalg.inv(np.diag(diag) + np.diag(sub, 1) + np.diag(sub, -1)))
        assert not has_subnormal(DiffusionSolve(sub, diag, sub)._inv)

    def test_zero_thomas_pivot_raises_numerical_error(self):
        # rows 1 and 2 equal: the sweep above the dense limit meets a zero
        # pivot in row 2
        n = DENSE_DIFFUSION_MAX_NX + 2
        ones = np.ones(n - 1)
        with pytest.raises(NumericalError, match="singular diffusion matrix.*row 2 of"):
            DiffusionSolve(ones, np.ones(n), ones)


class TestSolveState:
    def test_population_drops_by_size_exit_flux(self):
        # aligned grid, linear profile: the strip bookkeeping is exact
        grid = Grid3(Ns=48, Nt=24, Nx=4, s_f=1.0, T=0.5, L=1.0)
        p0 = rate_lib.from_callable(lambda s, x: (0.8 + 0.1 * s) * np.ones_like(x),
                                    ("size", "space"))
        vsc = unit_scenario(grid, p0=p0, k=0.01)
        st = sp.solve_state(vsc, 0.0)
        P = total_population(st.p)
        assert (np.diff(P) <= 1e-14).all()  # nonincreasing
        wx = grid.space_weights()
        s = grid.s_centers
        scale = float(P.max()) * grid.dt
        for j in range(grid.Nt):
            s_eval = grid.s_f - 0.5 * grid.dt  # exit strip midpoint, gamma = 1
            th = (s_eval - s[-2]) / grid.ds
            p_eval = (1 - th) * st.p.values[-2, j, :] + th * st.p.values[-1, j, :]
            outflow = float((p_eval * wx).sum()) * grid.dt
            assert abs((P[j + 1] - P[j]) + outflow) <= 1e-3 * scale

    def test_transported_constant_with_empty_inflow(self):
        grid = Grid3(Ns=20, Nt=10, Nx=4, s_f=1.0, T=0.5, L=1.0)  # dt == ds
        vsc = unit_scenario(grid, gamma=1.0, mu=0.0, k=0.01)
        st = sp.solve_state(vsc, 0.0)
        for j in range(grid.Nt + 1):
            z0 = grid.t_points[j]
            expected = np.where(grid.s_centers > z0, 1.0, 0.0)
            np.testing.assert_allclose(st.p.values[:, j, 0], expected, atol=1e-12)

    def test_spatial_mode_decays_by_discrete_factor(self):
        grid = Grid3(Ns=20, Nt=10, Nx=9, s_f=1.0, T=0.5, L=1.0)
        k = 0.01
        p0 = rate_lib.from_callable(
            lambda s, x: (1.0 + 0.5 * np.cos(np.pi * x)) * np.ones_like(s), ("size", "space"))
        vsc = unit_scenario(grid, p0=p0, k=k)
        st = sp.solve_state(vsc, 0.0)
        lam1 = 2.0 * (1.0 - np.cos(np.pi * grid.dx / grid.L)) / grid.dx**2
        factor = 1.0 / (1.0 + k * lam1 * grid.dt)
        mode = 0.5 * np.cos(np.pi * grid.x_points / grid.L)
        for j in range(grid.Nt + 1):
            above = grid.s_centers > grid.t_points[j]
            expected = 1.0 + mode * factor**j
            err = np.abs(st.p.values[above, j, :] - expected[None, :]).max()
            assert err <= 1e-12

    def test_nan_detection_names_index(self):
        vsc = unit_scenario(Grid3(Ns=4, Nt=4, Nx=3, s_f=1.0, T=1.0, L=1.0))
        beta = np.zeros((4, 5, 3))
        beta[2, 1, 1] = np.nan
        with pytest.raises(NumericalError, match=r"j=2"):
            sp.solve_state(vsc, beta)

    def test_nan_in_the_last_newborn_value_is_caught(self):
        # the last level's newborn value feeds no later level's density
        vsc = unit_scenario(Grid3(Ns=4, Nt=4, Nx=3, s_f=1.0, T=1.0, L=1.0))
        beta = np.zeros((4, 5, 3))
        beta[:, 4, 1] = np.nan
        with pytest.raises(NumericalError,
                           match=r"^non-finite newborn density at \(j=4, k=1\)$"):
            sp.solve_state(vsc, beta)


class TestTotalPopulation:
    GRID = Grid3(Ns=8, Nt=4, Nx=5, s_f=1.0, T=1.0, L=1.0)

    def test_unit_density_unit_volume(self):
        P = total_population(full_field(self.GRID, ("size", "time", "space"), 1.0))
        np.testing.assert_allclose(P, 1.0, atol=1e-14)

    def test_zero_density(self):
        P = total_population(full_field(self.GRID, ("size", "time", "space"), 0.0))
        np.testing.assert_allclose(P, 0.0)

    def test_midpoint_rule_exact_for_linear(self):
        vals = np.tile(self.GRID.s_centers[:, None, None],
                       (1, self.GRID.Nt + 1, self.GRID.Nx))
        P = total_population(Field(self.GRID, ("size", "time", "space"), vals))
        np.testing.assert_allclose(P, 0.5, atol=1e-12)


class TestProperties:
    def test_positivity_randomized(self):
        for seed in range(10):
            vsc = random_nonneg_scenario(seed)
            beta = np.random.default_rng(seed + 1000).uniform(
                0.0, 2.0, size=(vsc.grid.Ns, vsc.grid.Nt + 1, vsc.grid.Nx))
            st = sp.solve_state(vsc, beta)
            assert st.p.values.min() >= 0.0

    def test_grid_convergence_first_order(self):
        def restrict(p_fine):
            ps = 0.5 * (p_fine[0::2] + p_fine[1::2])
            return ps[:, ::2, :]

        def diff_norm(n):
            coarse = mass_balance_preset(n)
            fine = mass_balance_preset(2 * n)
            s1 = sp.solve_state(coarse, 0.4)
            s2 = sp.solve_state(fine, 0.4)
            g = coarse.grid
            wx = g.space_weights()
            d = np.abs(s1.p.values - restrict(s2.p.values))
            return float((d * wx[None, None, :]).sum() * g.ds * g.dt)

        d1, d2, d3 = diff_norm(32), diff_norm(64), diff_norm(128)
        assert d1 / d2 >= 1.8
        assert d2 / d3 >= 1.8


class TestStepContextOwnership:
    """A validated scenario builds its step operator once and caches it."""

    def test_cached_on_the_scenario(self):
        vsc = tiny_random(seed=0)
        assert vsc.step_context is vsc.step_context

    def test_one_build_for_every_solver_on_a_scenario(self, monkeypatch):
        builds = []
        build = StepContext.__init__

        def counted(self, vsc):
            builds.append(vsc)
            build(self, vsc)

        monkeypatch.setattr(StepContext, "__init__", counted)
        vsc = tiny_random(seed=0)
        # the duality oracle builds its own scenario: hand it this one
        monkeypatch.setattr(oracles.presets, "tiny_random", lambda seed: vsc)
        optimize(vsc)
        oracles.gradient_check(vsc, n_directions=2)
        oracles.mass_budget_residuals(vsc, 0.4)
        assert oracles.oracle_transpose_duality()["passed"]
        assert len(builds) == 1 and builds[0] is vsc

    def test_no_reference_cycle_with_the_scenario(self):
        # reference counting alone must free the pair: a cycle would leave
        # each scenario's arrays to the cyclic collector
        gc.disable()
        try:
            vsc = tiny_random(seed=0)
            ctx = weakref.ref(vsc.step_context)
            del vsc
            assert ctx() is None
        finally:
            gc.enable()
