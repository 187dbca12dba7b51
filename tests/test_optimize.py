"""Cost, projection, gradients, the fixed-point sweep and its diagnostics."""

from __future__ import annotations

import gc
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sizepop as sp
import sizepop.optimizer as opt_mod
from sizepop import rates as rate_lib
from sizepop.adjoint import AdjointSolution, duality_residual, solve_adjoint, solve_sensitivity
from sizepop.forward import StateSolution
from sizepop.model import (
    ControlBounds,
    CostParams,
    Grid3,
    Tolerances,
    control_array,
    validate_scenario,
)
from sizepop.optimizer import (
    contraction_diagnostics,
    evaluate_cost,
    evaluate_costs,
    fixed_point_update,
    gradient_field,
    optimize,
)
from sizepop.presets import smooth_default, tiny_random
from sizepop.scenario_io import scenario_from_dict
from conftest import full_field, unit_scenario, with_cost

GRID = Grid3(Ns=4, Nt=5, Nx=4, s_f=1.0, T=1.0, L=1.0)
SMOOTH_FILE = Path(__file__).resolve().parents[1] / "scenarios" / "smooth.json"


def _state(grid, p_value, beta) -> StateSolution:
    p = full_field(grid, ("size", "time", "space"), p_value)
    return StateSolution(
        p=p,
        newborn_density=full_field(grid, ("time", "space"), 0.0),
        beta=control_array(grid, beta),
    )


def _adjoint(grid, phi0_value) -> AdjointSolution:
    return AdjointSolution(
        phi=full_field(grid, ("size", "time", "space"), 0.0),
        phi_at_zero=full_field(grid, ("time", "space"), phi0_value),
    )


class TestEvaluateCost:
    def test_minus_variant(self):
        J = evaluate_cost(_state(GRID, 1.0, 1.0), CostParams(rho=1.0, sign_variant="minus"))
        assert J == pytest.approx(0.5, abs=1e-14)

    def test_plus_variant(self):
        J = evaluate_cost(_state(GRID, 1.0, 1.0), CostParams(rho=1.0, sign_variant="plus"))
        assert J == pytest.approx(1.5, abs=1e-14)

    def test_zero_control_integrates_density(self):
        J = evaluate_cost(_state(GRID, 1.0, 0.0), CostParams(rho=1.0))
        assert J == pytest.approx(1.0, abs=1e-14)

    def test_batch_stores_no_state(self):
        # the eight controls' states, stored, would be eight such fields.
        # The march itself holds its level slices of the batch, the step's
        # temporaries and numpy's 64 KB ufunc buffers, 1.25 fields here; a
        # single stored member state on top of that would exceed two.
        vsc = smooth_default(40, 40, 20)
        grid = vsc.grid
        field_bytes = 8 * grid.Ns * (grid.Nt + 1) * grid.Nx
        betas = 0.2 + 0.5 * np.random.default_rng(0).random((8, grid.Ns, grid.Nt + 1, grid.Nx))
        vsc.step_context  # built before the baseline is taken
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate_costs(vsc, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak - before < 2 * field_bytes

    @pytest.mark.parametrize("consumer, k", [(evaluate_costs, 8), (contraction_diagnostics, 5)],
                             ids=["evaluate_costs", "contraction_diagnostics"])
    def test_consumer_drops_each_level_before_the_next(self, consumer, k):
        # a consumer that keeps its last level slice while the march steps
        # holds one more batch slice: 1.44 fields for evaluate_costs at K = 8
        # and 1.40 for the diagnostics' five samples, against 1.25 and 1.23
        vsc = smooth_default(40, 40, 20)
        grid = vsc.grid
        field_bytes = 8 * grid.Ns * (grid.Nt + 1) * grid.Nx
        betas = 0.2 + 0.5 * np.random.default_rng(0).random((k, grid.Ns, grid.Nt + 1, grid.Nx))
        vsc.step_context
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            consumer(vsc, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak - before < 1.33 * field_bytes


class TestProjection:
    """The projection F onto the box, through the update target: with
    r = 0.5, c = rho = 1, the minus variant and phi0 = -2 the candidate value
    sign * r * p * phi0 / (c * rho) is p itself, exactly."""

    BOX = unit_scenario(GRID, r=0.5, phi_l=0.1, phi_m=0.4)

    def project(self, h):
        return opt_mod._update_target(self.BOX, h, -2.0)

    @pytest.mark.parametrize("h,expected", [(0.5, 0.4), (0.25, 0.25), (-3.0, 0.1)])
    def test_clip(self, h, expected):
        out = self.project(np.full((GRID.Ns, GRID.Nt + 1, GRID.Nx), h))
        np.testing.assert_allclose(out, expected)

    def test_idempotent(self, rng):
        h = rng.standard_normal((GRID.Ns, GRID.Nt + 1, GRID.Nx))
        once = self.project(h)
        twice = self.project(once)
        assert np.array_equal(once, twice)

    def test_nonexpansive(self, rng):
        shape = (GRID.Ns, GRID.Nt + 1, GRID.Nx)
        for _ in range(10):
            h1 = rng.standard_normal(shape)
            h2 = rng.standard_normal(shape)
            d_out = np.abs(self.project(h1) - self.project(h2)).max()
            assert d_out <= np.abs(h1 - h2).max() + 1e-15


class TestGradientField:
    def test_control_term_only_when_trace_vanishes(self):
        vsc = unit_scenario(GRID)
        g = gradient_field(_state(GRID, 1.0, 0.7), _adjoint(GRID, 0.0),
                           with_cost(vsc, rho=2.0, sign_variant="minus"))
        np.testing.assert_allclose(g.values, -2.0 * 0.7)

    @pytest.mark.parametrize("variant", ["minus", "plus"])
    def test_pointwise_finite_difference_match(self, rng, variant):
        vsc = with_cost(tiny_random(seed=11), sign_variant=variant)
        grid = vsc.grid
        beta = 0.3 + 0.2 * rng.random((grid.Ns, grid.Nt + 1, grid.Nx))
        state = sp.solve_state(vsc, beta)
        adj = solve_adjoint(vsc, state)
        g = gradient_field(state, adj, vsc).values
        w = grid.volume_weights()
        eps = 1e-6
        for _ in range(5):
            i = int(rng.integers(0, grid.Ns))
            j = int(rng.integers(0, grid.Nt))  # final level carries no weight
            k = int(rng.integers(0, grid.Nx))
            bp = beta.copy(); bp[i, j, k] += eps
            bm = beta.copy(); bm[i, j, k] -= eps
            jp = evaluate_cost(sp.solve_state(vsc, bp), vsc.cost)
            jm = evaluate_cost(sp.solve_state(vsc, bm), vsc.cost)
            fd = (jp - jm) / (2 * eps)
            assert abs(g[i, j, k] * w[j, k] - fd) <= 1e-6 * max(abs(fd), 1e-12)

    def test_downhill_at_upper_bound_is_kkt_consistent(self):
        # negative gradient density at beta = phi_m: no feasible descent
        # direction remains, which is the box condition at the upper bound
        vsc = unit_scenario(GRID, phi_l=0.1, phi_m=0.4)
        beta = 0.4
        g = gradient_field(_state(GRID, 1.0, beta), _adjoint(GRID, -0.2),
                           with_cost(vsc, rho=1.0, sign_variant="minus"))
        assert (g.values[:, :-1, :] < 0).all()  # descent would need beta > phi_m


class TestFixedPointUpdate:
    def test_zero_trace_clips_to_lower_bound(self):
        vsc = unit_scenario(GRID, phi_l=0.1, phi_m=0.4)
        out = fixed_point_update(_state(GRID, 1.0, 0.2), _adjoint(GRID, 0.0), vsc)
        np.testing.assert_allclose(out.values, 0.1)

    def test_interior_stationary_value(self):
        # r*p*phi0/(c*rho) = -0.25 pointwise: update is the interior value 0.25
        vsc = unit_scenario(GRID, r=0.5, phi_l=0.1, phi_m=0.4)
        vsc = with_cost(vsc, rho=1.0, c=1.0, sign_variant="minus")
        out = fixed_point_update(_state(GRID, 1.0, 0.2), _adjoint(GRID, -0.5), vsc)
        np.testing.assert_allclose(out.values, 0.25, atol=1e-15)

    def test_only_product_c_rho_enters(self):
        vsc = unit_scenario(GRID, r=0.5, phi_l=0.0, phi_m=1.0)
        state, adj = _state(GRID, 0.9, 0.2), _adjoint(GRID, -0.7)
        out1 = fixed_point_update(state, adj, with_cost(vsc, rho=2.0, c=1.0))
        out2 = fixed_point_update(state, adj, with_cost(vsc, rho=1.0, c=2.0))
        np.testing.assert_allclose(out1.values, out2.values, atol=1e-15)


class TestOptimize:
    def test_degenerate_box_converges_immediately(self):
        vsc = unit_scenario(gamma=1.0, mu=0.1, phi_l=0.3, phi_m=0.3, k=0.01)
        rep = optimize(vsc)
        assert rep.status == "converged"
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.beta_opt.values, 0.3)

    def test_relaxed_update_stays_in_a_pinned_box(self):
        # (1 - omega)*0.1 + omega*0.1 rounds to 0.09999999999999999 at omega = 0.3
        sc = smooth_default(8, 8, 4).scenario
        vsc = validate_scenario(replace(sc, bounds=ControlBounds.constants(0.1, 0.1),
                                        tolerances=replace(sc.tolerances, relax_omega=0.3)))
        rep = optimize(vsc)
        assert (rep.beta_opt.values >= vsc.phi_l_grid).all()
        assert (rep.beta_opt.values <= vsc.phi_m_grid).all()
        assert rep.contraction is None  # every sample is the one control

    def test_two_starts_agree(self):
        vsc = smooth_default(10, 10, 6)
        r1 = optimize(vsc, beta0=vsc.phi_l_grid, compute_diagnostics=False)
        r2 = optimize(vsc, beta0=vsc.phi_m_grid, compute_diagnostics=False)
        assert r1.status == r2.status == "converged"
        assert np.abs(r1.beta_opt.values - r2.beta_opt.values).max() < 1e-6
        assert (r1.beta_opt.values >= vsc.phi_l_grid).all()
        assert (r1.beta_opt.values <= vsc.phi_m_grid).all()

    def test_fixed_point_consistency_at_convergence(self):
        vsc = smooth_default(10, 10, 6)
        rep = optimize(vsc, compute_diagnostics=False)
        beta = rep.beta_opt.values
        state = sp.solve_state(vsc, beta)
        adj = solve_adjoint(vsc, state)
        target = fixed_point_update(state, adj, vsc).values
        assert np.abs(beta - target).max() < 10 * vsc.tolerances.fixed_point_tol

    def test_relaxed_update_reaches_same_fixed_point(self):
        vsc = smooth_default(8, 8, 4)
        full = optimize(vsc, compute_diagnostics=False)
        relaxed = optimize(vsc.with_tolerances(relax_omega=0.5),
                           compute_diagnostics=False)
        assert relaxed.status == "converged"
        assert relaxed.iterations > full.iterations  # damping slows the sweep
        assert np.abs(relaxed.beta_opt.values - full.beta_opt.values).max() < 1e-6

    def test_divergence_detector(self, monkeypatch):
        vsc = unit_scenario(gamma=1.0, mu=0.1, phi_l=0.0, phi_m=1e9, k=0.01)
        levels = vsc.grid.Nt + 1
        calls = {"n": 0}

        def runaway(scenario, p, phi0, at):
            # one level per call: the target doubles every iteration
            calls["n"] += 1
            return np.full(p.shape, 2.0 ** -(-calls["n"] // levels))

        monkeypatch.setattr(opt_mod, "_update_target", runaway)
        rep = optimize(vsc, beta0=0.0, compute_diagnostics=False)
        assert rep.status == "diverged"
        assert len(rep.update_residuals) >= 10

    def test_only_the_control_outlives_an_iteration(self, monkeypatch):
        # the diagnostics march five samples of their own; when they start,
        # the sweep may hold the control and nothing else of full-grid size:
        # no state, adjoint, update target or earlier iterate
        vsc = smooth_default(40, 40, 20)
        grid = vsc.grid
        control_bytes = 8 * grid.Ns * (grid.Nt + 1) * grid.Nx
        vsc.step_context  # built before the baseline is taken
        np.random.default_rng  # numpy imports its random module on first use
        held = {}

        def diagnostics_on_a_clean_slate(vsc, samples):
            # the random samples are made for the diagnostics, after the sweep
            made_for_them = sum(s.nbytes for s in samples[3:])
            held["after_sweep"] = tracemalloc.get_traced_memory()[0] - made_for_them
            return diagnose(vsc, samples)

        diagnose = opt_mod.contraction_diagnostics
        monkeypatch.setattr(opt_mod, "contraction_diagnostics", diagnostics_on_a_clean_slate)
        # reference counting alone must free them, as in the sweep itself
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rep = optimize(vsc)
        finally:
            tracemalloc.stop()
            gc.enable()
        assert rep.iterations >= 2 and rep.contraction is not None
        # the control itself, plus well under one more control-sized array
        assert held["after_sweep"] - before < 2 * control_bytes

    def test_random_samples_are_drawn_in_place(self, monkeypatch):
        # each random sample is phi_l + u*(phi_m - phi_l) bit for bit, built
        # in its own draw: until the diagnostics start, the run never holds
        # more than the control and the two samples at full-grid size
        vsc = smooth_default(40, 40, 20)
        grid = vsc.grid
        shape = (grid.Ns, grid.Nt + 1, grid.Nx)
        control_bytes = 8 * grid.Ns * (grid.Nt + 1) * grid.Nx
        vsc.step_context
        np.random.default_rng
        held = {}

        def record(vsc, samples):
            held["peak"] = tracemalloc.get_traced_memory()[1]
            held["samples"] = samples
            raise ValueError("diagnostics skipped")

        monkeypatch.setattr(opt_mod, "contraction_diagnostics", record)
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rep = optimize(vsc)
        finally:
            tracemalloc.stop()
            gc.enable()
        assert rep.contraction is None
        rng = np.random.default_rng(vsc.tolerances.seed)
        for sample in held["samples"][3:]:
            want = vsc.phi_l_grid + rng.random(shape) * (vsc.phi_m_grid - vsc.phi_l_grid)
            assert sample.tobytes() == want.tobytes()
        assert held["peak"] - before < 3.5 * control_bytes

    @pytest.mark.parametrize("source", ["scenario file", "preset"])
    def test_rates_are_held_on_the_axes_they_vary_over(self, source):
        # in the smooth scenario r, phi_l and phi_m are constants and mu and
        # f have no space axis: each of the five arrays below owns at most
        # an (Nt+1, Ns) array, where a full grid would be Nx = 20 times that
        if source == "preset":
            vsc = smooth_default(40, 40, 20)
        else:
            doc = json.loads(SMOOTH_FILE.read_text())
            doc["grid"].update(Ns=40, Nt=40, Nx=20)
            vsc = validate_scenario(scenario_from_dict(doc))
        grid = vsc.grid
        ctx = vsc.step_context
        for name, arr, shape in (
            ("r_grid", vsc.r_grid, (grid.Ns, grid.Nt + 1, grid.Nx)),
            ("phi_l_grid", vsc.phi_l_grid, (grid.Ns, grid.Nt + 1, grid.Nx)),
            ("phi_m_grid", vsc.phi_m_grid, (grid.Ns, grid.Nt + 1, grid.Nx)),
            ("E", ctx.E, (grid.Nt, grid.Ns, grid.Nx)),
            ("Fsrc", ctx.Fsrc, (grid.Nt, grid.Ns, grid.Nx)),
        ):
            assert arr.shape == shape, name
            assert not arr.flags.writeable, name
            owner = arr
            while owner.base is not None:
                owner = owner.base
            assert owner.nbytes <= 8 * (grid.Nt + 1) * grid.Ns, name


class TestContractionDiagnostics:
    def test_zero_dynamics_gives_zero_ratio(self):
        vsc = unit_scenario(gamma=1.0, mu=0.1, f=0.0, C=0.0, p0=0.0, k=0.01)
        diag = contraction_diagnostics(vsc, [0.2, 0.8])
        assert diag.M1 == 0.0 and diag.M3 == 0.0
        assert diag.ratio == 0.0 and diag.contraction_ok

    def test_ratio_scales_inversely_with_rho(self):
        vsc1 = with_cost(smooth_default(8, 8, 4), rho=5.0)
        vsc2 = with_cost(smooth_default(8, 8, 4), rho=10.0)
        samples = [0.2, 0.7]
        d1 = contraction_diagnostics(vsc1, samples)
        d2 = contraction_diagnostics(vsc2, samples)
        assert d2.ratio == pytest.approx(0.5 * d1.ratio, rel=1e-12)

    def test_identical_samples_rejected(self):
        vsc = smooth_default(8, 8, 4)
        with pytest.raises(ValueError, match="distinct"):
            contraction_diagnostics(vsc, [0.4, 0.4, 0.4])

    def test_geometric_residual_decay_under_contraction(self):
        vsc = with_cost(smooth_default(10, 10, 6), rho=10.0, c=1.0)
        rep = optimize(vsc)
        assert rep.contraction is not None and rep.contraction.ratio < 1.0
        r = rep.update_residuals
        for k in range(3, len(r) - 1):
            if r[k + 1] <= 1e-13:
                break
            assert r[k + 1] / r[k] <= rep.contraction.ratio + 0.1


def whole_field_optimize(vsc):
    """The sweep and its diagnostics as they were before streaming: every
    iteration solves and stores the whole state and adjoint and forms the
    whole update target, and each diagnostic sample gets a state and an
    adjoint solve of its own."""
    grid = vsc.grid
    tol = vsc.tolerances.fixed_point_tol
    omega = vsc.tolerances.relax_omega
    cost = vsc.cost
    beta = 0.5 * (vsc.phi_l_grid + vsc.phi_m_grid)
    J_history, residuals, status, grow_streak = [], [], "max_iters", 0
    for _ in range(vsc.tolerances.max_iters):
        state = sp.solve_state(vsc, beta)
        adj = solve_adjoint(vsc, state)
        J_history.append(evaluate_cost(state, cost))
        h = (cost.control_sign * vsc.r_grid * state.p.values
             * adj.phi_at_zero.values[None, :, :] / (cost.c * cost.rho))
        target = np.clip(h, vsc.phi_l_grid, vsc.phi_m_grid)
        beta_next = (1.0 - omega) * beta + omega * target
        np.clip(beta_next, vsc.phi_l_grid, vsc.phi_m_grid, out=beta_next)
        resid = float(np.max(np.abs(beta_next - beta)))
        residuals.append(resid)
        beta = beta_next
        if resid < tol:
            status = "converged"
            break
        if len(residuals) > 1 and resid > residuals[-2]:
            grow_streak += 1
            if grow_streak >= 10:
                status = "diverged"
                break
        else:
            grow_streak = 0
    rng = np.random.default_rng(vsc.tolerances.seed)
    samples = [vsc.phi_l_grid, vsc.phi_m_grid, beta]
    for _ in range(opt_mod.N_RANDOM_SAMPLES):
        u = rng.random((grid.Ns, grid.Nt + 1, grid.Nx))
        samples.append(vsc.phi_l_grid + u * (vsc.phi_m_grid - vsc.phi_l_grid))
    return beta, J_history, residuals, status, looped_diagnostics(vsc, samples)


def looped_diagnostics(vsc, samples):
    """(M1, M2, M3, M4) from one stored state and adjoint per sample, or
    None when no two samples differ."""
    arrs = [control_array(vsc.grid, b) for b in samples]
    states, traces, m3, m4 = [], [], 0.0, 0.0
    for b in arrs:
        state = sp.solve_state(vsc, b)
        adj = solve_adjoint(vsc, state)
        states.append(state.p.values)
        traces.append(adj.phi_at_zero.values)
        m3 = max(m3, float(np.max(np.abs(state.p.values))))
        m4 = max(m4, float(np.max(np.abs(adj.phi.values))))
    m1, m2, any_distinct = 0.0, 0.0, False
    for a in range(len(arrs)):
        for b in range(a + 1, len(arrs)):
            db = float(np.max(np.abs(arrs[a] - arrs[b])))
            if db == 0.0:
                continue
            any_distinct = True
            m1 = max(m1, float(np.max(np.abs(states[a] - states[b]))) / db)
            m2 = max(m2, float(np.max(np.abs(traces[a] - traces[b]))) / db)
    return (m1, m2, m3, m4) if any_distinct else None


def _growth_scenario(gamma, **kw):
    grid = Grid3(Ns=8, Nt=6, Nx=5, s_f=1.0, T=1.0, L=1.0)
    return unit_scenario(grid, gamma=gamma, mu=0.2, f=0.05, C=0.1, k=0.02,
                         tol=Tolerances(max_iters=40), **kw)


def _pinned_relaxed_box():
    sc = smooth_default(8, 8, 4).scenario
    return validate_scenario(replace(sc, bounds=ControlBounds.constants(0.1, 0.1),
                                     tolerances=replace(sc.tolerances, relax_omega=0.3)))


STREAMED_CASES = {
    "a": (lambda: smooth_default(8, 8, 4), "a"),
    "a_plus_variant": (lambda: with_cost(smooth_default(8, 8, 4), sign_variant="plus",
                                         rho=20.0), "a"),
    "b": (lambda: _growth_scenario(
        rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 1.0, "b": -1.0})), "b"),
    "c": (lambda: _growth_scenario(
        rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 0.0, "b": 1.0})), "c"),
    "d": (lambda: _growth_scenario(rate_lib.from_callable(
        lambda s, t: s * (1.0 - s), ("size", "time"), d_ds=lambda s, t: 1.0 - 2.0 * s)), "d"),
    "degenerate_box": (lambda: unit_scenario(gamma=1.0, mu=0.1, phi_l=0.3, phi_m=0.3,
                                             k=0.01), "a"),
    "relaxed": (lambda: smooth_default(8, 8, 4).with_tolerances(relax_omega=0.5), "a"),
    "pinned_relaxed": (_pinned_relaxed_box, "a"),
}


@pytest.mark.parametrize("name", STREAMED_CASES)
def test_streamed_sweep_matches_whole_field_sweep(name):
    make, tag = STREAMED_CASES[name]
    vsc = make()
    assert vsc.growth_case.tag == tag
    beta, J_history, residuals, status, diag = whole_field_optimize(vsc)
    rep = optimize(vsc)
    assert np.array_equal(rep.beta_opt.values, beta)
    assert rep.status == status and rep.iterations == len(residuals)
    assert rep.update_residuals.tolist() == residuals
    # evaluate_cost sums the per-level cost shares in the sweep's order
    assert np.array_equal(rep.J_history, J_history)
    if diag is None:
        assert rep.contraction is None
    else:
        got = rep.contraction
        assert (got.M1, got.M2, got.M3, got.M4) == diag
    # the diagnostics on samples given as scalars and arrays alike
    samples = [0.25, beta, vsc.phi_m_grid]
    want = looped_diagnostics(vsc, samples)
    if want is None:
        with pytest.raises(ValueError, match="distinct"):
            contraction_diagnostics(vsc, samples)
    else:
        got = contraction_diagnostics(vsc, samples)
        assert (got.M1, got.M2, got.M3, got.M4) == want


@pytest.mark.parametrize("entry", ["solve_state", "optimize", "solve_sensitivity",
                                   "duality_residual", "contraction_diagnostics"])
def test_control_field_on_another_grid_is_refused(entry):
    # same shape as the scenario's grid, other extents
    vsc = smooth_default(8, 8, 4)
    other = full_field(Grid3(Ns=8, Nt=8, Nx=4, s_f=2.0, T=5.0, L=3.0),
                       ("size", "time", "space"), 0.4)
    state = sp.solve_state(vsc, 0.4)
    calls = {
        "solve_state": lambda: sp.solve_state(vsc, other),
        "optimize": lambda: optimize(vsc, beta0=other, compute_diagnostics=False),
        "solve_sensitivity": lambda: solve_sensitivity(vsc, state, other),
        "duality_residual": lambda: duality_residual(vsc, state, solve_adjoint(vsc, state),
                                                     other),
        "contraction_diagnostics": lambda: contraction_diagnostics(vsc, [0.2, other]),
    }
    with pytest.raises(ValueError, match="different grid"):
        calls[entry]()
