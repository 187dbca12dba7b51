"""Acceptance criteria, one test per criterion, and a second for criterion 6.

Each test prints a single pass/fail line with its measured quantities and
tolerances (run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines for passing tests too).  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import sizepop as sp
from sizepop.adjoint import duality_residual, solve_adjoint
from sizepop.model import control_array, validate_scenario
from sizepop.optimizer import (
    contraction_diagnostics,
    gradient_field,
    optimize,
)
from sizepop.oracles import (
    brute_force_search,
    mass_budget_residuals,
    oracle_heat_mode_decay,
    _transport_l1_error,
)
from sizepop.presets import (
    brute_force_instance,
    mass_balance_preset,
    smooth_default,
    tiny_random,
)
from sizepop.scenario_io import scenario_from_dict
from conftest import (
    evaluate_cost,
    fixed_point_update,
    random_nonneg_scenario,
    smooth_random_rate,
)


def _report(criterion, ok, detail):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_discrete_duality():
    started = time.perf_counter()
    vsc = tiny_random(seed=0)  # Ns=3, Nt=3, Nx=4, random positive rates
    ctx = vsc.step_context
    grid = vsc.grid
    rng = np.random.default_rng(1)
    beta = 0.2 + rng.random((grid.Ns, grid.Nt + 1, grid.Nx))
    worst = 0.0
    for _ in range(100):
        j = int(rng.integers(0, grid.Nt))
        u = rng.standard_normal((grid.Ns, grid.Nx))
        v = rng.standard_normal((grid.Ns, grid.Nx))
        lhs = float((ctx.apply_step_linear(j, beta[:, j, :], u) * v).sum())
        rhs = float((u * ctx.apply_step_adjoint(j, beta[:, j, :], v)[0]).sum())
        worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(u) * np.linalg.norm(v)))
    resid = duality_residual(vsc, beta, rng.standard_normal(beta.shape))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and resid <= 1e-10 and elapsed < 1.0
    _report("1 (discrete duality)", ok,
            f"pairing {worst:.2e} <= 1e-12, residual {resid:.2e} <= 1e-10, {elapsed:.2f}s < 1s")


def test_criterion_2_gradient_exactness():
    started = time.perf_counter()
    vsc = smooth_default(20, 20, 10)
    grid = vsc.grid
    rng = np.random.default_rng(2)
    beta = vsc.phi_l_grid + 0.35 * (vsc.phi_m_grid - vsc.phi_l_grid)
    g = gradient_field(vsc, beta, sp.solve_state(vsc, beta), solve_adjoint(vsc, beta)).values
    w = grid.volume_weights()
    eps = 1e-6 * max(float(np.abs(beta).max()), 1.0)
    worst = 0.0
    for _ in range(10):
        probe = vsc.phi_l_grid + rng.random(beta.shape) * (vsc.phi_m_grid - vsc.phi_l_grid)
        delta = probe - beta  # feasible direction
        analytic = float((w * g * delta).sum())
        bp, bm = beta + eps * delta, beta - eps * delta
        jp = evaluate_cost(sp.solve_state(vsc, bp), bp, vsc.cost)
        jm = evaluate_cost(sp.solve_state(vsc, bm), bm, vsc.cost)
        fd = (jp - jm) / (2 * eps)
        worst = max(worst, abs(analytic - fd) / abs(fd))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 30.0
    _report("2 (gradient exactness)", ok,
            f"worst relative error {worst:.2e} <= 1e-6 over 10 directions, {elapsed:.1f}s < 30s")


def test_criterion_3_optimality_condition():
    started = time.perf_counter()
    vsc = smooth_default(20, 20, 10).with_tolerances(fixed_point_tol=1e-9, max_iters=300)
    rep = optimize(vsc)
    assert rep.status == "converged"
    beta = rep.beta_opt.values
    state = sp.solve_state(vsc, beta)
    adj = solve_adjoint(vsc, beta)
    target = fixed_point_update(state, adj, vsc).values
    fp_resid = float(np.abs(beta - target).max())

    g = gradient_field(vsc, beta, state, adj).values
    grid = vsc.grid
    r_p_phi = np.abs(vsc.r_grid * state.p.values
                     * adj.phi_at_zero.values[None, :, :] / vsc.cost.c)
    scale = max(1.0, vsc.cost.rho * float(np.abs(beta).max()), float(r_p_phi.max()))
    act = np.s_[:, : grid.Nt, :]  # the final level carries no cost weight
    ga, ba = g[act], beta[act]
    lo, hi = vsc.phi_l_grid[act], vsc.phi_m_grid[act]
    tol_act = 1e-9 * scale
    interior = (ba > lo + tol_act) & (ba < hi - tol_act)
    kkt = 0.0
    if interior.any():
        kkt = max(kkt, float(np.abs(ga[interior]).max()))
    at_lo = ba <= lo + tol_act
    if at_lo.any():
        kkt = max(kkt, float(np.maximum(-ga[at_lo], 0.0).max()))
    at_hi = ba >= hi - tol_act
    if at_hi.any():
        kkt = max(kkt, float(np.maximum(ga[at_hi], 0.0).max()))
    elapsed = time.perf_counter() - started
    ok = fp_resid < 1e-7 and kkt <= 1e-6 * scale and elapsed < 120.0
    _report("3 (optimality condition)", ok,
            f"fixed-point residual {fp_resid:.2e} < 1e-7, KKT violation {kkt:.2e} <= "
            f"{1e-6 * scale:.1e}, {elapsed:.1f}s < 2min")


def test_criterion_4_uniqueness_under_contraction():
    vsc = smooth_default(20, 20, 10).with_tolerances(fixed_point_tol=1e-9, max_iters=300)
    diag = contraction_diagnostics(
        vsc, [vsc.phi_l_grid, vsc.phi_m_grid,
              0.5 * (vsc.phi_l_grid + vsc.phi_m_grid)])
    r_lo = optimize(vsc, beta0=vsc.phi_l_grid)
    r_hi = optimize(vsc, beta0=vsc.phi_m_grid)
    gap = float(np.abs(r_lo.beta_opt.values - r_hi.beta_opt.values).max())
    rates_ok = True
    worst_rate = 0.0
    for rep in (r_lo, r_hi):
        rr = rep.update_residuals
        for k in range(3, len(rr) - 1):
            if rr[k + 1] <= 1e-13:
                break
            rate = rr[k + 1] / rr[k]
            worst_rate = max(worst_rate, rate)
            rates_ok = rates_ok and rate <= diag.ratio + 0.1
    ok = (diag.ratio < 1.0 and r_lo.status == r_hi.status == "converged"
          and gap < 1e-6 and rates_ok)
    _report("4 (uniqueness under contraction)", ok,
            f"ratio {diag.ratio:.3f} < 1, two-start gap {gap:.2e} < 1e-6, "
            f"worst decay rate {worst_rate:.3f} <= ratio+0.1 = {diag.ratio + 0.1:.3f}")


def test_criterion_5_brute_force_optimum():
    started = time.perf_counter()
    vsc = brute_force_instance()
    best_J, _, quant_sens = brute_force_search(vsc, n_levels=21)
    rep = optimize(vsc)
    gap = float(rep.J_history[-1] - best_J)
    elapsed = time.perf_counter() - started
    ok = rep.status == "converged" and gap <= quant_sens + 1e-12 and elapsed < 120.0
    _report("5 (brute-force optimum)", ok,
            f"optimize J - exhaustive min = {gap:.2e} <= one-step sensitivity "
            f"{quant_sens:.2e} over 21^3 controls, {elapsed:.1f}s < 2min")


def test_criterion_6_physical_fidelity():
    heat = oracle_heat_mode_decay()

    e_coarse = _transport_l1_error(60)
    e_fine = _transport_l1_error(120)
    ratio = e_coarse / e_fine
    transport_ok = 1.6 <= ratio <= 2.4

    vsc = mass_balance_preset(64)
    discrete, physical, P = mass_budget_residuals(vsc, 0.4)
    scale = float(P.max())
    d_rel = float(np.abs(discrete).max()) / (scale * vsc.grid.dt)
    p_rel = float(np.abs(physical).max()) / scale
    mass_ok = d_rel <= 1e-12 and p_rel <= 1e-3

    ok = heat["passed"] and transport_ok and mass_ok
    _report("6 (physical fidelity)", ok,
            f"diffusion {heat['measured']:.1e} <= 1e-12; transport halving ratio "
            f"{ratio:.2f} in [1.6, 2.4]; mass budget: discrete {d_rel:.1e} <= 1e-12, "
            f"physical {p_rel:.1e} <= 1e-3")


def _smooth_optimum(n: int):
    """optimize on scenarios/smooth.json at Ns = Nt = n, Nx = n/2 + 1."""
    doc = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / "smooth.json")
                     .read_text())
    doc["grid"].update(Ns=n, Nt=n, Nx=n // 2 + 1)
    return optimize(validate_scenario(scenario_from_dict(doc)))


def test_criterion_6_optimum_under_refinement():
    # successive-difference ratios, which approach 2 at first order; the data
    # are incompatible at the (s, t) = (0, 0) corner, so a jump leaves it
    # along the characteristic and the sup norm of a difference does not
    # shrink: the mean |difference| is asserted instead
    reps = {n: _smooth_optimum(n) for n in (10, 20, 40, 80)}
    J = [reps[n].J_history[-1] for n in (20, 40, 80)]
    j_ratio = (J[1] - J[0]) / (J[2] - J[1])

    def restricted_gap(n):
        """Mean |beta_opt(2n) restricted to grid n - beta_opt(n)|: the two
        child size cells averaged, every other t and x node taken."""
        fine = reps[2 * n].beta_opt.values
        coarse = 0.5 * (fine[0::2] + fine[1::2])[:, ::2, ::2]
        return float(np.abs(coarse - reps[n].beta_opt.values).mean())

    beta_ratio = restricted_gap(20) / restricted_gap(40)
    iterations = [reps[n].iterations for n in (10, 20, 40)]
    ok = (all(r.status == "converged" for r in reps.values())
          and 1.6 <= j_ratio <= 2.4 and 1.4 <= beta_ratio <= 2.4
          and max(iterations) - min(iterations) <= 1)
    _report("6 (optimum under refinement)", ok,
            f"J_opt ratio at n = 20/40/80 {j_ratio:.3f} in [1.6, 2.4]; mean restricted "
            f"beta_opt ratio {beta_ratio:.3f} in [1.4, 2.4]; iterations at n = 10/20/40 "
            f"{iterations} differ by <= 1")


def test_criterion_7_positivity():
    worst = np.inf
    for seed in range(50):
        vsc = random_nonneg_scenario(seed)
        rng = np.random.default_rng(10_000 + seed)
        lo, hi = vsc.phi_l_grid, vsc.phi_m_grid
        beta = lo + rng.random(lo.shape) * (hi - lo)
        st = sp.solve_state(vsc, beta)
        worst = min(worst, float(st.p.values.min()))
    ok = worst >= 0.0
    _report("7 (positivity)", ok, f"min density over 50 randomized scenarios = {worst:.3e} >= 0")


def _lipschitz_ratios(level: int, n_pairs: int, seed: int):
    """Empirical Lipschitz constants at one refinement level.

    Returns (initial-data ratio, state-control ratio, adjoint-trace ratio),
    each the max over n_pairs random pairs; norms are L1 over (s, x) taken
    at the worst time level for the state, sup for the adjoint trace.
    """
    rng = np.random.default_rng(seed)
    base = smooth_default(10 * level, 10 * level, 6 * level)
    grid = base.grid
    wx = grid.space_weights()

    def l1_t(a):  # L1 over (s, x) per time level, then worst level after t = 0
        return float((np.abs(a) * wx[None, None, :]).sum(axis=(0, 2))[1:].max() * grid.ds)

    beta_fixed = 0.4
    m_init = 0.0
    for _ in range(n_pairs):
        pair = []
        for _ in range(2):
            p0 = smooth_random_rate(rng, ("size", "space"), base=1.0, amp=0.8)
            sc = replace(base.scenario,
                         rates=replace(base.scenario.rates, p0=p0))
            vsc = validate_scenario(sc)
            pair.append(vsc)
        s1 = sp.solve_state(pair[0], beta_fixed)
        s2 = sp.solve_state(pair[1], beta_fixed)
        denom = float((np.abs(pair[0].p0_grid - pair[1].p0_grid)
                       * wx[None, :]).sum() * grid.ds)
        m_init = max(m_init, l1_t(s1.p.values - s2.p.values) / denom)

    m_state = 0.0
    m_trace = 0.0
    for _ in range(n_pairs):
        b1 = smooth_random_rate(rng, ("size", "time", "space"), base=0.5, amp=0.45)
        b2 = smooth_random_rate(rng, ("size", "time", "space"), base=0.5, amp=0.45)
        a1 = control_array(grid, b1)
        a2 = control_array(grid, b2)
        db = float(np.abs(a1 - a2).max())
        st1 = sp.solve_state(base, a1)
        st2 = sp.solve_state(base, a2)
        ad1 = solve_adjoint(base, a1)
        ad2 = solve_adjoint(base, a2)
        m_state = max(m_state, l1_t(st1.p.values - st2.p.values) / db)
        m_trace = max(m_trace, float(np.abs(ad1.phi_at_zero.values
                                            - ad2.phi_at_zero.values).max()) / db)
    return m_init, m_state, m_trace


def test_criterion_8_lipschitz_estimates():
    coarse = _lipschitz_ratios(level=1, n_pairs=20, seed=8)
    fine = _lipschitz_ratios(level=2, n_pairs=20, seed=8)
    names = ("initial-data", "state-control", "adjoint-trace")
    details = []
    ok = True
    for name, mc, mf in zip(names, coarse, fine):
        stable = np.isfinite(mc) and np.isfinite(mf) and mc / mf <= 2.0 and mf / mc <= 2.0
        ok = ok and stable
        details.append(f"{name}: {mc:.3f} -> {mf:.3f}")
    _report("8 (Lipschitz estimates)", ok,
            "; ".join(details) + " (each pair within factor 2 under refinement)")
