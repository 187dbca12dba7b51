"""StepContext's one-sweep build against a per-step, per-cell reference.

StepContext traces the characteristic nodes of every time step in one call,
sorts the cells into stencil cases with masks over (Nt, Ns) and bisects the
crossing times of all entering cells in lockstep.  The reference below
builds the same arrays one step at a time: one trace per step, one Python
branch per cell, and one scalar bisection and one node-by-node decay factor
per entering cell.  The arithmetic of every cell is the same, so the
transport stencils, E and Fsrc must agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sizepop import rates as rate_lib
from sizepop.characteristics import (
    RK4_SUBSTEPS,
    RootBracketError,
    _bisect,
    trace_curve,
)
from sizepop.model import Grid3
from sizepop.presets import (
    brute_force_instance,
    mass_balance_preset,
    pure_transport,
    smooth_default,
    tiny_random,
)
from conftest import random_nonneg_scenario, tabulated_scenario


def scalar_bisect(f, lo, hi, tol=1e-12):
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise RootBracketError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def trace_raw(gamma, grid, t0, s0, t_query):
    if t_query == t0:
        return s0
    return float(trace_curve(gamma, grid, t0, s0, [t0, t_query])[-1])


def entering_decay(gamma, grid, t_c, t1, s):
    """Decay factor over [t_c, t1] along the curve through (t1, s), node by node."""
    nodes = [t_c + (t1 - t_c) * m / RK4_SUBSTEPS for m in range(RK4_SUBSTEPS + 1)]
    sizes = trace_curve(gamma, grid, nodes[-1], s, nodes[::-1])[::-1]
    g = [float(gamma.ds(s=sz, t=tn)) if 0.0 <= sz <= grid.s_f else 0.0
         for sz, tn in zip(sizes, nodes)]
    return math.exp(-np.trapezoid(g, nodes))


def reference_build(vsc):
    """(transport [(weights, cols)], E, Fsrc, case counts), step by step and
    cell by cell."""
    grid = vsc.grid
    gamma = vsc.rates.gamma
    has_renewal = vsc.growth_case.has_renewal
    ns, nt, nx = grid.Ns, grid.Nt, grid.Nx
    ds, dt = grid.ds, grid.dt
    s = grid.s_centers
    transport = []
    E = np.empty((nt, ns, nx))
    Fsrc = np.empty((nt, ns, nx))
    cases = {"entering": 0, "interior": 0, "blend": 0, "extrapolate": 0}
    n_sub = RK4_SUBSTEPS
    for j in range(nt):
        t0, t1 = grid.t_points[j], grid.t_points[j + 1]
        node_t = t1 + (t0 - t1) * np.arange(n_sub + 1) / n_sub
        svals = trace_curve(gamma, grid, t1, s, node_t)
        feet_raw = svals[-1]
        in_domain = (svals >= 0.0) & (svals <= grid.s_f)
        dsg = np.zeros_like(svals)
        if in_domain.any():
            dsg[in_domain] = gamma.ds(
                s=svals[in_domain],
                t=np.broadcast_to(node_t[:, None], svals.shape)[in_domain],
            )
        q_all = np.exp(np.trapezoid(dsg, node_t, axis=0))

        lo_idx = np.zeros(ns, dtype=int)
        hi_idx = np.zeros(ns, dtype=int)
        lo_w = np.zeros(ns)
        hi_w = np.zeros(ns)
        bnode_w = np.zeros(ns)
        dt_eff = np.full(ns, dt)
        s_mid = np.clip(svals[n_sub // 2], 0.0, grid.s_f)
        t_mid = np.full(ns, 0.5 * (t0 + t1))
        for i in range(ns):
            foot_raw = feet_raw[i]
            if foot_raw < 0.0 and has_renewal:
                cases["entering"] += 1
                t_c = scalar_bisect(lambda eta: trace_raw(gamma, grid, t1, s[i], eta), t0, t1)
                q = entering_decay(gamma, grid, t_c, t1, s[i])
                bnode_w[i] = q
                dt_eff[i] = t1 - t_c
                t_mid[i] = 0.5 * (t_c + t1)
                s_mid[i] = min(max(trace_raw(gamma, grid, t1, s[i], t_mid[i]), 0.0), grid.s_f)
            else:
                foot = min(max(foot_raw, 0.0), grid.s_f)
                q = q_all[i]
                if foot >= s[0]:
                    cases["interior"] += 1
                    i0 = min(int((foot - s[0]) / ds), ns - 2)
                    theta = min(max((foot - s[i0]) / ds, 0.0), 1.0)
                    lo_idx[i], hi_idx[i] = i0, i0 + 1
                    lo_w[i], hi_w[i] = q * (1.0 - theta), q * theta
                elif has_renewal:
                    cases["blend"] += 1
                    theta = foot / s[0]
                    lo_w[i] = q * theta
                    bnode_w[i] = q * (1.0 - theta)
                else:
                    cases["extrapolate"] += 1
                    lo_w[i] = q
        cols = np.stack([lo_idx, hi_idx, np.full(ns, ns)], axis=1)
        vals = np.stack([lo_w, hi_w, bnode_w], axis=1)
        transport.append((vals, cols))
        mu_mid = vsc.rates.mu(s=s_mid[:, None], t=t_mid[:, None], x=grid.x_points[None, :])
        f_mid = vsc.rates.f(s=s_mid[:, None], t=t_mid[:, None], x=grid.x_points[None, :])
        E[j] = np.exp(-mu_mid * dt_eff[:, None])
        Fsrc[j] = f_mid * dt_eff[:, None]
    return transport, E, Fsrc, cases


SCENARIOS = {
    "smooth_default": lambda: smooth_default(20, 20, 10),
    "pure_transport": lambda: pure_transport(60, 60),
    "mass_balance_preset": lambda: mass_balance_preset(48),
    **{f"tiny_random_{s}": (lambda s=s: tiny_random(seed=s)) for s in range(5)},
    "brute_force_instance": brute_force_instance,
    "random_nonneg_case_b": lambda: random_nonneg_scenario(5),
    "random_nonneg_case_c": lambda: random_nonneg_scenario(1),
    "random_nonneg_case_d": lambda: random_nonneg_scenario(0),
    "tabulated_scenario": tabulated_scenario,
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_build_matches_per_cell_reference(name):
    vsc = SCENARIOS[name]()
    ctx = vsc.step_context
    transport, E, Fsrc, _ = reference_build(vsc)
    assert len(ctx.stencil_weights) == len(ctx.stencil_cols) == len(transport)
    for got_w, got_c, (weights, cols) in zip(ctx.stencil_weights, ctx.stencil_cols, transport):
        assert np.array_equal(got_w, weights)
        assert np.array_equal(got_c, cols)
    assert np.array_equal(ctx.E, E)
    assert np.array_equal(ctx.Fsrc, Fsrc)


def test_scenarios_reach_every_stencil_case():
    tags, cases = set(), {}
    for make in SCENARIOS.values():
        vsc = make()
        tags.add(vsc.growth_case.tag)
        for case, n in reference_build(vsc)[3].items():
            cases[case] = cases.get(case, 0) + n
    assert tags == {"a", "b", "c", "d"}
    assert all(n > 0 for n in cases.values()), cases


def test_per_curve_node_times_match_separate_traces():
    grid = Grid3(Ns=5, Nt=4, Nx=2, s_f=1.0, T=1.0, L=1.0)
    gamma = rate_lib.from_preset("separable-product", ("size", "time"),
                                 {"a": 0.7, "bs": 0.8, "bt": -0.3})
    s0 = grid.s_centers
    times = np.stack([np.linspace(t1, t0, 6) for t0, t1 in
                      zip(grid.t_points[:-1], grid.t_points[1:])], axis=1)[:, :, None]
    swept = trace_curve(gamma, grid, times[0], s0, times)
    assert swept.shape == (6, grid.Nt, grid.Ns)
    for j in range(grid.Nt):
        assert np.array_equal(swept[:, j], trace_curve(gamma, grid, times[0, j, 0], s0,
                                                       times[:, j, 0]))
        for i in range(grid.Ns):
            alone = trace_curve(gamma, grid, times[0, j, 0], float(s0[i]), times[:, j, 0])
            assert np.array_equal(swept[:, j, i], alone)


def lines(roots, slopes):
    """f_m(x) = slope_m * (x - root_m), evaluated for the entries idx."""
    roots, slopes = np.asarray(roots, dtype=float), np.asarray(slopes, dtype=float)
    return (lambda idx, x: slopes[idx] * (x - roots[idx]),
            [lambda x, m=m: slopes[m] * (x - roots[m]) for m in range(len(roots))])


def test_lockstep_bisection_follows_the_scalar_rule():
    rng = np.random.default_rng(3)
    # roots at bracket midpoints (f == 0 there, early exit), at the bracket
    # ends, and at random points; rising and falling functions
    roots = [0.5, 0.25, 0.375, 0.0, 1.0, *rng.random(20)]
    slopes = [1.0, -2.0, 3.0, 1.0, -1.0, *rng.choice([-1.0, 1.0], 20) * (0.1 + rng.random(20))]
    vector_f, scalar_fs = lines(roots, slopes)
    lo, hi = np.zeros(len(roots)), np.ones(len(roots))
    got = _bisect(vector_f, lo, hi)
    want = [scalar_bisect(f, 0.0, 1.0) for f in scalar_fs]
    assert np.array_equal(got, want)
    assert np.array_equal(got[:5], roots[:5])


def test_lockstep_bisection_raises_for_the_first_lost_bracket():
    vector_f, _ = lines([0.5, 2.0, 3.0], [1.0, 1.0, 1.0])
    with pytest.raises(RootBracketError, match=r"no sign change on \[0.0, 1.0\]: f=-2.0, -1.0"):
        _bisect(vector_f, np.zeros(3), np.ones(3))


def test_bisection_stops_where_no_float_lies_inside_the_bracket():
    # two adjacent floats near 1e4 lie 1.8e-12 apart, wider than the 1e-12
    # tolerance: the midpoint rounds onto an end and the bracket cannot shrink
    lo = 1e4
    hi = float(np.nextafter(lo, np.inf))
    root = _bisect(lambda idx, x: (x - lo) - 0.5 * (hi - lo), np.array([lo]), np.array([hi]))
    assert root[0] in (lo, hi)
