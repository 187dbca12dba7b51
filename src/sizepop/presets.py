"""Built-in scenarios used by the CLI defaults, the oracle suite and tests."""

from __future__ import annotations

import numpy as np

from . import rates as rate_lib
from .model import (
    ControlBounds,
    CostParams,
    Grid3,
    Scenario,
    Tolerances,
    ValidatedScenario,
    VitalRates,
    validate_scenario,
)


def smooth_default(Ns: int = 20, Nt: int = 20, Nx: int = 10, *,
                   seed: int = 0) -> ValidatedScenario:
    """Gently varying rates, renewal-active growth, contraction-friendly cost.

    The control weight rho = 10 keeps the update map well inside the
    contraction regime at this population scale, and the wide box [0, 1]
    leaves the optimum in the interior.
    """
    grid = Grid3(Ns=Ns, Nt=Nt, Nx=Nx, s_f=1.0, T=1.0, L=1.0)
    rates = VitalRates(
        gamma=rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 0.4, "b": 0.3}),
        mu=rate_lib.from_preset("separable-product", ("size", "time", "space"),
                                {"a": 0.1, "bs": 0.5, "bt": 0.0, "bx": 0.0}),
        r=rate_lib.constant(0.5, ("size", "time", "space")),
        f=rate_lib.constant(0.05, ("size", "time", "space")),
        C=rate_lib.from_preset("cosine-mode-in-x", ("time", "space"),
                               {"a": 0.2, "b": 0.05, "mode": 1}, x_length=grid.L),
        p0=rate_lib.from_preset("separable-product", ("size", "space"),
                                {"a": 1.0, "bs": -0.5, "bx": 0.2}),
    )
    sc = Scenario(
        grid=grid,
        rates=rates,
        k=0.01,
        bounds=ControlBounds.constants(0.0, 1.0),
        cost=CostParams(rho=10.0),
        tolerances=Tolerances(fixed_point_tol=1e-9, max_iters=300, relax_omega=1.0, seed=seed),
    )
    return validate_scenario(sc)


def tiny_random(seed: int = 0, Ns: int = 3, Nt: int = 3, Nx: int = 4) -> ValidatedScenario:
    """Small grid with random positive tabulated rates, for duality checks."""
    rng = np.random.default_rng(seed)
    grid = Grid3(Ns=Ns, Nt=Nt, Nx=Nx, s_f=1.0, T=1.0, L=1.0)

    def table(axes):
        shape = tuple(grid.axis_len(a) for a in axes)
        coords = [grid.axis_coords(a) for a in axes]
        return rate_lib.from_table(0.1 + rng.random(shape), axes, coords)

    rates = VitalRates(
        gamma=rate_lib.from_preset("linear-in-s", ("size", "time"),
                                   {"a": 0.5 + 0.5 * rng.random(), "b": 0.4 * rng.random()}),
        mu=table(("size", "time", "space")),
        r=rate_lib.from_table(0.2 + 0.6 * rng.random((grid.Ns, grid.Nt + 1, grid.Nx)),
                              ("size", "time", "space"),
                              [grid.s_centers, grid.t_points, grid.x_points]),
        f=table(("size", "time", "space")),
        C=table(("time", "space")),
        p0=table(("size", "space")),
    )
    sc = Scenario(
        grid=grid,
        rates=rates,
        k=0.02,
        bounds=ControlBounds.constants(0.0, 2.0),
        cost=CostParams(rho=5.0, c=1.0),
        tolerances=Tolerances(seed=seed),
    )
    return validate_scenario(sc)


def brute_force_instance() -> ValidatedScenario:
    """Tiny instance for exhaustive control enumeration.

    Spatially constant data on the minimal two-node space grid (the spec's
    single-node sketch leaves dx undefined), cost variant "plus" so the
    projected fixed point is the true minimizer of the quantized search.
    """
    grid = Grid3(Ns=3, Nt=3, Nx=2, s_f=1.0, T=1.0, L=1.0)
    rates = VitalRates.constants(gamma=1.0, mu=0.1, r=0.5, f=0.0, C=0.2, p0=1.0)
    sc = Scenario(
        grid=grid,
        rates=rates,
        k=0.01,
        bounds=ControlBounds.constants(0.2, 1.5),
        cost=CostParams(rho=1.0, c=1.0, sign_variant="plus"),
        tolerances=Tolerances(fixed_point_tol=1e-10, max_iters=100),
    )
    return validate_scenario(sc)


def pure_transport(Ns: int, Nt: int) -> ValidatedScenario:
    """Advection-only scenario: no mortality, no sources, no births.

    The growth rate is 0.3 + 0.4*s.  The Gaussian bump stays clear of both
    size boundaries over the horizon, so the exact solution is the bump
    carried along the characteristics with the decay-factor scaling
    exp(-0.4 * t).
    """
    grid = Grid3(Ns=Ns, Nt=Nt, Nx=3, s_f=1.0, T=0.6, L=1.0)

    def bump(s, x):
        return np.exp(-(((s - 0.3) / 0.08) ** 2)) * np.ones_like(x)

    rates = VitalRates(
        gamma=rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 0.3, "b": 0.4}),
        mu=rate_lib.constant(0.0, ("size", "time", "space")),
        r=rate_lib.constant(0.5, ("size", "time", "space")),
        f=rate_lib.constant(0.0, ("size", "time", "space")),
        C=rate_lib.constant(0.0, ("time", "space")),
        p0=rate_lib.from_callable(bump, ("size", "space")),
    )
    sc = Scenario(grid=grid, rates=rates, k=0.01, bounds=ControlBounds.constants(0.0, 1.0))
    return validate_scenario(sc)


def mass_balance_preset(n: int = 48) -> ValidatedScenario:
    """Smooth renewal-active scenario for the budget bookkeeping oracle.

    Designed corner-compatible at beta = 0.4: the newborn value at t = 0,
    (C + r*beta*p0*s_f)/gamma(0,0) = (0.24 + 0.16)/0.5, equals the initial
    density 0.8, so no contact discontinuity enters through s = 0 and the
    solution stays smooth.  Rates are kept gently varying so the physical
    budget closes at first order well under its tolerance.
    """
    grid = Grid3(Ns=n, Nt=n, Nx=6, s_f=1.0, T=0.7, L=1.0)
    rates = VitalRates(
        gamma=rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 0.5, "b": 0.1}),
        mu=rate_lib.from_preset("separable-product", ("size", "time", "space"),
                                {"a": 0.15, "bs": 0.2}),
        r=rate_lib.constant(0.5, ("size", "time", "space")),
        f=rate_lib.constant(0.02, ("size", "time", "space")),
        C=rate_lib.constant(0.24, ("time", "space")),
        p0=rate_lib.constant(0.8, ("size", "space")),
    )
    sc = Scenario(grid=grid, rates=rates, k=0.005, bounds=ControlBounds.constants(0.0, 1.0))
    return validate_scenario(sc)

