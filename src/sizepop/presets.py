"""Built-in scenarios used by the CLI defaults, the oracle suite and tests.

Each is a scenario document that goes through the parse and the checks a
``--scenario`` file goes through (``scenario_from_dict``, then
``validate_scenario``), so ``scenario_io.RATE_AXES`` alone gives each rate
its axes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import rates as rate_lib
from .model import ValidatedScenario, validate_scenario
from .scenario_io import RATE_AXES, scenario_from_dict


def _grid(Ns: int, Nt: int, Nx: int, T: float = 1.0) -> dict:
    """A grid entry over the unit size range and the unit length."""
    return {"Ns": Ns, "Nt": Nt, "Nx": Nx, "s_f": 1.0, "T": T, "L": 1.0}


def smooth_default(Ns: int = 20, Nt: int = 20, Nx: int = 10, *,
                   seed: int = 0) -> ValidatedScenario:
    """Gently varying rates, renewal-active growth, contraction-friendly cost.

    The control weight rho = 10 keeps the update map well inside the
    contraction regime at this population scale, and the wide box [0, 1]
    leaves the optimum in the interior.
    """
    return validate_scenario(scenario_from_dict({
        "grid": _grid(Ns, Nt, Nx),
        "rates": {
            "gamma": {"preset": "linear-in-s", "a": 0.4, "b": 0.3},
            "mu": {"preset": "separable-product", "a": 0.1, "bs": 0.5},
            "r": 0.5,
            "f": 0.05,
            "C": {"preset": "cosine-mode-in-x", "a": 0.2, "b": 0.05, "mode": 1},
            "p0": {"preset": "separable-product", "a": 1.0, "bs": -0.5, "bx": 0.2},
        },
        "diffusion_k": 0.01,
        "bounds": {"phi_l": 0.0, "phi_m": 1.0},
        "cost": {"rho": 10.0},
        "tolerances": {"fixed_point_tol": 1e-9, "max_iters": 300, "relax_omega": 1.0,
                       "seed": seed},
    }))


def tiny_random(seed: int = 0, Ns: int = 3, Nt: int = 3, Nx: int = 4) -> ValidatedScenario:
    """Small grid with random positive tabulated rates, for duality checks."""
    rng = np.random.default_rng(seed)
    lengths = {"size": Ns, "time": Nt + 1, "space": Nx}

    def table(name, lo=0.1, span=1.0):
        return {"table": lo + span * rng.random([lengths[a] for a in RATE_AXES[name]])}

    # the draws are made in this order: gamma's a and b, then each table
    return validate_scenario(scenario_from_dict({
        "grid": _grid(Ns, Nt, Nx),
        "rates": {
            "gamma": {"preset": "linear-in-s", "a": 0.5 + 0.5 * rng.random(),
                      "b": 0.4 * rng.random()},
            "mu": table("mu"),
            "r": table("r", 0.2, 0.6),
            "f": table("f"),
            "C": table("C"),
            "p0": table("p0"),
        },
        "diffusion_k": 0.02,
        "bounds": {"phi_l": 0.0, "phi_m": 2.0},
        "cost": {"rho": 5.0, "c": 1.0},
        "tolerances": {"seed": seed},
    }))


def brute_force_instance() -> ValidatedScenario:
    """Tiny instance for exhaustive control enumeration.

    Spatially constant data on the minimal two-node space grid (the spec's
    single-node sketch leaves dx undefined), cost variant "plus" so the
    projected fixed point is the true minimizer of the quantized search.
    """
    return validate_scenario(scenario_from_dict({
        "grid": _grid(3, 3, 2),
        "rates": {"gamma": 1.0, "mu": 0.1, "r": 0.5, "f": 0.0, "C": 0.2, "p0": 1.0},
        "diffusion_k": 0.01,
        "bounds": {"phi_l": 0.2, "phi_m": 1.5},
        "cost": {"rho": 1.0, "c": 1.0, "sign_variant": "plus"},
        "tolerances": {"fixed_point_tol": 1e-10, "max_iters": 100},
    }))


def pure_transport(Ns: int, Nt: int) -> ValidatedScenario:
    """Advection-only scenario: no mortality, no sources, no births.

    The growth rate is 0.3 + 0.4*s.  The Gaussian bump stays clear of both
    size boundaries over the horizon, so the exact solution is the bump
    carried along the characteristics with the decay-factor scaling
    exp(-0.4 * t).  The file format has no Gaussian, so the parsed
    placeholder p0 is replaced by a callable.
    """
    sc = scenario_from_dict({
        "grid": _grid(Ns, Nt, 3, T=0.6),
        "rates": {"gamma": {"preset": "linear-in-s", "a": 0.3, "b": 0.4},
                  "mu": 0.0, "r": 0.5, "f": 0.0, "C": 0.0, "p0": 0.0},
        "diffusion_k": 0.01,
        "bounds": {"phi_l": 0.0, "phi_m": 1.0},
    })

    def bump(s, x):
        return np.exp(-(((s - 0.3) / 0.08) ** 2)) * np.ones_like(x)

    p0 = rate_lib.from_callable(bump, RATE_AXES["p0"])
    return validate_scenario(replace(sc, rates=replace(sc.rates, p0=p0)))


def mass_balance_preset(n: int = 48) -> ValidatedScenario:
    """Smooth renewal-active scenario for the budget bookkeeping oracle.

    Designed corner-compatible at beta = 0.4: the newborn value at t = 0,
    (C + r*beta*p0*s_f)/gamma(0,0) = (0.24 + 0.16)/0.5, equals the initial
    density 0.8, so no contact discontinuity enters through s = 0 and the
    solution stays smooth.  Rates are kept gently varying so the physical
    budget closes at first order well under its tolerance.
    """
    return validate_scenario(scenario_from_dict({
        "grid": _grid(n, n, 6, T=0.7),
        "rates": {"gamma": {"preset": "linear-in-s", "a": 0.5, "b": 0.1},
                  "mu": {"preset": "separable-product", "a": 0.15, "bs": 0.2},
                  "r": 0.5, "f": 0.02, "C": 0.24, "p0": 0.8},
        "diffusion_k": 0.005,
        "bounds": {"phi_l": 0.0, "phi_m": 1.0},
    }))
