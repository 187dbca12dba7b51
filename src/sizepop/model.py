"""Core data model: grids, fields, vital rates, control bounds, scenarios.

All types are plain frozen dataclasses and are immutable once validated, so a
validated scenario can be shared read-only across concurrent runs.  The grid
is a tensor product of cell-centered size samples, node time levels and node
space points; fields store dense arrays in (size, time, space) order over
whichever of the three axes they vary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .rates import RateField

# Cells in one (size, time, space) field: 16 GiB of float64.  A larger grid
# is refused before anything is allocated for it.
MAX_GRID_CELLS = 2**31


class ScenarioValidationError(ValueError):
    """One or more scenario invariants are violated; lists each by name."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("scenario validation failed:\n  " + "\n  ".join(self.violations))


class NumericalError(RuntimeError):
    """A solver produced a non-finite value; carries the offending index."""


@dataclass(frozen=True)
class Grid3:
    """Tensor-product discretization of (s, t, x) in [0,s_f]x[0,T]x[0,L].

    Size uses cell centers s_i = (i + 1/2)*ds so the newborn boundary s = 0 is
    never a sample point; time and space use nodes t_j = j*dt, x_k = k*dx.
    """

    Ns: int
    Nt: int
    Nx: int
    s_f: float
    T: float
    L: float

    @property
    def ds(self) -> float:
        return self.s_f / self.Ns

    @property
    def dt(self) -> float:
        return self.T / self.Nt

    @property
    def dx(self) -> float:
        return self.L / (self.Nx - 1)

    @property
    def s_centers(self) -> np.ndarray:
        return (np.arange(self.Ns) + 0.5) * self.ds

    @property
    def t_points(self) -> np.ndarray:
        return np.arange(self.Nt + 1) * self.dt

    @property
    def x_points(self) -> np.ndarray:
        return np.arange(self.Nx) * self.dx

    def axis_len(self, axis: str) -> int:
        return {"size": self.Ns, "time": self.Nt + 1, "space": self.Nx}[axis]

    def axis_coords(self, axis: str) -> np.ndarray:
        return {"size": self.s_centers, "time": self.t_points, "space": self.x_points}[axis]

    def space_weights(self) -> np.ndarray:
        """Trapezoid weights in x, dx at interior nodes and dx/2 at the two
        ends, shape (Nx,)."""
        w = np.ones(self.Nx)
        w[0] = w[-1] = 0.5
        return w * self.dx

    def volume_weights(self) -> np.ndarray:
        """Quadrature weights for integrals over (s, t, x): midpoint in size,
        left endpoint in time, trapezoid in space.  Shape (Nt+1, Nx), the
        weights of one size cell, the same for every cell: they broadcast
        against any (..., Ns, Nt+1, Nx) field.

        The final time level carries zero weight, which is what makes the
        discrete-transpose adjoint vanish identically at t = T.
        """
        wt = np.full(self.Nt + 1, self.dt)
        wt[-1] = 0.0
        return self.ds * wt[:, None] * self.space_weights()

    def validate(self) -> list[str]:
        bad = []
        if self.Ns < 2:
            bad.append(f"grid invariant violated: Ns >= 2 (got {self.Ns})")
        if self.Nt < 2:
            bad.append(f"grid invariant violated: Nt >= 2 (got {self.Nt})")
        if self.Nx < 2:
            bad.append(f"grid invariant violated: Nx >= 2 (got {self.Nx})")
        if not self.s_f > 0:
            bad.append(f"grid invariant violated: s_f > 0 (got {self.s_f})")
        if not self.T > 0:
            bad.append(f"grid invariant violated: T > 0 (got {self.T})")
        if not self.L > 0:
            bad.append(f"grid invariant violated: L > 0 (got {self.L})")
        bad.extend(f"grid invariant violated: {name} finite (got {value})"
                   for name, value in (("s_f", self.s_f), ("T", self.T), ("L", self.L))
                   if np.isinf(value))
        if bad:
            return bad
        cells = self.Ns * (self.Nt + 1) * self.Nx
        if cells > MAX_GRID_CELLS:
            return [f"grid invariant violated: Ns*(Nt+1)*Nx <= {MAX_GRID_CELLS} (got {cells})"]
        return [f"grid invariant violated: {name} > 0 (got {value})"
                for name, value in (("ds = s_f/Ns", self.ds), ("dt = T/Nt", self.dt),
                                    ("dx = L/(Nx-1)", self.dx))
                if not value > 0]


@dataclass(frozen=True)
class Field:
    """Dense sampled scalar field over a subset of the grid axes.

    Values are stored in row-major (size, time, space) order restricted to
    the active axes and are frozen after construction.
    """

    grid: Grid3
    axes: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if tuple(a for a in ("size", "time", "space") if a in self.axes) != self.axes:
            raise ValueError(f"axes must be in (size, time, space) order, got {self.axes}")
        expected = tuple(self.grid.axis_len(a) for a in self.axes)
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.shape != expected:
            raise ValueError(f"field shape {vals.shape} does not match axes {self.axes} -> {expected}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class VitalRates:
    """Demographic coefficients: growth gamma(s,t), mortality mu(s,t,x),
    female ratio r(s,t,x), immigration f(s,t,x) of sized individuals,
    immigration C(t,x) of newborns, and the initial density p0(s,x)."""

    gamma: RateField
    mu: RateField
    r: RateField
    f: RateField
    C: RateField
    p0: RateField


@dataclass(frozen=True)
class ControlBounds:
    """Pointwise box for the fertility control: phi_l <= beta <= phi_m."""

    phi_l: RateField
    phi_m: RateField


@dataclass(frozen=True)
class CostParams:
    """Objective weights: J = integral of [p -/+ rho/2 * beta^2].

    `sign_variant` selects the sign of the control term: "minus" subtracts
    the quadratic control cost, "plus" adds it.  `c` scales the adjoint
    source so the projected update beta = F(-r p phi0 / (c rho)) holds with
    c exposed in configuration.
    """

    rho: float = 1.0
    c: float = 1.0
    sign_variant: str = "minus"

    @property
    def control_sign(self) -> float:
        return -1.0 if self.sign_variant == "minus" else 1.0


@dataclass(frozen=True)
class Tolerances:
    """Fixed-point iteration controls plus the seed used by randomized
    diagnostics, kept in configuration so reported constants reproduce."""

    fixed_point_tol: float = 1e-8
    max_iters: int = 200
    relax_omega: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    grid: Grid3
    rates: VitalRates
    k: float
    bounds: ControlBounds
    cost: CostParams = CostParams()
    tolerances: Tolerances = Tolerances()


@dataclass(frozen=True)
class GrowthCase:
    """Sign pattern of the growth rate at the size boundaries.

    a: gamma(0,.) > 0 and gamma(s_f,.) > 0     b: gamma(0,.) > 0, gamma(s_f,.) = 0
    c: gamma(0,.) = 0 and gamma(s_f,.) > 0     d: both vanish
    """

    tag: str

    @property
    def has_renewal(self) -> bool:
        return self.tag in ("a", "b")


@dataclass(frozen=True)
class ValidatedScenario:
    """Scenario with every invariant checked and the solvers' inputs sampled
    on-grid.

    Holds only the arrays a solver reads: the female ratio and the control
    bounds shaped (Ns, Nt+1, Nx), the growth trace at s = 0 shaped (Nt+1,),
    newborn immigration (Nt+1, Nx) and the initial density (Ns, Nx).  The
    female ratio and the bounds are sampled only along the axes the rate
    varies over and held as read-only broadcast views of the full shape,
    with stride 0 along the other axes: a constant costs one float, not a
    full grid.  Readers index and combine them as they would full arrays.
    The other rates are sampled and checked at validation, then dropped;
    read them from `rates`.  Immutable; safe to share across runs.  The step
    operator of the forward and adjoint marches is built once, on first use
    of `step_context`, and cached on the instance.
    """

    scenario: Scenario
    growth_case: GrowthCase
    gamma0_t: np.ndarray
    r_grid: np.ndarray
    C_grid: np.ndarray
    p0_grid: np.ndarray
    phi_l_grid: np.ndarray
    phi_m_grid: np.ndarray

    def __post_init__(self):
        for name in ("gamma0_t", "r_grid", "C_grid", "p0_grid", "phi_l_grid", "phi_m_grid"):
            arr = np.asarray(getattr(self, name))
            if 0 not in arr.strides:  # a contiguous copy of a broadcast view is a full grid
                arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def grid(self) -> Grid3:
        return self.scenario.grid

    @property
    def rates(self) -> VitalRates:
        return self.scenario.rates

    @property
    def k(self) -> float:
        return self.scenario.k

    @property
    def cost(self) -> CostParams:
        return self.scenario.cost

    @property
    def tolerances(self) -> Tolerances:
        return self.scenario.tolerances

    @cached_property
    def step_context(self):
        """The forward.StepContext of this scenario, built on first use."""
        from .forward import StepContext  # forward imports this module
        return StepContext(self)

    def with_tolerances(self, **kw) -> "ValidatedScenario":
        tol = replace(self.scenario.tolerances, **kw)
        violations = _tolerance_violations(tol)
        if violations:
            raise ScenarioValidationError(violations)
        return replace(self, scenario=replace(self.scenario, tolerances=tol))


def _first_bad(mask: np.ndarray, axes: tuple[str, ...]) -> str:
    idx = tuple(int(v) for v in np.argwhere(mask)[0])
    labels = {"size": "i", "time": "j", "space": "k"}
    return "(" + ",".join(f"{labels[a]}={v}" for a, v in zip(axes, idx)) + ")"


def _tolerance_violations(tol: Tolerances) -> list[str]:
    """Checked at validation and again on every with_tolerances override."""
    checks = (
        ("fixed_point_tol > 0", tol.fixed_point_tol > 0, tol.fixed_point_tol),
        ("max_iters >= 1", tol.max_iters >= 1, tol.max_iters),
        ("relax_omega in (0,1]", 0 < tol.relax_omega <= 1, tol.relax_omega),
        # numpy's generators refuse a negative seed
        ("seed >= 0", tol.seed >= 0, tol.seed),
    )
    return [f"tolerance invariant violated: {rule} (got {value})"
            for rule, ok, value in checks if not ok]


def classify_growth_case_values(gamma0_t: np.ndarray, gamma_end_t: np.ndarray) -> GrowthCase:
    """Classify from the boundary traces; the pattern must not change in time."""
    pos0 = gamma0_t > 0.0
    posf = gamma_end_t > 0.0
    if pos0.any() != pos0.all() or posf.any() != posf.all():
        raise ScenarioValidationError(["growth case not uniform in time"])
    tag = {(True, True): "a", (True, False): "b", (False, True): "c", (False, False): "d"}[
        (bool(pos0.all()), bool(posf.all()))
    ]
    return GrowthCase(tag)


def validate_scenario(sc: Scenario) -> ValidatedScenario:
    """Check every model invariant on the grid samples of every rate.

    Violations are collected and reported together, each named after the
    assumption it breaks.  A rate of (size, time, space) is sampled with
    length 1 along each axis it does not vary over; the first bad cell of
    the full grid in C order lies at index 0 along such an axis, so the
    samples name the same cell.  Only the samples a solver reads are kept.
    """
    grid = sc.grid
    violations = grid.validate()
    if violations:
        raise ScenarioValidationError(violations)

    t = grid.t_points
    gamma_samples = sc.rates.gamma(s=grid.s_centers[:, None], t=t[None, :])
    gamma0_t = sc.rates.gamma(s=np.zeros_like(t), t=t)
    gamma_end_t = sc.rates.gamma(s=np.full_like(t, grid.s_f), t=t)

    mu, r, f, phi_l, phi_m = (_grid_samples(rate, grid) for rate in (
        sc.rates.mu, sc.rates.r, sc.rates.f, sc.bounds.phi_l, sc.bounds.phi_m))
    C_grid = sc.rates.C(t=t[:, None], x=grid.x_points[None, :])
    p0_grid = sc.rates.p0(s=grid.s_centers[:, None], x=grid.x_points[None, :])

    stx = ("size", "time", "space")
    for key, arr, axes in (
        ("rates.gamma", gamma_samples, ("size", "time")),
        ("rates.gamma at s = 0", gamma0_t, ("time",)),
        ("rates.gamma at s = s_f", gamma_end_t, ("time",)),
        ("rates.mu", mu, stx),
        ("rates.r", r, stx),
        ("rates.f", f, stx),
        ("rates.C", C_grid, ("time", "space")),
        ("rates.p0", p0_grid, ("size", "space")),
        ("bounds.phi_l", phi_l, stx),
        ("bounds.phi_m", phi_m, stx),
    ):
        bad = ~np.isfinite(arr)
        if bad.any():
            violations.append(f"finiteness violated: {key} not finite at {_first_bad(bad, axes)}")
    if (gamma_samples < 0).any() or (gamma0_t < 0).any() or (gamma_end_t < 0).any():
        violations.append("A1 violated: gamma < 0 somewhere on the grid")
    for name, arr, axes in (
        ("mu", mu, stx),
        ("f", f, stx),
        ("C", C_grid, ("time", "space")),
        ("p0", p0_grid, ("size", "space")),
    ):
        if (arr < 0).any():
            violations.append(f"nonnegativity violated: {name} < 0 at {_first_bad(arr < 0, axes)}")
    if (r <= 0).any():
        violations.append(f"A5 violated: r <= 0 at {_first_bad(r <= 0, stx)}")
    if (r >= 1).any():
        violations.append(f"A5 violated: r >= 1 at {_first_bad(r >= 1, stx)}")
    if (phi_l < 0).any():
        violations.append(f"bounds violated: phi_l < 0 at {_first_bad(phi_l < 0, stx)}")
    if (phi_l > phi_m).any():
        violations.append(f"bounds violated: phi_l > phi_m at {_first_bad(phi_l > phi_m, stx)}")
    if not sc.k > 0:
        violations.append(f"diffusion invariant violated: k > 0 (got {sc.k})")
    elif np.isfinite(sc.k):
        # the diffusion bands hold k*dt/dx^2; it must neither overflow nor
        # underflow (grid.L near 1e300 or 1e-300 does either)
        number = np.float64(sc.k) * grid.dt / np.float64(grid.dx) ** 2
        if not (np.isfinite(number) and number > 0):
            violations.append(f"diffusion invariant violated: diffusion_k*dt/dx^2 finite and "
                              f"> 0, with dx = grid.L/(Nx-1) (got {float(number)})")
        elif 1.0 + 2.0 * number == 2.0 * number:
            # the identity is lost in I - k*dt*Lxx, which rounds to the
            # singular Neumann Laplacian (grid.T near 1e300 does this)
            violations.append(f"diffusion invariant violated: 1 + 2*diffusion_k*dt/dx^2 rounds "
                              f"to 2*diffusion_k*dt/dx^2, which makes the diffusion matrix "
                              f"singular, with dt = grid.T/Nt and dx = grid.L/(Nx-1) "
                              f"(got {float(number)})")
    if not sc.cost.rho > 0:
        violations.append(f"cost invariant violated: rho > 0 (got {sc.cost.rho})")
    if not sc.cost.c > 0:
        violations.append(f"cost invariant violated: c > 0 (got {sc.cost.c})")
    violations.extend(f"finiteness violated: {key} not finite (got {value})"
                      for key, value in (("diffusion_k", sc.k), ("cost.rho", sc.cost.rho),
                                         ("cost.c", sc.cost.c))
                      if np.isinf(value))
    if sc.cost.sign_variant not in ("minus", "plus"):
        violations.append(f"cost invariant violated: unknown sign_variant {sc.cost.sign_variant!r}")
    violations.extend(_tolerance_violations(sc.tolerances))

    growth_case = None
    try:
        growth_case = classify_growth_case_values(gamma0_t, gamma_end_t)
    except ScenarioValidationError as err:
        violations.extend(err.violations)

    if violations:
        raise ScenarioValidationError(violations)

    shape = (grid.Ns, grid.Nt + 1, grid.Nx)
    return ValidatedScenario(
        scenario=sc,
        growth_case=growth_case,
        gamma0_t=gamma0_t,
        r_grid=np.broadcast_to(r, shape),
        C_grid=C_grid,
        p0_grid=p0_grid,
        phi_l_grid=np.broadcast_to(phi_l, shape),
        phi_m_grid=np.broadcast_to(phi_m, shape),
    )


def control_array(grid: Grid3, beta) -> np.ndarray:
    """Coerce a control given as Field, array, rate or scalar to (Ns,Nt+1,Nx).

    A Field must be on `grid` itself, not only of its shape.
    """
    shape = (grid.Ns, grid.Nt + 1, grid.Nx)
    if isinstance(beta, Field):
        if beta.grid != grid:
            raise ValueError("control field is on a different grid than the scenario")
        if beta.axes != ("size", "time", "space"):
            raise ValueError("control field must vary over (size, time, space)")
        return np.asarray(beta.values)
    if isinstance(beta, RateField):
        return _grid_eval_full(beta, grid)
    arr = np.asarray(beta, dtype=float)
    if arr.ndim == 0:
        return np.full(shape, float(arr))
    if arr.shape != shape:
        raise ValueError(f"control array shape {arr.shape} != {shape}")
    return arr


def _grid_samples(rate: RateField, grid: Grid3) -> np.ndarray:
    """A (size, time, space) rate on the grid, sampled with length 1 along
    each axis it does not vary over; broadcast against (Ns, Nt+1, Nx),
    the samples are the rate on every cell."""
    s, t, x = (grid.axis_coords(a) if a in rate.axes else grid.axis_coords(a)[:1]
               for a in ("size", "time", "space"))
    return rate(s=s[:, None, None], t=t[None, :, None], x=x[None, None, :])


def _grid_eval_full(rate: RateField, grid: Grid3) -> np.ndarray:
    """The rate on every cell: a read-only view of shape (Ns, Nt+1, Nx) of
    its samples, with stride 0 along each axis it does not vary over."""
    return np.broadcast_to(_grid_samples(rate, grid), (grid.Ns, grid.Nt + 1, grid.Nx))
