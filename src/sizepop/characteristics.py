"""Growth characteristics: curve tracing, the crossing-time bisection, and
the exponential decay factor from the size divergence of the growth rate.

Curves solve ds/dt = gamma(s, t) with classical RK4, stepping on a node set
anchored to multiples of the grid time step.  Anchoring makes the quadrature
for the decay factor exactly additive over adjacent grid-aligned intervals
and makes composed traces reuse bit-identical leg values.  The growth rate is
extended constant outside [0, s_f]; in the extension region the decay
integrand is zero because the extended rate no longer varies with size.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Grid3
from .rates import RateField

RK4_SUBSTEPS = 4  # substeps per grid-dt leg; RK4 step is always <= dt

_DEDUP = 1e-13


class RootBracketError(RuntimeError):
    """Bisection bracket lost; impossible under monotone growth."""


def _gamma_ext(gamma: RateField, grid: Grid3, s, t):
    """Growth rate with constant extension outside [0, s_f]; s may be an array."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, grid.s_f)
    return gamma(s=s, t=np.broadcast_to(np.asarray(t, dtype=float), s.shape))


def _rk4_leg(gamma: RateField, grid: Grid3, t0: float, s0, t1: float):
    """One leg from t0 to t1 (either direction) with RK4_SUBSTEPS steps.

    `s0` may be a scalar or an array of starting sizes advanced in lockstep.
    """
    n = RK4_SUBSTEPS
    h = (t1 - t0) / n
    s = np.asarray(s0, dtype=float)
    t = t0
    for _ in range(n):
        k1 = _gamma_ext(gamma, grid, s, t)
        k2 = _gamma_ext(gamma, grid, s + 0.5 * h * k1, t + 0.5 * h)
        k3 = _gamma_ext(gamma, grid, s + 0.5 * h * k2, t + 0.5 * h)
        k4 = _gamma_ext(gamma, grid, s + h * k3, t + h)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
    return s if s.ndim else float(s)


def _leg_times(lo: float, hi: float, dt: float, extra=()) -> np.ndarray:
    """Breakpoints of [lo, hi]: the endpoints, every multiple of dt strictly
    inside, and any extra interior points (deduplicated)."""
    pts = [lo, hi]
    m0 = math.floor(lo / dt) + 1
    m1 = math.ceil(hi / dt) - 1
    for m in range(m0, m1 + 1):
        pts.append(m * dt)
    for e in extra:
        if lo < e < hi:
            pts.append(e)
    pts = sorted(pts)
    out = [pts[0]]
    scale = max(1.0, abs(lo), abs(hi))
    for p in pts[1:]:
        if p - out[-1] > _DEDUP * scale:
            out.append(p)
    out[-1] = hi
    return np.asarray(out)


def trace_curve(gamma: RateField, grid: Grid3, t0: float, s0,
                times: np.ndarray) -> np.ndarray:
    """Sizes along the curve(s) through (t0, s0) at the given breakpoint times.

    `times` must be monotone and start at t0; `s0` may be an array of
    starting sizes, in which case the leading output axis runs over times
    and the rest over the curves.  The result is unclamped, so a backward
    trace may go below zero; callers that need the physical size clamp
    afterwards.
    """
    s0 = np.asarray(s0, dtype=float)
    out = np.empty((len(times),) + s0.shape)
    s = s0
    out[0] = s0
    for idx, (a, b) in enumerate(zip(times[:-1], times[1:]), start=1):
        s = _rk4_leg(gamma, grid, float(a), s, float(b))
        out[idx] = s
    return out


def _trace_raw(gamma: RateField, grid: Grid3, t0: float, s0: float, t_query: float) -> float:
    """Unclamped curve value at t_query, stepping on grid-aligned legs."""
    if t_query == t0:
        return s0
    lo, hi = min(t0, t_query), max(t0, t_query)
    times = _leg_times(lo, hi, grid.dt)
    if t_query < t0:
        times = times[::-1]
    return float(trace_curve(gamma, grid, t0, s0, times)[-1])


def _bisect(f, lo: float, hi: float, tol: float = 1e-12) -> float:
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


def decay_factor(t_from: float, t_to: float, t: float, s: float,
                 gamma: RateField, grid: Grid3) -> float:
    """exp(-integral of d(gamma)/ds along the curve through (t, s)).

    The integral runs over [t_from, t_to] and uses the composite trapezoid
    rule on the RK4 node times.  Nodes are anchored to grid-dt multiples, so
    the factor is exactly multiplicative across adjacent grid-aligned
    intervals.
    """
    if t_to < t_from:
        raise ValueError("t_to must not precede t_from")
    if t_to == t_from:
        return 1.0
    lo = min(t_from, t)
    hi = max(t_to, t)
    breaks = _leg_times(lo, hi, grid.dt, extra=(t, t_from, t_to))
    # refine each leg into the RK4 substep nodes
    nodes = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        nodes.extend(a + (b - a) * (m + 1) / RK4_SUBSTEPS for m in range(RK4_SUBSTEPS))
    nodes = np.asarray(nodes)

    # trace from the anchor outwards so shared nodes get identical values
    anchor_idx = int(np.argmin(np.abs(nodes - t)))
    svals = np.empty_like(nodes)
    svals[anchor_idx] = s
    down = nodes[: anchor_idx + 1][::-1]
    up = nodes[anchor_idx:]
    if len(down) > 1:
        svals[: anchor_idx + 1] = trace_curve(gamma, grid, t, s, down)[::-1]
    if len(up) > 1:
        svals[anchor_idx:] = trace_curve(gamma, grid, t, s, up)

    inside = (nodes >= t_from - _DEDUP) & (nodes <= t_to + _DEDUP)
    tq = nodes[inside]
    sq = svals[inside]
    in_domain = (sq >= 0.0) & (sq <= grid.s_f)
    g = np.zeros_like(sq)
    if in_domain.any():
        g[in_domain] = gamma.ds(s=sq[in_domain], t=tq[in_domain])
    integral = float(np.trapezoid(g, tq))
    return math.exp(-integral)
