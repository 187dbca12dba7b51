"""Growth characteristics: curve tracing with classical RK4 and the
crossing-time bisection.

Curves solve ds/dt = gamma(s, t) with RK4_SUBSTEPS classical RK4 steps per
leg between node times.  The growth rate is extended constant outside
[0, s_f]; in the extension region the size divergence of the rate, which
the decay factor integrates, is zero because the extended rate no longer
varies with size.

The tracer takes node times per curve as well as shared ones: an array of
times that broadcasts against the starting sizes gives every curve its own
legs, with the arithmetic of a scalar trace.  StepContext uses this to trace
every cell of every time step in one sweep, and the crossing-time bisection
advances all its brackets in lockstep, one vectorized RK4 leg per halving.
"""

from __future__ import annotations

import numpy as np

from .model import Grid3
from .rates import RateField

RK4_SUBSTEPS = 4  # substeps per grid-dt leg; RK4 step is always <= dt


class RootBracketError(RuntimeError):
    """Bisection bracket lost; impossible under monotone growth."""


def _gamma_ext(gamma: RateField, grid: Grid3, s, t):
    """Growth rate with constant extension outside [0, s_f]; s may be an array."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, grid.s_f)
    return gamma(s=s, t=np.broadcast_to(np.asarray(t, dtype=float), s.shape))


def _rk4_leg(gamma: RateField, grid: Grid3, t0, s0, t1):
    """One leg from t0 to t1 (either direction) with RK4_SUBSTEPS steps.

    `s0` may be a scalar or an array of starting sizes advanced in lockstep.
    `t0` and `t1` may be scalars, shared by every curve, or arrays that
    broadcast against `s0`, which gives every curve a leg of its own; each
    curve's arithmetic is then that of a scalar leg.
    """
    n = RK4_SUBSTEPS
    h = (t1 - t0) / n
    s = np.asarray(s0, dtype=float)
    s = np.broadcast_to(s, np.broadcast_shapes(s.shape, np.shape(h)))
    t = t0
    for _ in range(n):
        k1 = _gamma_ext(gamma, grid, s, t)
        k2 = _gamma_ext(gamma, grid, s + 0.5 * h * k1, t + 0.5 * h)
        k3 = _gamma_ext(gamma, grid, s + 0.5 * h * k2, t + 0.5 * h)
        k4 = _gamma_ext(gamma, grid, s + h * k3, t + h)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
    return s if s.ndim else float(s)


def trace_curve(gamma: RateField, grid: Grid3, t0, s0, times) -> np.ndarray:
    """Sizes along the curve(s) through (t0, s0) at the given breakpoint times.

    `times` runs over its leading axis, must be monotone and start at t0;
    `s0` may be an array of starting sizes, in which case the leading output
    axis runs over times and the rest over the curves.  Each entry of
    `times` may be a scalar shared by all curves or an array that
    broadcasts against `s0`, so that every curve steps on its own node
    times; StepContext traces the nodes of every time step in one call this
    way.  The result is unclamped, so a backward trace may go below zero;
    callers that need the physical size clamp afterwards.
    """
    times = np.asarray(times, dtype=float)
    s = np.asarray(s0, dtype=float)
    out = np.empty((len(times),) + np.broadcast_shapes(s.shape, times.shape[1:]))
    out[0] = s
    for idx in range(1, len(times)):
        s = _rk4_leg(gamma, grid, times[idx - 1], s, times[idx])
        out[idx] = s
    return out


def _bisect(f, lo, hi) -> np.ndarray:
    """Roots of f on the brackets [lo[m], hi[m]], bisected in lockstep.

    `f(idx, x)` evaluates the functions of the entries `idx` at the points
    `x`.  Every entry follows the scalar midpoint rule on its own: a bracket
    end where f vanishes is the root; otherwise the bracket is halved, with
    an early exit at a midpoint where f == 0, until it is no wider than
    1e-12 or no float lies strictly inside it, and its midpoint is the root.
    Raises RootBracketError, for the first such entry, when f has the same
    sign at both ends of a bracket.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    every = np.arange(lo.size)
    flo = f(every, lo)
    fhi = f(every, hi)
    same_sign = flo * fhi > 0.0
    if same_sign.any():
        m = int(np.argmax(same_sign))
        raise RootBracketError(f"no sign change on [{lo[m]}, {hi[m]}]: f={flo[m]}, {fhi[m]}")
    root = np.where(flo == 0.0, lo, hi)
    run = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    while run.size:
        mid = 0.5 * (lo[run] + hi[run])
        stop = (hi[run] - lo[run] <= 1e-12) | (mid == lo[run]) | (mid == hi[run])
        root[run[stop]] = mid[stop]
        run, mid = run[~stop], mid[~stop]
        fm = f(run, mid)
        zero = fm == 0.0
        root[run[zero]] = mid[zero]
        left = flo[run] * fm < 0.0
        hi[run[left]] = mid[left]
        right = ~left & ~zero
        lo[run[right]] = mid[right]
        flo[run[right]] = fm[right]
        run = run[~zero]
    return root

