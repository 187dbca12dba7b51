"""Rate fields: scalar coefficient functions over subsets of the (s, t, x) axes.

A rate is either a constant, an analytic preset from a small fixed catalog,
a table sampled on the scenario grid, or (API only, not the file format) an
arbitrary callable.  All rates evaluate off-grid, because the characteristic
tracer and the reaction step need values at characteristic midpoints.  Tables
are interpolated multilinearly with constant extension outside the sampled
box, by a short numpy routine (one searchsorted per axis, weights over the
2^d cell corners), so importing this module loads no scipy; the growth rate
additionally exposes its size derivative, computed analytically for presets
and by second-order finite differences for tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

PRESET_NAMES = (
    "constant",
    "linear-in-s",
    "linear-in-t",
    "separable-product",
    "cosine-mode-in-x",
)


class RateSpecError(ValueError):
    """Malformed or out-of-catalog rate specification."""


def _broadcast(axes: tuple[str, ...], s, t, x):
    """Pick the coordinate arrays matching `axes` and broadcast them."""
    coords = {"size": s, "time": t, "space": x}
    picked = [np.asarray(coords[a], dtype=float) for a in axes]
    return np.broadcast_arrays(*picked) if picked else []


@dataclass(frozen=True)
class RateField:
    """Scalar function of a subset of (s, t, x), vectorized over numpy inputs.

    `axes` lists the coordinates the rate genuinely varies over, in canonical
    (size, time, space) order.  `fn` takes exactly those coordinates.
    `d_ds` is the partial derivative in s.  The constant, preset and table
    constructors give one to every rate with a size axis; `from_callable`
    only when the caller passes it.  The solvers read it for growth alone.
    """

    axes: tuple[str, ...]
    fn: Callable
    d_ds: Callable | None = None

    def __call__(self, s=None, t=None, x=None):
        args = _broadcast(self.axes, s, t, x)
        if not args:
            return float(self.fn())
        out = self.fn(*args)
        return np.broadcast_to(np.asarray(out, dtype=float), args[0].shape).copy()

    def ds(self, s=None, t=None, x=None):
        if self.d_ds is None:
            raise RateSpecError("rate has no size derivative")
        args = _broadcast(self.axes, s, t, x)
        out = self.d_ds(*args)
        return np.broadcast_to(np.asarray(out, dtype=float), args[0].shape).copy()


def constant(value: float, axes: tuple[str, ...]) -> RateField:
    v = float(value)
    return RateField(
        axes=axes,
        fn=lambda *args: np.full_like(args[0], v) if args else v,
        d_ds=(lambda *args: np.zeros_like(args[0])) if "size" in axes else None,
    )


def from_callable(fn: Callable, axes: tuple[str, ...], d_ds: Callable | None = None) -> RateField:
    """Wrap an arbitrary callable of the active coordinates (API use only)."""
    return RateField(axes=axes, fn=fn, d_ds=d_ds)


def from_preset(name: str, axes: tuple[str, ...], params: dict, x_length: float = None) -> RateField:
    """Build a rate from the fixed analytic catalog.

    Presets and their parameters:
      constant            value
      linear-in-s         a + b*s
      linear-in-t         a + b*t
      separable-product   a * (1 + bs*s) * (1 + bt*t) * (1 + bx*x)
      cosine-mode-in-x    a + b*cos(mode*pi*x/L)
    Factors on axes the rate does not have must be left at their defaults.
    """
    p = dict(params)
    if name == "constant":
        if "value" not in p:
            raise RateSpecError("constant preset needs a 'value'")
        value = p.pop("value")
        _reject_leftover(name, p)
        return constant(value, axes)
    if name == "linear-in-s":
        if "size" not in axes:
            raise RateSpecError("linear-in-s preset on a rate without a size axis")
        a, b = float(p.pop("a", 0.0)), float(p.pop("b", 0.0))
        _reject_leftover(name, p)
        idx = axes.index("size")
        return RateField(
            axes=axes,
            fn=lambda *args: a + b * args[idx],
            d_ds=lambda *args: np.full_like(args[0], b),
        )
    if name == "linear-in-t":
        if "time" not in axes:
            raise RateSpecError("linear-in-t preset on a rate without a time axis")
        a, b = float(p.pop("a", 0.0)), float(p.pop("b", 0.0))
        _reject_leftover(name, p)
        idx = axes.index("time")
        return RateField(
            axes=axes,
            fn=lambda *args: a + b * args[idx],
            d_ds=(lambda *args: np.zeros_like(args[0])) if "size" in axes else None,
        )
    if name == "separable-product":
        a = float(p.pop("a", 1.0))
        bs = float(p.pop("bs", 0.0))
        bt = float(p.pop("bt", 0.0))
        bx = float(p.pop("bx", 0.0))
        _reject_leftover(name, p)
        for coeff, ax in ((bs, "size"), (bt, "time"), (bx, "space")):
            if coeff != 0.0 and ax not in axes:
                raise RateSpecError(f"separable-product uses the {ax} axis which this rate lacks")

        def fn(*args):
            out = np.full_like(args[0], a)
            for coeff, ax in ((bs, "size"), (bt, "time"), (bx, "space")):
                if ax in axes:
                    out = out * (1.0 + coeff * args[axes.index(ax)])
            return out

        d_ds = None
        if "size" in axes:

            def d_ds(*args):
                out = np.full_like(args[0], a * bs)
                for coeff, ax in ((bt, "time"), (bx, "space")):
                    if ax in axes:
                        out = out * (1.0 + coeff * args[axes.index(ax)])
                return out

        return RateField(axes=axes, fn=fn, d_ds=d_ds)
    if name == "cosine-mode-in-x":
        if "space" not in axes:
            raise RateSpecError("cosine-mode-in-x preset on a rate without a space axis")
        if x_length is None:
            raise RateSpecError("cosine-mode-in-x needs the spatial length")
        a = float(p.pop("a", 0.0))
        b = float(p.pop("b", 1.0))
        mode = p.pop("mode", 1)
        if not float(mode).is_integer():
            raise RateSpecError(f"cosine-mode-in-x mode must be an integer, got {mode!r}")
        mode = int(mode)
        _reject_leftover(name, p)
        idx = axes.index("space")
        w = mode * np.pi / x_length
        return RateField(
            axes=axes,
            fn=lambda *args: a + b * np.cos(w * args[idx]),
            d_ds=(lambda *args: np.zeros_like(args[0])) if "size" in axes else None,
        )
    raise RateSpecError(f"unknown preset {name!r}; catalog is {PRESET_NAMES}")


def _reject_leftover(name: str, params: dict) -> None:
    if params:
        raise RateSpecError(f"preset {name!r} got unknown parameters {sorted(params)}")


def _multilinear(coords: list[np.ndarray], values: np.ndarray) -> Callable:
    """Multilinear interpolant of `values` sampled on the tensor grid `coords`.

    The returned function takes one broadcast coordinate array per axis and
    clips it to the sampled box.  Each point falls in the cell [c[i], c[i+1]]
    found by searchsorted, with the last node in the last cell, and takes
    the weighted sum of the 2^d cell corners; on a grid node all weight sits
    on that node, so node values come back exactly.
    """

    def interp(*args):
        cells, fracs = [], []
        for c, a in zip(coords, args):
            a = np.clip(a, c[0], c[-1])
            i = np.clip(np.searchsorted(c, a, side="right") - 1, 0, len(c) - 2)
            cells.append(i)
            fracs.append((a - c[i]) / (c[i + 1] - c[i]))
        out = 0.0
        for corner in itertools.product((0, 1), repeat=len(coords)):
            weight = 1.0
            for up, w in zip(corner, fracs):
                weight = weight * (w if up else 1.0 - w)
            out = out + weight * values[tuple(i + up for i, up in zip(cells, corner))]
        return out

    return interp


def from_table(values: np.ndarray, axes: tuple[str, ...], coords: list[np.ndarray]) -> RateField:
    """Rate tabulated on the grid samples, interpolated multilinearly off-grid.

    Coordinates outside the sampled box are clipped first, which realizes the
    constant extension the solvers assume for characteristic feet.  Every
    axis needs at least two strictly increasing samples.
    """
    values = np.asarray(values, dtype=float)
    coords = [np.asarray(c, dtype=float) for c in coords]
    expected = tuple(len(c) for c in coords)
    if values.shape != expected:
        raise RateSpecError(f"table shape {values.shape} does not match grid samples {expected}")
    if any(len(c) < 2 or not (np.diff(c) > 0).all() for c in coords):
        raise RateSpecError("table coordinates need two or more strictly increasing samples per axis")
    d_ds = None
    if "size" in axes:
        i = axes.index("size")
        d_ds = _multilinear(coords, np.gradient(values, coords[i], axis=i, edge_order=2))
    return RateField(axes=axes, fn=_multilinear(coords, values), d_ds=d_ds)
