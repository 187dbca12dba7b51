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
    """The coordinate arrays matching `axes`, broadcast against each other,
    and the shape of every coordinate given, broadcast together."""
    coords = {"size": s, "time": t, "space": x}
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords.values() if c is not None))
    picked = [np.asarray(coords[a], dtype=float) for a in axes]
    return (np.broadcast_arrays(*picked) if picked else []), shape


@dataclass(frozen=True)
class RateField:
    """Scalar function of a subset of (s, t, x), vectorized over numpy inputs.

    `axes` lists the coordinates the rate varies over, in canonical (size,
    time, space) order, and `fn` takes exactly those: none for a constant,
    the axes its formula uses for a preset (for separable-product, those
    with a nonzero coefficient), and every axis given for a table or a
    callable.  A call takes the coordinates of the rate's nominal axes and
    returns an array of their broadcast shape, so a caller samples an axis
    the rate does not vary over once by passing it with length 1.  `d_ds`
    is the partial derivative in s and takes the same coordinates as `fn`.
    The constant, preset and table constructors give one to every rate with
    a nominal size axis; `from_callable` only when the caller passes it.
    The solvers read it for growth alone.
    """

    axes: tuple[str, ...]
    fn: Callable
    d_ds: Callable | None = None

    def __call__(self, s=None, t=None, x=None):
        return self._evaluate(self.fn, s, t, x)

    def ds(self, s=None, t=None, x=None):
        if self.d_ds is None:
            raise RateSpecError("rate has no size derivative")
        return self._evaluate(self.d_ds, s, t, x)

    def _evaluate(self, fn: Callable, s, t, x) -> np.ndarray:
        args, shape = _broadcast(self.axes, s, t, x)
        return np.broadcast_to(np.asarray(fn(*args), dtype=float), shape).copy()


def constant(value: float, axes: tuple[str, ...]) -> RateField:
    """A rate that varies over no axis; `axes` are its nominal axes, which
    decide only whether it has a size derivative."""
    v = float(value)
    return RateField(axes=(), fn=lambda: v, d_ds=(lambda: 0.0) if "size" in axes else None)


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
    `axes` are the rate's nominal axes; the rate reads only those its
    formula uses.
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
        return RateField(axes=("size",), fn=lambda s: a + b * s, d_ds=lambda s: b)
    if name == "linear-in-t":
        if "time" not in axes:
            raise RateSpecError("linear-in-t preset on a rate without a time axis")
        a, b = float(p.pop("a", 0.0)), float(p.pop("b", 0.0))
        _reject_leftover(name, p)
        return RateField(axes=("time",), fn=lambda t: a + b * t,
                         d_ds=(lambda t: 0.0) if "size" in axes else None)
    if name == "separable-product":
        a = float(p.pop("a", 1.0))
        bs = float(p.pop("bs", 0.0))
        bt = float(p.pop("bt", 0.0))
        bx = float(p.pop("bx", 0.0))
        _reject_leftover(name, p)
        # a zero coefficient makes its factor exactly 1, so the rate does
        # not vary over that axis and the factor is left out
        factors = [(coeff, ax) for coeff, ax in ((bs, "size"), (bt, "time"), (bx, "space"))
                   if coeff != 0.0]
        for _, ax in factors:
            if ax not in axes:
                raise RateSpecError(f"separable-product uses the {ax} axis which this rate lacks")

        def fn(*args):
            out = a
            for (coeff, _), arg in zip(factors, args):
                out = out * (1.0 + coeff * arg)
            return out

        d_ds = None
        if "size" in axes:

            def d_ds(*args):
                out = a * bs
                for (coeff, ax), arg in zip(factors, args):
                    if ax != "size":
                        out = out * (1.0 + coeff * arg)
                return out

        return RateField(axes=tuple(ax for _, ax in factors), fn=fn, d_ds=d_ds)
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
        w = mode * np.pi / x_length
        return RateField(axes=("space",), fn=lambda x: a + b * np.cos(w * x),
                         d_ds=(lambda x: 0.0) if "size" in axes else None)
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
