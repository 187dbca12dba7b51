"""Rate fields: preset catalog, tables, derivatives, strictness."""

from __future__ import annotations

import numpy as np
import pytest

from sizepop import rates as rate_lib
from sizepop.model import Grid3
from sizepop.rates import RateSpecError

GRID = Grid3(Ns=6, Nt=5, Nx=4, s_f=2.0, T=1.0, L=3.0)


def test_constant_broadcasts():
    r = rate_lib.constant(0.7, ("size", "time", "space"))
    out = r(s=np.zeros((2, 1, 1)), t=np.zeros((1, 3, 1)), x=np.zeros((1, 1, 4)))
    assert out.shape == (2, 3, 4)
    np.testing.assert_allclose(out, 0.7)


def test_linear_presets_and_derivative():
    r = rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 0.3, "b": 2.0})
    assert r(s=0.5, t=0.9) == pytest.approx(1.3)
    np.testing.assert_allclose(r.ds(s=np.array([0.1, 1.9]), t=np.array([0.0, 1.0])), 2.0)
    rt = rate_lib.from_preset("linear-in-t", ("size", "time"), {"a": 1.0, "b": 1.0})
    assert rt(s=0.2, t=0.25) == pytest.approx(1.25)
    np.testing.assert_allclose(rt.ds(s=0.2, t=0.25), 0.0)


def test_separable_product():
    r = rate_lib.from_preset("separable-product", ("size", "time", "space"),
                             {"a": 2.0, "bs": 0.5, "bt": -0.25, "bx": 0.1})
    s, t, x = 1.0, 2.0, 3.0
    assert r(s=s, t=t, x=x) == pytest.approx(2.0 * 1.5 * 0.5 * 1.3)
    assert r.ds(s=s, t=t, x=x) == pytest.approx(2.0 * 0.5 * 0.5 * 1.3)


def test_separable_product_rejects_inapplicable_axis():
    with pytest.raises(RateSpecError, match="space"):
        rate_lib.from_preset("separable-product", ("size", "time"), {"a": 1.0, "bx": 0.5})


def test_cosine_mode_needs_length_and_space_axis():
    r = rate_lib.from_preset("cosine-mode-in-x", ("time", "space"),
                             {"a": 1.0, "b": 0.5, "mode": 2}, x_length=3.0)
    assert r(t=0.1, x=1.5) == pytest.approx(1.0 + 0.5 * np.cos(np.pi))
    with pytest.raises(RateSpecError, match="spatial length"):
        rate_lib.from_preset("cosine-mode-in-x", ("time", "space"), {"a": 1.0})
    with pytest.raises(RateSpecError, match="space axis"):
        rate_lib.from_preset("cosine-mode-in-x", ("size", "time"), {"a": 1.0}, x_length=3.0)


def test_unknown_preset_and_leftover_params_rejected():
    with pytest.raises(RateSpecError, match="unknown preset"):
        rate_lib.from_preset("cubic-in-s", ("size", "time"), {})
    with pytest.raises(RateSpecError, match="unknown parameters"):
        rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 1.0, "slope": 2.0})


class TestTables:
    def test_exact_at_grid_samples(self, rng):
        coords = [GRID.s_centers, GRID.t_points, GRID.x_points]
        vals = rng.random((GRID.Ns, GRID.Nt + 1, GRID.Nx))
        r = rate_lib.from_table(vals, ("size", "time", "space"), coords)
        got = r(s=GRID.s_centers[:, None, None], t=GRID.t_points[None, :, None],
                x=GRID.x_points[None, None, :])
        np.testing.assert_allclose(got, vals, atol=1e-13)

    def test_constant_extension_outside_box(self, rng):
        coords = [GRID.s_centers, GRID.x_points]
        vals = rng.random((GRID.Ns, GRID.Nx))
        r = rate_lib.from_table(vals, ("size", "space"), coords)
        # below the first center and above the last: clipped evaluation
        assert r(s=-1.0, x=0.0) == pytest.approx(vals[0, 0])
        assert r(s=100.0, x=GRID.L) == pytest.approx(vals[-1, -1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(RateSpecError, match="shape"):
            rate_lib.from_table(np.zeros((3, 3)), ("size", "space"),
                                [GRID.s_centers, GRID.x_points])

    def test_size_derivative_second_order(self):
        # tabulated quadratic in s: central differences recover the exact
        # derivative at interior centers and second-order one-sided at ends
        coords = [GRID.s_centers, GRID.t_points]
        s = GRID.s_centers
        vals = np.tile((s**2)[:, None], (1, GRID.Nt + 1))
        r = rate_lib.from_table(vals, ("size", "time"), coords)
        got = r.ds(s=s, t=np.full_like(s, 0.4))
        np.testing.assert_allclose(got, 2 * s, atol=1e-12)

    @pytest.mark.parametrize("axes", [("size", "space"), ("time", "space"),
                                      ("size", "time"), ("size", "time", "space")])
    def test_matches_scipy_multilinear_interpolation(self, rng, axes):
        # scipy is the independent reference here; the package itself no
        # longer imports scipy.interpolate
        from scipy.interpolate import RegularGridInterpolator

        coords = [GRID.axis_coords(a) for a in axes]
        vals = 0.1 + rng.random(tuple(len(c) for c in coords))
        r = rate_lib.from_table(vals, axes, coords)
        kw = dict(zip(("s", "t", "x"), (None,) * 3))
        names = {"size": "s", "time": "t", "space": "x"}

        # on the nodes: exact, including the last node of every axis
        mesh = np.meshgrid(*coords, indexing="ij")
        assert np.array_equal(r(**{**kw, **{names[a]: m for a, m in zip(axes, mesh)}}), vals)

        # off the nodes, inside and outside the sampled box (clipped)
        pts = [c[0] - 0.3 * (c[-1] - c[0]) + 1.6 * (c[-1] - c[0]) * rng.random(500)
               for c in coords]
        clipped = np.stack([np.clip(p, c[0], c[-1]) for p, c in zip(pts, coords)], axis=-1)
        args = {**kw, **{names[a]: p for a, p in zip(axes, pts)}}
        want = RegularGridInterpolator(coords, vals)(clipped)
        assert np.abs(r(**args) - want).max() <= 1e-14 * np.abs(want).max()
        if "size" in axes:
            i = axes.index("size")
            dvals = np.gradient(vals, coords[i], axis=i, edge_order=2)
            dwant = RegularGridInterpolator(coords, dvals)(clipped)
            assert np.abs(r.ds(**args) - dwant).max() <= 1e-14 * np.abs(dwant).max()

    def test_coordinates_must_increase(self):
        with pytest.raises(RateSpecError, match="strictly increasing"):
            rate_lib.from_table(np.zeros((3, 2)), ("size", "space"),
                                [np.array([0.0, 0.5, 0.5]), np.array([0.0, 1.0])])
        with pytest.raises(RateSpecError, match="two or more"):
            rate_lib.from_table(np.zeros((1, 2)), ("size", "space"),
                                [np.array([0.5]), np.array([0.0, 1.0])])


def test_axes_are_those_the_rate_varies_over():
    stx = ("size", "time", "space")
    coords = [GRID.axis_coords(a) for a in stx]
    cases = [
        (rate_lib.constant(0.7, stx), ()),
        (rate_lib.from_preset("constant", stx, {"value": 0.7}), ()),
        (rate_lib.from_preset("separable-product", stx, {"a": 0.1, "bs": 0.5}), ("size",)),
        (rate_lib.from_preset("separable-product", stx, {"a": 0.1, "bs": 0.0, "bt": 0.2,
                                                         "bx": -0.1}), ("time", "space")),
        (rate_lib.from_preset("linear-in-t", stx, {"a": 0.1, "b": 0.2}), ("time",)),
        (rate_lib.from_preset("cosine-mode-in-x", stx, {"a": 1.0}, x_length=GRID.L), ("space",)),
        (rate_lib.from_table(np.ones((6, 6, 4)), stx, coords), stx),
    ]
    for rate, axes in cases:
        assert rate.axes == axes
    # a call returns the broadcast shape of the coordinates given
    out = cases[2][0](s=np.zeros((3, 1, 1)), t=np.zeros((1, 1, 1)), x=np.zeros((1, 1, 1)))
    assert out.shape == (3, 1, 1)


def test_size_derivative_follows_the_nominal_axes():
    # a constant growth rate varies over no axis but has a zero size derivative
    gamma = rate_lib.constant(1.3, ("size", "time"))
    got = gamma.ds(s=np.array([0.1, 0.5]), t=np.array([0.0, 1.0]))
    assert got.shape == (2,) and not got.any()
    flat = rate_lib.from_preset("separable-product", ("size", "time"), {"a": 2.0, "bt": 0.5})
    assert flat.ds(s=np.ones(3), t=np.full(3, 1.0)).tolist() == [0.0, 0.0, 0.0]
    assert rate_lib.constant(1.0, ("time", "space")).d_ds is None
    with pytest.raises(RateSpecError, match="no size derivative"):
        rate_lib.from_preset("linear-in-t", ("time", "space"), {"a": 1.0}).ds(t=0.0, x=0.0)
