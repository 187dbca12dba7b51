"""Growth-curve machinery: tracing, case classification, the decay factor of
cells entering through s = 0, and structural properties of the curves."""

from __future__ import annotations

import numpy as np
import pytest

from sizepop import rates as rate_lib
from sizepop.characteristics import trace_curve
from sizepop.model import Grid3
from sizepop.presets import brute_force_instance
from conftest import unit_scenario

GRID = Grid3(Ns=10, Nt=20, Nx=3, s_f=1.0, T=1.0, L=1.0)

GAMMA_CONST = rate_lib.constant(1.0, ("size", "time"))
GAMMA_LIN_S = rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 0.0, "b": 1.0})
GAMMA_1PT = rate_lib.from_preset("linear-in-t", ("size", "time"), {"a": 1.0, "b": 1.0})
GAMMA_LOGISTIC = rate_lib.from_callable(
    lambda s, t: s * (1.0 - s), ("size", "time"),
    d_ds=lambda s, t: 1.0 - 2.0 * s)
GAMMA_DECR = rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": 1.0, "b": -1.0})


def psi(gamma, t0, s0, t, grid=GRID, legs=20):
    """Size at time t on the curve through (t0, s0), clamped to [0, s_f] as
    StepContext clamps the characteristic feet."""
    s = float(trace_curve(gamma, grid, t0, s0, np.linspace(t0, t, legs + 1))[-1])
    return min(max(s, 0.0), grid.s_f)


class TestClassify:
    @staticmethod
    def tag(gamma):
        return unit_scenario(GRID, gamma=gamma).growth_case.tag

    def test_positive_constant_is_case_a(self):
        assert self.tag(GAMMA_CONST) == "a"

    def test_vanishing_at_both_ends_is_case_d(self):
        assert self.tag(GAMMA_LOGISTIC) == "d"

    def test_vanishing_at_top_is_case_b(self):
        assert self.tag(GAMMA_DECR) == "b"

    def test_vanishing_at_bottom_is_case_c(self):
        assert self.tag(GAMMA_LIN_S) == "c"


class TestIntegrate:
    def test_unit_growth(self):
        assert psi(GAMMA_CONST, 0.0, 0.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_exponential_growth(self):
        got = psi(GAMMA_LIN_S, 0.0, 0.2, 1.0)
        assert got == pytest.approx(0.2 * np.e, abs=1e-9)

    def test_time_dependent_growth(self):
        # ds/dt = 1 + t from (0, 0): s(1) = 1 + 1/2
        got = psi(GAMMA_1PT, 0.0, 0.0, 1.0)
        # clamped at s_f = 1 since the curve exits the size domain
        assert got == pytest.approx(1.0, abs=1e-12)
        wide = Grid3(Ns=10, Nt=20, Nx=3, s_f=2.0, T=1.0, L=1.0)
        got = psi(GAMMA_1PT, 0.0, 0.0, 1.0, wide)
        assert got == pytest.approx(1.5, abs=1e-9)

    def test_backward_inverts_forward(self):
        s1 = psi(GAMMA_LOGISTIC, 0.1, 0.2, 0.8)
        back = psi(GAMMA_LOGISTIC, 0.8, s1, 0.1)
        assert back == pytest.approx(0.2, abs=1e-10)


class TestEnteringDecay:
    """Decay factors of the cells whose characteristic entered through s = 0
    during their step, read from StepContext's transport stencil: the two
    interpolation weights are zero and the newborn weight is the factor."""

    @staticmethod
    def weights(vsc):
        """(lo, hi, newborn) transport weights, each of shape (Nt, Ns)."""
        w = vsc.step_context.stencil_weights
        return w[..., 0], w[..., 1], w[..., 2]

    def test_size_independent_growth_gives_one(self):
        vsc = brute_force_instance()  # gamma = 1
        grid = vsc.grid
        lo, hi, newborn = self.weights(vsc)
        entering = np.broadcast_to(grid.s_centers < grid.dt, lo.shape)
        assert entering.any()
        assert np.all(lo[entering] == 0.0) and np.all(hi[entering] == 0.0)
        assert np.all(newborn[entering] == 1.0)

    @pytest.mark.parametrize("ns, nt", [(10, 10), (20, 16), (40, 20), (30, 12)])
    def test_linear_growth_matches_closed_form(self, ns, nt):
        # gamma = a + b*s: s + a/b grows like exp(b*t), so the curve through
        # (t_{j+1}, s_i) meets s = 0 at t_c and the divergence b is constant
        a, b = 1.0, 0.5
        grid = Grid3(Ns=ns, Nt=nt, Nx=3, s_f=1.0, T=1.0, L=1.0)
        gamma = rate_lib.from_preset("linear-in-s", ("size", "time"), {"a": a, "b": b})
        lo, hi, newborn = self.weights(unit_scenario(grid, gamma=gamma))
        t1 = grid.t_points[1:, None]
        t_c = t1 + np.log((a / b) / (grid.s_centers + a / b)) / b
        entering = t_c > grid.t_points[:-1, None]
        assert entering.any()
        assert np.all(lo[entering] == 0.0) and np.all(hi[entering] == 0.0)
        want = np.exp(-b * (t1 - t_c))[entering]
        assert np.allclose(newborn[entering], want, rtol=1e-9, atol=0.0)


def test_characteristic_point_identity_and_monotonicity():
    sizes = trace_curve(GAMMA_LOGISTIC, GRID, 0.3, 0.4, np.linspace(0.3, 1.0, 8))
    assert sizes[0] == 0.4
    assert all(b >= a - 1e-12 for a, b in zip(sizes[:-1], sizes[1:]))


class TestProperties:
    GAMMAS = [GAMMA_LOGISTIC, GAMMA_DECR,
              rate_lib.from_preset("separable-product", ("size", "time"),
                                   {"a": 0.4, "bs": 0.5, "bt": 0.3})]

    def test_semigroup_property(self, rng):
        # psi(t2; t1, psi(t1; t0, s0)) == psi(t2; t0, s0) on unclamped curves.
        # The separable-product rate carries about a third of the draws past
        # s_f, where clamping would make both sides s_f; those are redrawn.
        def size_at(gamma, t0, s0, t):
            return float(trace_curve(gamma, GRID, t0, s0, np.linspace(t0, t, 21))[-1])

        for gamma in self.GAMMAS:
            checked = 0
            while checked < 20:
                t0, t1, t2 = np.sort(rng.uniform(0.0, GRID.T, size=3))
                s0 = rng.uniform(0.05, 0.95)
                curve = trace_curve(gamma, GRID, t0, s0, np.linspace(t0, t2, 21))
                if curve.min() < 0.0 or curve.max() > GRID.s_f:
                    continue
                checked += 1
                comp = size_at(gamma, t1, size_at(gamma, t0, s0, t1), t2)
                assert comp == pytest.approx(curve[-1], abs=1e-9)
