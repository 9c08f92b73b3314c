"""Tests for the benchmark, regularity, audit, and convergence-study module."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from gapflow import spectral as sp
from gapflow import verify as vf
from gapflow.dispersive import ModelParams
from gapflow.spectral import BoundaryLift, GridField, StateVW

P = ModelParams(beta_F=1.0, beta_p=0.5, lift=BoundaryLift(1.0, 1.0), eps1=0.5)


class TestClosedForm:
    def test_zero_time_is_zero(self):
        cf = vf.linear_plate_closed_form(0.0, 32)
        assert np.abs(cf.w).max() == 0.0
        assert np.abs(cf.v).max() == 0.0

    def test_first_mode_supremum(self):
        # om_1 t = pi maximizes (1 - cos): sup_t |w_1| = 2 b_1 / om_1^2 = 8/pi^5
        cf = vf.linear_plate_closed_form(math.pi / math.pi**2, 8)
        assert cf.w[0] == pytest.approx(8.0 / math.pi**5, rel=1e-15)

    def test_even_modes_vanish(self):
        cf = vf.linear_plate_closed_form(0.37, 64)
        assert np.abs(cf.w[1::2]).max() == 0.0
        assert np.abs(cf.v[1::2]).max() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            vf.linear_plate_closed_form(-0.1, 8)
        with pytest.raises(ValueError):
            vf.linear_plate_closed_form(0.1, 0)

    def test_against_ode_oracle(self):
        # Independent validation of the closed form: integrate each forced
        # oscillator w'' = b_k - om_k^2 w with a high-order adaptive scheme.
        t_end = 0.37
        cf = vf.linear_plate_closed_form(t_end, 9)
        for k in (1, 3, 9):
            b = 4.0 / (k * math.pi)
            om2 = (k * math.pi) ** 4
            sol = solve_ivp(
                lambda t, y: [y[1], b - om2 * y[0]],
                (0.0, t_end),
                [0.0, 0.0],
                method="DOP853",
                rtol=1e-12,
                atol=1e-14,
            )
            assert abs(sol.y[0, -1] - cf.w[k - 1]) <= 1e-9
            assert abs(sol.y[1, -1] - cf.v[k - 1]) <= 1e-9


class TestBenchmark:
    def test_exponential_trapezoid_is_exact(self):
        gap = vf.benchmark_against_duhamel(128, 1.0, 256)
        assert gap <= 1e-10

    def test_plain_trapezoid_second_order(self):
        gaps = [vf.benchmark_against_duhamel(4, 0.5, N, rule="trapezoid") for N in (256, 512, 1024)]
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5
        assert 3.5 <= gaps[1] / gaps[2] <= 4.5

    def test_zero_forcing_zero_everywhere(self):
        assert vf.benchmark_against_duhamel(16, 1.0, 32, forcing_amplitude=0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            vf.benchmark_against_duhamel(16, 1.0, 0)


class TestRegularityFit:
    def test_synthetic_power_law_exact(self):
        modes = np.arange(1, 129, dtype=float) ** -5.0
        fit = vf.regularity_exponent_fit(modes)
        assert abs(fit.exponent - 5.0) <= 1e-6
        assert fit.s_star == pytest.approx(fit.exponent - 0.5)
        assert fit.conclusive

    def test_benchmark_modes_hit_ceiling(self):
        cf = vf.linear_plate_closed_form(0.37, 128)
        fit = vf.regularity_exponent_fit(cf.w)
        assert 4.7 <= fit.exponent <= 5.3
        assert fit.conclusive
        # decay exponent 5 <=> membership in H^{9/2 - eps} but not H^{9/2}
        assert abs(fit.s_star - 4.5) <= 0.3

    def test_even_modes_excluded(self):
        cf = vf.linear_plate_closed_form(0.37, 128)
        base = vf.regularity_exponent_fit(cf.w)
        poisoned = cf.w.copy()
        poisoned[1::2] = 99.0
        fit = vf.regularity_exponent_fit(poisoned)
        assert fit.exponent == base.exponent
        assert fit.residual == base.residual

    def test_noise_is_inconclusive(self):
        rng = np.random.default_rng(0)
        k = np.arange(1, 129, dtype=float)
        noisy = k**-2.0 * np.exp(2.5 * rng.standard_normal(128))
        fit = vf.regularity_exponent_fit(noisy)
        assert not fit.conclusive
        assert fit.residual > 0.6

    def test_narrow_range_rejected(self):
        with pytest.raises(ValueError):
            vf.regularity_exponent_fit(np.ones(128), k_range=(9, 15))


class TestAlgebraCheck:
    def test_calibrate_then_verify(self):
        rep = vf.algebra_property_check(trials=2000, calibration_trials=500, k_max=24, seed=0)
        assert rep.passed
        assert rep.C_alg >= 1.0  # the constant pair f = g = 1 anchors ratio 1
        assert rep.worst_fresh <= rep.C_alg
        assert 0.0 < rep.worst_fresh

    def test_ratio_scaling_invariance(self):
        # the measured quotient is invariant under f -> lam f by homogeneity
        k = 16
        n_f = 4 * k + 3
        xf = sp.grid(n_f)
        rng = np.random.default_rng(5)
        mf = rng.normal(size=k) * np.arange(1, k + 1, dtype=float) ** -2.2
        mg = rng.normal(size=k) * np.arange(1, k + 1, dtype=float) ** -2.2

        def ratio(lam):
            thf, thg = lam * 0.8, 1.2
            f = thf + lam * sp.eval_modes_on(mf, xf)
            g = thg + sp.eval_modes_on(mg, xf)
            num = sp.lifted_norm_H2(sp.sine_transform(f * g - thf * thg), thf * thg)
            return num / (
                sp.lifted_norm_H2(lam * mf, thf) * sp.lifted_norm_H2(mg, thg)
            )

        assert ratio(1.0) == pytest.approx(ratio(7.0), rel=1e-12)


class TestInversePowerCheck:
    def test_flat_base_passes(self):
        n = 24
        w0 = GridField(values=np.full(n, 1.0), bv=1.0)
        rep = vf.inverse_power_bounds_check(P, w0, trials=300, seed=0)
        assert rep.passed
        assert rep.C1 >= 1.0  # trivial anchor ||1/1||_H2 = 1 <= C1
        assert rep.C2 == pytest.approx(2.0 * rep.C1**3, rel=1e-15)
        assert rep.C3 == pytest.approx(3.0 * rep.C1**4, rel=1e-15)
        assert max(rep.worst_single) <= 1.0
        assert rep.worst_diff1 <= 1.0 and rep.worst_diff2 <= 1.0

    def test_radius_validation(self):
        n = 16
        w0 = GridField(values=np.full(n, 1.0), bv=1.0)
        with pytest.raises(ValueError):
            vf.inverse_power_bounds_check(P, w0, r=1e9, trials=10)


class TestLipschitzChecks:
    def test_G_bound_holds(self):
        n = 24
        w0 = GridField(values=np.full(n, 1.0), bv=1.0)
        rep = vf.lipschitz_G_check(P, w0, trials=300, seed=1)
        assert rep.passed
        assert 0.0 < rep.worst_ratio < rep.bound

    def test_F_bound_holds(self):
        n = 24
        w0m = np.zeros(n)
        w0m[0] = 0.05
        w0 = GridField(values=sp.inverse_sine_transform(w0m) + 1.0, bv=1.0)
        u0 = GridField(values=np.full(n, 1.0), bv=1.0)
        rep = vf.lipschitz_F_check(P, u0, w0, StateVW(v=np.zeros(n), w=w0m), trials=300, seed=2)
        assert rep.passed
        assert 0.0 < rep.worst_ratio < rep.bound


class TestConvergenceStudy:
    def test_orders(self):
        study = vf.convergence_study()
        oracle = study.row("oracle_dt")
        assert 3.6 <= oracle.order <= 4.4
        driver = study.row("driver_h")
        assert 1.5 <= driver.order <= 2.5
        plate = study.row("plate_k")
        assert plate.order >= 6.0  # super-polynomial: far beyond any FD order
        assert plate.errors[0] > plate.errors[1] > plate.errors[2]
        tol_row = study.row("gamma_tol")
        assert 0.5 <= tol_row.order <= 1.5
        assert tol_row.errors[0] > tol_row.errors[-1]
        with pytest.raises(KeyError):
            study.row("nonexistent")
