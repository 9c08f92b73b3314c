"""Tests for the benchmark, regularity, audit, and convergence-study module."""

import ast
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from gapflow import dispersive as dp
from gapflow import reynolds as ry
from gapflow import spectral as sp
from gapflow import verify as vf
from gapflow.dispersive import ModelParams
from gapflow.spectral import StateVW

P = ModelParams(beta_F=1.0, beta_p=0.5, theta1=1.0, theta2=1.0, eps1=0.5)


class TestClosedForm:
    def test_zero_time_is_zero(self):
        v, w = vf.linear_plate_closed_form(0.0, 32)
        assert np.abs(w).max() == 0.0
        assert np.abs(v).max() == 0.0

    def test_first_mode_supremum(self):
        # om_1 t = pi maximizes (1 - cos): sup_t |w_1| = 2 b_1 / om_1^2 = 8/(pi (pi^2 + pi^4))
        om1_sq = math.pi**2 + math.pi**4
        _, w = vf.linear_plate_closed_form(math.pi / math.sqrt(om1_sq), 8)
        assert w[0] == pytest.approx(8.0 / (math.pi * om1_sq), rel=1e-15)

    def test_even_modes_vanish(self):
        v, w = vf.linear_plate_closed_form(0.37, 64)
        assert np.abs(w[1::2]).max() == 0.0
        assert np.abs(v[1::2]).max() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            vf.linear_plate_closed_form(-0.1, 8)
        with pytest.raises(ValueError):
            vf.linear_plate_closed_form(np.array([0.1, -0.1]), 8)
        with pytest.raises(ValueError):
            vf.linear_plate_closed_form(0.1, 0)

    def test_array_of_times_is_bitwise_the_scalar_calls(self):
        # the nodes of the verify benchmark, one row per time, modes along the last axis
        times = np.linspace(0.0, 1.0, 257)[1:]
        vs, ws = vf.linear_plate_closed_form(times, 128)
        assert ws.shape == vs.shape == (256, 128)
        for t, w, v in zip(times, ws, vs):
            v_one, w_one = vf.linear_plate_closed_form(t, 128)
            assert w.tobytes() == w_one.tobytes() and v.tobytes() == v_one.tobytes()

    def test_against_ode_oracle(self):
        # Independent validation of the closed form: integrate each forced
        # oscillator w'' = b_k - om_k^2 w with a high-order adaptive scheme.
        t_end = 0.37
        v, w = vf.linear_plate_closed_form(t_end, 9)
        for k in (1, 3, 9):
            b = 4.0 / (k * math.pi)
            om2 = (k * math.pi) ** 2 + (k * math.pi) ** 4
            sol = solve_ivp(
                lambda t, y: [y[1], b - om2 * y[0]],
                (0.0, t_end),
                [0.0, 0.0],
                method="DOP853",
                rtol=1e-12,
                atol=1e-14,
            )
            assert abs(sol.y[0, -1] - w[k - 1]) <= 1e-9
            assert abs(sol.y[1, -1] - v[k - 1]) <= 1e-9


class TestBenchmark:
    def test_exponential_trapezoid_is_exact(self):
        gap = vf.benchmark_against_duhamel(128, 1.0, 256)
        assert gap <= 1e-10

    def test_wrong_spectrum_fails(self, monkeypatch):
        # the closed form states its own frequencies, so a march on a wrong
        # production spectrum (here the bare biharmonic, om = (k pi)^2) falls out
        def biharmonic_only(k_max):
            om = (np.pi * np.arange(1, k_max + 1, dtype=float)) ** 2
            return sp.PlateSpectrum(mu=om**2, omega=om)

        monkeypatch.setattr(sp, "plate_eigenvalues", biharmonic_only)
        assert vf.benchmark_against_duhamel(128, 1.0, 256) > 1e-10

    def test_zero_forcing_zero_everywhere(self):
        # the benchmark's march, started from rest with zero forcing, stays exactly zero
        om = sp.plate_eigenvalues(16).omega
        rest = StateVW(np.zeros(16), np.zeros(16))
        coeffs = sp.duhamel_coeffs(om, np.diff(np.linspace(0.0, 1.0, 33)))
        v, w = sp.duhamel_sweep(rest, om, coeffs, np.zeros((33, 16)))
        assert not v.any() and not w.any()

    def test_validation(self):
        with pytest.raises(ValueError):
            vf.benchmark_against_duhamel(16, 1.0, 0)


def _fit_residual(check):
    """The RMS log-residual of a regularity fit, read back from its note."""
    return float(check.note.removeprefix("residual=").removesuffix(" (band [4.7, 5.3])"))


class TestRegularityFit:
    def test_synthetic_power_law_exact(self):
        modes = np.arange(1, 129, dtype=float) ** -5.0
        fit = vf.regularity_exponent_check(modes)
        assert abs(fit.measured - 5.0) <= 1e-6
        assert fit.passed
        assert (fit.name, fit.bound) == ("benchmark.regularity_exponent", 5.3)

    def test_benchmark_modes_hit_ceiling(self):
        _, w = vf.linear_plate_closed_form(0.37, 128)
        fit = vf.regularity_exponent_check(w)
        assert 4.7 <= fit.measured <= 5.3
        assert fit.passed
        # decay exponent 5 <=> membership in H^{9/2 - eps} but not H^{9/2}, s* = p - 1/2
        assert abs((fit.measured - 0.5) - 4.5) <= 0.3

    def test_even_modes_excluded(self):
        _, w = vf.linear_plate_closed_form(0.37, 128)
        base = vf.regularity_exponent_check(w)
        poisoned = w.copy()
        poisoned[1::2] = 99.0
        fit = vf.regularity_exponent_check(poisoned)
        assert fit.measured == base.measured
        assert fit.note == base.note  # the residual, to 3 digits

    def test_noise_is_inconclusive(self):
        rng = np.random.default_rng(0)
        k = np.arange(1, 129, dtype=float)
        noisy = k**-2.0 * np.exp(2.5 * rng.standard_normal(128))
        fit = vf.regularity_exponent_check(noisy)
        assert not fit.passed
        assert _fit_residual(fit) > 0.6

    def test_the_residual_rule_alone_fails_an_exponent_in_the_band(self):
        k = np.arange(1, 129, dtype=float)
        noisy = k**-5.0 * np.exp(1.5 * np.random.default_rng(1).standard_normal(128))
        fit = vf.regularity_exponent_check(noisy)
        assert 4.7 <= fit.measured <= 5.3
        assert _fit_residual(fit) > 0.6
        assert not fit.passed

    def test_narrow_range_rejected(self):
        with pytest.raises(ValueError):
            vf.regularity_exponent_check(np.ones(16))  # 4 odd modes in 9..15

    def test_an_exponent_below_the_band_fails_and_the_note_names_the_band(self):
        fit = vf.regularity_exponent_check(np.arange(1, 129, dtype=float) ** -4.0)
        assert abs(fit.measured - 4.0) <= 1e-6 and _fit_residual(fit) <= 0.6
        assert not fit.passed and fit.bound == 5.3  # the bound is the upper edge
        assert fit.note.endswith(" (band [4.7, 5.3])")


class TestAlgebraCheck:
    def test_calibrate_then_verify(self):
        rep = vf.algebra_property_check(trials=2000, calibration_trials=500, k_max=24, seed=0)
        assert rep.passed
        assert rep.bound >= 1.0  # C_alg: the constant pair f = g = 1 anchors ratio 1
        assert rep.measured <= rep.bound  # the worst fresh ratio
        assert 0.0 < rep.measured
        assert (rep.name, rep.note) == ("constants.algebra", "2000 fresh draws")

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
            num = sp.norm_Hk(sp.sine_transform(f * g - thf * thg), 2, thf * thg)
            return num / (sp.norm_Hk(lam * mf, 2, thf) * sp.norm_Hk(mg, 2, thg))

        assert ratio(1.0) == pytest.approx(ratio(7.0), rel=1e-12)


class TestInversePowerCheck:
    def test_flat_base_passes(self):
        n = 24
        w0 = np.full(n, 1.0)
        rep = vf.inverse_power_bounds_check(P, w0, trials=300, seed=0)
        assert rep.passed
        assert 0.0 < rep.measured <= rep.bound == 1.0  # the worst of the five ratios
        cc = dp.contraction_constants(P, w0)  # its C2 = 2 C1^3 and C3 = 3 C1^4: test_dispersive
        assert (rep.name, rep.note) == ("constants.inverse_power", f"C1={cc.C1:.4g} C2={cc.C2:.4g} C3={cc.C3:.4g}")

    def test_radius_validation(self):
        n = 16
        w0 = np.full(n, 1.0)
        with pytest.raises(ValueError):
            vf.inverse_power_bounds_check(P, w0, r=1e9, trials=10)

    @pytest.mark.parametrize("audit", [vf.inverse_power_bounds_check, vf.lipschitz_G_check], ids=["inverse_power", "lipschitz_G"])
    @pytest.mark.parametrize("w0", [np.full((2, 16), 1.0), np.r_[np.full(15, 1.0), np.nan]], ids=["2-d", "nan"])
    def test_a_malformed_centre_is_refused(self, audit, w0):
        # dp.contraction_constants refuses it before any constant is formed
        with pytest.raises(ValueError, match="w0 must be a 1-d array of finite gap samples"):
            audit(P, w0, trials=10)

    def test_C2_bounds_the_difference_of_inverse_squares(self, monkeypatch):
        # C2 bounds 1/w^2 differences; a C2 shrunk 1e5-fold must fail them (it
        # still passed the 1/w differences measured against it before)
        real = dp.contraction_constants

        def shrunk(p, w0):
            cc = real(p, w0)
            return replace(cc, C2=1e-5 * cc.C2)

        w0 = np.full(32, 1.0)
        assert vf.inverse_power_bounds_check(vf.VERIFY_PARAMS, w0, trials=300, seed=0).passed
        monkeypatch.setattr(dp, "contraction_constants", shrunk)
        rep = vf.inverse_power_bounds_check(vf.VERIFY_PARAMS, w0, trials=300, seed=0)
        assert rep.measured > 1.0 and not rep.passed


class TestFrechetW:
    @pytest.mark.parametrize("status", ["diverged", "exhausted"])
    def test_a_failed_solve_raises_with_its_sweeps_and_ratios(self, monkeypatch, status):
        # beta_F = 10 over T = 3: the first sweep ratio is 1.07, so the linear
        # sweeps diverge after 2; with a sweep limit of 1 they exhaust it first
        if status == "exhausted":
            monkeypatch.setattr(vf, "_FRECHET_MAX_ITER", 1)
        p = ModelParams(beta_F=10.0, beta_p=1.0, theta1=1.0, theta2=1.0, eps1=0.5)
        n = 16
        times = np.linspace(0.0, 3.0, 17)
        setup = dp.plate_setup(p, StateVW(np.zeros(n), np.zeros(n)), times)
        flat = dp.VWPath(times, np.zeros((17, n)), np.zeros((17, n)))
        q = np.tile(np.r_[1.0, np.zeros(n - 1)], (17, 1))
        with pytest.raises(dp.PicardDivergence, match=f"frechet_W linear sweeps {status}") as exc:
            vf.frechet_W(setup, q, flat)
        rep = exc.value.report
        if status == "diverged":
            assert rep.iterations == 2 and rep.contraction_ratios == [pytest.approx(1.0748, abs=1e-4)]
        else:
            assert rep.iterations == 1 and rep.contraction_ratios == []


class TestLipschitzChecks:
    def test_G_bound_holds(self):
        n = 24
        w0 = np.full(n, 1.0)
        rep = vf.lipschitz_G_check(P, w0, trials=300, seed=1)
        assert rep.passed
        assert 0.0 < rep.measured < rep.bound
        assert (rep.name, rep.note) == ("lipschitz.G", "300 pairs")

    def test_F_bound_holds(self):
        n = 24
        w0m = np.zeros(n)
        w0m[0] = 0.05
        u0 = np.full(n, 1.0)
        rep = vf.lipschitz_F_check(P, u0, StateVW(v=np.zeros(n), w=w0m), trials=300, seed=2)
        assert rep.passed
        assert 0.0 < rep.measured < rep.bound
        assert (rep.name, rep.note) == ("lipschitz.F", "300 pairs")


class TestHolderAudit:
    @staticmethod
    def _path_and_q(n=32, T=5e-3, n_t=10):
        rng = np.random.default_rng(5)
        base = rng.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -3
        base = 0.05 * base / sp.norm_Hk(base, 2)
        times = np.linspace(0, T, n_t + 1)
        modes = np.array([base * (1.0 + 0.3 * math.sin(2 * math.pi * t / T)) for t in times])
        path = 1.0 + sp.inverse_sine_transform(modes)
        return times, path, np.array([0.5 * base * (1.0 + 0.2 * math.cos(2 * math.pi * t / T)) for t in times])

    @pytest.mark.parametrize("quotient", ["measured_A", "measured_B"])
    def test_a_fresh_quotient_three_times_the_allowed_one_fails(self, monkeypatch, quotient):
        # the fresh path is a copy of the calibration path, so the calibration
        # allows it 2x its own quotient; six times that quotient is 3x the bound
        times, path, q = self._path_and_q()
        fresh = path.copy()
        real = vf.holder_F_quotients

        def inflated(setup, u_path, q_modes):
            rep = real(setup, u_path, q_modes)
            return replace(rep, **{quotient: 6.0 * getattr(rep, quotient)}) if u_path is fresh else rep

        init = StateVW(v=np.zeros(32), w=np.r_[0.05, np.zeros(31)])
        rep = vf.holder_F_audit(times, [path], [fresh], q, P, init)
        assert rep.passed and rep.measured == pytest.approx(0.5, rel=1e-12)
        monkeypatch.setattr(vf, "holder_F_quotients", inflated)
        rep = vf.holder_F_audit(times, [path], [fresh], q, P, init)
        assert not rep.passed and rep.measured == pytest.approx(3.0, rel=1e-12)

    def test_the_audit_builds_one_plate_setup_for_all_its_paths(self, monkeypatch):
        times, path, q = self._path_and_q()
        fresh = path.copy()
        setups, real = [], vf.holder_F_quotients

        def recorded(setup, u_path, q_modes):
            setups.append(setup)
            return real(setup, u_path, q_modes)

        monkeypatch.setattr(vf, "holder_F_quotients", recorded)
        vf.holder_F_audit(times, [path, path], [fresh], q, P, StateVW(v=np.zeros(32), w=np.r_[0.05, np.zeros(31)]))
        assert len(setups) == 3 and all(s is setups[0] for s in setups)
        assert setups[0].times is times

    def test_a_fresh_path_with_another_row_count_raises(self):
        # the audit's one setup is built on the grid it is given; a path
        # sampled on fewer nodes is refused by the plate solve
        times, path, q = self._path_and_q()
        _, other, _ = self._path_and_q(n_t=8)
        init = StateVW(v=np.zeros(32), w=np.r_[0.05, np.zeros(31)])
        with pytest.raises(ValueError, match="one row of k_max interior samples per node"):
            vf.holder_F_audit(times, [path], [other], q, P, init)


# ---------------------------------------------------------------------------
# per-sample reference loops of the Monte Carlo audits
# ---------------------------------------------------------------------------
#
# The audits draw each field of a block of samples with one generator call,
# from one stream per field, and measure the block as stacked rows.  These
# loops draw all trials at once in the same sample-major layout (rows, then
# the member of a pair), which by the block-size invariance are the audits'
# blocks laid end to end, and measure one sample at a time: the same verdicts
# and the same worst values to rounding (the audits synthesize the refined
# grid with the package's sine transforms, a block at a time, and these
# loops with eval_modes_on, a sample at a time, so bits may differ).


def _ref_streams(seed, count):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _ref_ball_pairs(seed, trials, k_max, r):
    """All trials pairs of ball samples, shape (trials, 2, k_max), each scaled on its own."""
    normals, radii = _ref_streams(seed, 2)
    modes = normals.standard_normal((trials, 2, k_max)) * np.arange(1, k_max + 1, dtype=float) ** -3
    scales = r * radii.uniform(0.05, 1.0, (trials, 2))
    for i, j in np.ndindex(trials, 2):
        modes[i, j] *= scales[i, j] / max(1e-300, sp.norm_Hk(modes[i, j], 2))
    return modes


def _ref_algebra(trials, k_max, seed, calibration_trials):
    margin = 1.5
    n_f = 4 * k_max + 3
    xf = sp.grid(n_f)
    decay = np.arange(1, k_max + 1, dtype=float) ** -2.2

    def ratio_of(thf, mf, thg, mg):
        sf = sp.eval_modes_on(mf, xf)
        sg = sp.eval_modes_on(mg, xf)
        prod_modes = sp.sine_transform((thf + sf) * (thg + sg) - thf * thg)
        num = sp.norm_Hk(prod_modes, 2, thf * thg)
        den = sp.norm_Hk(mf, 2, thf) * sp.norm_Hk(mg, 2, thg)
        return num / den

    def worst_of(seed, n_pairs, worst):
        lifts, normals, scales = _ref_streams(seed, 3)
        th = lifts.uniform(0.5, 1.5, (n_pairs, 2))
        nrm = normals.standard_normal((n_pairs, 2, k_max))
        sc = scales.uniform(0.1, 1.0, (n_pairs, 2))
        for i in range(n_pairs):
            mf, mg = nrm[i, 0] * decay * sc[i, 0], nrm[i, 1] * decay * sc[i, 1]
            worst = max(worst, ratio_of(th[i, 0], mf, th[i, 1], mg))
        return worst

    worst_cal = worst_of(seed, calibration_trials, ratio_of(1.0, np.zeros(k_max), 1.0, np.zeros(k_max)))
    worst_fresh = worst_of(seed + 1, trials, 0.0)
    C_alg = margin * worst_cal
    return dict(bound=C_alg, measured=worst_fresh, passed=worst_fresh <= C_alg)


def _ref_inverse_power(p, w0, trials, seed, pairs=None):
    cc = dp.contraction_constants(p, w0)
    r = cc.radius(None)
    k_max = w0.size
    xf = sp.grid(4 * k_max + 3)
    base_modes = sp.sine_transform(w0 - p.theta2)
    base_fine = sp.eval_modes_on(base_modes, xf) + p.theta2
    pairs = _ref_ball_pairs(seed, trials, k_max, r) if pairs is None else pairs

    def inv_modes(wt_modes, kpow):
        w_fine = base_fine + sp.eval_modes_on(wt_modes, xf)
        if float(w_fine.min()) <= 0.0:
            raise RuntimeError("gap closed inside the sampling ball (r too large)")
        return sp.sine_transform(w_fine ** (-float(kpow)) - p.theta2 ** (-float(kpow)))

    worst_single = [0.0, 0.0, 0.0]
    worst_d1 = 0.0
    worst_d2 = 0.0
    for d1, d2 in pairs:
        for kpow in (1, 2, 3):
            nrm = sp.norm_Hk(inv_modes(d1, kpow), 2, p.theta2 ** (-float(kpow)))
            worst_single[kpow - 1] = max(worst_single[kpow - 1], nrm / cc.C1**kpow)
        den = sp.norm_Hk(d1 - d2, 2)
        if den > 0:
            g2 = inv_modes(d1, 2) - inv_modes(d2, 2)
            g3 = inv_modes(d1, 3) - inv_modes(d2, 3)
            worst_d1 = max(worst_d1, sp.norm_Hk(g2, 2) / (cc.C2 * den))
            worst_d2 = max(worst_d2, sp.norm_Hk(g3, 2) / (cc.C3 * den))
    worst = max(*worst_single, worst_d1, worst_d2)
    return dict(bound=1.0, measured=worst, passed=worst <= 1.0)


def _ref_lipschitz_G(p, w0, trials, seed):
    cc = dp.contraction_constants(p, w0)
    r = cc.radius(None)
    L = cc.L_G
    k_max = w0.size
    xf = sp.grid(4 * k_max + 3)
    base_modes = sp.sine_transform(w0 - p.theta2)
    base_fine = sp.eval_modes_on(base_modes, xf) + p.theta2
    worst = 0.0
    for d1, d2 in _ref_ball_pairs(seed, trials, k_max, r):
        den = sp.norm_Hk(d1 - d2, 2)
        if den == 0.0:
            continue
        w1 = base_fine + sp.eval_modes_on(d1, xf)
        w2 = base_fine + sp.eval_modes_on(d2, xf)
        g_diff = -p.beta_F / w1**2 + p.beta_F / w2**2
        num = sp.norm_Hk(sp.sine_transform(g_diff), 2)
        worst = max(worst, num / den)
    return dict(bound=L, measured=worst, passed=worst <= L)


def _ref_lipschitz_F(p, u0, init, trials, seed):
    ball = 0.2
    tc = dp.theory_constants(p, u0, init)
    v_field, w_field = dp.plate_fields(init, p.theta2)
    worst = 0.0
    for m1, m2 in _ref_ball_pairs(seed, trials, u0.size, ball):
        u1 = u0 + sp.inverse_sine_transform(m1)
        u2 = u0 + sp.inverse_sine_transform(m2)
        dF = ry.eval_F(u1, v_field, w_field, p) - ry.eval_F(u2, v_field, w_field, p)
        den = sp.norm_Hk(m1 - m2, 2)
        if den == 0.0:
            continue
        num = sp.norm_Hk(sp.sine_transform(dF), 0)
        worst = max(worst, num / den)
    return dict(bound=tc.L_e, measured=worst, passed=worst <= tc.L_e)


def _assert_matches(report, ref):
    for key, want in ref.items():
        got = getattr(report, key)
        if isinstance(want, bool):
            assert got == want, key
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=key)


def _bump_w0(n):
    w0m = np.zeros(n)
    w0m[0] = 0.05
    return w0m, dp.gap_field(StateVW(v=np.zeros(n), w=w0m), 1.0)


class _ConstantRng:
    """Stands in for a generator: every draw of a pair is the same, so no pair differs."""

    def standard_normal(self, size):
        return np.ones(size)

    def uniform(self, low, high, size):
        return np.full(size, 0.5 * (low + high))


class TestBatchedAuditsMatchPerSampleLoops:
    # 300 trials = one full block and a part block; 100 = less than a block
    TRIALS = (300, 100)

    @pytest.mark.parametrize("trials", TRIALS)
    def test_algebra(self, trials):
        rep = vf.algebra_property_check(trials=trials, k_max=32, seed=7, calibration_trials=trials + 17)
        _assert_matches(rep, _ref_algebra(trials, 32, 7, trials + 17))

    @pytest.mark.parametrize("trials", TRIALS)
    def test_inverse_power(self, trials):
        _, w0 = _bump_w0(32)
        rep = vf.inverse_power_bounds_check(P, w0, trials=trials, seed=8)
        _assert_matches(rep, _ref_inverse_power(P, w0, trials, 8))

    @pytest.mark.parametrize("trials", TRIALS)
    def test_lipschitz_G(self, trials):
        _, w0 = _bump_w0(32)
        rep = vf.lipschitz_G_check(P, w0, trials=trials, seed=9)
        _assert_matches(rep, _ref_lipschitz_G(P, w0, trials, 9))

    @pytest.mark.parametrize("trials", TRIALS)
    def test_lipschitz_F(self, trials):
        w0m, _ = _bump_w0(32)
        u0 = 1.0 + 0.1 * np.sin(np.pi * sp.grid(32))
        init = StateVW(v=np.zeros(32), w=w0m)
        rep = vf.lipschitz_F_check(P, u0, init, trials=trials, seed=10)
        _assert_matches(rep, _ref_lipschitz_F(P, u0, init, trials, 10))

    @staticmethod
    def _plant_closing(monkeypatch, row, second, n):
        """Make the sample of one row of the second block w = 1 - 2 sin(pi x), a
        closed gap about the flat w0; returns the rows of the blocks drawn."""
        closing = np.r_[-2.0, np.zeros(n - 1)]
        blocks = []
        real = vf._ball_pairs

        def sampler(streams, rows, k_max, r):
            d = real(streams, rows, k_max, r)
            if blocks:
                d[int(second), row] = closing
            blocks.append(rows)
            return d

        monkeypatch.setattr(vf, "_ball_pairs", sampler)
        return closing, blocks

    @pytest.mark.parametrize("row", [3, 40])
    @pytest.mark.parametrize("second", [False, True])
    def test_inverse_power_gap_closure_in_one_row_raises(self, monkeypatch, row, second):
        # the sample of one row of the second block closes the gap
        n = 16
        w0 = np.full(n, 1.0)
        closing, blocks = self._plant_closing(monkeypatch, row, second, n)
        with pytest.raises(RuntimeError, match="gap closed inside the sampling ball"):
            vf.inverse_power_bounds_check(P, w0, trials=300, seed=0)
        assert blocks == [256, 44]  # the block was drawn whole, then measured
        pairs = _ref_ball_pairs(0, 300, n, dp.contraction_constants(P, w0).radius(None))
        pairs[256 + row, int(second)] = closing
        with pytest.raises(RuntimeError, match="gap closed inside the sampling ball"):
            _ref_inverse_power(P, w0, 300, 0, pairs=pairs)

    @pytest.mark.parametrize("row", [3, 40])
    @pytest.mark.parametrize("second", [False, True])
    def test_lipschitz_G_gap_closure_in_one_row_raises(self, monkeypatch, row, second):
        # the audit measures the model's G, which is undefined where the gap is closed
        n = 16
        w0 = np.full(n, 1.0)
        _, blocks = self._plant_closing(monkeypatch, row, second, n)
        with pytest.raises(sp.QuenchSignal, match="gap closed"):
            vf.lipschitz_G_check(vf.VERIFY_PARAMS, w0, trials=300, seed=0)
        assert blocks == [256, 44]

    @pytest.mark.filterwarnings("error")  # a skipped row must not be divided by its zero
    def test_pairs_with_zero_denominator_are_skipped(self, monkeypatch):
        w0m, w0 = _bump_w0(16)
        u0 = np.full(16, 1.0)
        monkeypatch.setattr(vf.np.random, "default_rng", lambda seed: _ConstantRng())
        assert vf.lipschitz_G_check(P, w0, trials=300).measured == 0.0
        rep = vf.lipschitz_F_check(P, u0, StateVW(v=np.zeros(16), w=w0m), trials=300)
        assert rep.measured == 0.0 and rep.passed
        inv = vf.inverse_power_bounds_check(P, w0, trials=300)
        assert inv.measured > 0.0 and inv.passed  # the single powers; the diffs have no pair to measure


def _four_audit_reports():
    w0m, w0 = _bump_w0(32)
    u0 = 1.0 + 0.1 * np.sin(np.pi * sp.grid(32))
    init = StateVW(v=np.zeros(32), w=w0m)
    return [
        vf.algebra_property_check(trials=300, k_max=32, seed=3, calibration_trials=100),
        vf.inverse_power_bounds_check(P, w0, trials=300, seed=4),
        vf.lipschitz_G_check(P, w0, trials=300, seed=5),
        vf.lipschitz_F_check(P, u0, init, trials=300, seed=6),
    ]


class TestAuditDraws:
    def test_audit_blocks_cover_the_trials(self):
        assert vf.audit_blocks(0) == []
        assert vf.audit_blocks(100) == [100]
        assert vf.audit_blocks(256) == [256]
        assert vf.audit_blocks(1000) == [256, 256, 256, 232]

    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch):
        default = _four_audit_reports()
        monkeypatch.setattr(vf, "_AUDIT_BLOCK", 37)
        assert [repr(rep) for rep in _four_audit_reports()] == [repr(rep) for rep in default]

    def test_the_generator_is_called_a_fixed_number_of_times_per_block(self, monkeypatch):
        # one call per sample field per block: 3 fields for the algebra pairs,
        # 2 (normals and radii) for the ball pairs of the other three audits
        calls = []
        real = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self._rng = real(seed)

            def __getattr__(self, name):
                draw = getattr(self._rng, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return draw(*args, **kwargs)

                return counted

        monkeypatch.setattr(vf.np.random, "default_rng", Counting)
        vf.algebra_property_check(trials=1000, calibration_trials=300)
        assert len(calls) <= 3 * len(vf.audit_blocks(1000) + vf.audit_blocks(300))  # one at a time: 6 per pair
        calls.clear()
        _four_audit_reports()  # 300 + 100 algebra pairs, then 300 ball pairs in each of three audits
        assert len(calls) <= 3 * len(vf.audit_blocks(300) + vf.audit_blocks(100)) + 3 * 2 * len(vf.audit_blocks(300))


class TestConvergenceOrders:
    def test_orders(self):
        study = vf.convergence_study()
        axes = ["oracle_dt", "driver_h", "plate_k", "gamma_tol"]
        assert [r.name for r in study] == [f"convergence.{axis}" for axis in axes]  # the check order
        assert all(r.passed for r in study)
        oracle, driver, plate, tol_row = study

        # each note names its band; the bound is its lower edge
        bands = ["[3.6, 4.4]", "[1.5, 2.5]", "[6, inf]", "[0.5, 1.5]"]
        assert [r.note.partition(" (band ")[2] for r in study] == [f"{band})" for band in bands]
        assert [r.bound for r in study] == [3.6, 1.5, 6.0, 0.5]

        def errors(check):  # the errors as the note prints them, to 4 digits
            return ast.literal_eval(check.note.removeprefix("errors=").partition(" (band ")[0])

        assert 3.6 <= oracle.measured <= 4.4
        assert 1.5 <= driver.measured <= 2.5
        assert plate.measured >= 6.0  # super-polynomial: far beyond any FD order
        assert errors(plate)[0] > errors(plate)[1] > errors(plate)[2]
        assert 0.5 <= tol_row.measured <= 1.5
        assert errors(tol_row)[0] > errors(tol_row)[-1]
