"""Tests for the quasilinear pressure side: F, its linearization and
diagnostics, the semigroup linear solve, the outer contraction, the RK4
oracle, the coupled driver, continuation, and the balance diagnostics."""

import math

import numpy as np
import pytest

from gapflow import dispersive as dp
from gapflow import reynolds as ry
from gapflow import spectral as sp
from gapflow.dispersive import ModelParams, PicardDivergence, PressurePath
from gapflow.reynolds import (
    BlowupSignal,
    CoupledState,
    DriverConfig,
    GammaDivergence,
)
from gapflow.spectral import BoundaryLift, GridField, QuenchSignal, StateVW

LIFT = BoundaryLift(1.0, 1.0)


def base_params(beta_F=1.0, beta_p=0.5, eps1=0.5):
    return ModelParams(beta_F=beta_F, beta_p=beta_p, lift=LIFT, eps1=eps1)


def bump_state(k, amp=0.05):
    w = np.zeros(k)
    w[0] = amp
    return StateVW(v=np.zeros(k), w=w)


def bump_pressure(n, amp=0.1):
    x = sp.grid(n)
    return GridField(values=1.0 + amp * np.sin(np.pi * x), bv=1.0)


def smooth_coupled_init(n):
    return CoupledState(u=bump_pressure(n), vw=bump_state(n))


# ---------------------------------------------------------------------------
# eval_F
# ---------------------------------------------------------------------------


class TestEvalF:
    def test_zero_at_lifted_constants(self):
        p = base_params()
        n = 23
        u = GridField(values=np.full(n, 1.0), bv=1.0)
        v = GridField(values=np.zeros(n), bv=0.0)
        w = GridField(values=1.0 + 0.3 * np.sin(np.pi * sp.grid(n)), bv=1.0)
        F = ry.eval_F(u, v, w, p)
        assert np.abs(F.values).max() == 0.0
        assert F.bv == 0.0

    def test_velocity_term_only(self):
        p = base_params()
        n = 17
        u = GridField(values=np.full(n, 1.0), bv=1.0)
        v = GridField(values=np.ones(n), bv=0.0)
        w = GridField(values=np.full(n, 2.0), bv=2.0)
        F = ry.eval_F(u, v, w, p)
        assert np.allclose(F.values, -0.5, rtol=0, atol=1e-15)

    def test_quench_raises(self):
        p = base_params()
        n = 9
        u = GridField(values=np.full(n, 1.0), bv=1.0)
        v = GridField(values=np.zeros(n), bv=0.0)
        w_vals = np.full(n, 0.5)
        w_vals[4] = 0.0
        with pytest.raises(QuenchSignal):
            ry.eval_F(u, v, GridField(values=w_vals, bv=0.5), p)

    def test_F_path_is_row_wise_eval_F(self):
        p = base_params()
        n, n_t = 16, 8
        rng = np.random.default_rng(3)
        decay = np.arange(1, n + 1, dtype=float) ** -2
        times = np.linspace(0.0, 0.01, n_t + 1)
        u_path = PressurePath(times=times, values=1.0 + 0.1 * rng.normal(size=(n_t + 1, n)), bv=1.0)
        plate = dp.VWPath(times=times, v=rng.normal(size=(n_t + 1, n)) * decay, w=0.1 * rng.normal(size=(n_t + 1, n)) * decay)
        F = ry._F_path(u_path, plate, p)
        for u, v, w, row in zip(u_path.values, plate.v, plate.w, F):
            v_grid = GridField(values=sp.inverse_sine_transform(v), bv=0.0)
            w_grid = GridField(values=sp.inverse_sine_transform(w) + 1.0, bv=1.0)
            assert np.array_equal(row, ry.eval_F(GridField(values=u, bv=1.0), v_grid, w_grid, p).values)
        # one node with a closed gap quenches the whole path
        plate.w[5] = sp.sine_transform(np.full(n, -2.0))
        with pytest.raises(QuenchSignal):
            ry._F_path(u_path, plate, p)

    def test_lipschitz_in_u_below_theory_constant(self):
        p = base_params()
        n = k = 48
        w0m = np.concatenate([[0.05], np.zeros(k - 1)])
        w0 = GridField(values=sp.inverse_sine_transform(w0m) + 1.0, bv=1.0)
        u0 = GridField(values=np.full(n, 1.0), bv=1.0)
        tc = dp.theory_constants(p, w0, u0, StateVW(v=np.zeros(k), w=w0m))
        rng = np.random.default_rng(11)
        v_field = GridField(values=np.zeros(n), bv=0.0)
        decay = np.arange(1, k + 1, dtype=float) ** -3
        worst = 0.0
        for _ in range(200):
            m1 = rng.normal(size=k) * decay
            m2 = rng.normal(size=k) * decay
            m1 *= 0.2 / max(1e-12, sp.norm_Hk(m1, 2))
            m2 *= 0.2 / max(1e-12, sp.norm_Hk(m2, 2))
            u1 = GridField(values=1.0 + sp.inverse_sine_transform(m1), bv=1.0)
            u2 = GridField(values=1.0 + sp.inverse_sine_transform(m2), bv=1.0)
            dF = ry.eval_F(u1, v_field, w0, p).values - ry.eval_F(u2, v_field, w0, p).values
            num = sp.norm_Hk(sp.sine_transform(dF), 0)
            worst = max(worst, num / sp.norm_Hk(m1 - m2, 2))
        assert 0.0 < worst <= tc.L_e


# ---------------------------------------------------------------------------
# assemble_Pstar
# ---------------------------------------------------------------------------


class TestAssemblePstar:
    def test_constant_coefficients_is_laplacian(self):
        n = 40
        u = GridField(values=np.ones(n), bv=1.0)
        v = GridField(values=np.zeros(n), bv=0.0)
        w = GridField(values=np.ones(n), bv=1.0)
        op = ry.assemble_Pstar(u, v, w)
        h = 1.0 / (n + 1)
        lap = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / h**2
        assert np.allclose(op.matrix, lap, rtol=1e-13, atol=0.0)
        eigs = np.sort(np.linalg.eigvalsh(op.matrix))
        exact = np.sort([-4 / h**2 * math.sin(j * math.pi * h / 2) ** 2 for j in range(1, n + 1)])
        assert np.abs(eigs - exact).max() <= 1e-9 * np.abs(exact).max()

    def test_eigenvalue_order_h2(self):
        errs = []
        for n in (32, 64):
            u = GridField(values=np.ones(n), bv=1.0)
            op = ry.assemble_Pstar(
                u, GridField(values=np.zeros(n), bv=0.0), GridField(values=np.ones(n), bv=1.0)
            )
            lam1 = np.max(np.linalg.eigvalsh(op.matrix))
            errs.append(abs(lam1 + math.pi**2))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_positivity_violations(self):
        n = 8
        good_u = GridField(values=np.ones(n), bv=1.0)
        v = GridField(values=np.zeros(n), bv=0.0)
        good_w = GridField(values=np.ones(n), bv=1.0)
        bad = np.ones(n)
        bad[3] = -0.1
        with pytest.raises(ValueError):
            ry.assemble_Pstar(GridField(values=bad, bv=1.0), v, good_w)
        with pytest.raises(ValueError):
            ry.assemble_Pstar(good_u, v, GridField(values=bad, bv=1.0))

    def test_propagator_cached_per_step_size(self):
        n = 12
        op = ry.assemble_Pstar(
            GridField(values=np.ones(n), bv=1.0),
            GridField(values=np.zeros(n), bv=0.0),
            GridField(values=np.ones(n), bv=1.0),
        )
        E1, _, _ = ry._propagator(op, 0.01)
        E2, _, _ = ry._propagator(op, 0.01)
        assert E1 is E2
        E3, _, _ = ry._propagator(op, 0.02)
        assert E3 is not E1


# ---------------------------------------------------------------------------
# elliptic form
# ---------------------------------------------------------------------------


class TestEllipticForm:
    def test_constant_coefficient_form_is_gradient_norm(self):
        n = 31
        op = ry.assemble_Pstar(
            GridField(values=np.ones(n), bv=1.0),
            GridField(values=np.zeros(n), bv=0.0),
            GridField(values=np.ones(n), bv=1.0),
        )
        A = ry._principal_matrix(op)
        h = op.h
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.normal(size=n)
            lhs = abs(h * float(q @ (A @ q)))
            dq2 = h * float(np.sum((np.diff(np.concatenate([[0.0], q, [0.0]])) / h) ** 2))
            assert abs(lhs - dq2) <= 1e-12 * dq2

    def test_formula_constants_and_pass(self):
        n = 31
        op = ry.assemble_Pstar(
            GridField(values=np.ones(n), bv=1.0),
            GridField(values=np.zeros(n), bv=0.0),
            GridField(values=np.ones(n), bv=1.0),
        )
        rep = ry.elliptic_form_check(op, trials=500, seed=1)
        assert rep.passed
        assert rep.K == 0.5  # eps1 = kappa = 1
        assert rep.K_o == pytest.approx(rep.K2**2 / 2.0)

    def test_random_smooth_triples_pass(self):
        rng = np.random.default_rng(42)
        n = 48
        x = sp.grid(n)
        for trial in range(5):
            uo = 1.0 + 0.2 * np.sin(np.pi * x) * rng.uniform(-1, 1) + 0.1 * np.sin(2 * np.pi * x) * rng.uniform(-1, 1)
            wo = 1.0 + 0.2 * np.sin(np.pi * x) * rng.uniform(-1, 1) + 0.1 * np.sin(3 * np.pi * x) * rng.uniform(-1, 1)
            vo = 0.3 * np.sin(np.pi * x) * rng.uniform(-1, 1)
            op = ry.assemble_Pstar(
                GridField(values=uo, bv=1.0),
                GridField(values=vo, bv=0.0),
                GridField(values=wo, bv=1.0),
            )
            rep = ry.elliptic_form_check(op, trials=2000, seed=100 + trial)
            assert rep.passed, f"triple {trial}: worst slack {rep.worst_slack}"


    @pytest.mark.parametrize("trials", [300, 100])
    def test_blocked_check_matches_the_per_sample_loop(self, trials):
        # the per-sample loop the blocked check replaced, kept as the reference
        rng_op = np.random.default_rng(3)
        n = 48
        x = sp.grid(n)
        uo = 1.0 + 0.2 * np.sin(np.pi * x) * rng_op.uniform(-1, 1)
        wo = 1.0 + 0.2 * np.sin(np.pi * x) * rng_op.uniform(-1, 1) + 0.1 * np.sin(3 * np.pi * x)
        op = ry.assemble_Pstar(
            GridField(values=uo, bv=1.0), GridField(values=0.1 * x, bv=0.0), GridField(values=wo, bv=1.0)
        )
        rep = ry.elliptic_form_check(op, trials=trials, seed=5)
        A = ry._principal_matrix(op)
        h = op.h
        rng = np.random.default_rng(5)
        worst = np.inf
        ok = True
        for _ in range(trials):
            q = rng.normal(size=n)
            lhs = abs(h * float(q @ (A @ q)))
            dq2 = h * float(np.sum((np.diff(ry._pad(q, 0.0)) / h) ** 2))
            q2 = h * float(np.dot(q, q))
            slack = lhs - (rep.K * dq2 - rep.K_o * q2)
            worst = min(worst, slack)
            if slack < -1e-9 * max(1.0, lhs):
                ok = False
        assert rep.passed == ok
        assert rep.worst_slack == pytest.approx(worst, rel=1e-13, abs=0)

    def test_one_violating_row_fails_the_check(self, monkeypatch):
        n = 31
        op = ry.assemble_Pstar(
            GridField(values=np.ones(n), bv=1.0),
            GridField(values=np.zeros(n), bv=0.0),
            GridField(values=np.ones(n), bv=1.0),
        )
        assert ry.elliptic_form_check(op, trials=300, seed=1).passed
        # a principal part that vanishes on one direction: rows of q along it
        # violate the form, and a single such row in a block must fail it
        A = ry._principal_matrix(op)
        e = np.zeros(n)
        e[n // 2] = 1.0
        monkeypatch.setattr(ry, "_principal_matrix", lambda _op: A - np.outer(A @ e, e))
        assert ry.elliptic_form_check(op, trials=300, seed=1).passed  # random q barely see it
        real_rng = np.random.default_rng

        class OneRowAlong:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def normal(self, size):
                q = self._rng.normal(size=size)
                q[-1] = 1000.0 * e  # the last row of every block
                return q

        monkeypatch.setattr(ry.np.random, "default_rng", OneRowAlong)
        rep = ry.elliptic_form_check(op, trials=300, seed=1)
        assert not rep.passed and rep.worst_slack < 0


# ---------------------------------------------------------------------------
# sector & graph norm
# ---------------------------------------------------------------------------


class TestSectorAndGraphNorm:
    def _const_op(self, n=24):
        return ry.assemble_Pstar(
            GridField(values=np.ones(n), bv=1.0),
            GridField(values=np.zeros(n), bv=0.0),
            GridField(values=np.ones(n), bv=1.0),
        )

    def test_constant_coefficient_resolvent_constant(self):
        op = self._const_op()
        rep = ry.sector_check(op)
        # normal operator with real spectrum: M ~ 1/sin(pi - widest ray)
        assert rep.M_bound == pytest.approx(1.0 / math.sin(math.pi - rep.angle), rel=0.01)
        assert rep.omega_shift > float(np.linalg.eigvalsh(op.matrix).max())

    def test_real_lambda_right_of_shift(self):
        op = self._const_op()
        scale = float(np.abs(np.linalg.eigvalsh(op.matrix)).max())
        rep = ry.sector_check(op, extra_lambdas=[1.0, scale, 10 * scale])
        extras = [prod for lam, prod in rep.samples if abs(complex(lam).imag) == 0.0]
        assert extras and all(prod <= 1.0 + 1e-9 for prod in extras)

    def test_lambda_on_spectrum_errors(self):
        op = self._const_op()
        lam = float(np.linalg.eigvalsh(op.matrix).max())
        with pytest.raises(ValueError, match="sector violation"):
            ry.sector_check(op, extra_lambdas=[lam])

    def test_bad_ray_angle_rejected(self):
        with pytest.raises(ValueError):
            ry.sector_check(self._const_op(), ray_angles=(0.3 * math.pi,))

    def test_graph_norm_first_eigenvector_closed_form(self):
        n = 32
        op = self._const_op(n=n)
        h = 1.0 / (n + 1)
        lam1 = -4 / h**2 * math.sin(math.pi * h / 2) ** 2
        modes = np.zeros(n)
        modes[0] = 1.0
        g = sp.inverse_sine_transform(modes)
        pg = op.matrix @ g
        # eigenvector: P* g = lam1 g on the grid
        assert np.abs(pg - lam1 * g).max() <= 1e-9 * abs(lam1)
        ratio = sp.norm_Hk(modes, 2) / (
            sp.norm_Hk(modes, 0) + sp.norm_Hk(sp.sine_transform(pg), 0)
        )
        expected = math.sqrt(1 + math.pi**2 + math.pi**4) / (1 + abs(lam1))
        assert ratio == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# linear parabolic solve
# ---------------------------------------------------------------------------


class TestLinearParabolicSolve:
    def _heat_op(self, n):
        return ry.assemble_Pstar(
            GridField(values=np.ones(n), bv=1.0),
            GridField(values=np.zeros(n), bv=0.0),
            GridField(values=np.ones(n), bv=1.0),
        )

    def test_heat_decay_exact_for_discrete_operator(self):
        n = 64
        op = self._heat_op(n)
        modes = np.zeros(n)
        modes[2] = 1.0
        u0 = sp.inverse_sine_transform(modes)
        T, Nt = 0.02, 32
        path = ry.linear_parabolic_solve(op, [np.zeros(n)] * (Nt + 1), u0, T, Nt)
        got = sp.sine_transform(path.values[-1])[2]
        h = 1.0 / (n + 1)
        lam = -4 / h**2 * math.sin(3 * math.pi * h / 2) ** 2
        assert abs(got - math.exp(lam * T)) <= 5e-14

    def test_heat_decay_h2_convergence_to_continuum(self):
        errs = []
        T, Nt = 0.02, 16
        for n in (32, 64):
            op = self._heat_op(n)
            modes = np.zeros(n)
            modes[0] = 1.0
            u0 = sp.inverse_sine_transform(modes)
            path = ry.linear_parabolic_solve(op, [np.zeros(n)] * (Nt + 1), u0, T, Nt)
            got = sp.sine_transform(path.values[-1])[0]
            errs.append(abs(got - math.exp(-math.pi**2 * T)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_constant_forcing_steady_state(self):
        n = 48
        op = self._heat_op(n)
        F = np.sin(np.pi * sp.grid(n))
        path = ry.linear_parabolic_solve(op, [F] * 129, np.zeros(n), 3.0, 128)
        steady = -np.linalg.solve(op.matrix, F)
        assert np.abs(path.values[-1] - steady).max() <= 1e-12

    def test_initial_value_exact(self):
        n = 16
        op = self._heat_op(n)
        u0 = np.sin(np.pi * sp.grid(n)) * 0.3
        path = ry.linear_parabolic_solve(op, [np.zeros(n)] * 5, u0, 0.1, 4)
        assert np.array_equal(path.values[0], u0)

    def test_shape_validation(self):
        n = 8
        op = self._heat_op(n)
        with pytest.raises(ValueError):
            ry.linear_parabolic_solve(op, [np.zeros(n)] * 3, np.zeros(n), 0.1, 4)
        with pytest.raises(ValueError):
            ry.linear_parabolic_solve(op, [np.zeros(n)] * 5, np.zeros(n), 0.1, 0)


# ---------------------------------------------------------------------------
# gamma iteration
# ---------------------------------------------------------------------------


class TestGammaIterate:
    def test_equilibrium_fixed_in_one_iteration(self):
        p = base_params()
        k = n = 32
        eq = ry.equilibrium_state(p, k, n)
        guess = ry._constant_path(eq.u, 1e-3, 12)
        u_fix, rep = ry.gamma_iterate(guess, p, eq.vw, 1e-3, tol=1e-10)
        assert rep.converged and rep.iterations == 1
        assert np.abs(u_fix.values - eq.u.values).max() == 0.0

    def test_initial_sample_is_datum_bitwise(self):
        p = base_params()
        k = n = 32
        u0 = bump_pressure(n, amp=0.07)
        guess = ry._constant_path(u0, 5e-3, 16)
        u_fix, rep = ry.gamma_iterate(guess, p, bump_state(k), 5e-3, tol=1e-10)
        assert np.array_equal(u_fix.values[0], u0.values)
        assert u_fix.bv == 1.0

    def test_contraction_ratio_small_at_short_horizon(self):
        p = base_params()
        k = n = 32
        guess = ry._constant_path(bump_pressure(n), 0.01, 16)
        u_fix, rep = ry.gamma_iterate(guess, p, bump_state(k), 0.01, tol=1e-11)
        assert rep.converged
        assert all(r <= 0.5 for r in rep.contraction_ratios)

    def test_divergence_surface_carries_measured_ratio(self):
        p = base_params(beta_F=4.0, beta_p=2.0, eps1=0.2)
        k = n = 32
        x = sp.grid(n)
        u0 = GridField(values=1.0 + 0.3 * np.sin(np.pi * x), bv=1.0)
        init = StateVW(v=np.zeros(k), w=np.concatenate([[-0.2], np.zeros(k - 1)]))
        guess = ry._constant_path(u0, 0.5, 16)
        with pytest.raises(GammaDivergence) as exc:
            ry.gamma_iterate(guess, p, init, 0.5, tol=1e-30, max_iter=4)
        err = exc.value
        assert np.isfinite(err.ratio) and err.ratio > 0
        assert np.isfinite(err.T_admissible) and err.T_admissible > 0
        assert isinstance(err, PicardDivergence)

    def test_quench_data_propagates_signal(self):
        p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
        k = n = 32
        u0 = GridField(values=np.full(n, 1.0), bv=1.0)
        guess = ry._constant_path(u0, 0.3, 16)
        with pytest.raises((QuenchSignal, PicardDivergence)):
            ry.gamma_iterate(guess, p, StateVW(v=np.zeros(k), w=np.zeros(k)), 0.3, tol=1e-9)

    def test_requires_uniform_grid_and_matching_shapes(self):
        p = base_params()
        k = n = 16
        u0 = bump_pressure(n)
        times = np.array([0.0, 0.3, 1.0]) * 1e-3
        path = PressurePath(times=times, values=np.tile(u0.values, (3, 1)), bv=u0.bv)
        with pytest.raises(ValueError):
            ry.gamma_iterate(path, p, bump_state(k), 1e-3)
        guess = ry._constant_path(u0, 1e-3, 4)
        with pytest.raises(ValueError):
            ry.gamma_iterate(guess, p, bump_state(k + 4), 1e-3)


# ---------------------------------------------------------------------------
# frechet_F and the Hoelder audit
# ---------------------------------------------------------------------------


def _gamma_solution(p, n, T, n_t, amp=0.1, tol=1e-11):
    u0 = bump_pressure(n, amp=amp)
    guess = ry._constant_path(u0, T, n_t)
    return ry.gamma_iterate(guess, p, bump_state(n), T, tol=tol, return_plate=True)


class TestFrechetF:
    def test_zero_direction_gives_zero(self):
        p = base_params()
        n = 24
        T, Nt = 5e-4, 6
        u_fix, _, plate = _gamma_solution(p, n, T, Nt)
        q = np.zeros((Nt + 1, n))
        dW = dp.frechet_W(p, q, plate, tol=1e-12)
        out = ry.frechet_F(u_fix, q, plate, dW, p)
        assert np.abs(out).max() == 0.0

    def test_matches_linearization_at_t0(self):
        p = base_params()
        n = 48
        T, Nt = 5e-4, 8
        u_fix, _, plate = _gamma_solution(p, n, T, Nt)
        rng = np.random.default_rng(7)
        qm = rng.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -2.5
        q = np.tile(qm, (Nt + 1, 1))
        dW = dp.frechet_W(p, q, plate, tol=1e-13)
        out = ry.frechet_F(u_fix, q, plate, dW, p)
        v0, w0 = ry._plate_fields(StateVW(plate.v[0], plate.w[0]), 1.0)
        op = ry.assemble_Pstar(GridField(u_fix.values[0], u_fix.bv), v0, w0)
        ref = op.matrix @ sp.inverse_sine_transform(qm)
        assert np.abs(out[0] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_directional_difference_first_order(self):
        p = base_params(beta_F=2.0, beta_p=1.0)
        n = 32
        T, Nt = 2e-3, 8
        u_fix, _, plate = _gamma_solution(p, n, T, Nt, tol=1e-12)
        rng = np.random.default_rng(9)
        qm = rng.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -2.5
        qg = sp.inverse_sine_transform(qm)
        q = np.tile(qm, (Nt + 1, 1))
        dW = dp.frechet_W(p, q, plate, tol=1e-13)
        analytic = ry.frechet_F(u_fix, q, plate, dW, p)[Nt]

        def F_at(path, plate_path, i):
            vg, wg = ry._plate_fields(StateVW(plate_path.v[i], plate_path.w[i]), 1.0)
            return ry.eval_F(GridField(path.values[i], path.bv), vg, wg, p).values

        base = F_at(u_fix, plate, Nt)
        errs = []
        for h_fd in (1e-2, 1e-3, 1e-4):
            pert = PressurePath(times=u_fix.times.copy(), values=u_fix.values + h_fd * qg, bv=u_fix.bv)
            plate2, _ = dp.picard_dispersive(p, pert, bump_state(n), T, tol=1e-13)
            fd = (F_at(pert, plate2, Nt) - base) / h_fd
            errs.append(np.abs(fd - analytic).max())
        orders = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 0.9 for o in orders), (errs, orders)


class TestHolderF:
    def _rand_path(self, seed, n, T, n_t, amp=0.05):
        r = np.random.default_rng(seed)
        base = r.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -3
        base = amp * base / max(1e-12, sp.norm_Hk(base, 2))
        times = np.linspace(0, T, n_t + 1)
        modes = np.array([base * (1.0 + 0.3 * math.sin(2 * math.pi * t / T)) for t in times])
        return PressurePath(times=times, values=1.0 + sp.inverse_sine_transform(modes), bv=1.0)

    def test_calibrate_then_verify_fresh_path(self):
        p = base_params()
        n = 32
        T, Nt = 5e-3, 10
        rng = np.random.default_rng(3)
        qm = rng.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -3
        q = np.array([qm * (1.0 + 0.2 * math.cos(2 * math.pi * i / Nt)) for i in range(Nt + 1)])
        cal = ry.holder_F_check(self._rand_path(1, n, T, Nt), q, 0.2, T, p, bump_state(n))
        assert cal.passed and cal.L_A > 0 and cal.L_B > 0
        ver = ry.holder_F_check(
            self._rand_path(2, n, T, Nt), q, 0.2, T, p, bump_state(n), L_A=2 * cal.L_A, L_B=2 * cal.L_B
        )
        assert ver.passed
        assert ver.measured_A <= ver.bound_A and ver.measured_B <= ver.bound_B

    def test_constant_path_seminorm_term_vanishes(self):
        p = base_params()
        n = 24
        T, Nt = 5e-3, 8
        path = ry._constant_path(bump_pressure(n), T, Nt)
        rep = ry.holder_F_check(path, np.zeros((Nt + 1, n)), 0.2, T, p, bump_state(n), L_A=1.0, L_B=1.0)
        # [u]_alpha = 0: bound A reduces to L_U * L_A; q == 0: measured_B = 0
        semi_u = dp.empirical_holder(path, 0.2)
        assert semi_u == 0.0
        assert rep.measured_B == 0.0
        assert rep.bound_B == 0.0

    def test_alpha_validation(self):
        p = base_params()
        n = 8
        path = ry._constant_path(bump_pressure(n), 1e-3, 4)
        with pytest.raises(ValueError):
            ry.holder_F_check(path, np.zeros((5, n)), 1.5, 1e-3, p, bump_state(n))


# ---------------------------------------------------------------------------
# method-of-lines oracle
# ---------------------------------------------------------------------------


class TestMolOracle:
    def test_mol_rhs_equilibrium_nearly_zero(self):
        p = base_params()
        eq = ry.equilibrium_state(p, 32, 32)
        du, dv, dw = ry.mol_rhs(eq.u.values, eq.vw.v, eq.vw.w, p)
        assert np.abs(du).max() == 0.0
        assert np.abs(dv).max() <= 1e-11
        assert np.abs(dw).max() == 0.0

    def test_mol_rhs_trivials(self):
        p = base_params()
        n = k = 16
        rng = np.random.default_rng(2)
        v = rng.normal(size=k) * 0.1
        du, dv, dw = ry.mol_rhs(np.full(n, 1.0), v, bump_state(k).w, p)
        assert np.array_equal(dw, v)  # kinematic identity dw/dt = v, exactly
        # frozen plate (v = 0): constant pressure over a static gap is stationary
        du0, _, dw0 = ry.mol_rhs(np.full(n, 1.0), np.zeros(k), bump_state(k).w, p)
        assert np.abs(du0).max() == 0.0
        assert np.abs(dw0).max() == 0.0

    @pytest.mark.parametrize("n", [16, 64])
    def test_mol_rhs_matches_the_grid_field_recipe(self, n):
        # the matrix right-hand side against eval_F on GridFields, the DST
        # gap forcing and the DST pressure coupling, within 1e-13 of the sup norm
        p = ModelParams(beta_F=2.0, beta_p=0.7, lift=BoundaryLift(1.1, 0.9), eps1=0.5)
        th1, th2 = p.lift.theta1, p.lift.theta2
        spec = sp.plate_eigenvalues(n)
        rng = np.random.default_rng(n)
        decay = np.arange(1, n + 1, dtype=float) ** -2
        for _ in range(5):
            u = th1 + 0.2 * rng.normal(size=n)
            v = rng.normal(size=n) * decay
            w = 0.1 * rng.normal(size=n) * decay
            v_grid = GridField(values=sp.inverse_sine_transform(v), bv=0.0)
            w_grid = GridField(values=sp.inverse_sine_transform(w) + th2, bv=th2)
            want_du = ry.eval_F(GridField(values=u, bv=th1), v_grid, w_grid, p).values
            want_dv = -spec.mu * w + (dp._G_modes(w, p) + p.beta_p * sp.sine_transform(u - th1))
            du, dv, dw = ry.mol_rhs(u, v, w, p)
            assert np.max(np.abs(du - want_du)) <= 1e-13 * np.max(np.abs(want_du))
            assert np.max(np.abs(dv - want_dv)) <= 1e-13 * np.max(np.abs(want_dv))
            assert np.array_equal(dw, v)

    def test_mol_rhs_quenches_between_coarse_nodes(self):
        # one tall coarse spike: every coarse gap is positive, but the sine
        # interpolant's side lobes close the gap on the dealiasing grid
        p = base_params()
        n = 16
        spike = np.zeros(n)
        spike[7] = 10.0
        w = sp.sine_transform(spike)
        assert min(sp.inverse_sine_transform(w).min() + 1.0, 1.0) > 0.0
        fine_min = sp.refined_min(w, 1.0)
        assert fine_min <= 0.0
        with pytest.raises(QuenchSignal, match="dealiasing grid") as exc:
            ry.mol_rhs(np.full(n, 1.0), np.zeros(n), w, p)
        assert exc.value.min_value == pytest.approx(fine_min, abs=1e-12)
        # a gap closed at a coarse node is reported first
        w_closed = w - sp.sine_transform(np.full(n, 2.0))
        with pytest.raises(QuenchSignal, match="evaluating F"):
            ry.mol_rhs(np.full(n, 1.0), np.zeros(n), w_closed, p)

    def test_mol_rhs_rejects_non_finite_input(self):
        p = base_params()
        n = 16
        w = bump_state(n).w
        u = np.full(n, 1.0)
        u[3] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            ry.mol_rhs(u, np.zeros(n), w, p)
        v = np.zeros(n)
        v[5] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            ry.mol_rhs(np.full(n, 1.0), v, w, p)

    def test_oracle_builds_grid_fields_only_for_stored_samples(self, monkeypatch):
        # regression guard on the lean right-hand side: no per-stage GridField
        p = base_params()
        init = smooth_coupled_init(16)
        built = []
        post_init = GridField.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(GridField, "__post_init__", counting)
        traj = ry.integrate_reference(p, init, 2e-4, 2e-5, store_every=3)
        assert len(traj) == 5  # steps 3, 6, 9 and the last, plus the initial state
        assert len(built) == len(traj)

    def test_endgame_budget_has_its_own_signal_and_termination(self, monkeypatch):
        # a mode-1 dip to 0.01 falling at speed 1e3: the first full step closes
        # the gap inside a stage, so the oracle rolls back into its endgame
        p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
        n = 16
        w = np.zeros(n)
        w[0] = -0.99
        v = np.zeros(n)
        v[0] = -1e3
        init = CoupledState(u=GridField(values=np.full(n, 1.0), bv=1.0), vw=StateVW(v=v, w=w))
        dt = 0.25 / float(sp.plate_eigenvalues(n).omega[-1])
        with pytest.raises(QuenchSignal):  # the full budget resolves the touchdown
            ry.integrate_reference(p, init, 1e-3, dt, quench_eps=1e-3)
        monkeypatch.setattr(ry, "_ENDGAME_SUBSTEPS", 1)
        with pytest.raises(ry.EndgameBudgetSignal) as exc:
            ry.integrate_reference(p, init, 1e-3, dt, quench_eps=1e-3)
        sig = exc.value
        assert not isinstance(sig, QuenchSignal)
        assert sig.min_value > 1e-3 and sig.t == init.t
        assert sig.trajectory[-1].t == sig.t and len(sig.trajectory) == 2
        rep = ry.run_coupled(p, init, 1e-3)
        assert rep.termination == "endgame_budget"
        assert rep.quench_time is None
        assert "t=0 " in rep.note and "min w=" in rep.note

    def test_linear_case_matches_semigroup_fourth_order(self):
        p0 = base_params(beta_F=0.0, beta_p=0.0)
        k = n = 24
        spec = sp.plate_eigenvalues(k)
        rng = np.random.default_rng(5)
        decay = np.arange(1, k + 1, dtype=float) ** -3
        v0 = rng.normal(size=k) * decay
        w0 = rng.normal(size=k) * decay
        init = CoupledState(
            u=GridField(values=np.full(n, 1.0), bv=1.0), vw=StateVW(v=v0.copy(), w=w0.copy())
        )
        T = 0.01
        errs = []
        for dt in (2e-5, 1e-5):
            traj = ry.integrate_reference(p0, init, T, dt, store_every=10**9)
            exact = sp.semigroup_apply(StateVW(v=v0, w=w0), spec, T)
            errs.append(
                max(np.abs(traj[-1].vw.v - exact.v).max(), np.abs(traj[-1].vw.w - exact.w).max())
            )
        order = math.log2(errs[0] / errs[1])
        assert 3.6 <= order <= 4.4, (errs, order)
        drift = abs(sp.norm_X(traj[-1].vw, spec) - sp.norm_X(StateVW(v=v0, w=w0), spec))
        assert drift <= 1e-6

    def test_nonlinear_self_convergence_fourth_order(self):
        p = base_params()
        n = k = 24
        init = smooth_coupled_init(n)
        T = 0.01
        finals = {}
        for dt in (4e-5, 2e-5, 1e-5):
            traj = ry.integrate_reference(p, init, T, dt, store_every=10**9)
            finals[dt] = traj[-1].u.values
        d1 = np.abs(finals[4e-5] - finals[2e-5]).max()
        d2 = np.abs(finals[2e-5] - finals[1e-5]).max()
        order = math.log2(d1 / d2)
        assert 3.5 <= order <= 4.5, (d1, d2, order)

    def test_step_size_violation(self):
        p = base_params()
        init = smooth_coupled_init(16)
        with pytest.raises(ValueError, match="step-size"):
            ry.integrate_reference(p, init, 0.1, 1.0)

    def test_pressure_blowup_signal(self):
        p = base_params()
        n = k = 16
        init = smooth_coupled_init(n)
        spec = sp.plate_eigenvalues(k)
        dt = 0.4 / float(spec.omega[-1])
        with pytest.raises(BlowupSignal):
            ry.integrate_reference(p, init, 0.01, dt, u_cap=1.0 + 1e-6)


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------


class TestQuenchMonitor:
    def test_statuses(self):
        p = base_params()
        n = k = 16
        eps = 0.01
        # min gap = theta2 - a at the midpoint (mode-1 deflection)

        def status(u_vals, w_modes):
            return ry._status_of(u_vals, ry._w_min_fine(w_modes, p.lift.theta2), eps, 1e6)

        for a, expected in ((1.0 - eps / 2, "quench"), (0.1, "alive")):
            w = np.zeros(k)
            w[0] = -a
            assert status(np.full(n, 1.0), w) == expected
        assert status(np.full(n, 2e6), np.zeros(k)) == "pressure_blowup"

    def test_fine_grid_minimum_single_mode(self):
        # mode-1 dip: fine grid contains the midpoint, so the minimum is exact
        k = 16
        w = np.zeros(k)
        w[0] = -0.4
        assert ry._w_min_fine(w, 1.0) == pytest.approx(0.6, abs=1e-12)
        w[0] = 0.4  # upward bump: boundary is the minimum
        assert ry._w_min_fine(w, 1.0) == 1.0


# ---------------------------------------------------------------------------
# coupled driver
# ---------------------------------------------------------------------------


class TestRunCoupled:
    def test_smooth_run_matches_oracle(self):
        p = base_params()
        n = k = 48
        init = smooth_coupled_init(n)
        T = 0.02
        cfg = DriverConfig(n_t=32, tol=1e-9)
        rep = ry.run_coupled(p, init, T, cfg)
        assert rep.termination == "converged"
        assert rep.T_used == pytest.approx(T, rel=1e-12)
        spec = sp.plate_eigenvalues(k)
        traj = ry.integrate_reference(p, init, T, 0.4 / float(spec.omega[-1]), store_every=10**9)
        du = rep.final_state.u.values - traj[-1].u.values
        gap = sp.norm_Hk(sp.sine_transform(du), 1)
        scale = sp.norm_Hk(sp.sine_transform(traj[-1].u.values - 1.0), 1)
        h = 1.0 / (n + 1)
        dt = T / cfg.n_t
        assert gap <= max(1e-8, 5 * (h**2 + dt**2)) * max(scale, 1.0)
        assert gap <= 1e-5  # regression anchor well below the formula allowance
        # lower-bound invariant: the gap never dips below half its initial floor
        assert min(r.min_w for r in rep.series) >= 0.5 * rep.series[0].min_w

    def test_series_and_states_aligned(self):
        p = base_params()
        n = k = 32
        rep = ry.run_coupled(p, smooth_coupled_init(n), 0.01, DriverConfig(n_t=16, tol=1e-8))
        assert len(rep.series) == len(rep.states)
        ts = np.array([r.t for r in rep.series])
        assert np.all(np.diff(ts) > 0)
        assert ts[0] == 0.0
        assert np.isfinite(rep.compat_proxy)
        assert all(np.isfinite(r.mass_residual) for r in rep.series)
        assert all(np.isfinite(r.norm_X) for r in rep.series)

    def test_quench_run_agrees_with_oracle(self):
        p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
        n = k = 32
        init = CoupledState(
            u=GridField(values=np.full(n, 1.0), bv=1.0), vw=StateVW(v=np.zeros(k), w=np.zeros(k))
        )
        rep = ry.run_coupled(p, init, 2.0, DriverConfig(n_t=16, tol=1e-7))
        assert rep.termination == "quench"
        assert rep.quench_time is not None and rep.quench_time < 0.5
        assert rep.series[-1].min_w <= rep.quench_eps
        spec = sp.plate_eigenvalues(k)
        with pytest.raises(QuenchSignal) as exc:
            ry.integrate_reference(
                p, init, 2.0, 0.4 / float(spec.omega[-1]), store_every=10**9, quench_eps=rep.quench_eps
            )
        assert abs(exc.value.t - rep.quench_time) / exc.value.t <= 0.05

    def test_termination_quench_iff_threshold(self):
        # converged smooth run: min_w stays above quench_eps everywhere
        p = base_params()
        rep = ry.run_coupled(p, smooth_coupled_init(32), 0.01, DriverConfig(n_t=16, tol=1e-8))
        assert rep.termination == "converged"
        assert all(r.min_w > rep.quench_eps for r in rep.series)
        assert rep.quench_time is None

    def test_driver_requires_matching_shapes(self):
        p = base_params()
        init = CoupledState(u=bump_pressure(16), vw=bump_state(24))
        with pytest.raises(ValueError):
            ry.run_coupled(p, init, 0.01)
        with pytest.raises(ValueError, match="k_max == n"):
            ry.integrate_reference(p, init, 0.01, 1e-7)

    def test_pressure_floor_stop_has_its_own_termination(self):
        # u0 dips to 0.9 below the floor eps1 = 0.95: the first sample of the
        # first chunk ends the run with "pressure_floor" and says why
        p = base_params(eps1=0.95)
        n = 16
        u0 = GridField(values=1.0 - 0.1 * np.sin(np.pi * sp.grid(n)), bv=1.0)
        rep = ry.run_coupled(p, CoupledState(u=u0, vw=bump_state(n)), 0.01, DriverConfig(n_t=8, tol=1e-8))
        assert rep.termination == "pressure_floor"
        assert rep.note.startswith("pressure positivity floor eps1=0.95 violated")
        assert len(rep.states) == 2 and rep.quench_time is None

    def test_quenched_initial_state_returns_immediately(self):
        p = base_params()
        k = n = 16
        w = np.zeros(k)
        w[0] = -0.9999
        init = CoupledState(
            u=GridField(values=np.full(n, 1.0), bv=1.0), vw=StateVW(v=np.zeros(k), w=w)
        )
        rep = ry.run_coupled(p, init, 0.01, DriverConfig(quench_eps=1e-3))
        assert rep.termination == "quench"
        assert rep.T_used == 0.0


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


class TestContinueRun:
    def test_cocycle_identical_chunking(self):
        p = base_params()
        n = k = 32
        init = smooth_coupled_init(n)
        T = 0.02
        cfg = DriverConfig(n_t=16, tol=1e-10, chunk_init=T / 2, chunk_cap=T / 2)
        full = ry.run_coupled(p, init, T, cfg)
        half = ry.run_coupled(p, init, T / 2, cfg)
        joined = ry.continue_run(half, T / 2, cfg)
        assert joined.termination == "converged"
        assert len(joined.states) == len(full.states)
        worst = max(
            max(
                np.abs(a.u.values - b.u.values).max(),
                np.abs(a.vw.w - b.vw.w).max(),
                np.abs(a.vw.v - b.vw.v).max(),
            )
            for a, b in zip(full.states, joined.states)
        )
        assert worst <= 10 * cfg.tol

    def test_cocycle_different_chunking(self):
        p = base_params()
        n = k = 32
        init = smooth_coupled_init(n)
        T = 0.02
        tol = 1e-10
        # same step size on both routes; the only scheme difference is the
        # linearization refreeze at the T/2 restart, which must stay below
        # the iteration budget at this resolution
        full = ry.run_coupled(p, init, T, DriverConfig(n_t=128, tol=tol, chunk_init=T, chunk_cap=T))
        half = ry.run_coupled(p, init, T / 2, DriverConfig(n_t=64, tol=tol, chunk_init=T / 2, chunk_cap=T / 2))
        joined = ry.continue_run(half, T / 2)
        gap = max(
            np.abs(full.final_state.u.values - joined.final_state.u.values).max(),
            np.abs(full.final_state.vw.w - joined.final_state.vw.w).max(),
        )
        assert gap <= 10 * tol

    def test_zero_extension_identity(self):
        p = base_params()
        rep = ry.run_coupled(p, smooth_coupled_init(24), 0.005, DriverConfig(n_t=8, tol=1e-8))
        same = ry.continue_run(rep, 0.0)
        assert same.T_used == rep.T_used
        assert len(same.states) == len(rep.states)
        assert same.termination == "converged"

    def test_refuses_from_quench(self):
        p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
        n = k = 32
        init = CoupledState(
            u=GridField(values=np.full(n, 1.0), bv=1.0), vw=StateVW(v=np.zeros(k), w=np.zeros(k))
        )
        rep = ry.run_coupled(p, init, 2.0, DriverConfig(n_t=16, tol=1e-7))
        assert rep.termination == "quench"
        with pytest.raises(ValueError, match="quench"):
            ry.continue_run(rep, 0.1)

    def test_negative_extension_rejected(self):
        p = base_params()
        rep = ry.run_coupled(p, smooth_coupled_init(16), 0.002, DriverConfig(n_t=4, tol=1e-7))
        with pytest.raises(ValueError):
            ry.continue_run(rep, -0.1)


# ---------------------------------------------------------------------------
# balance diagnostics & fixtures
# ---------------------------------------------------------------------------


class TestMassBalance:
    def test_equilibrium_residual_zero(self):
        p = base_params()
        eq = ry.equilibrium_state(p, 24, 24)
        traj = [
            CoupledState(u=eq.u, vw=eq.vw, t=0.0),
            CoupledState(u=eq.u, vw=eq.vw, t=0.5),
            CoupledState(u=eq.u, vw=eq.vw, t=1.0),
        ]
        res = ry.mass_balance_residual(traj, p)
        assert np.abs(res).max() <= 1e-12

    def test_richardson_second_order(self):
        p = base_params()

        def peak(n, dt):
            init = smooth_coupled_init(n)
            traj = ry.integrate_reference(
                p, init, 0.01, dt, store_every=max(1, int(round(0.01 / dt)) // 16)
            )
            res = ry.mass_balance_residual(traj, p)
            return np.max(res[1:-1])

        r1 = peak(32, 2e-6)
        r2 = peak(64, 2e-6)
        assert 3.0 <= r1 / r2 <= 5.5, (r1, r2)

    @pytest.mark.parametrize("n", [16, 64])
    def test_batched_residual_equals_the_per_state_loop(self, n):
        # the stacked transform and row sums reproduce the state-by-state
        # recipe bitwise
        p = base_params()
        th1, th2 = p.lift.theta1, p.lift.theta2
        rng = np.random.default_rng(n)
        decay = np.arange(1, n + 1, dtype=float) ** -2
        traj = [
            CoupledState(
                u=GridField(values=th1 + 0.1 * rng.normal(size=n), bv=th1),
                vw=StateVW(v=np.zeros(n), w=0.1 * rng.normal(size=n) * decay),
                t=0.01 * i + 0.001 * rng.random(),
            )
            for i in range(20)
        ]
        h = 1.0 / (n + 1)
        mass, flux = [], []
        for s in traj:
            u = s.u.values
            mass.append(h * (th2 * th1 + float(((sp.inverse_sine_transform(s.vw.w) + th2) * u).sum())))
            ux0 = (-3.0 * th1 + 4.0 * u[0] - u[1]) / (2.0 * h)
            ux1 = (3.0 * th1 - 4.0 * u[-1] + u[-2]) / (2.0 * h)
            flux.append(th2**3 * th1 * (ux1 - ux0))
        want = np.abs(np.gradient(np.array(mass), np.array([s.t for s in traj]), edge_order=2) - np.array(flux))
        assert np.array_equal(ry.mass_balance_residual(traj, p), want)

    def test_short_trajectory_returns_nan(self):
        p = base_params()
        eq = ry.equilibrium_state(p, 8, 8)
        res = ry.mass_balance_residual([eq], p)
        assert res.size == 1 and np.isnan(res[0])


class TestEquilibriumState:
    def test_stationarity_and_gap(self):
        p = base_params(beta_F=2.0, beta_p=1.0)
        eq = ry.equilibrium_state(p, 32, 32)
        spec = sp.plate_eigenvalues(32)
        res = dp._G_modes(eq.vw.w, p) - spec.mu * eq.vw.w
        assert np.abs(res).max() <= 1e-11
        assert ry._w_min_fine(eq.vw.w, 1.0) > 0.5  # moderate forcing: plate well clear of touchdown
        assert np.all(eq.u.values == 1.0)

    def test_compat_proxy_zero_at_equilibrium(self):
        p = base_params()
        eq = ry.equilibrium_state(p, 16, 16)
        assert ry.compat_regularity_proxy(eq, p) == 0.0
