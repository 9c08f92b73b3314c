"""Tests for the quasilinear pressure side: F, its linearization and
diagnostics, the semigroup linear solve, the outer contraction, the RK4
oracle, the coupled driver, continuation, and the balance diagnostics."""

import gc
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg

from gapflow import cli
from gapflow import dispersive as dp
from gapflow import reynolds as ry
from gapflow import spectral as sp
from gapflow import verify as vf
from gapflow.dispersive import ModelParams, PicardDivergence
from gapflow.reynolds import (
    BlowupSignal,
    CoupledState,
    DriverConfig,
    GammaDivergence,
)
from gapflow.spectral import QuenchSignal, StateVW

ROOT = Path(__file__).resolve().parent.parent


def base_params(beta_F=1.0, beta_p=0.5, eps1=0.5):
    return ModelParams(beta_F=beta_F, beta_p=beta_p, theta1=1.0, theta2=1.0, eps1=eps1)


def bump_state(k, amp=0.05):
    w = np.zeros(k)
    w[0] = amp
    return StateVW(v=np.zeros(k), w=w)


def bump_pressure(n, amp=0.1):
    x = sp.grid(n)
    return 1.0 + amp * np.sin(np.pi * x)


def heat_op(n):
    return ry.assemble_Pstar(np.ones(n), np.zeros(n), np.ones(n), base_params())


def smooth_coupled_init(n):
    return CoupledState(u=bump_pressure(n), vw=bump_state(n))


def gap_min_fine(w_modes, theta2):
    """The driver's gap minimum of plate modes (one per row): sp.gap_min over the pad-2 refined grid."""
    return sp.gap_min(sp.refined_values(w_modes, theta2), theta2)


def trajectory_of(states):
    """The Trajectory whose rows are the given coupled states."""
    return ry.Trajectory(
        t=np.array([s.t for s in states]),
        u=np.array([s.u for s in states]),
        v=np.array([s.vw.v for s in states]),
        w=np.array([s.vw.w for s in states]),
    )


def _equilibrium_state(p: ModelParams, k_max: int) -> CoupledState:
    """Stationary fixture on the n = k_max grid: u = theta1, v = 0, and w~ solving A w~ + G(w~) = 0.

    Newton iteration with the Jacobian approximated by its dominant spectral
    diagonal -mu (exact as beta_F -> 0), damped on residual increase, to a
    max-norm residual of 1e-12 within 200 steps.  With this state, D u = 0
    and v = 0 make F vanish identically on the grid, so the Gamma map has an
    exact constant fixed point.
    """
    tol, max_iter = 1e-12, 200
    spec = sp.plate_eigenvalues(k_max)
    w = np.zeros(k_max)
    res = dp._G_modes(w, p) - spec.mu * w
    res_norm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if res_norm <= tol:
            break
        step = res / spec.mu
        s = 1.0
        while True:
            w_try = w + s * step
            try:
                res_try = dp._G_modes(w_try, p) - spec.mu * w_try
            except QuenchSignal:
                s /= 2.0
                if s < 1e-8:
                    raise RuntimeError("equilibrium Newton step collapsed (gap closed)")
                continue
            try_norm = float(np.max(np.abs(res_try)))
            if try_norm < res_norm or s < 1e-8:
                w, res, res_norm = w_try, res_try, try_norm
                break
            s /= 2.0
    else:
        raise RuntimeError(f"equilibrium iteration stalled at residual {res_norm:.3e}")
    th1 = p.theta1
    u = np.full(k_max, th1)
    return CoupledState(u=u, vw=StateVW(v=np.zeros(k_max), w=w), t=0.0)


# ---------------------------------------------------------------------------
# eval_F
# ---------------------------------------------------------------------------


class TestEvalF:
    def test_zero_at_lifted_constants(self):
        n = 23
        u = np.full(n, 1.0)
        v = np.zeros(n)
        w = 1.0 + 0.3 * np.sin(np.pi * sp.grid(n))
        F = ry.eval_F(u, v, w, base_params())
        assert np.abs(F).max() == 0.0

    def test_velocity_term_only(self):
        n = 17
        u = np.full(n, 1.0)
        v = np.ones(n)
        w = np.full(n, 2.0)
        F = ry.eval_F(u, v, w, ModelParams(beta_F=1.0, beta_p=0.5, theta1=1.0, theta2=2.0, eps1=0.5))
        assert np.allclose(F, -0.5, rtol=0, atol=1e-15)

    def test_quench_raises(self):
        n = 9
        u = np.full(n, 1.0)
        v = np.zeros(n)
        w_vals = np.full(n, 0.5)
        w_vals[4] = 0.0
        with pytest.raises(QuenchSignal):
            ry.eval_F(u, v, w_vals, ModelParams(beta_F=1.0, beta_p=0.5, theta1=1.0, theta2=0.5, eps1=0.5))

    @pytest.mark.parametrize("field", ["u", "v", "w"])
    def test_a_nan_sample_raises(self, field):
        n = 9
        samples = {"u": np.full(n, 1.0), "v": np.zeros(n), "w": np.full(n, 1.0)}
        samples[field][4] = np.nan
        with pytest.raises(ValueError, match="F values must be finite"):
            ry.eval_F(samples["u"], samples["v"], samples["w"], base_params())

    def test_eval_F_on_a_plate_path_is_row_wise(self):
        p = base_params()
        n, n_t = 16, 8
        rng = np.random.default_rng(3)
        decay = np.arange(1, n + 1, dtype=float) ** -2
        times = np.linspace(0.0, 0.01, n_t + 1)
        u_path = 1.0 + 0.1 * rng.normal(size=(n_t + 1, n))
        plate = dp.VWPath(times=times, v=rng.normal(size=(n_t + 1, n)) * decay, w=0.1 * rng.normal(size=(n_t + 1, n)) * decay)
        F = ry.eval_F(u_path, *dp.plate_fields(plate, 1.0), p)
        for u, v, w, row in zip(u_path, plate.v, plate.w, F):
            v_grid, w_grid = dp.plate_fields(StateVW(v, w), 1.0)
            assert np.array_equal(row, ry.eval_F(u, v_grid, w_grid, p))
        # one node with a closed gap quenches the whole path
        plate.w[5] = sp.sine_transform(np.full(n, -2.0))
        with pytest.raises(QuenchSignal):
            ry.eval_F(u_path, *dp.plate_fields(plate, 1.0), p)

    def test_eval_F_on_a_stack_of_pairs_is_row_wise(self):
        # the (2, rows, n) stack of verify.lipschitz_F_check: pairs of pressure
        # rows at one plate state, its v and w broadcast to the stack
        p = base_params()
        n, rows = 12, 5
        rng = np.random.default_rng(4)
        u = 1.0 + 0.1 * rng.normal(size=(2, rows, n))
        decay = np.arange(1, n + 1, dtype=float) ** -2
        v, w = dp.plate_fields(StateVW(rng.normal(size=n) * decay, 0.1 * rng.normal(size=n) * decay), 1.0)
        v, w = np.broadcast_to(v, u.shape), np.broadcast_to(w, u.shape)
        F = ry.eval_F(u, v, w, p)
        assert F.shape == u.shape
        for i, j in np.ndindex(2, rows):
            assert np.array_equal(F[i, j], ry.eval_F(u[i, j], v[i, j], w[i, j], p))
        # a closed row quenches the stack with its own minimum: the first
        # closed row in C order, not the deepest
        w = w.copy()
        w[0, 3, 4] = -0.25
        w[1, 1, 7] = -0.5
        with pytest.raises(QuenchSignal) as closed:
            ry.eval_F(u, v, w, p)
        assert closed.value.min_value == -0.25

    def test_lipschitz_in_u_below_theory_constant(self):
        p = base_params()
        n = k = 48
        w0m = np.concatenate([[0.05], np.zeros(k - 1)])
        init = StateVW(v=np.zeros(k), w=w0m)
        u0 = np.full(n, 1.0)
        tc = dp.theory_constants(p, u0, init)
        w0 = dp.gap_field(init, 1.0)
        rng = np.random.default_rng(11)
        v_field = np.zeros(n)
        decay = np.arange(1, k + 1, dtype=float) ** -3
        worst = 0.0
        for _ in range(200):
            m1 = rng.normal(size=k) * decay
            m2 = rng.normal(size=k) * decay
            m1 *= 0.2 / max(1e-12, sp.norm_Hk(m1, 2))
            m2 *= 0.2 / max(1e-12, sp.norm_Hk(m2, 2))
            u1 = 1.0 + sp.inverse_sine_transform(m1)
            u2 = 1.0 + sp.inverse_sine_transform(m2)
            dF = ry.eval_F(u1, v_field, w0, p) - ry.eval_F(u2, v_field, w0, p)
            num = sp.norm_Hk(sp.sine_transform(dF), 0)
            worst = max(worst, num / sp.norm_Hk(m1 - m2, 2))
        assert 0.0 < worst <= tc.L_e


# ---------------------------------------------------------------------------
# assemble_Pstar
# ---------------------------------------------------------------------------


class TestAssemblePstar:
    def test_constant_coefficients_is_laplacian(self):
        n = 40
        u = np.ones(n)
        v = np.zeros(n)
        w = np.ones(n)
        op = ry.assemble_Pstar(u, v, w, base_params())
        h = 1.0 / (n + 1)
        lap = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / h**2
        assert np.allclose(op, lap, rtol=1e-13, atol=0.0)
        eigs = np.sort(np.linalg.eigvalsh(op))
        exact = np.sort([-4 / h**2 * math.sin(j * math.pi * h / 2) ** 2 for j in range(1, n + 1)])
        assert np.abs(eigs - exact).max() <= 1e-9 * np.abs(exact).max()

    def test_eigenvalue_order_h2(self):
        errs = []
        for n in (32, 64):
            u = np.ones(n)
            op = ry.assemble_Pstar(u, np.zeros(n), np.ones(n), base_params())
            lam1 = np.max(np.linalg.eigvalsh(op))
            errs.append(abs(lam1 + math.pi**2))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_positivity_violations(self):
        n = 8
        good_u = np.ones(n)
        v = np.zeros(n)
        good_w = np.ones(n)
        bad = np.ones(n)
        bad[3] = -0.1
        with pytest.raises(ValueError):
            ry.assemble_Pstar(bad, v, good_w, base_params())
        with pytest.raises(ValueError):
            ry.assemble_Pstar(good_u, v, bad, base_params())


# ---------------------------------------------------------------------------
# the propagator of P*
# ---------------------------------------------------------------------------


def augmented_propagator(m, dt):
    """E, K1, K2 as blocks of one expm of [[dt P*, I, 0], [0, 0, I], [0, 0, 0]]: the reference."""
    n = m.shape[0]
    aug = np.zeros((3 * n, 3 * n))
    aug[:n, :n] = dt * m
    aug[:n, n : 2 * n] = np.eye(n)
    aug[n : 2 * n, 2 * n :] = np.eye(n)
    big = scipy.linalg.expm(aug)
    return big[:n, :n], dt * big[:n, n : 2 * n], dt * big[:n, 2 * n :]


SWEEP_CELL_256 = """[params]
beta_F = 1.0
beta_p = 0.5
[init]
kind = single-bump
u_amp = 0.1
w_amp = 0.05
v_amp = 0.1
[discretization]
k_max = 256
n = 256
N_t = 32
[run]
T = 0.2
tol = 1e-9
"""


@pytest.fixture(scope="module")
def run_operators(tmp_path_factory):
    """{run: [(P*, dt), ...]} for every propagator a simulate run builds."""
    configs = {
        "reference.ini": cli._load_config(str(ROOT / "configs" / "reference.ini")),
        "quench.ini": cli._load_config(str(ROOT / "configs" / "quench.ini")),
        "sweep cell n = 256": cli.parse_config(SWEEP_CELL_256),
    }
    found = {}
    exact = ry._propagator
    for name, cfg in configs.items():
        seen = found[name] = {}

        def spy(op, dt):
            seen[id(op), dt] = (op, dt)
            return exact(op, dt)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ry, "_propagator", spy)
            cli.cmd_simulate(cfg, out=str(tmp_path_factory.mktemp("run")), quiet=True)
    return {name: list(seen.values()) for name, seen in found.items()}


def count_expm(monkeypatch):
    calls = []
    exact = ry.expm

    def counting(a):
        calls.append(a.shape)
        return exact(a)

    monkeypatch.setattr(ry, "expm", counting)
    return calls


class TestPropagator:
    # Bounds on |eigen route - reference| / sup|reference| for (E, K1, K2),
    # the reference's own rounding included.  Measured: reference.ini 3.0e-15,
    # 2.2e-15, 2.1e-15; quench.ini 1.5e-14, 6.0e-15, 4.0e-15; the n = 256
    # cell 1.2e-13, 4.7e-14, 3.1e-14.
    @pytest.mark.parametrize(
        "run, tol",
        [
            ("reference.ini", (5e-15, 5e-15, 5e-15)),
            ("quench.ini", (2e-14, 1e-14, 1e-14)),
            ("sweep cell n = 256", (2e-13, 1e-13, 1e-13)),
        ],
    )
    def test_eigen_route_matches_the_augmented_expm(self, run_operators, run, tol):
        ops = run_operators[run]
        for op, dt in ops:
            assert ry._symmetrized_eigen(op) is not None, "a shipped run left the eigen route"
            got = ry._propagator(op, dt)
            for name, g, r, bound in zip(("E", "K1", "K2"), got, augmented_propagator(op, dt), tol):
                err = np.abs(g - r).max() / np.abs(r).max()
                assert err <= bound, f"{run}: {name} at dt={dt} off by {err:.3g} of its sup norm"

    @pytest.mark.parametrize(
        "z",
        [0.0, 1e-8, -1e-8, 1.0, np.nextafter(1.0, 2.0), -1.0, np.nextafter(-1.0, -2.0), 1.2, -50.0],
    )
    def test_phi_functions_against_mpmath(self, z):
        # |z| <= 1 takes phi_2's series, just past 1 the expm1 quotient
        phi1, phi2 = ry._phi12(np.array([z]))
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            Z = mpmath.mpf(z)
            want1 = mpmath.mpf(1) if z == 0 else mpmath.expm1(Z) / Z
            want2 = mpmath.mpf(0.5) if z == 0 else (mpmath.expm1(Z) - Z) / Z**2
            assert abs(phi1[0] - want1) <= 2 * eps * abs(want1)
            assert abs(phi2[0] - want2) <= 2 * eps * abs(want2)

    def test_sign_changing_off_diagonals_take_the_augmented_expm(self, monkeypatch):
        # w drops tenfold where u triples: the face flux of row 6 turns the
        # coupling to its left neighbour negative (sub_5 < 0 < sup_5)
        n = 12
        u = np.ones(n)
        u[6:] = 3.0
        w = np.ones(n)
        w[6:] = 0.1
        op = ry.assemble_Pstar(u, np.zeros(n), w, base_params())
        sub, sup = np.diag(op, -1), np.diag(op, 1)
        assert np.any(sub * sup <= 0.0)
        calls = count_expm(monkeypatch)
        got = ry._propagator(op, 1e-3)
        assert calls == [(3 * n, 3 * n)]
        for g, r in zip(got, augmented_propagator(op, 1e-3)):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("cond, route", [(0.99 * ry._COND_S_MAX, "eigen"), (1.01 * ry._COND_S_MAX, "expm")])
    def test_ill_conditioned_symmetrizer_takes_the_augmented_expm(self, monkeypatch, cond, route):
        # a diagonal similarity of the heat operator: same spectrum, cond(S) =
        # cond; just under the limit the eigen route is off by 2.3e-13, about
        # cond(S) times the unit roundoff (1.1e-15 at cond(S) = 1)
        n = 12
        heat = heat_op(n)
        r = cond ** (1.0 / (n - 1))
        m = heat.copy()
        idx = np.arange(n - 1)
        m[idx + 1, idx] *= r
        m[idx, idx + 1] /= r
        calls = count_expm(monkeypatch)
        got = ry._propagator(m, 1e-3)
        ref = augmented_propagator(m, 1e-3)
        if route == "expm":
            assert calls == [(3 * n, 3 * n)]
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))
        else:
            assert calls == []
            assert all(np.abs(g - r).max() <= 1e-12 * np.abs(r).max() for g, r in zip(got, ref))


# ---------------------------------------------------------------------------
# elliptic form
# ---------------------------------------------------------------------------


def unit_fields(n):
    """(u0, w0) = (1, 1), with the traces 1 of base_params(): the coefficients of the constant-coefficient P*."""
    return np.ones(n), np.ones(n)


class TestEllipticForm:
    def test_constant_coefficient_form_is_gradient_norm(self):
        n = 31
        A = ry._principal_matrix(*unit_fields(n), base_params())
        h = 1.0 / (n + 1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.normal(size=n)
            lhs = abs(h * float(q @ (A @ q)))
            dq2 = h * float(np.sum((np.diff(np.concatenate([[0.0], q, [0.0]])) / h) ** 2))
            assert abs(lhs - dq2) <= 1e-12 * dq2

    def test_formula_constants_and_pass(self):
        rep = ry.elliptic_form_check(*unit_fields(31), base_params())
        assert rep.worst_slack >= 0
        assert rep.K == 0.5  # eps1 = kappa = 1
        assert rep.K_o == pytest.approx(rep.K2**2 / 2.0)

    def test_random_smooth_triples_pass(self):
        rng = np.random.default_rng(42)
        n = 48
        x = sp.grid(n)
        for trial in range(5):
            uo = 1.0 + 0.2 * np.sin(np.pi * x) * rng.uniform(-1, 1) + 0.1 * np.sin(2 * np.pi * x) * rng.uniform(-1, 1)
            wo = 1.0 + 0.2 * np.sin(np.pi * x) * rng.uniform(-1, 1) + 0.1 * np.sin(3 * np.pi * x) * rng.uniform(-1, 1)
            rng.uniform(-1, 1)  # the amplitude of the triple's v0, which the check does not read
            rep = ry.elliptic_form_check(uo, wo, base_params())
            assert rep.worst_slack >= 0, f"triple {trial}: worst slack {rep.worst_slack}"

    def test_invalid_coefficients_raise_as_in_the_assembly(self):
        # the check validates u0 and w0 where the assembly does (ry._faces):
        # each bad pair raises the same ValueError from both
        n = 8
        p = base_params()
        u, w = unit_fields(n)
        bad = np.ones(n)
        bad[3] = -0.1
        nan = np.ones(n)
        nan[3] = np.nan
        cases = [
            (u, np.ones(n + 1), "must share the grid"),
            (np.ones((2, n)), np.ones((2, n)), "must share the grid"),
            (bad, w, "u0 must be strictly positive"),
            (u, bad, "w0 must be strictly positive"),
            (nan, w, "must be finite"),
            (u, nan, "must be finite"),
        ]
        for u0, w0, message in cases:
            with pytest.raises(ValueError, match=message):
                ry.elliptic_form_check(u0, w0, p)
            with pytest.raises(ValueError, match=message):
                ry.assemble_Pstar(u0, np.zeros(w0.shape), w0, p)
        with pytest.raises(ValueError, match="must share the grid"):
            ry.assemble_Pstar(u, np.zeros(n + 1), w, p)
        with pytest.raises(ValueError, match="must be finite"):
            ry.assemble_Pstar(u, np.r_[np.zeros(3), np.nan, np.zeros(n - 4)], w, p)

    def test_no_draw_of_the_per_sample_loop_falls_below_the_exact_worst_case(self):
        # the per-sample loop of the sampler the exact check replaced, kept as
        # the reference: every draw's slack per unit norm is at least
        # worst_slack, and q along the least eigenvector of the form attains it
        rng_op = np.random.default_rng(3)
        n = 48
        x = sp.grid(n)
        u0 = 1.0 + 0.2 * np.sin(np.pi * x) * rng_op.uniform(-1, 1)
        w0 = 1.0 + 0.2 * np.sin(np.pi * x) * rng_op.uniform(-1, 1) + 0.1 * np.sin(3 * np.pi * x)
        rep = ry.elliptic_form_check(u0, w0, base_params())
        A = ry._principal_matrix(u0, w0, base_params())
        h = 1.0 / (n + 1)

        def unit_slack(q):
            lhs = -h * float(q @ (A @ q))
            dq2 = h * float(np.sum((np.diff(ry._pad(q, 0.0)) / h) ** 2))
            q2 = h * float(np.dot(q, q))
            return (lhs - (rep.K * dq2 - rep.K_o * q2)) / q2

        D = (np.eye(n + 1, n) - np.eye(n + 1, n, k=-1)) / h  # (Dq)_i = (q_i - q_{i-1}) / h, q_{-1} = q_n = 0
        form = -0.5 * (A + A.T) - rep.K * (D.T @ D) + rep.K_o * np.eye(n)
        rounding = 1e-12 * np.linalg.norm(form, 2)
        rng = np.random.default_rng(5)
        assert min(unit_slack(rng.normal(size=n)) for _ in range(300)) >= rep.worst_slack - rounding
        least = np.linalg.eigh(form)[1][:, 0]
        assert unit_slack(least) == pytest.approx(rep.worst_slack, rel=0, abs=rounding)

    @pytest.mark.parametrize("mutation", ["zeroed direction", "sign flip"])
    def test_a_principal_part_that_breaks_the_estimate_fails_the_check(self, monkeypatch, mutation):
        # a principal part that vanishes along one direction, or one of the
        # wrong sign: random q barely see the first, and |<q, Aq>| hid the
        # second; the exact worst case fails both, here and in verify
        n = 31
        u0, w0 = unit_fields(n)
        p = base_params()
        assert ry.elliptic_form_check(u0, w0, p).worst_slack >= 0
        real = ry._principal_matrix

        def mutated(u0, w0, p):
            A = real(u0, w0, p)
            e = np.zeros(u0.size)
            e[u0.size // 2] = 1.0
            return A - np.outer(A @ e, e) if mutation == "zeroed direction" else -A

        monkeypatch.setattr(ry, "_principal_matrix", mutated)
        assert ry.elliptic_form_check(u0, w0, p).worst_slack < 0
        coercivity = vf.SUITES["elliptic"](0)[0]
        assert coercivity.name == "elliptic.coercivity"
        assert not coercivity.passed and coercivity.measured < coercivity.bound


# ---------------------------------------------------------------------------
# sector & graph norm
# ---------------------------------------------------------------------------


class TestSectorAndGraphNorm:
    def _const_op(self, n=24):
        return heat_op(n)

    def test_constant_coefficient_resolvent_constant(self):
        op = self._const_op()
        rep = ry.sector_check(op)
        # normal operator with real spectrum: M ~ 1/sin(pi - widest ray)
        assert rep.M_bound == pytest.approx(1.0 / math.sin(math.pi - rep.angle), rel=0.01)
        assert rep.omega_shift > float(np.linalg.eigvalsh(op).max())

    def test_real_lambda_right_of_shift(self):
        op = self._const_op()
        scale = float(np.abs(np.linalg.eigvalsh(op)).max())
        rep = ry.sector_check(op, extra_lambdas=[1.0, scale, 10 * scale])
        extras = [prod for lam, prod in rep.samples if abs(complex(lam).imag) == 0.0]
        assert extras and all(prod <= 1.0 + 1e-9 for prod in extras)

    def test_lambda_on_spectrum_errors(self):
        op = self._const_op()
        lam = float(np.linalg.eigvalsh(op).max())
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
        pg = op @ g
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
    def test_heat_decay_exact_for_discrete_operator(self):
        n = 64
        op = heat_op(n)
        modes = np.zeros(n)
        modes[2] = 1.0
        u0 = sp.inverse_sine_transform(modes)
        T, Nt = 0.02, 32
        out = ry.linear_parabolic_solve(ry._propagator(op, T / Nt), [np.zeros(n)] * (Nt + 1), u0)
        got = sp.sine_transform(out[-1])[2]
        h = 1.0 / (n + 1)
        lam = -4 / h**2 * math.sin(3 * math.pi * h / 2) ** 2
        assert abs(got - math.exp(lam * T)) <= 5e-14

    def test_heat_decay_h2_convergence_to_continuum(self):
        errs = []
        T, Nt = 0.02, 16
        for n in (32, 64):
            op = heat_op(n)
            modes = np.zeros(n)
            modes[0] = 1.0
            u0 = sp.inverse_sine_transform(modes)
            out = ry.linear_parabolic_solve(ry._propagator(op, T / Nt), [np.zeros(n)] * (Nt + 1), u0)
            got = sp.sine_transform(out[-1])[0]
            errs.append(abs(got - math.exp(-math.pi**2 * T)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_constant_forcing_steady_state(self):
        n = 48
        op = heat_op(n)
        F = np.sin(np.pi * sp.grid(n))
        out = ry.linear_parabolic_solve(ry._propagator(op, 3.0 / 128), [F] * 129, np.zeros(n))
        steady = -np.linalg.solve(op, F)
        assert np.abs(out[-1] - steady).max() <= 1e-12

    def test_initial_value_exact(self):
        n = 16
        op = heat_op(n)
        u0 = np.sin(np.pi * sp.grid(n)) * 0.3
        out = ry.linear_parabolic_solve(ry._propagator(op, 0.1 / 4), [np.zeros(n)] * 5, u0)
        assert np.array_equal(out[0], u0)

    @pytest.mark.parametrize("route", ["eigen", "expm"])
    def test_march_is_bitwise_the_per_step_formula(self, route):
        # the state-free forcing kicks are formed for all steps before the
        # march; each step is still bitwise E out[m] + K1 F[m] + K2 (F[m+1] - F[m])
        n, Nt, T = 64, 16, 0.05
        u = 1.0 + 0.2 * np.sin(np.pi * sp.grid(n))
        w = np.ones(n)
        if route == "expm":  # the sign-changing off-diagonals of TestPropagator
            u[n // 2 :] = 3.0
            w[n // 2 :] = 0.1
        op = ry.assemble_Pstar(u, np.zeros(n), w, base_params())
        assert (ry._symmetrized_eigen(op) is None) == (route == "expm")
        rng = np.random.default_rng(5)
        F = rng.normal(size=(Nt + 1, n))
        u0 = rng.normal(size=n)
        E, K1, K2 = ry._propagator(op, T / Nt)
        out = ry.linear_parabolic_solve((E, K1, K2), F, u0)
        want = [u0]
        for m in range(Nt):
            want.append(E @ want[m] + K1 @ F[m] + K2 @ (F[m + 1] - F[m]))
        assert out.tobytes() == np.array(want).tobytes()

    def test_shape_validation(self):
        n = 8
        op = heat_op(n)
        with pytest.raises(ValueError, match="forcing and state sizes differ"):
            ry.linear_parabolic_solve(ry._propagator(op, 0.1 / 4), [np.zeros(n)] * 5, np.zeros(n + 1))


# ---------------------------------------------------------------------------
# gamma iteration
# ---------------------------------------------------------------------------


class TestGammaIterate:
    def test_equilibrium_fixed_in_one_iteration(self):
        p = base_params()
        k = n = 32
        eq = _equilibrium_state(p, k)
        u_fix, rep, _ = ry.gamma_iterate(p, eq, 1e-3, 12, tol=1e-10)
        assert rep.iterations == 1
        assert np.abs(u_fix - eq.u).max() == 0.0

    def test_initial_sample_is_datum_bitwise(self):
        p = base_params()
        k = n = 32
        T, n_t = 5e-3, 16
        u0 = bump_pressure(n, amp=0.07)
        u_fix, rep, plate = ry.gamma_iterate(p, CoupledState(u=u0, vw=bump_state(k)), T, n_t, tol=1e-10)
        assert np.array_equal(u_fix[0], u0)
        assert u_fix.shape == (n_t + 1, n)
        assert plate.times.tobytes() == np.linspace(0.0, T, n_t + 1).tobytes()

    def test_contraction_ratio_small_at_short_horizon(self):
        p = base_params()
        k = n = 32
        init = CoupledState(u=bump_pressure(n), vw=bump_state(k))
        u_fix, rep, _ = ry.gamma_iterate(p, init, 0.01, 16, tol=1e-11)
        assert all(r <= 0.5 for r in rep.contraction_ratios)

    def test_one_call_builds_the_plate_setup_once(self, monkeypatch):
        # the Duhamel coefficients and contraction constants depend only on the
        # start state and the time grid: one gamma_iterate call builds them
        # once for all of its plate solves, which still go through
        # picard_dispersive, one per outer iteration plus the returned plate;
        # each solve but the first starts from the plate path of the one before
        p = base_params()
        k = n = 32
        T, tol = 0.01, 1e-11
        init = CoupledState(u=bump_pressure(n), vw=bump_state(k))
        built = {"duhamel_coeffs": 0, "contraction_constants": 0}
        solves = []
        for name in built:

            def counted(*args, _name=name, _fn=getattr(dp, name)):
                built[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(dp, name, counted)
        picard = dp.picard_dispersive

        def counted_picard(*args, **kwargs):
            result = picard(*args, **kwargs)
            solves.append((args[0], kwargs["start"], result[0]))
            return result

        monkeypatch.setattr(dp, "picard_dispersive", counted_picard)
        u_fix, rep, plate = ry.gamma_iterate(p, init, T, 16, tol=tol)
        assert rep.iterations >= 3
        assert built == {"duhamel_coeffs": 1, "contraction_constants": 1}
        assert len(solves) == rep.iterations + 1 and all(s[0] is solves[0][0] for s in solves)
        assert solves[0][1] is None
        assert all(s[1] is prev[2] for prev, s in zip(solves, solves[1:])) and solves[-1][2] is plate
        monkeypatch.undo()
        # at ratios of 1e-5 the warm-started solve lands on the floating-point
        # fixed point of a cold standalone solve on the converged path
        alone, _ = dp.picard_dispersive(dp.plate_setup(p, init.vw, plate.times), u_fix, tol=0.01 * tol)
        assert alone.v.tobytes() == plate.v.tobytes() and alone.w.tobytes() == plate.w.tobytes()

    def test_plate_solves_are_as_exact_as_the_outer_step_needs(self, monkeypatch):
        # sweep 1 and the closing solve run at 0.01 tol; sweep k >= 2 at
        # max(0.01 tol, c d_{k-1}) with d_{k-1} the previous outer difference
        p = base_params()
        n = 32
        T, n_t, tol = 0.01, 16, 1e-11
        init = CoupledState(u=bump_pressure(n), vw=bump_state(n))
        tols, diffs = [], []
        picard, diff_norm = dp.picard_dispersive, dp.pressure_diff_norm

        def recorded_picard(*args, **kwargs):
            tols.append(kwargs["tol"])
            return picard(*args, **kwargs)

        def recorded_diff(a, b):
            diffs.append(diff_norm(a, b))
            return diffs[-1]

        monkeypatch.setattr(dp, "picard_dispersive", recorded_picard)
        monkeypatch.setattr(dp, "pressure_diff_norm", recorded_diff)
        inexact, rep, _ = ry.gamma_iterate(p, init, T, n_t, tol=tol)
        assert rep.iterations >= 3 and len(diffs) == rep.iterations and len(tols) == rep.iterations + 1
        assert tols[0] == tols[-1] == 0.01 * tol
        later = [max(0.01 * tol, ry._INNER_FORCING * d) for d in diffs[:-1]]
        assert tols[1:-1] == later
        assert max(later) > 0.01 * tol  # the schedule loosens an early sweep
        # with c = 0 every solve runs at 0.01 tol.  Both iterations stop
        # within tol of their last step, so each final iterate lies within
        # tol rho / (1 - rho) of the one fixed point (Banach's a posteriori
        # bound), and the two within twice that of each other
        monkeypatch.setattr(ry, "_INNER_FORCING", 0.0)
        tols.clear()
        exact, _, _ = ry.gamma_iterate(p, init, T, n_t, tol=tol)
        assert set(tols) == {0.01 * tol}
        rho = rep.banach_ratio
        assert 0.0 < rho < 1.0
        assert diff_norm(inexact, exact) <= 2.0 * tol * rho / (1.0 - rho)

    def test_one_call_builds_its_propagator_once(self, monkeypatch):
        # every sweep of a call marches the pressure with the step T / n_t of
        # its one time grid, so the call builds (E, K1, K2) once and hands the
        # same matrices to every march
        p = base_params()
        n = 32
        T, n_t = 0.01, 16
        init = CoupledState(u=bump_pressure(n), vw=bump_state(n))
        built, marched = [], []
        propagator, solve = ry._propagator, ry.linear_parabolic_solve

        def counted_propagator(matrix, dt):
            built.append(propagator(matrix, dt))
            return built[-1]

        def counted_solve(prop, *args):
            marched.append(prop)
            return solve(prop, *args)

        monkeypatch.setattr(ry, "_propagator", counted_propagator)
        monkeypatch.setattr(ry, "linear_parabolic_solve", counted_solve)
        _, rep, _ = ry.gamma_iterate(p, init, T, n_t, tol=1e-11)
        assert rep.iterations >= 3
        assert len(built) == 1 and len(marched) == rep.iterations
        assert all(prop is built[0] for prop in marched)

    def test_a_quench_run_builds_one_propagator_per_chunk_that_marches(self, monkeypatch):
        # configs/quench.ini makes 28 Gamma attempts; 17 of them reach a
        # pressure march, and each of those builds its propagator once.  The
        # other 11 end in their first plate solve and build none.
        cfg = cli._load_config(str(ROOT / "configs" / "quench.ini"))
        attempts = []  # per gamma_iterate call: [propagators built, pressure marches]
        gamma, propagator, solve = ry.gamma_iterate, ry._propagator, ry.linear_parabolic_solve

        def counted_gamma(*args, **kwargs):
            attempts.append([0, 0])
            return gamma(*args, **kwargs)

        def counted_propagator(matrix, dt):
            attempts[-1][0] += 1
            return propagator(matrix, dt)

        def counted_solve(*args):
            attempts[-1][1] += 1
            return solve(*args)

        monkeypatch.setattr(ry, "gamma_iterate", counted_gamma)
        monkeypatch.setattr(ry, "_propagator", counted_propagator)
        monkeypatch.setattr(ry, "linear_parabolic_solve", counted_solve)
        ry.run_coupled(cfg.model_params(), cfg.initial_state(), cfg.T, cfg.driver_config())
        assert len(attempts) == 28
        assert sum(built for built, _ in attempts) == 17
        assert all(built == (marches > 0) for built, marches in attempts)

    def test_warm_starts_cut_the_plate_sweeps_of_the_first_quench_chunk(self, monkeypatch):
        # the first chunk of configs/quench.ini, from the driver's initial guess
        cfg = cli._load_config(str(ROOT / "configs" / "quench.ini"))
        p, init = cfg.model_params(), cfg.initial_state()
        chunk = 0.05 * gap_min_fine(init.vw.w, p.theta2) ** 3 / p.beta_F
        picard = dp.picard_dispersive

        def sweeps(warm):
            reports = []

            def counted(*args, **kwargs):
                if not warm:
                    kwargs["start"] = None
                path, report = picard(*args, **kwargs)
                reports.append(report)
                return path, report

            monkeypatch.setattr(dp, "picard_dispersive", counted)
            u_fix, rep, _ = ry.gamma_iterate(p, init, chunk, cfg.n_t, tol=cfg.tol)
            assert len(reports) == rep.iterations + 1
            return sum(r.iterations for r in reports), rep.iterations

        warm, cold = sweeps(True), sweeps(False)
        assert warm[1] == cold[1]
        assert warm[0] < cold[0]

    def test_divergence_surface_carries_measured_ratio(self):
        p = base_params(beta_F=4.0, beta_p=2.0, eps1=0.2)
        k = n = 32
        x = sp.grid(n)
        u0 = 1.0 + 0.3 * np.sin(np.pi * x)
        init = CoupledState(u=u0, vw=StateVW(v=np.zeros(k), w=np.concatenate([[-0.2], np.zeros(k - 1)])))
        with pytest.raises(GammaDivergence) as exc:
            ry.gamma_iterate(p, init, 0.5, 16, tol=1e-30, max_iter=4)
        err = exc.value
        assert np.isfinite(err.ratio) and err.ratio > 0
        assert np.isfinite(err.T_admissible) and err.T_admissible > 0
        assert isinstance(err, PicardDivergence)

    def test_a_non_finite_pressure_iterate_raises_at_once(self, monkeypatch):
        # a march that returns inf raises ValueError before any plate solve
        # runs on the iterate, not a PicardDivergence after its sweeps
        p = base_params()
        n = 16
        solves, picard = [], dp.picard_dispersive

        def counted(*args, **kwargs):
            solves.append(1)
            return picard(*args, **kwargs)

        monkeypatch.setattr(ry, "linear_parabolic_solve", lambda propagator, F, u0_tilde: np.full_like(F, np.inf))
        monkeypatch.setattr(dp, "picard_dispersive", counted)
        with pytest.raises(ValueError, match="u values must be finite"):
            ry.gamma_iterate(p, CoupledState(u=bump_pressure(n), vw=bump_state(n)), 1e-3, 4)
        assert len(solves) == 1

    def test_quench_data_propagates_signal(self):
        p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
        k = n = 32
        u0 = np.full(n, 1.0)
        init = CoupledState(u=u0, vw=StateVW(v=np.zeros(k), w=np.zeros(k)))
        with pytest.raises((QuenchSignal, PicardDivergence)):
            ry.gamma_iterate(p, init, 0.3, 16, tol=1e-9)

    def test_requires_k_max_equal_to_n(self):
        p = base_params()
        n = 16
        with pytest.raises(ValueError, match="k_max == n"):
            ry.gamma_iterate(p, CoupledState(u=bump_pressure(n), vw=bump_state(n + 4)), 1e-3, 4)


# ---------------------------------------------------------------------------
# verify's F derivative (frechet_F) and Hoelder quotients
# ---------------------------------------------------------------------------


def _gamma_solution(p, n, T, n_t, amp=0.1, tol=1e-11):
    return ry.gamma_iterate(p, CoupledState(u=bump_pressure(n, amp=amp), vw=bump_state(n)), T, n_t, tol=tol)


class TestFrechetF:
    def test_zero_direction_gives_zero(self):
        p = base_params()
        n = 24
        T, Nt = 5e-4, 6
        u_fix, _, plate = _gamma_solution(p, n, T, Nt)
        q = np.zeros((Nt + 1, n))
        dW = vf.frechet_W(dp.plate_setup(p, bump_state(n), plate.times), q, plate, tol=1e-12)
        out = vf.frechet_F(u_fix, q, plate, dW, p)
        assert np.abs(out).max() == 0.0

    def test_closed_gap_reports_its_first_node_and_time(self):
        # nodes 3 and 5 are closed, node 5 deeper: the signal names node 3
        p = base_params()
        n, n_t = 16, 6
        times = np.linspace(0.0, 1e-3, n_t + 1)
        w = np.zeros((n_t + 1, n))
        w[3] = sp.sine_transform(np.full(n, -1.5))
        w[5] = sp.sine_transform(np.full(n, -3.0))
        plate = dp.VWPath(times, np.zeros_like(w), w)
        u_path = np.tile(bump_pressure(n), (n_t + 1, 1))
        zero = (np.zeros_like(w), np.zeros_like(w))
        with pytest.raises(QuenchSignal, match="assembling the F derivative") as exc:
            vf.frechet_F(u_path, np.zeros_like(w), plate, zero, p)
        assert exc.value.t == times[3]
        assert exc.value.min_value == (sp.inverse_sine_transform(w[3]) + 1.0).min() < 0.0

    def test_matches_linearization_at_t0(self):
        p = base_params()
        n = 48
        T, Nt = 5e-4, 8
        u_fix, _, plate = _gamma_solution(p, n, T, Nt)
        rng = np.random.default_rng(7)
        qm = rng.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -2.5
        q = np.tile(qm, (Nt + 1, 1))
        dW = vf.frechet_W(dp.plate_setup(p, bump_state(n), plate.times), q, plate, tol=1e-13)
        out = vf.frechet_F(u_fix, q, plate, dW, p)
        v0, w0 = dp.plate_fields(StateVW(plate.v[0], plate.w[0]), 1.0)
        op = ry.assemble_Pstar(u_fix[0], v0, w0, p)
        ref = op @ sp.inverse_sine_transform(qm)
        assert np.abs(out[0] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_follows_a_changed_stencil(self, monkeypatch):
        # a planted stencil with w^2 in place of w^3 in the flux: frechet_F
        # differentiates whatever eval_F evaluates, so with zero plate
        # directions it matches a central difference of the planted F
        p = base_params()
        n = 16
        T, Nt = 5e-4, 6
        u_fix, _, plate = _gamma_solution(p, n, T, Nt)

        def planted(up, v, wp):
            h = 1.0 / (up.shape[-1] - 1)
            div = ry._dq(ry._face_avg(wp**2 * up) * ry._dq(up, h), h)
            w = wp[..., 1:-1]
            return div / w - (v / w) * up[..., 1:-1]

        monkeypatch.setattr(ry, "_reynolds_padded", planted)
        rng = np.random.default_rng(3)
        q = np.tile(rng.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -2.5, (Nt + 1, 1))
        zero = (np.zeros_like(q), np.zeros_like(q))
        out = vf.frechet_F(u_fix, q, plate, zero, p)
        v, w = dp.plate_fields(plate, p.theta2)
        eps, qg = 1e-4, sp.inverse_sine_transform(q)
        fd = (ry.eval_F(u_fix + eps * qg, v, w, p) - ry.eval_F(u_fix - eps * qg, v, w, p)) / (2 * eps)
        assert np.abs(out - fd).max() <= 1e-7 * np.abs(fd).max()

    def test_directional_difference_first_order(self):
        p = base_params(beta_F=2.0, beta_p=1.0)
        n = 32
        T, Nt = 2e-3, 8
        u_fix, _, plate = _gamma_solution(p, n, T, Nt, tol=1e-12)
        rng = np.random.default_rng(9)
        qm = rng.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -2.5
        qg = sp.inverse_sine_transform(qm)
        q = np.tile(qm, (Nt + 1, 1))
        dW = vf.frechet_W(dp.plate_setup(p, bump_state(n), plate.times), q, plate, tol=1e-13)
        analytic = vf.frechet_F(u_fix, q, plate, dW, p)[Nt]

        def F_at(path, plate_path, i):
            vg, wg = dp.plate_fields(StateVW(plate_path.v[i], plate_path.w[i]), 1.0)
            return ry.eval_F(path[i], vg, wg, p)

        base = F_at(u_fix, plate, Nt)
        errs = []
        for h_fd in (1e-2, 1e-3, 1e-4):
            pert = u_fix + h_fd * qg
            plate2, _ = dp.picard_dispersive(dp.plate_setup(p, bump_state(n), plate.times), pert, tol=1e-13)
            fd = (F_at(pert, plate2, Nt) - base) / h_fd
            errs.append(np.abs(fd - analytic).max())
        orders = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 0.9 for o in orders), (errs, orders)


class TestHolderF:
    def _rand_path(self, seed, n, times, amp=0.05):
        """Pressure samples (trace 1) at the nodes of times, which span [0, T]."""
        r = np.random.default_rng(seed)
        base = r.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -3
        base = amp * base / max(1e-12, sp.norm_Hk(base, 2))
        modes = np.array([base * (1.0 + 0.3 * math.sin(2 * math.pi * t / times[-1])) for t in times])
        return 1.0 + sp.inverse_sine_transform(modes)

    def test_calibrate_then_verify_fresh_path(self):
        p = base_params()
        n = 32
        T, Nt = 5e-3, 10
        rng = np.random.default_rng(3)
        qm = rng.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -3
        q = np.array([qm * (1.0 + 0.2 * math.cos(2 * math.pi * i / Nt)) for i in range(Nt + 1)])
        times = np.linspace(0, T, Nt + 1)
        cal, fresh = [self._rand_path(1, n, times)], [self._rand_path(2, n, times)]
        check = vf.holder_F_audit(times, cal, fresh, q, p, bump_state(n))
        L_A, L_B = (float(re.search(rf"\b{name}=(\S+)", check.note).group(1)) for name in ("L_A", "L_B"))
        assert L_A > 0 and L_B > 0
        assert check.passed and check.measured <= 1.0

    def test_constant_path_seminorm_term_vanishes(self):
        p = base_params()
        n = 24
        T, Nt = 5e-3, 8
        u0 = bump_pressure(n)
        times, path = vf.uniform_pressure_path(lambda x, t: u0, T, Nt, n)
        rep = vf.holder_F_quotients(dp.plate_setup(p, bump_state(n), times), path, np.zeros((Nt + 1, n)))
        # [u]_alpha = 0: shape A reduces to L_U; q == 0: measured_B = 0 and shape B = 0
        u_modes = sp.sine_transform(path - p.theta1)
        semi_u = vf.holder_seminorm(times, u_modes, lambda d: sp.norm_Hk(d, 2), 0.2)
        assert semi_u == 0.0
        assert rep.measured_B == 0.0
        assert rep.shape_B == 0.0

    def test_shape_A_is_the_pressure_and_plate_holder_seminorms(self):
        # on a moving pressure path, shape A is [u]_alpha (u's sine modes in
        # H2) plus L_U (the plate path in L2 x H2), bitwise
        p = base_params()
        n = 24
        T, Nt = 5e-3, 8
        times = np.linspace(0, T, Nt + 1)
        path = self._rand_path(5, n, times)
        setup = dp.plate_setup(p, bump_state(n), times)
        rep = vf.holder_F_quotients(setup, path, np.zeros((Nt + 1, n)))
        alpha = dp.HOLDER_ALPHA
        u_modes = sp.sine_transform(path - p.theta1)
        semi_u = vf.holder_seminorm(times, u_modes, lambda d: sp.norm_Hk(d, 2), alpha)
        plate, _ = dp.picard_dispersive(setup, path, tol=vf._HOLDER_INNER_TOL)

        def l2h2(d):
            return dp.state_norm_L2H2(d[:, :n], d[:, n:])

        L_U = vf.holder_seminorm(plate.times, np.hstack([plate.v, plate.w]), l2h2, alpha)
        assert semi_u > 0.0 and L_U > 0.0
        assert rep.shape_A == semi_u + L_U


# ---------------------------------------------------------------------------
# method-of-lines oracle
# ---------------------------------------------------------------------------


def stacked_rhs(u, v, w, p):
    """mol_rhs on the stacked state of (u, v, w), split back into (du, dv, dw); the trace entries must be zero."""
    n = u.size
    dy = ry.mol_rhs(ry._stack(u, v, w, p.theta1), p)
    assert dy.shape == (3 * n + 2,) and dy[0] == dy[n + 1] == 0.0
    return dy[1 : n + 1], dy[n + 2 : 2 * n + 2], dy[2 * n + 2 :]


def three_array_mol_rhs(u, v, w, p):
    """The oracle right-hand side on three separate arrays, as it was before the stacked state: the reference."""
    th1, th2 = p.theta1, p.theta2
    syn, ana, syn2, ana2 = sp.sine_matrices(w.size)
    v_grid = syn @ v
    w_grid = syn @ w + th2
    for name, values in (("u", u), ("v", v_grid), ("w", w_grid)):
        ry._require_finite(name, values)
    w_min = min(float(w_grid.min()), th2)
    if w_min <= 0.0:
        raise QuenchSignal("gap closed while evaluating F", min_value=w_min)
    du = ry._reynolds_padded(ry._pad(u, th1), v_grid, ry._pad(w_grid, th2))
    ry._require_finite("du", du)
    g = ana2 @ dp._G_fine(syn2 @ w + th2, p) + p.beta_p * (ana @ (u - th1))
    dv = -sp.plate_eigenvalues(w.size).mu * w + g
    return du, dv, v.copy()


def three_array_rk_step(u0, v0, w0, step, p):
    """One classical Runge-Kutta step on three separate arrays, as it was before the stacked state."""
    k1 = three_array_mol_rhs(u0, v0, w0, p)
    k2 = three_array_mol_rhs(u0 + 0.5 * step * k1[0], v0 + 0.5 * step * k1[1], w0 + 0.5 * step * k1[2], p)
    k3 = three_array_mol_rhs(u0 + 0.5 * step * k2[0], v0 + 0.5 * step * k2[1], w0 + 0.5 * step * k2[2], p)
    k4 = three_array_mol_rhs(u0 + step * k3[0], v0 + step * k3[1], w0 + step * k3[2], p)
    return (
        u0 + (step / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        v0 + (step / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        w0 + (step / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
    )


class TestMolOracle:
    def test_mol_rhs_equilibrium_nearly_zero(self):
        p = base_params()
        eq = _equilibrium_state(p, 32)
        du, dv, dw = stacked_rhs(eq.u, eq.vw.v, eq.vw.w, p)
        assert np.abs(du).max() == 0.0
        assert np.abs(dv).max() <= 1e-11
        assert np.abs(dw).max() == 0.0

    def test_mol_rhs_trivials(self):
        p = base_params()
        n = k = 16
        rng = np.random.default_rng(2)
        v = rng.normal(size=k) * 0.1
        du, dv, dw = stacked_rhs(np.full(n, 1.0), v, bump_state(k).w, p)
        assert np.array_equal(dw, v)  # kinematic identity dw/dt = v, exactly
        # frozen plate (v = 0): constant pressure over a static gap is stationary
        du0, _, dw0 = stacked_rhs(np.full(n, 1.0), np.zeros(k), bump_state(k).w, p)
        assert np.abs(du0).max() == 0.0
        assert np.abs(dw0).max() == 0.0

    @pytest.mark.parametrize("n", [16, 64])
    def test_mol_rhs_matches_the_grid_field_recipe(self, n):
        # the matrix right-hand side against eval_F on the grid samples, the DST
        # gap forcing and the DST pressure coupling, within 1e-13 of the sup norm
        p = ModelParams(beta_F=2.0, beta_p=0.7, theta1=1.1, theta2=0.9, eps1=0.5)
        th1, th2 = p.theta1, p.theta2
        spec = sp.plate_eigenvalues(n)
        rng = np.random.default_rng(n)
        decay = np.arange(1, n + 1, dtype=float) ** -2
        for _ in range(5):
            u = th1 + 0.2 * rng.normal(size=n)
            v = rng.normal(size=n) * decay
            w = 0.1 * rng.normal(size=n) * decay
            v_grid, w_grid = dp.plate_fields(StateVW(v, w), th2)
            want_du = ry.eval_F(u, v_grid, w_grid, p)
            want_dv = -spec.mu * w + (dp._G_modes(w, p) + p.beta_p * sp.sine_transform(u - th1))
            du, dv, dw = stacked_rhs(u, v, w, p)
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
        fine_min = float(sp.refined_values(w, 1.0).min())
        assert fine_min <= 0.0
        with pytest.raises(QuenchSignal, match="dealiasing grid") as exc:
            stacked_rhs(np.full(n, 1.0), np.zeros(n), w, p)
        assert exc.value.min_value == pytest.approx(fine_min, abs=1e-12)
        # a gap closed at a coarse node is reported first
        w_closed = w - sp.sine_transform(np.full(n, 2.0))
        with pytest.raises(QuenchSignal, match="evaluating F"):
            stacked_rhs(np.full(n, 1.0), np.zeros(n), w_closed, p)

    def test_mol_rhs_rejects_non_finite_input(self):
        p = base_params()
        n = 16
        w = bump_state(n).w
        u = np.full(n, 1.0)
        u[3] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            stacked_rhs(u, np.zeros(n), w, p)
        v = np.zeros(n)
        v[5] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            stacked_rhs(np.full(n, 1.0), v, w, p)

    def test_mol_rhs_checks_in_order(self):
        # each named check fires with its own message, in the order u, v, w,
        # coarse gap; a non-finite value beats a closed gap
        p = base_params()
        n = 16
        w_closed = bump_state(n).w - sp.sine_transform(np.full(n, 2.0))
        for field in ("u", "v", "w"):
            u, v, w = np.full(n, 1.0), np.zeros(n), w_closed.copy()
            {"u": u, "v": v, "w": w}[field][2] = np.inf
            with pytest.raises(ValueError, match=f"^{field} values must be finite"):
                stacked_rhs(u, v, w, p)
        with pytest.raises(QuenchSignal, match="evaluating F"):
            stacked_rhs(np.full(n, 1.0), np.zeros(n), w_closed, p)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_mol_rhs_rejects_non_finite_du(self):
        # finite u, v, w over an open gap whose flux overflows: only du is not finite
        p = base_params()
        n = 16
        u = np.full(n, 1.0)
        u[3] = 1e300
        with pytest.raises(ValueError, match="^du values must be finite"):
            stacked_rhs(u, np.zeros(n), bump_state(n).w, p)
        with pytest.raises(ValueError, match="^du values must be finite"):
            three_array_mol_rhs(u, np.zeros(n), bump_state(n).w, p)

    @pytest.mark.parametrize("n", [16, 64])
    def test_stacked_steps_are_bitwise_the_three_array_steps(self, n):
        p = ModelParams(beta_F=2.0, beta_p=0.7, theta1=1.1, theta2=0.9, eps1=0.5)
        rng = np.random.default_rng(n + 1)
        decay = np.arange(1, n + 1, dtype=float) ** -2
        u = p.theta1 + 0.2 * np.sin(np.pi * sp.grid(n)) + 0.01 * rng.normal(size=n)
        v = 0.1 * rng.normal(size=n) * decay
        w = 0.05 * rng.normal(size=n) * decay
        init = CoupledState(u=u, vw=StateVW(v=v, w=w))
        steps = 4
        T = steps * 0.25 / float(sp.plate_eigenvalues(n).omega[-1])
        traj = ry.integrate_reference(p, init, T, T / steps, store_every=1)
        assert traj.t.size == steps + 1
        state = (u, v, w)
        for m in range(1, steps + 1):
            state = three_array_rk_step(*state, T / steps, p)
            got = (traj.u[m], traj.v[m], traj.w[m])
            assert all(np.array_equal(a, b) for a, b in zip(got, state)), m

    def test_matrix_monitor_agrees_with_the_dst_monitor(self):
        rng = np.random.default_rng(11)
        for k in (16, 24, 64):
            decay = np.arange(1, k + 1, dtype=float) ** -1.5
            for _ in range(50):
                w = rng.normal(size=k) * decay * 10.0 ** rng.uniform(-3, 0)
                for th2 in (1.0, 0.3):
                    want = gap_min_fine(w, th2)
                    assert abs(ry._w_min_oracle(w, th2) - want) <= 1e-13 * max(1.0, abs(want))

    def test_oracle_stops_at_the_step_of_the_dst_monitor(self, monkeypatch):
        # the quench problem at n = 24: both monitors see the threshold crossed
        # at the same step, with the same trajectory
        p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
        n = 24
        init = CoupledState(u=np.full(n, 1.0), vw=StateVW(v=np.zeros(n), w=np.zeros(n)))
        dt = 0.5 / float(sp.plate_eigenvalues(n).omega[-1])

        def touchdown():
            with pytest.raises(QuenchSignal) as exc:
                ry.integrate_reference(p, init, 1.0, dt, quench_eps=1e-3)
            return exc.value

        matrix = touchdown()
        monkeypatch.setattr(ry, "_w_min_oracle", gap_min_fine)
        dst = touchdown()
        assert 0.2 < matrix.t < 0.3 and matrix.t == dst.t
        assert abs(matrix.min_value - dst.min_value) <= 1e-13
        assert np.array_equal(matrix.trajectory.t, dst.trajectory.t)
        assert np.array_equal(matrix.trajectory.u[-1], dst.trajectory.u[-1])

    def test_oracle_builds_no_plate_state_per_stage(self, monkeypatch):
        # regression guard on the lean right-hand side: no per-stage StateVW
        # (each one checks its modes), and the stored samples are rows of one
        # Trajectory, not states
        p = base_params()
        init = smooth_coupled_init(16)
        built = []
        post_init = StateVW.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(StateVW, "__post_init__", counting)
        traj = ry.integrate_reference(p, init, 2e-4, 2e-5, store_every=3)
        assert traj.t.size == 5  # steps 3, 6, 9 and the last, plus the initial state
        assert not built

    def test_endgame_budget_has_its_own_signal_and_termination(self, monkeypatch):
        # a mode-1 dip to 0.01 falling at speed 1e3: the first full step closes
        # the gap inside a stage, so the oracle rolls back into its endgame
        p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
        n = 16
        w = np.zeros(n)
        w[0] = -0.99
        v = np.zeros(n)
        v[0] = -1e3
        init = CoupledState(u=np.full(n, 1.0), vw=StateVW(v=v, w=w))
        dt = 0.25 / float(sp.plate_eigenvalues(n).omega[-1])
        with pytest.raises(QuenchSignal):  # the full budget resolves the touchdown
            ry.integrate_reference(p, init, 1e-3, dt, quench_eps=1e-3)
        monkeypatch.setattr(ry, "_ENDGAME_SUBSTEPS", 1)
        with pytest.raises(ry.EndgameBudgetSignal) as exc:
            ry.integrate_reference(p, init, 1e-3, dt, quench_eps=1e-3)
        sig = exc.value
        assert not isinstance(sig, QuenchSignal)
        assert sig.min_value > 1e-3 and sig.t == init.t
        assert sig.trajectory.t[-1] == sig.t and sig.trajectory.t.size == 2
        rep = ry.run_coupled(p, init, 1e-3)
        assert rep.termination == "endgame_budget"
        assert rep.quench_time is None
        assert "t=0 " in rep.note and "min w=" in rep.note

    def test_endgame_returns_a_step_its_last_sub_step_resolves(self, monkeypatch):
        # one planted closed gap in the first stage sends the only step into
        # the endgame, whose two half-steps, the last allowed one included,
        # cover it: the step returns, bitwise the march at half the step
        p = base_params()
        n = 16
        init = CoupledState(u=bump_pressure(n), vw=bump_state(n))
        dt = 0.4 / float(sp.plate_eigenvalues(n).omega[-1])
        halves = ry.integrate_reference(p, init, dt, dt / 2.0)
        real, calls = ry.mol_rhs, []

        def planted(y, p):
            calls.append(1)
            if len(calls) == 1:
                raise QuenchSignal("gap closed in a planted stage")
            return real(y, p)

        monkeypatch.setattr(ry, "mol_rhs", planted)
        monkeypatch.setattr(ry, "_ENDGAME_SUBSTEPS", 2)
        traj = ry.integrate_reference(p, init, dt, dt)
        assert len(calls) == 1 + 2 * 4
        assert traj.t[-1] == halves.t[-1] == dt
        for field in ("u", "v", "w"):
            assert np.array_equal(getattr(traj, field)[-1], getattr(halves, field)[-1])

    def test_linear_case_matches_semigroup_fourth_order(self):
        p0 = base_params(beta_F=0.0, beta_p=0.0)
        k = n = 24
        spec = sp.plate_eigenvalues(k)
        rng = np.random.default_rng(5)
        decay = np.arange(1, k + 1, dtype=float) ** -3
        v0 = rng.normal(size=k) * decay
        w0 = rng.normal(size=k) * decay
        init = CoupledState(
            u=np.full(n, 1.0), vw=StateVW(v=v0.copy(), w=w0.copy())
        )
        T = 0.01
        errs = []
        for dt in (2e-5, 1e-5):
            traj = ry.integrate_reference(p0, init, T, dt, store_every=10**9)
            exact = vf.semigroup_apply(StateVW(v=v0, w=w0), spec, T)
            errs.append(
                max(np.abs(traj.v[-1] - exact.v).max(), np.abs(traj.w[-1] - exact.w).max())
            )
        order = math.log2(errs[0] / errs[1])
        assert 3.6 <= order <= 4.4, (errs, order)
        drift = abs(sp.norm_X(traj.v[-1], traj.w[-1], spec) - sp.norm_X(v0, w0, spec))
        assert drift <= 1e-6

    def test_nonlinear_self_convergence_fourth_order(self):
        p = base_params()
        n = k = 24
        init = smooth_coupled_init(n)
        T = 0.01
        finals = {}
        for dt in (4e-5, 2e-5, 1e-5):
            traj = ry.integrate_reference(p, init, T, dt, store_every=10**9)
            finals[dt] = traj.u[-1]
        d1 = np.abs(finals[4e-5] - finals[2e-5]).max()
        d2 = np.abs(finals[2e-5] - finals[1e-5]).max()
        order = math.log2(d1 / d2)
        assert 3.5 <= order <= 4.5, (d1, d2, order)

    def test_step_size_violation(self):
        p = base_params()
        init = smooth_coupled_init(16)
        with pytest.raises(ValueError, match="step-size"):
            ry.integrate_reference(p, init, 0.1, 1.0)

    def test_marched_step_stays_under_the_stability_limit(self):
        # a step at the limit rounds to 2 steps of 1.2x the limit over 2.4 limits
        p = base_params()
        init = smooth_coupled_init(16)
        limit = 0.5 / float(sp.plate_eigenvalues(16).omega[-1])
        traj = ry.integrate_reference(p, init, 2.4 * limit, limit, store_every=1)
        assert traj.t.size == 4 and np.all(np.diff(traj.t) <= limit)

    def test_pressure_blowup_signal(self):
        p = base_params()
        n = k = 16
        init = smooth_coupled_init(n)
        spec = sp.plate_eigenvalues(k)
        dt = 0.4 / float(spec.omega[-1])
        with pytest.raises(BlowupSignal):
            ry.integrate_reference(p, init, 0.01, dt, u_cap=1.0 + 1e-6)

    @pytest.mark.parametrize("limit", [{"quench_eps": 1e-3}, {"u_cap": 1.0 + 1e-9}])
    def test_caught_signal_leaves_no_reference_cycle(self, limit):
        # a signal held by a frame of its own traceback would keep the oracle's
        # and its callers' frames, stored run included, until a cyclic collection
        p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
        n = 16
        init = CoupledState(u=np.full(n, 1.0), vw=StateVW(v=np.zeros(n), w=np.zeros(n)))
        dt = 0.5 / float(sp.plate_eigenvalues(n).omega[-1])
        gc.collect()
        gc.disable()
        try:
            try:
                ry.integrate_reference(p, init, 1.0, dt, **limit)
            except (QuenchSignal, BlowupSignal) as sig:
                assert sig.trajectory.t[-1] == sig.t
            else:
                pytest.fail("the oracle reached the horizon without a signal")
            assert gc.collect() == 0
        finally:
            gc.enable()


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
            return ry._status_of(u_vals, gap_min_fine(w_modes, p.theta2), eps, 1e6)

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
        assert gap_min_fine(w, 1.0) == pytest.approx(0.6, abs=1e-12)
        w[0] = 0.4  # upward bump: boundary is the minimum
        assert gap_min_fine(w, 1.0) == 1.0


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
        du = rep.final_state.u - traj.u[-1]
        gap = sp.norm_Hk(sp.sine_transform(du), 1)
        scale = sp.norm_Hk(sp.sine_transform(traj.u[-1] - 1.0), 1)
        h = 1.0 / (n + 1)
        dt = T / cfg.n_t
        assert gap <= max(1e-8, 5 * (h**2 + dt**2)) * max(scale, 1.0)
        assert gap <= 1e-5  # regression anchor well below the formula allowance
        # lower-bound invariant: the gap never dips below half its initial floor
        assert rep.series["min_w"].min() >= 0.5 * rep.series["min_w"][0]

    def test_series_and_states_aligned(self):
        p = base_params()
        n = k = 32
        rep = ry.run_coupled(p, smooth_coupled_init(n), 0.01, DriverConfig(n_t=16, tol=1e-8))
        assert all(rep.series[c].shape == rep.trajectory.t.shape for c in ry.SERIES_COLUMNS)
        ts = rep.series["t"]
        assert np.array_equal(ts, rep.trajectory.t)
        assert np.all(np.diff(ts) > 0)
        assert ts[0] == 0.0
        assert np.isfinite(rep.compat_proxy)
        assert np.all(np.isfinite(rep.series["mass_residual"]))
        assert np.all(np.isfinite(rep.series["norm_X"]))

    def test_quench_run_agrees_with_oracle(self):
        p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
        n = k = 32
        init = CoupledState(
            u=np.full(n, 1.0), vw=StateVW(v=np.zeros(k), w=np.zeros(k))
        )
        rep = ry.run_coupled(p, init, 2.0, DriverConfig(n_t=16, tol=1e-7))
        assert rep.termination == "quench"
        assert rep.quench_time is not None and rep.quench_time < 0.5
        assert rep.series["min_w"][-1] <= rep.config.quench_eps
        spec = sp.plate_eigenvalues(k)
        with pytest.raises(QuenchSignal) as exc:
            ry.integrate_reference(
                p, init, 2.0, 0.4 / float(spec.omega[-1]), store_every=10**9, quench_eps=rep.config.quench_eps
            )
        assert abs(exc.value.t - rep.quench_time) / exc.value.t <= 0.05

    def test_termination_quench_iff_threshold(self):
        # converged smooth run: min_w stays above quench_eps everywhere
        p = base_params()
        rep = ry.run_coupled(p, smooth_coupled_init(32), 0.01, DriverConfig(n_t=16, tol=1e-8))
        assert rep.termination == "converged"
        assert np.all(rep.series["min_w"] > rep.config.quench_eps)
        assert rep.quench_time is None

    def test_driver_requires_matching_shapes(self):
        p = base_params()
        init = CoupledState(u=bump_pressure(16), vw=bump_state(24))
        with pytest.raises(ValueError):
            ry.run_coupled(p, init, 0.01)
        with pytest.raises(ValueError, match="k_max == n"):
            ry.integrate_reference(p, init, 0.01, 1e-7)

    @pytest.mark.parametrize(
        "u, k_max, message",
        [
            (np.ones((2, 16)), 16, "1-d array of n >= 3"),
            (np.ones(2), 2, "1-d array of n >= 3"),
            (np.ones(16), 24, "k_max == n"),
            (np.r_[np.ones(8), np.nan, np.ones(7)], 16, "u values must be finite"),
        ],
        ids=["2-d", "n=2", "k_max!=n", "nan"],
    )
    @pytest.mark.parametrize("entry", ["run_coupled", "gamma_iterate", "integrate_reference"])
    def test_entry_points_refuse_a_malformed_pressure(self, entry, u, k_max, message):
        # the coupled-state contract (ry._require_coupled) guards each entry point
        p = base_params()
        init = CoupledState(u=u, vw=bump_state(k_max))
        run = {
            "run_coupled": lambda: ry.run_coupled(p, init, 0.01),
            "gamma_iterate": lambda: ry.gamma_iterate(p, init, 1e-3, 4),
            "integrate_reference": lambda: ry.integrate_reference(p, init, 1e-3, 1e-7),
        }[entry]
        with pytest.raises(ValueError, match=message):
            run()

    def test_pressure_floor_stop_has_its_own_termination(self):
        # u0 dips to 0.9 below the floor eps1 = 0.95: the first sample of the
        # first chunk ends the run with "pressure_floor" and says why
        p = base_params(eps1=0.95)
        n = 16
        u0 = 1.0 - 0.1 * np.sin(np.pi * sp.grid(n))
        rep = ry.run_coupled(p, CoupledState(u=u0, vw=bump_state(n)), 0.01, DriverConfig(n_t=8, tol=1e-8))
        assert rep.termination == "pressure_floor"
        assert rep.note.startswith("pressure positivity floor eps1=0.95 violated")
        assert rep.trajectory.t.size == 2 and rep.quench_time is None

    @pytest.mark.parametrize(
        "rows, termination, stop",
        [
            # two conditions at different rows: the earlier row ends the run
            ({2: "floor", 3: "quench"}, "pressure_floor", 2),
            ({2: "quench", 3: "floor"}, "quench", 2),
            ({1: "blowup", 2: "quench"}, "pressure_blowup", 1),
            # several at one row: quench before blowup before the floor
            ({3: "quench floor"}, "quench", 3),
            ({3: "quench blowup floor"}, "quench", 3),
            ({3: "blowup floor"}, "pressure_blowup", 3),
        ],
    )
    def test_chunk_is_cut_at_its_first_row_that_is_not_alive(self, monkeypatch, rows, termination, stop):
        # the driver's stop rule on a prepared chunk of n_t = 4 steps: row i
        # holds a pressure below the floor eps1 = 0.5, past the cap u_cap = 10,
        # and/or a gap closed at the midpoint, as rows[i] says
        p = base_params()
        n = 16
        init = smooth_coupled_init(n)

        def prepared_chunk(p, state, T, n_t, tol, max_iter):
            times = np.linspace(0.0, T, n_t + 1)
            u = np.tile(state.u, (n_t + 1, 1))
            w = np.tile(state.vw.w, (n_t + 1, 1))
            for i, conditions in rows.items():
                if "floor" in conditions:
                    u[i, 0] = 0.1
                if "blowup" in conditions:
                    u[i, -1] = 20.0
                if "quench" in conditions:
                    w[i, 0] = -1.0
            report = dp.PicardReport(1, [0.5], banach_ratio=0.25)
            return u, report, dp.VWPath(times, np.zeros_like(w), w)

        monkeypatch.setattr(ry, "gamma_iterate", prepared_chunk)
        cfg = DriverConfig(n_t=4, chunk_init=0.01, u_cap=10.0)
        rep = ry.run_coupled(p, init, 0.01, cfg)
        t_stop = np.linspace(0.0, 0.01, 5)[stop]
        assert rep.termination == termination
        assert np.array_equal(rep.trajectory.t, np.linspace(0.0, 0.01, 5)[: stop + 1])
        assert rep.T_used == t_stop and rep.final_state.t == t_stop
        assert rep.quench_time == (t_stop if termination == "quench" else None)
        if termination == "pressure_floor":
            assert rep.note == f"pressure positivity floor eps1=0.5 violated at t={t_stop:.6g}"
        else:
            assert rep.note == ""
        ratios = rep.series["contraction_ratio"]
        assert math.isnan(ratios[0]) and np.all(ratios[1:] == 0.25)

    def test_quenched_initial_state_returns_immediately(self):
        p = base_params()
        k = n = 16
        w = np.zeros(k)
        w[0] = -0.9999
        init = CoupledState(
            u=np.full(n, 1.0), vw=StateVW(v=np.zeros(k), w=w)
        )
        rep = ry.run_coupled(p, init, 0.01, DriverConfig(quench_eps=1e-3))
        assert rep.termination == "quench"
        assert rep.T_used == 0.0

    def test_a_run_out_of_chunks_ends_budget(self, monkeypatch):
        # three accepted chunks of four steps each, then the budget is spent
        monkeypatch.setattr(ry, "_MAX_CHUNKS", 3)
        cfg = DriverConfig(n_t=4, chunk_init=1e-3, chunk_cap=1e-3)
        rep = ry.run_coupled(base_params(), smooth_coupled_init(16), 0.01, cfg)
        assert rep.termination == "budget"
        assert rep.note == "chunk budget exhausted"
        assert rep.trajectory.t.size == 13

    @staticmethod
    def _horizons(monkeypatch, p, T, cfg):
        """The horizon of each gamma_iterate call of run_coupled(p, smooth_coupled_init(16), T, cfg)."""
        horizons, gamma = [], ry.gamma_iterate

        def spied(p, state, T, *args, **kwargs):
            horizons.append(T)
            return gamma(p, state, T, *args, **kwargs)

        monkeypatch.setattr(ry, "gamma_iterate", spied)
        ry.run_coupled(p, smooth_coupled_init(16), T, cfg)
        return horizons

    def test_chunk_cap_bounds_the_first_chunk_and_every_chunk(self, monkeypatch):
        horizons = self._horizons(monkeypatch, base_params(), 0.01, DriverConfig(n_t=4, chunk_init=0.005, chunk_cap=0.002))
        assert horizons[0] == 0.002
        assert all(h <= 0.002 for h in horizons)

    def test_an_initial_guess_past_the_horizon_starts_at_the_horizon(self, monkeypatch):
        # 0.05 kappa0^3 / beta_F is about 36 here, far past T
        p = base_params(beta_F=1e-3)
        assert 0.05 * gap_min_fine(smooth_coupled_init(16).vw.w, p.theta2) ** 3 / p.beta_F > 0.01
        assert self._horizons(monkeypatch, p, 0.01, DriverConfig(n_t=4))[0] == 0.01

    def test_a_fast_contracting_chunk_grows_one_and_a_half_times(self, monkeypatch):
        horizons = self._horizons(monkeypatch, base_params(), 0.01, DriverConfig(n_t=4, chunk_init=1e-3))
        assert horizons[1] == 1.5 * horizons[0]


# ---------------------------------------------------------------------------
# restart
# ---------------------------------------------------------------------------


class TestRestart:
    """A run restarted with run_coupled from another run's final state."""

    def test_cocycle_identical_chunking(self):
        p = base_params()
        n = k = 32
        init = smooth_coupled_init(n)
        T = 0.02
        cfg = DriverConfig(n_t=16, tol=1e-10, chunk_init=T / 2, chunk_cap=T / 2)
        full = ry.run_coupled(p, init, T, cfg)
        half = ry.run_coupled(p, init, T / 2, cfg)
        rest = ry.run_coupled(p, half.final_state, T / 2, cfg)
        assert rest.termination == "converged"
        # the restart's rows are the full run's rows from T/2 on
        a, b = full.trajectory, rest.trajectory
        after = half.trajectory.t.size - 1
        assert a.t.size - after == b.t.size
        assert np.abs(a.t[after:] - b.t).max() <= 1e-15
        worst = max(np.abs(a.u[after:] - b.u).max(), np.abs(a.w[after:] - b.w).max(), np.abs(a.v[after:] - b.v).max())
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
        rest = ry.run_coupled(p, half.final_state, T / 2, half.config)
        gap = max(
            np.abs(full.final_state.u - rest.final_state.u).max(),
            np.abs(full.final_state.vw.w - rest.final_state.vw.w).max(),
        )
        assert gap <= 10 * tol

    def test_a_run_from_a_later_start_keeps_absolute_times(self):
        # a quenching run started at t0 = 5: its rows carry absolute times,
        # T_used is their span and quench_time the absolute time of touchdown
        p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
        n = 32
        t0 = 5.0
        flat = CoupledState(u=np.full(n, 1.0), vw=StateVW(v=np.zeros(n), w=np.zeros(n)))
        cfg = DriverConfig(n_t=16, tol=1e-7)
        late = ry.run_coupled(p, CoupledState(u=flat.u, vw=flat.vw, t=t0), 2.0, cfg)
        early = ry.run_coupled(p, flat, 2.0, cfg)
        assert late.termination == early.termination == "quench"
        t = late.trajectory.t
        assert t[0] == t0
        assert late.T_used == t[-1] - t0
        assert late.quench_time == t[-1] > t0
        assert late.quench_time - t0 == pytest.approx(early.quench_time, rel=1e-9)


# ---------------------------------------------------------------------------
# balance diagnostics & fixtures
# ---------------------------------------------------------------------------


class TestMassBalance:
    def test_equilibrium_residual_zero(self):
        p = base_params()
        eq = _equilibrium_state(p, 24)
        traj = [
            CoupledState(u=eq.u, vw=eq.vw, t=0.0),
            CoupledState(u=eq.u, vw=eq.vw, t=0.5),
            CoupledState(u=eq.u, vw=eq.vw, t=1.0),
        ]
        res = ry.mass_balance_residual(trajectory_of(traj), p)
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
        th1, th2 = p.theta1, p.theta2
        rng = np.random.default_rng(n)
        decay = np.arange(1, n + 1, dtype=float) ** -2
        traj = [
            CoupledState(
                u=th1 + 0.1 * rng.normal(size=n),
                vw=StateVW(v=np.zeros(n), w=0.1 * rng.normal(size=n) * decay),
                t=0.01 * i + 0.001 * rng.random(),
            )
            for i in range(20)
        ]
        h = 1.0 / (n + 1)
        mass, flux = [], []
        for s in traj:
            u = s.u
            mass.append(h * (th2 * th1 + float(((sp.inverse_sine_transform(s.vw.w) + th2) * u).sum())))
            ux0 = (-3.0 * th1 + 4.0 * u[0] - u[1]) / (2.0 * h)
            ux1 = (3.0 * th1 - 4.0 * u[-1] + u[-2]) / (2.0 * h)
            flux.append(th2**3 * th1 * (ux1 - ux0))
        want = np.abs(np.gradient(np.array(mass), np.array([s.t for s in traj]), edge_order=2) - np.array(flux))
        assert np.array_equal(ry.mass_balance_residual(trajectory_of(traj), p), want)

    def test_short_trajectory_returns_nan(self):
        p = base_params()
        eq = _equilibrium_state(p, 8)
        res = ry.mass_balance_residual(trajectory_of([eq]), p)
        assert res.size == 1 and np.isnan(res[0])


class TestEquilibriumState:
    def test_stationarity_and_gap(self):
        p = base_params(beta_F=2.0, beta_p=1.0)
        eq = _equilibrium_state(p, 32)
        spec = sp.plate_eigenvalues(32)
        res = dp._G_modes(eq.vw.w, p) - spec.mu * eq.vw.w
        assert np.abs(res).max() <= 1e-11
        assert gap_min_fine(eq.vw.w, 1.0) > 0.5  # moderate forcing: plate well clear of touchdown
        assert np.all(eq.u == 1.0)

    def test_compat_proxy_zero_at_equilibrium(self):
        p = base_params()
        eq = _equilibrium_state(p, 16)
        assert ry.compat_regularity_proxy(eq, p) == 0.0
