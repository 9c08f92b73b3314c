import numpy as np
import pytest

from gapflow import dispersive as dp
from gapflow import spectral as sp
from gapflow import verify as vf


def base_params(beta_F=1.0, beta_p=1.0):
    return dp.ModelParams(beta_F=beta_F, beta_p=beta_p, theta1=1.0, theta2=1.0, eps1=0.5)


def plate_solve(p, up, init, **options):
    """The plate solve of the pressure path up from init, on the setup of its grid."""
    return dp.picard_dispersive(dp.plate_setup(p, init, up.times), up, **options)


def small_bump_state(k, amp=0.1):
    w = np.zeros(k)
    w[0] = amp
    return sp.StateVW(v=np.zeros(k), w=w)


def constant_modes(c, k, pad=2):
    """Mode coefficients of the constant c as _G_modes forms them: DST on the pad grid, truncated."""
    return c * sp.sine_transform(np.ones(pad * k + 1))[:k]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: dp.ModelParams(beta_F=x, beta_p=1.0, theta1=1.0, theta2=1.0, eps1=0.5),
        lambda x: dp.ModelParams(beta_F=1.0, beta_p=x, theta1=1.0, theta2=1.0, eps1=0.5),
        lambda x: dp.ModelParams(beta_F=1.0, beta_p=1.0, theta1=1.0, theta2=1.0, eps1=x),
        lambda x: dp.ModelParams(beta_F=1.0, beta_p=1.0, theta1=x, theta2=1.0, eps1=0.5),
        lambda x: dp.ModelParams(beta_F=1.0, beta_p=1.0, theta1=1.0, theta2=x, eps1=0.5),
        lambda x: sp.GridField(np.ones(8), bv=x),
        lambda x: dp.PressurePath(times=[0.0, 0.1], values=np.ones((2, 8)), bv=x),
    ],
    ids=["beta_F", "beta_p", "eps1", "theta1", "theta2", "GridField_bv", "PressurePath_bv"],
)
def test_model_data_must_be_finite(build, value):
    with pytest.raises(ValueError, match="finite"):
        build(value)


def test_eval_G_flat_gap():
    p = base_params(beta_F=1.0, beta_p=1.0)
    g = dp._G_modes(np.zeros(16), p)
    # w = theta2 = 1 everywhere: G = -1/1 + 1*(1-1) = -1
    assert np.allclose(g, constant_modes(-1.0, 16), rtol=1e-14, atol=1e-15)


def test_eval_G_arithmetic():
    p = dp.ModelParams(beta_F=2.0, beta_p=3.0, theta1=2.0, theta2=2.0, eps1=0.5)
    g = dp._G_modes(np.zeros(8), p)
    # -2/2^2 + 3*(2-1) = 2.5
    assert np.allclose(g, constant_modes(2.5, 8), rtol=1e-14, atol=1e-15)


def test_eval_G_quench():
    p = base_params()
    dip = np.zeros(8)
    dip[0] = -0.5  # gap 1 - 0.5 sin(pi x) >= 0.5, fine
    assert np.all(np.isfinite(dp._G_modes(dip, p)))
    dip[0] = -1.05  # gap 1 - 1.05 sin(pi x) < 0 around the midpoint
    with pytest.raises(sp.QuenchSignal):
        dp._G_modes(dip, p)
    # a (rows, k) path of gaps: one row of coefficients per node, bitwise equal
    # to row-by-row calls, and one closed gap anywhere quenches the whole call
    rows = 0.05 * np.random.default_rng(5).normal(size=(33, 8))
    assert np.array_equal(dp._G_modes(rows, p), [dp._G_modes(r, p) for r in rows])
    with pytest.raises(sp.QuenchSignal):
        dp._G_modes(np.vstack([rows, dip]), p)


def test_G_modes_reports_the_first_closed_row_of_a_stack():
    # two closed rows, mode-1 dips whose minimum 1 - a sits at the midpoint, a
    # node of the dealiasing grid: the first closed row is reported, not the
    # stack's minimum (-0.5)
    p = base_params()
    k = 16
    shallow, deep = np.zeros(k), np.zeros(k)
    shallow[0], deep[0] = 1.1, 1.5
    with pytest.raises(sp.QuenchSignal, match="dealiasing grid") as exc:
        dp._G_modes(-np.array([np.zeros(k), shallow, deep]), p)
    assert exc.value.min_value == pytest.approx(-0.1, abs=1e-12)


def test_contraction_L_G_r_range_and_value():
    p = base_params(beta_F=3.0)
    k = 32
    w0 = sp.GridField(values=np.ones(k), bv=1.0)  # w0 == 1, kappa = 1
    cc = dp.contraction_constants(p, w0)
    with pytest.raises(ValueError):
        cc.radius(cc.r_max * 1.5)
    assert cc.radius(0.5 * cc.r_max) == 0.5 * cc.r_max
    L_G = cc.L_G
    # hand-assembled from the constant chain: C~ = kappa/(2C) + ||w0||_H2,
    # C1^2 = 4C/k^2 + 16 C~^2/k^4 + (4/k^2 + 16 C C~/k^3)^2 C~^2, L_G = beta_F 2 C1^3
    C = dp.embedding_C(k)
    Ct = 1.0 / (2 * C) + 1.0  # ||1||_H2 = 1
    C1 = np.sqrt(4 * C + 16 * Ct**2 + (4 + 16 * C * Ct) ** 2 * Ct**2)
    assert L_G == pytest.approx(3.0 * 2.0 * C1**3, rel=1e-12)


def test_G_lipschitz_bound_monte_carlo():
    # sup ||G(w1)-G(w2)||_H2 / ||w1-w2||_H2 <= L_G over pairs in the admissible ball
    rng = np.random.default_rng(42)
    p = base_params(beta_F=2.0)
    k = 32
    init = small_bump_state(k)
    w0 = dp.gap_field(init, 1.0)
    cc = dp.contraction_constants(p, w0)
    r = 0.9 * cc.r_max
    L_G = cc.L_G

    def G_pad4(w):
        return sp.dealias_apply(lambda w_fine: dp._G_fine(w_fine, p), w, bvs=(p.theta2,), pad=4)

    worst = 0.0
    for _ in range(300):
        rho1 = rng.normal(size=k) * np.arange(1, k + 1) ** -3.0
        rho2 = rng.normal(size=k) * np.arange(1, k + 1) ** -3.0
        for rho in (rho1, rho2):
            nrm = sp.norm_Hk(rho, 2)
            rho *= 0.5 * r / max(nrm, 1e-30) * rng.uniform(0.1, 1.0)
        w1 = init.w + rho1
        w2 = init.w + rho2
        dg = G_pad4(w1) - G_pad4(w2)
        denom = sp.norm_Hk(w1 - w2, 2)
        if denom > 1e-12:
            worst = max(worst, sp.norm_Hk(dg, 2) / denom)
    assert worst <= L_G
    # and the bound is not vacuous at the wrong scale: measured stays within a
    # factor ~ C2/(2/kappa^3) of the sharp pointwise constant
    assert worst > 0.1 * 2 * p.beta_F / cc.kappa**3


def test_theory_T0_branch_structure():
    p = base_params()
    k = 32
    init = small_bump_state(k)
    w0 = dp.gap_field(init, 1.0)
    u0 = sp.GridField(values=np.ones(k), bv=1.0)
    cc = dp.contraction_constants(p, w0)
    r = 0.9 * cc.r_max
    d_o = dp.delta_o_bound(init, sp.plate_eigenvalues(k), r)
    tc = dp.theory_constants(p, u0, init)
    g0h2 = dp.g0_norm_H2(p, w0, u0)
    b2 = 1.0 / (2.0 * cc.L_G)
    b3 = cc.kappa / 2.0 / ((cc.L_G + 1.0) * cc.kappa + 2.0 * cc.C * g0h2)
    assert tc.T0_branches == pytest.approx((d_o, b2, b3), rel=1e-14)
    assert tc.T0 == pytest.approx(min(d_o, b2, b3), rel=1e-14)
    # monotonicity in L_G: doubling beta_F cannot increase T0
    assert dp.theory_constants(base_params(beta_F=2.0), u0, init).T0 <= tc.T0


def test_delta_o_cap_for_zero_state():
    k = 16
    zero = sp.StateVW(np.zeros(k), np.zeros(k))
    assert dp.delta_o_bound(zero, sp.plate_eigenvalues(k), r=0.1) == 1.0


def test_delta_o_certifies_continuity():
    k = 48
    rng = np.random.default_rng(3)
    init = sp.StateVW(rng.normal(size=k) * np.arange(1, k + 1) ** -2.0,
                      rng.normal(size=k) * np.arange(1, k + 1) ** -4.0)
    spec = sp.plate_eigenvalues(k)
    r = 0.25
    d_o = dp.delta_o_bound(init, spec, r)
    assert d_o > 0
    for t in np.linspace(1e-6, d_o, 37):
        moved = sp.semigroup_apply(init, spec, t)
        dev = dp.state_norm_L2H2(moved.v - init.v, moved.w - init.w)
        assert dev <= r / 2 * (1 + 1e-12)


def test_picard_below_T0_contracts_and_preserves_gap():
    p = base_params()
    k = 64
    init = small_bump_state(k)
    w0 = dp.gap_field(init, 1.0)
    u0 = sp.GridField(values=np.ones(k) + 0.2 * np.sin(np.pi * sp.grid(k)), bv=1.0)
    cc = dp.contraction_constants(p, w0)
    T = 0.9 * dp.theory_constants(p, u0, init).T0
    up = dp.uniform_pressure_path(lambda x, t: 1.0 + 0.2 * np.sin(np.pi * x) * np.cos(t), T, 32, k, 1.0)
    path, rep = plate_solve(p, up, init)
    bound = T * 1.0 * cc.L_G
    assert all(rt <= bound * 1.05 for rt in rep.contraction_ratios)
    assert rep.min_w >= cc.kappa / 2.0
    assert rep.iterations <= 40


def test_picard_takes_its_setup_only_from_the_same_solve():
    # the setup holds the model and the start state; a pressure path on
    # another time grid than the setup's is refused
    p = base_params()
    k, T = 16, 1e-3
    init = small_bump_state(k)
    up = dp.uniform_pressure_path(lambda x, t: 1.0 + 0.1 * np.sin(np.pi * x) * (1.0 + t), T, 8, k, 1.0)
    setup = dp.plate_setup(p, init, up.times)
    coarse = dp.uniform_pressure_path(lambda x, t: np.ones_like(x), T, 4, k, 1.0)
    with pytest.raises(ValueError, match="setup was built for another time grid"):
        dp.picard_dispersive(setup, coarse)


def test_picard_cold_start_is_the_frozen_w0_iteration_bitwise():
    # start=None is the cold iteration, spelled out here from its pieces: the
    # first sweep freezes G at w~0, each later one takes G along the last path
    p = base_params()
    k, T, tol = 32, 0.02, 1e-10
    init = small_bump_state(k)
    up = dp.uniform_pressure_path(lambda x, t: 1.0 + 0.1 * np.sin(np.pi * x) * np.cos(t), T, 32, k, 1.0)
    setup = dp.plate_setup(p, init, up.times)
    forcing = p.beta_p * sp.sine_transform(up.values - up.bv)

    def march(g):
        return dp.VWPath(up.times, *sp.duhamel_sweep(init, setup.omega, setup.coeffs, g + forcing))

    want, diffs, _, status = dp.fixed_point(
        lambda path: march(dp._G_modes(path.w, p)), march(dp._G_modes(init.w, p)), dp.path_diff_norm, tol, 200,
        lambda ratios: False,
    )
    got, rep = dp.picard_dispersive(setup, up, tol=tol, start=None)
    assert status == "converged" and rep.iterations == len(diffs)
    assert got.v.tobytes() == want.v.tobytes() and got.w.tobytes() == want.w.tobytes()


def test_warm_start_reaches_the_cold_fixed_point_in_fewer_sweeps():
    # the plate path of a pressure 1e-3 away starts the solve close to its
    # fixed point (Hoelder dependence on the pressure); it lands within tol of
    # the cold solve's, and so does a start far from it
    p = base_params()
    k, T, tol = 32, 0.02, 1e-10
    init = small_bump_state(k)

    def pressure(amp):
        return dp.uniform_pressure_path(lambda x, t: 1.0 + amp * np.sin(np.pi * x) * np.cos(t), T, 32, k, 1.0)

    near, _ = plate_solve(p, pressure(0.101), init, tol=tol)
    cold, cold_rep = plate_solve(p, pressure(0.1), init, tol=tol)
    warm, warm_rep = plate_solve(p, pressure(0.1), init, tol=tol, start=near)
    assert warm_rep.iterations < cold_rep.iterations
    assert dp.path_diff_norm(warm, cold) <= tol
    far = dp.VWPath(near.times, np.zeros_like(near.v), np.zeros_like(near.w))  # the flat gap
    from_far, _ = plate_solve(p, pressure(0.1), init, tol=tol, start=far)
    assert dp.path_diff_norm(from_far, cold) <= tol


def test_warm_start_must_share_the_grid_and_shape():
    p = base_params()
    k, T = 16, 1e-3
    init = small_bump_state(k)
    up = dp.uniform_pressure_path(lambda x, t: np.ones_like(x), T, 8, k, 1.0)
    path, _ = plate_solve(p, up, init)
    coarse = dp.VWPath(path.times[::2], path.v[::2], path.w[::2])
    shifted = dp.VWPath(path.times * (1.0 + 1e-9), path.v, path.w)
    wider = dp.VWPath(path.times, np.pad(path.v, ((0, 0), (0, 4))), np.pad(path.w, ((0, 0), (0, 4))))
    for start in (coarse, shifted, wider, dp.VWPath(path.times, path.v, path.w[:, :-1])):
        with pytest.raises(ValueError, match="start must be a plate path"):
            plate_solve(p, up, init, start=start)


def test_picard_matches_constant_forcing_to_second_order():
    # constant data: w~0 = 0, u = theta1 everywhere -> frozen forcing G(0) = c.
    # The converged solution equals the forced-oscillator closed form up to the
    # quadratic feedback of G along the O(T^2) plate motion, which shrinks like
    # T^2 relative to the leading response.
    p = base_params(beta_F=1.0, beta_p=1.0)
    k = 16
    spec = sp.plate_eigenvalues(k)
    c = dp._G_modes(np.zeros(k), p)  # sine modes of the constant G(0) = -1

    def rel_dev(T):
        init = sp.StateVW(np.zeros(k), np.zeros(k))
        up = dp.uniform_pressure_path(lambda x, t: np.ones_like(x), T, 8, k, 1.0)
        path, _ = plate_solve(p, up, init, tol=1e-14)
        w_exact = c * 2 * np.sin(spec.omega * T / 2) ** 2 / spec.mu
        v_exact = c * np.sin(spec.omega * T) / spec.omega
        dw = np.max(np.abs(path.w[-1] - w_exact)) / np.max(np.abs(w_exact))
        dv = np.max(np.abs(path.v[-1] - v_exact)) / np.max(np.abs(v_exact))
        return max(dw, dv)

    assert rel_dev(1e-3) < 1e-6
    assert rel_dev(1e-4) < 1e-8


def test_picard_zero_couplings_is_pure_semigroup():
    p = base_params(beta_F=0.0, beta_p=0.0)
    k = 32
    init = small_bump_state(k)
    up = dp.uniform_pressure_path(lambda x, t: np.ones_like(x), 0.5, 64, k, 1.0)
    path, rep = plate_solve(p, up, init)
    assert rep.iterations == 1
    spec = sp.plate_eigenvalues(k)
    n0 = sp.norm_X(init.v, init.w, spec)
    for v, w in zip(path.v, path.w):
        assert abs(sp.norm_X(v, w, spec) - n0) <= 1e-10 * n0


def test_picard_uniqueness_wrt_time_resolution_tail():
    # Banach fixed point: tightening tol by 1e3 moves the trajectory by < 10*tol
    p = base_params()
    k = 32
    init = small_bump_state(k)
    T = 0.02
    up = dp.uniform_pressure_path(lambda x, t: 1.0 + 0.1 * np.sin(np.pi * x), T, 32, k, 1.0)
    tol = 1e-8
    path1, _ = plate_solve(p, up, init, tol=tol)
    path2, _ = plate_solve(p, up, init, tol=tol * 1e-3)
    assert dp.path_diff_norm(path1, path2) <= 10 * tol


def test_strictness_residual_decays_with_dt():
    # central-difference time derivative of the converged path satisfies
    # v' = A w + g, w' = v with residual O(dt^2) + O(tol)
    p = base_params()
    k = 6  # keep omega_max * dt << 1 so the central difference resolves every mode
    init = small_bump_state(k)
    T = 0.02
    spec = sp.plate_eigenvalues(k)

    def residual(n_t):
        up = dp.uniform_pressure_path(lambda x, t: 1.0 + 0.1 * np.sin(np.pi * x) * np.cos(5 * t), T, n_t, k, 1.0)
        path, _ = plate_solve(p, up, init, tol=1e-13)
        u_modes = sp.sine_transform(up.values - up.bv)
        dt = T / n_t
        worst = 0.0
        for i in range(1, n_t):
            sdot_v = (path.v[i + 1] - path.v[i - 1]) / (2 * dt)
            sdot_w = (path.w[i + 1] - path.w[i - 1]) / (2 * dt)
            g = dp._G_modes(path.w[i], p) + p.beta_p * u_modes[i]
            res_v = sdot_v - (-spec.mu * path.w[i] + g)
            res_w = sdot_w - path.v[i]
            worst = max(worst, dp.state_norm_L2H2(res_v, res_w))
        return worst

    r1, r2 = residual(64), residual(128)
    assert r2 < r1 / 3.0  # ~ dt^2


def test_solution_operator_W_initial_value_and_stationarity():
    p = base_params()
    k = 32
    init = small_bump_state(k, amp=0.05)
    T = 0.01
    up = dp.uniform_pressure_path(lambda x, t: np.ones_like(x), T, 16, k, 1.0)
    path, _ = plate_solve(p, up, init)
    # W(u)(0) = (v0, w0) exactly
    assert np.array_equal(path.v[0], init.v)
    assert np.array_equal(path.w[0], init.w)
    # determinism: identical inputs, identical bits
    path2, _ = plate_solve(p, up, init)
    assert np.array_equal(path.v, path2.v) and np.array_equal(path.w, path2.w)


def test_frechet_W_zero_and_fd_order():
    p = base_params(beta_F=5.0, beta_p=2.0)
    k = 48
    init = small_bump_state(k)
    T, n_t = 0.25, 96
    up = dp.uniform_pressure_path(lambda x, t: 1.0 + 0.3 * np.sin(np.pi * x) * np.cos(3 * t), T, n_t, k, 1.0)
    setup = dp.plate_setup(p, init, up.times)
    path, _ = dp.picard_dispersive(setup, up, tol=1e-13)

    zero_q = np.zeros((n_t + 1, k))
    vq0, wq0 = vf.frechet_W(setup, zero_q, path, tol=1e-14)
    assert max(np.max(np.abs(v)) for v in vq0) == 0.0

    q = np.zeros((n_t + 1, k))
    q[:, 0] = 1.0
    q[:, 1] = 0.4
    vq, wq = vf.frechet_W(setup, q, path, tol=5e-14)
    assert np.max(np.abs(wq[0])) == 0.0 and np.max(np.abs(vq[0])) == 0.0
    errs = []
    hs = (1e-2, 1e-3, 1e-4)
    for h in hs:
        up_h = dp.PressurePath(times=up.times, values=up.values + h * sp.inverse_sine_transform(q), bv=1.0)
        ph, _ = plate_solve(p, up_h, init, tol=1e-13)
        errs.append(
            max(
                dp.state_norm_L2H2((ph.v[i] - path.v[i]) / h - vq[i], (ph.w[i] - path.w[i]) / h - wq[i])
                for i in range(n_t + 1)
            )
        )
    order1 = np.log10(errs[0] / errs[1])
    order2 = np.log10(errs[1] / errs[2])
    assert order1 > 0.9 and order2 > 0.9, (errs, order1, order2)


def empirical_lipschitz_W(p, u1_path, u2_path, init, tol=1e-10):
    """sup_t ||W(u1)(t) - W(u2)(t)||_{L2 x H2} / sup_t ||u1(t) - u2(t)||_H2."""
    du = dp.pressure_diff_norm(u1_path, u2_path)
    if du == 0.0:
        return 0.0
    vw1, _ = plate_solve(p, u1_path, init, tol=tol)
    vw2, _ = plate_solve(p, u2_path, init, tol=tol)
    return dp.path_diff_norm(vw1, vw2) / du


def test_empirical_lipschitz_W_bounds():
    p = base_params()
    k = 32
    init = small_bump_state(k)
    u0 = sp.GridField(values=np.ones(k), bv=1.0)
    tc = dp.theory_constants(p, u0, init)
    T = 0.9 * tc.T0
    u1 = dp.uniform_pressure_path(lambda x, t: 1.0 + 0.2 * np.sin(np.pi * x), T, 16, k, 1.0)
    u2 = dp.uniform_pressure_path(lambda x, t: 1.0 + 0.2 * np.sin(np.pi * x) + 0.01 * np.sin(2 * np.pi * x), T, 16, k, 1.0)
    assert empirical_lipschitz_W(p, u1, u1, init) == 0.0
    ratio = empirical_lipschitz_W(p, u1, u2, init)
    assert 0.0 < ratio <= tc.L_W
    # linear-regime stability across perturbation magnitudes
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        u2e = dp.uniform_pressure_path(
            lambda x, t: 1.0 + 0.2 * np.sin(np.pi * x) + eps * np.sin(2 * np.pi * x), T, 16, k, 1.0
        )
        ratios.append(empirical_lipschitz_W(p, u1, u2e, init, tol=1e-13))
    assert max(ratios) <= 1.2 * min(ratios)


def test_empirical_holder_constant_path_and_LU_bound():
    p = base_params()
    k = 32
    init = small_bump_state(k)
    u0 = sp.GridField(values=np.ones(k), bv=1.0)
    tc = dp.theory_constants(p, u0, init)
    T = 0.9 * tc.T0
    up = dp.uniform_pressure_path(lambda x, t: np.ones_like(x), T, 16, k, 1.0)
    assert vf.empirical_holder(up, alpha=0.5) == 0.0
    path, _ = plate_solve(p, up, init)
    semi = vf.empirical_holder(path, alpha=0.2)
    assert semi <= tc.L_U


def test_picard_report_fields():
    p = base_params()
    k = 16
    init = small_bump_state(k)
    T = 0.01
    up = dp.uniform_pressure_path(lambda x, t: np.ones_like(x), T, 8, k, 1.0)
    _, rep = plate_solve(p, up, init)
    assert isinstance(rep.contraction_ratios, list)


# The tests below read .report.iterations off the raised PicardDivergence: a
# plate solve that fails still counts its sweeps, and the benchmark's tracer
# sums them over every solve.


def test_picard_exhausting_its_sweeps_raises_with_the_sweep_count(monkeypatch):
    p = base_params(beta_F=1.0, beta_p=0.5)
    n = 16
    up = dp.uniform_pressure_path(lambda x, t: 1.0 + 0.1 * np.sin(np.pi * x), 0.01, 16, n, 1.0)
    monkeypatch.setattr(dp, "_PICARD_MAX_ITER", 3)
    with pytest.raises(dp.PicardDivergence, match="no convergence to tol=1e-30 within 3 sweeps") as exc:
        plate_solve(p, up, small_bump_state(n, amp=0.05), tol=1e-30)
    assert exc.value.report.iterations == 3


def test_picard_that_stops_contracting_raises_with_its_ratios():
    # beta_F = 10 over T = 3 is far past the contraction horizon: the first two ratios exceed 1
    p = base_params(beta_F=10.0, beta_p=0.0)
    n = 16
    up = dp.uniform_pressure_path(lambda x, t: np.ones_like(x), 3.0, 16, n, 1.0)
    with pytest.raises(dp.PicardDivergence, match=r"stopped contracting \(last ratios 2\.096, 3\.485\)") as exc:
        plate_solve(p, up, sp.StateVW(v=np.zeros(n), w=np.zeros(n)))
    rep = exc.value.report
    assert rep.iterations == 3
    assert rep.contraction_ratios == pytest.approx([2.10, 3.49], abs=0.01)
