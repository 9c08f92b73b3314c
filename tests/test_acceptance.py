"""Acceptance gate: the eleven primary criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test prints exactly one line with the measured quantity, the
stated tolerance, and the elapsed time, then asserts the criterion and its
runtime cap.
"""

import math
import time

import numpy as np
import pytest

from gapflow import dispersive as dp
from gapflow import reynolds as ry
from gapflow import spectral as sp
from gapflow import verify as vf
from gapflow.reynolds import CoupledState, DriverConfig
from gapflow.spectral import GridField, StateVW


def base_params(beta_F=1.0, beta_p=0.5, eps1=0.5):
    return dp.ModelParams(beta_F=beta_F, beta_p=beta_p, theta1=1.0, theta2=1.0, eps1=eps1)


def smooth_init(n):
    x = sp.grid(n)
    u = GridField(values=1.0 + 0.1 * np.sin(np.pi * x), bv=1.0)
    w = np.zeros(n)
    w[0] = 0.05
    return CoupledState(u=u, vw=StateVW(v=np.zeros(n), w=w))


def _report(num, name, ok, detail, elapsed, cap=None):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {status}  {detail}  [{elapsed:.1f}s]"
    print(line)
    assert ok, line
    if cap is not None:
        assert elapsed < cap, f"criterion {num:02d}: runtime {elapsed:.1f}s exceeds {cap}s cap"


def test_c01_closed_form_benchmark():
    t0 = time.perf_counter()
    gap = vf.benchmark_against_duhamel(k_max=128, T=1.0, N_t=256)
    el = time.perf_counter() - t0
    _report(1, "closed-form benchmark", gap <= 1e-10, f"max_gap={gap:.3e} (tol 1e-10, t in [0,1], k_max=128)", el, cap=5.0)


def test_c02_regularity_ceiling():
    t0 = time.perf_counter()
    _, modes = vf.linear_plate_closed_form(0.37, 128)
    fit = vf.regularity_exponent_fit(modes, k_range=(9, 101))
    el = time.perf_counter() - t0
    ok = 4.7 <= fit.exponent <= 5.3 and fit.conclusive
    _report(2, "regularity ceiling", ok, f"fitted p={fit.exponent:.4f} (band [4.7, 5.3], residual {fit.residual:.3f})", el, cap=5.0)


def test_c03_semigroup_unitarity():
    t0 = time.perf_counter()
    k = 256
    spec = sp.plate_eigenvalues(k)
    rng = np.random.default_rng(3)
    decay = np.arange(1, k + 1, dtype=float) ** -2.0
    times = np.linspace(0.0, 100.0, 33)[1:]
    worst = 0.0
    for _ in range(100):
        s0 = StateVW(v=rng.normal(size=k) * decay, w=rng.normal(size=k) * decay)
        base = sp.norm_X(s0.v, s0.w, spec)
        for t in times:
            turned = sp.semigroup_apply(s0, spec, float(t))
            drift = abs(sp.norm_X(turned.v, turned.w, spec) - base)
            worst = max(worst, drift / base)
    el = time.perf_counter() - t0
    _report(3, "semigroup unitarity", worst <= 1e-10, f"max relative drift={worst:.3e} (tol 1e-10, 100 states, t in [0,100])", el, cap=10.0)


def test_c04_picard_contraction():
    # The horizon formula T0 = min(delta_o, 1/(2 M0 L_G), kappa/(2 M0)/((L_G+1)kappa
    # + 2C ||G0||_H2)) is evaluated with the empirically CALIBRATED G-Lipschitz
    # constant (one-time Monte Carlo calibration on the contraction ball, as in
    # the constant audits).  With the certified worst-case chain instead, T0 is
    # so small that the first Picard correction already lands under tol and no
    # ratio is ever measured, which would make this criterion vacuous.
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    k = 32
    spec = sp.plate_eigenvalues(k)
    decay = np.arange(1, k + 1, dtype=float) ** -3.0
    worst_ratio = 0.0
    worst_iters = 0
    for i in range(20):
        theta1 = rng.uniform(0.9, 1.1)
        theta2 = rng.uniform(0.9, 1.1)
        p = dp.ModelParams(
            beta_F=rng.uniform(0.2, 2.0),
            beta_p=rng.uniform(0.2, 1.0),
            theta1=theta1,
            theta2=theta2,
            eps1=0.4 * theta2,
        )
        # admissible initial state: plate deviation well inside the contraction
        # ball of the flat gap, so min w0 stays positive by the embedding
        C = sp.sobolev_embedding_constant(k)
        r_flat = theta2 / (2 * C)
        wm = rng.normal(size=k) * decay
        wm *= rng.uniform(0.05, 0.15) * 0.9 * r_flat / sp.norm_Hk(wm, 2)
        vm = rng.normal(size=k) * decay
        vm *= 0.1 * 0.9 * r_flat / max(1e-12, sp.norm_Hk(vm, 0))
        init = StateVW(v=vm, w=wm)
        w0 = dp.gap_field(init, theta2)

        cc = dp.contraction_constants(p, w0)
        r = 0.9 * cc.r_max
        assert sp.norm_Hk(wm, 2) < r
        d_o = dp.delta_o_bound(init, spec, r)
        L_G_cal = vf.lipschitz_G_check(p, w0, r=r, trials=300, seed=40 + i).measured
        amp = rng.uniform(0.05, 0.25) * theta1
        freq = rng.uniform(0.0, 5.0)
        up_fn = lambda x, t: theta1 + amp * np.sin(np.pi * x) * (0.5 + 0.5 * np.cos(freq * t))
        u0 = GridField(values=up_fn(sp.grid(k), 0.0), bv=theta1)
        g0h2 = dp.g0_norm_H2(p, w0, u0)
        T0 = min(
            d_o,
            1.0 / (2.0 * L_G_cal),
            cc.kappa / 2.0 / ((L_G_cal + 1.0) * cc.kappa + 2.0 * cc.C * g0h2),
        )
        T = 0.9 * T0
        up = dp.uniform_pressure_path(up_fn, T, 32, k, theta1)
        _, rep = dp.picard_dispersive(dp.plate_setup(p, init, up.times), up, tol=1e-10)
        assert rep.contraction_ratios, "no ratio measured: criterion would be vacuous"
        worst_iters = max(worst_iters, rep.iterations)
        worst_ratio = max(worst_ratio, max(rep.contraction_ratios))
    el = time.perf_counter() - t0
    ok = worst_ratio <= 0.55 and worst_iters <= 40
    _report(4, "Picard contraction at 0.9 T0", ok, f"worst ratio={worst_ratio:.4f} (tol 0.55), worst iterations={worst_iters} (cap 40), 20 configs", el, cap=60.0)


def test_c05_oracle_equivalence():
    t0 = time.perf_counter()
    p = base_params()
    n = 128
    init = smooth_init(n)
    tc = dp.theory_constants(p, init.u, init.vw)
    T = min(tc.T0, 0.05)
    n_t = 8
    u_fix, rep, plate = ry.gamma_iterate(p, init, T, n_t, tol=1e-10)
    traj = ry.integrate_reference(p, init, T, T / n_t, store_every=1)
    gap = scale = 0.0
    for i in range(n_t + 1):
        du = u_fix.values[i] - traj.u[i]
        dwm = plate.w[i] - traj.w[i]
        gap = max(gap, sp.norm_Hk(sp.sine_transform(du), 1))
        gap = max(gap, sp.norm_Hk(dwm, 1))
        scale = max(scale, sp.norm_Hk(sp.sine_transform(traj.u[i] - 1.0), 1))
    h = 1.0 / (n + 1)
    dt = T / n_t
    allowance = max(1e-8, 5 * (h**2 + dt**2)) * max(scale, 1.0)
    el = time.perf_counter() - t0
    _report(5, "oracle equivalence", gap <= allowance, f"sup-t H1 gap={gap:.3e} (allowance {allowance:.3e}, T={T:.3e}, n=k=128)", el, cap=120.0)


def test_c06_lower_bound_family():
    t0 = time.perf_counter()
    p = base_params()
    n = 128
    rng = np.random.default_rng(6)
    decay = np.arange(1, n + 1, dtype=float) ** -3.0
    flat = GridField(values=np.full(n, 1.0), bv=1.0)
    r = 0.9 * dp.contraction_constants(p, flat).r_max
    violations = 0
    margins = []
    for _ in range(10):
        wm = rng.normal(size=n) * decay
        wm *= rng.uniform(0.3, 1.0) * r / sp.norm_Hk(wm, 2)
        init = CoupledState(
            u=GridField(values=1.0 + 0.1 * np.sin(np.pi * sp.grid(n)), bv=1.0),
            vw=StateVW(v=np.zeros(n), w=wm),
        )
        kappa = sp.gap_min(sp.refined_values(wm, 1.0), 1.0)
        tc = dp.theory_constants(p, init.u, init.vw)
        T = min(tc.T0, 0.05)
        _, rep, plate = ry.gamma_iterate(p, init, T, 8, tol=1e-10)
        min_w = float(plate.w_refined_min.min()) + p.theta2
        margins.append(min_w - kappa / 2.0)
        if min_w < kappa / 2.0:
            violations += 1
    el = time.perf_counter() - t0
    _report(6, "lower bound min w >= kappa/2", violations == 0, f"violations={violations}/10, smallest margin={min(margins):.4f}", el)


def test_c07_elliptic_estimate():
    t0 = time.perf_counter()
    violations = 0
    worst_slack = math.inf
    for trial, (u0, w0) in enumerate(vf._elliptic_operators(np.random.default_rng(7))):
        rep = ry.elliptic_form_check(u0, w0, trials=10_000, seed=70 + trial)
        worst_slack = min(worst_slack, rep.worst_slack)
        if not rep.passed:
            violations += 1
    el = time.perf_counter() - t0
    _report(7, "elliptic estimate", violations == 0, f"violations={violations}/5 triples x 10^4 functions, worst slack={worst_slack:.3e}", el, cap=30.0)


def test_c08_frechet_consistency():
    t0 = time.perf_counter()
    hs = (1e-2, 1e-3, 1e-4)

    # directional derivative of the plate solution map W
    p = base_params(beta_F=5.0, beta_p=2.0)
    k = 48
    init = StateVW(v=np.zeros(k), w=np.r_[0.1, np.zeros(k - 1)])
    T, n_t = 0.25, 96
    up = dp.uniform_pressure_path(
        lambda x, t: 1.0 + 0.3 * np.sin(np.pi * x) * np.cos(3 * t), T, n_t, k, 1.0
    )
    setup = dp.plate_setup(p, init, up.times)
    path, _ = dp.picard_dispersive(setup, up, tol=1e-13)
    q = np.zeros((n_t + 1, k))
    q[:, 0] = 1.0
    q[:, 1] = 0.4
    vq, wq = vf.frechet_W(setup, q, path, tol=5e-14)
    errs_W = []
    for h in hs:
        up_h = dp.PressurePath(times=up.times, values=up.values + h * sp.inverse_sine_transform(q), bv=1.0)
        ph, _ = dp.picard_dispersive(setup, up_h, tol=1e-13)
        errs_W.append(
            max(
                dp.state_norm_L2H2((ph.v[i] - path.v[i]) / h - vq[i], (ph.w[i] - path.w[i]) / h - wq[i])
                for i in range(n_t + 1)
            )
        )
    orders_W = [math.log10(errs_W[i] / errs_W[i + 1]) for i in range(2)]

    # directional derivative of the parabolic right-hand side F
    p2 = base_params(beta_F=2.0, beta_p=1.0)
    n = 32
    T2, Nt = 2e-3, 8
    u0 = GridField(values=1.0 + 0.1 * np.sin(np.pi * sp.grid(n)), bv=1.0)
    init2 = StateVW(v=np.zeros(n), w=np.r_[0.05, np.zeros(n - 1)])
    u_fix, _, plate = ry.gamma_iterate(p2, CoupledState(u=u0, vw=init2), T2, Nt, tol=1e-12)
    rng = np.random.default_rng(9)
    qm = rng.normal(size=n) * np.arange(1, n + 1, dtype=float) ** -2.5
    qg = sp.inverse_sine_transform(qm)
    q2 = np.tile(qm, (Nt + 1, 1))
    dW = vf.frechet_W(dp.plate_setup(p2, init2, u_fix.times), q2, plate, tol=1e-13)
    analytic = vf.frechet_F(u_fix, q2, plate, dW, p2)[Nt]

    def F_at(pp, plate_path, i):
        vg, wg = dp.plate_fields(StateVW(plate_path.v[i], plate_path.w[i]), 1.0)
        return ry.eval_F(GridField(pp.values[i], pp.bv), vg, wg).values

    base = F_at(u_fix, plate, Nt)
    errs_F = []
    for h in hs:
        pert = dp.PressurePath(times=u_fix.times.copy(), values=u_fix.values + h * qg, bv=u_fix.bv)
        plate2, _ = dp.picard_dispersive(dp.plate_setup(p2, init2, pert.times), pert, tol=1e-13)
        fd = (F_at(pert, plate2, Nt) - base) / h
        errs_F.append(np.abs(fd - analytic).max())
    orders_F = [math.log10(errs_F[i] / errs_F[i + 1]) for i in range(2)]

    el = time.perf_counter() - t0
    ok = all(o >= 0.9 for o in orders_W + orders_F)
    _report(8, "Frechet consistency", ok, f"W orders={tuple(round(o, 3) for o in orders_W)}, F orders={tuple(round(o, 3) for o in orders_F)} (floor 0.9)", el, cap=60.0)


def test_c09_continuation_cocycle():
    t0 = time.perf_counter()
    p = base_params()
    n = 32
    init = smooth_init(n)
    T = 0.02
    tol = 1e-10
    full = ry.run_coupled(p, init, T, DriverConfig(n_t=128, tol=tol, chunk_init=T, chunk_cap=T))
    half = ry.run_coupled(p, init, T / 2, DriverConfig(n_t=64, tol=tol, chunk_init=T / 2, chunk_cap=T / 2))
    joined = ry.continue_run(half, T / 2)
    gap = max(
        np.abs(full.final_state.u.values - joined.final_state.u.values).max(),
        np.abs(full.final_state.vw.w - joined.final_state.vw.w).max(),
        np.abs(full.final_state.vw.v - joined.final_state.vw.v).max(),
    )
    el = time.perf_counter() - t0
    _report(9, "continuation cocycle", gap <= 10 * tol, f"sup gap={gap:.3e} (tol {10 * tol:.1e})", el, cap=60.0)


def test_c10_quench_dichotomy():
    t0 = time.perf_counter()
    p = base_params(beta_F=25.0, beta_p=1.0, eps1=0.2)
    n = 64
    init = CoupledState(
        u=GridField(values=np.full(n, 1.0), bv=1.0), vw=StateVW(v=np.zeros(n), w=np.zeros(n))
    )
    rep = ry.run_coupled(p, init, 1.0, DriverConfig(n_t=32, tol=1e-8))
    quenched = rep.termination == "quench" and rep.series["min_w"][-1] <= 1e-3 * p.theta2
    spec = sp.plate_eigenvalues(n)
    with pytest.raises(sp.QuenchSignal) as exc:
        ry.integrate_reference(
            p, init, 1.0, 0.4 / float(spec.omega[-1]), store_every=10**9, quench_eps=rep.config.quench_eps
        )
    rel = abs(exc.value.t - rep.quench_time) / exc.value.t
    el = time.perf_counter() - t0
    ok = quenched and rel <= 0.05
    _report(10, "quench dichotomy", ok, f"driver t_q={rep.quench_time:.6f}, oracle t_q={exc.value.t:.6f}, rel gap={rel:.2e} (tol 5e-2)", el, cap=120.0)


def test_c11_calibrated_constant_audits():
    t0 = time.perf_counter()
    p = base_params()
    n = 32
    results = {}

    alg = vf.algebra_property_check(trials=10_000, seed=11)
    results["algebra"] = alg.passed

    flat = GridField(values=np.full(n, 1.0), bv=1.0)
    inv = vf.inverse_power_bounds_check(p, flat, trials=1000, seed=12)
    results["inverse_power"] = inv.passed

    lg = vf.lipschitz_G_check(p, flat, trials=1000, seed=13)
    results["lipschitz_G"] = lg.passed

    w0m = np.r_[0.05, np.zeros(n - 1)]
    u0 = GridField(values=np.full(n, 1.0), bv=1.0)
    lf = vf.lipschitz_F_check(p, u0, StateVW(v=np.zeros(n), w=w0m), trials=1000, seed=14)
    results["lipschitz_F"] = lf.passed

    # Hoelder bounds on the right-hand side: one-time calibration on a single
    # path, then >= 10^3 fresh pairwise samples across twenty fresh paths
    init = StateVW(v=np.zeros(n), w=w0m)
    fresh = [vf._holder_path(s) for s in range(101, 121)]
    holder_ok, _, _, _ = vf.holder_F_audit([vf._holder_path(100)], fresh, vf._holder_q(15), p, init)
    n_t = len(fresh[0].times) - 1
    fresh_samples = len(fresh) * (n_t * (n_t + 1) // 2)
    results["holder_F"] = holder_ok and fresh_samples >= 1000

    el = time.perf_counter() - t0
    ok = all(results.values())
    detail = ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in results.items())
    _report(11, "calibrated-constant audits", ok, detail + f" ({fresh_samples} fresh Hoelder samples)", el, cap=120.0)
