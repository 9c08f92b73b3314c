"""Every check of `gapflow verify`: closed-form benchmarks, regularity
diagnostics, calibrated property audits, convergence studies, and the suites
that hold them.

The linear forced-plate benchmark has an exact mode-wise solution on the
model's own plate operator A = Lap - Lap^2; marching the production Duhamel
sweep on the production spectrum against it is the one quantitative anchor of
the whole pipeline.  The remaining checks are computable shadows of the
analytic estimates: Monte Carlo audits of the algebra constant, the
inverse-power bounds, the Lipschitz constants of G and F, the Hoelder audit
of the right-hand side (with the Frechet derivatives of the plate solution
and of F that it measures, complex steps of dispersive._G_fine and
reynolds.eval_F; the plate solve and its derivative march share one
dispersive.PlateSetup, and each Hoelder quotient is one call of
holder_seminorm with its norm written out), plus self-convergence studies of
the two integrators.

Each check is defined here and only here: what it measures, its bound and
its verdict, as one CheckResult, which the function that measures it
returns.  The model modules keep only what a run uses (the exact
semigroup, the pressure-path builder and the audit blocks live here), and
verify names no private helper of reynolds or spectral.  Randomness, always
seeded, is drawn here and nowhere else in the package.  SUITES maps each
suite name to its runner, in the order `verify --suite all` runs them; a
runner takes the Monte Carlo seed and returns its list of CheckResult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dispersive as dp
from . import reynolds as ry
from . import spectral as sp
from .dispersive import ModelParams
from .reynolds import CoupledState, DriverConfig
from .spectral import StateVW


@dataclass(frozen=True)
class CheckResult:
    """One verdict of `gapflow verify`: a measured value against its bound."""

    name: str
    passed: bool
    measured: float
    bound: float
    note: str = ""


def _band(lo: float, hi: float) -> str:
    """The note suffix of a check whose measured value must lie in [lo, hi]; its bound is one edge."""
    return f" (band [{lo:g}, {hi:g}])"


# ---------------------------------------------------------------------------
# the linear forced-plate benchmark
# ---------------------------------------------------------------------------


def linear_plate_closed_form(t, k_max: int) -> tuple:
    """Mode amplitudes (v, w) of the pinned plate driven by the constant load f = 1.

    For d^2 w/dt^2 - A w = 1 with A = Lap - Lap^2, w = w_xx = 0 at the ends
    and zero initial data, each sine mode is a forced oscillator:

        w_k(t) = b_k (1 - cos(om_k t)) / om_k^2,   v_k(t) = b_k sin(om_k t) / om_k,

    with om_k^2 = (k pi)^2 + (k pi)^4, stated here rather than read from
    plate_eigenvalues so that the benchmark checks the production spectrum,
    and load coefficients b_k = 4/(k pi) for odd k and 0 for even k (the sine
    expansion of the constant 1).  Modes run along the last axis: v and w have
    shape (k_max,) for a scalar t and (len(t), k_max) for an array of times,
    each row bitwise its own scalar call.
    """
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError("t must be nonnegative")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    kpi = np.pi * np.arange(1, k_max + 1, dtype=float)
    b = 2.0 * sp.int_sine(k_max)  # 4/(k pi) odd, 0 even
    om = np.sqrt(kpi**2 + kpi**4)
    om_t = om * times[..., None]
    w = b * (1.0 - np.cos(om_t)) / om**2
    v = b * np.sin(om_t) / om
    return v, w


def benchmark_against_duhamel(k_max: int, T: float, N_t: int) -> float:
    """March the production Duhamel path against the closed form; return the max gap.

    One duhamel_sweep marches the uniform grid of N_t steps on the production
    plate spectrum; the forcing is constant in time, so the
    exponential-trapezoid kick is exact and the gap is pure rounding.
    """
    if N_t < 1:
        raise ValueError("N_t must be >= 1")
    om = sp.plate_eigenvalues(k_max).omega
    times = np.linspace(0.0, T, N_t + 1)
    forcing = np.broadcast_to(2.0 * sp.int_sine(k_max), (N_t + 1, k_max))
    rest = StateVW(v=np.zeros(k_max), w=np.zeros(k_max))
    v, w = sp.duhamel_sweep(rest, om, sp.duhamel_coeffs(om, np.diff(times)), forcing)
    v_cf, w_cf = linear_plate_closed_form(times[1:], k_max)
    return max(float(np.abs(w[1:] - w_cf).max()), float(np.abs(v[1:] - v_cf).max()))


# ---------------------------------------------------------------------------
# regularity ceiling
# ---------------------------------------------------------------------------


def regularity_exponent_check(modes: np.ndarray) -> CheckResult:
    """Fit |w_k| ~ k^{-p} to the odd-mode amplitude envelope; p must lie in [4.7, 5.3].

    p is the least-squares slope of the windowed max envelope of the odd
    modes 9..101.  At a generic time the oscillator factor (1 - cos om_k t)
    scatters the raw amplitudes across [0, 2] x envelope; the max over a
    window of 5 consecutive odd modes tracks the envelope itself.  Even modes
    are excluded (they vanish identically for the constant load).  An RMS
    log-residual above 0.6 marks the fit inconclusive and fails the check
    whatever p is; fewer than 3 envelope points give p = nan, residual inf.

    The implied Sobolev ceiling uses the convention s* = p - 1/2:
    sum_k k^{2s} |w_k|^2 converges iff 2s - 2p < -1, i.e. s < p - 1/2.
    A fit with p = 5 therefore reproduces membership in H^{9/2 - eps} for
    every eps > 0 but not in H^{9/2} itself.
    """
    window, k_lo, k_hi = 5, 9, 101
    modes = np.asarray(modes, dtype=float)
    ks = np.arange(k_lo, min(modes.size, k_hi) + 1)
    ks = ks[ks % 2 == 1]
    if ks.size < 2 * window:
        raise ValueError(f"too few odd modes in {k_lo}..{k_hi} for the fit window")
    amp = np.abs(modes[ks - 1])
    pts_k = []
    pts_a = []
    for i in range(0, ks.size - window + 1, window):
        seg_a = amp[i : i + window]
        j = int(np.argmax(seg_a))
        if seg_a[j] <= 0.0:
            continue
        pts_k.append(float(ks[i + j]))
        pts_a.append(float(seg_a[j]))
    p, resid = float("nan"), float("inf")
    if len(pts_k) >= 3:
        logk = np.log(np.asarray(pts_k))
        loga = np.log(np.asarray(pts_a))
        A = np.vstack([logk, np.ones(logk.size)]).T
        sol, *_ = np.linalg.lstsq(A, loga, rcond=None)
        resid = float(np.sqrt(np.mean((loga - A @ sol) ** 2)))
        p = float(-sol[0])
    passed = 4.7 <= p <= 5.3 and resid <= 0.6
    note = f"residual={resid:.3g}" + _band(4.7, 5.3)
    return CheckResult("benchmark.regularity_exponent", passed, p, 5.3, note=note)


# ---------------------------------------------------------------------------
# calibrated Monte Carlo audits
# ---------------------------------------------------------------------------
#
# Each audit draws every field of its samples (lifts, normals, scales or
# radii) from a stream of its own, spawned from its seed, with one generator
# call per field per block of stacked rows (audit_blocks), and measures
# the block.  Draws are sample-major, rows before the member of a pair, so
# sample i sits at the same offset of every stream and a seed gives the same
# samples whatever the block size.


# Rows per evaluation block of the Monte Carlo audits: measuring stacked draws
# a block at a time keeps their working memory independent of the trial count.
_AUDIT_BLOCK = 256


def audit_blocks(trials: int) -> list:
    """Row counts of the consecutive evaluation blocks that cover trials draws."""
    return [min(_AUDIT_BLOCK, trials - start) for start in range(0, trials, _AUDIT_BLOCK)]


def _streams(seed: int, count: int) -> list:
    """count independent generators spawned from seed, one per sample field."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _ball_pairs(streams, rows: int, k_max: int, r: float) -> np.ndarray:
    """rows pairs of random zero-trace mode vectors, shape (2, rows, k_max), with
    H2 norms uniformly in [0.05 r, r): normals decaying like k^-3 from the first
    of streams, each scaled to a radius drawn from the second."""
    normals, radii = streams
    modes = normals.standard_normal((rows, 2, k_max)) * np.arange(1, k_max + 1, dtype=float) ** -3
    modes *= (r * radii.uniform(0.05, 1.0, (rows, 2)) / np.maximum(1e-300, sp.norm_Hk(modes, 2)))[..., None]
    return modes.transpose(1, 0, 2)


def _ball_blocks(cc: dp.ContractionConstants, w0: np.ndarray, theta2: float, r: float | None, trials: int, seed: int):
    """Yield trials pairs in the r-ball about the gap w0 (interior samples, trace
    theta2; r = cc.radius(r)), a block at a time: (d, w) with d the _ball_pairs
    perturbation modes, shape (2, rows, k), and w the gaps w0 + d on the
    4k + 3-node grid, shape (2, rows, 4k + 3)."""
    r = cc.radius(r)
    fine = 4 * w0.size + 3
    base_fine = sp.inverse_sine_transform(sp.sine_transform(w0 - theta2), fine) + theta2
    streams = _streams(seed, 2)
    for rows in audit_blocks(trials):
        d = _ball_pairs(streams, rows, w0.size, r)
        yield d, base_fine + sp.inverse_sine_transform(d, fine)


def _worst(num, den) -> float:
    """Largest num/den over the rows whose den is not zero; 0 when there is none."""
    keep = den != 0.0
    return float(np.max(num / np.where(keep, den, 1.0), where=keep, initial=0.0))


def algebra_property_check(
    trials: int = 10_000,
    k_max: int = 32,
    seed: int = 0,
    calibration_trials: int = 2000,
) -> CheckResult:
    """Calibrate C_alg with ||fg||_H2 <= C_alg ||f||_H2 ||g||_H2, then verify fresh.

    Draws are constant lifts plus random sine parts; products are formed on a
    4x refined grid and measured through the same lifted-H2 metric, the
    discrete shadow of the algebra property.  The constant pair f = g = 1
    (ratio exactly 1) anchors the calibration set, and the calibrated constant
    carries a 1.5x safety margin over the worst observed ratio.  Calibration
    draws from seed, the fresh pairs from seed + 1.  The check measures the
    worst fresh ratio against C_alg.
    """
    margin = 1.5
    fine = 4 * k_max + 3
    decay = np.arange(1, k_max + 1, dtype=float) ** -2.2

    def worst_ratio(th, modes):  # lifts (rows, 2) and modes (rows, 2, k_max); column 0 is f, 1 is g
        f, g = (th[..., None] + sp.inverse_sine_transform(modes, fine)).transpose(1, 0, 2)
        th_fg = th[:, 0] * th[:, 1]
        num = sp.norm_Hk(sp.sine_transform(f * g - th_fg[:, None]), 2, th_fg)
        den = sp.norm_Hk(modes, 2, th)
        return _worst(num, den[:, 0] * den[:, 1])

    def audit(seed, n_pairs):
        lifts, normals, scales = _streams(seed, 3)
        worst = 0.0
        for rows in audit_blocks(n_pairs):
            th = lifts.uniform(0.5, 1.5, (rows, 2))
            modes = normals.standard_normal((rows, 2, k_max)) * decay * scales.uniform(0.1, 1.0, (rows, 2))[..., None]
            worst = max(worst, worst_ratio(th, modes))
        return worst

    worst_cal = max(worst_ratio(np.ones((1, 2)), np.zeros((1, 2, k_max))), audit(seed, calibration_trials))
    C_alg = margin * worst_cal
    worst_fresh = audit(seed + 1, trials)
    return CheckResult("constants.algebra", worst_fresh <= C_alg, worst_fresh, C_alg, note=f"{trials} fresh draws")


def inverse_power_bounds_check(
    p: ModelParams,
    w0: np.ndarray,
    r: float | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> CheckResult:
    """Audit ||1/w^k||_H2 <= C1^k and the difference bounds of 1/w^2 and 1/w^3 on the r-ball.

    Samples are w = w0 + (zero-trace perturbation), w0 the centre's samples
    (trace theta2 of p), with perturbation H2 norm at most r < kappa/(2C);
    inverse powers are expanded on a 4x refined grid and measured in the
    lifted H2 metric (differences are zero-trace, so the lifts cancel there).
    C2 = 2 C1^3 bounds 1/w^2 differences and C3 = 3 C1^4 bounds 1/w^3
    differences, as in the constant assembly of the estimates chain.  The
    check measures the worst of the five norms over their bounds against 1.
    """
    cc = dp.contraction_constants(p, w0)

    def inv_modes(w_fine, kpows):
        return [sp.sine_transform(w_fine ** (-float(k)) - p.theta2 ** (-float(k))) for k in kpows]

    worst = 0.0
    for (d1, d2), w_fine in _ball_blocks(cc, w0, p.theta2, r, trials, seed):
        sp.require_open_gap(np.concatenate(w_fine), "gap closed inside the sampling ball (r too large)")
        inv1 = inv_modes(w_fine[0], (1, 2, 3))
        inv2 = inv_modes(w_fine[1], (2, 3))
        for kpow in (1, 2, 3):
            nrm = sp.norm_Hk(inv1[kpow - 1], 2, p.theta2 ** (-float(kpow)))
            worst = max(worst, _worst(nrm, cc.C1**kpow))
        den = sp.norm_Hk(d1 - d2, 2)
        worst = max(worst, _worst(sp.norm_Hk(inv1[1] - inv2[0], 2), cc.C2 * den))
        worst = max(worst, _worst(sp.norm_Hk(inv1[2] - inv2[1], 2), cc.C3 * den))
    note = f"C1={cc.C1:.4g} C2={cc.C2:.4g} C3={cc.C3:.4g}"
    return CheckResult("constants.inverse_power", worst <= 1.0, worst, 1.0, note=note)


def lipschitz_G_check(
    p: ModelParams,
    w0: np.ndarray,
    r: float | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> CheckResult:
    """Audit ||G(w1) - G(w2)||_H2 <= L_G ||w1 - w2||_H2 on fresh pairs in the r-ball
    about the gap samples w0 (trace theta2 of p).

    L_G = beta_F C2 is the theory constant for the admissible ball; the
    measured quotients sit far below it (the chain is existence-grade, not
    sharp), and the audit's job is zero violations, not tightness.  G is the
    model's own, so a sample that closes the gap raises QuenchSignal.
    """
    cc = dp.contraction_constants(p, w0)
    L = cc.L_G
    worst = 0.0
    for d, (w1, w2) in _ball_blocks(cc, w0, p.theta2, r, trials, seed):
        g_diff = dp._G_fine(w1, p) - dp._G_fine(w2, p)
        worst = max(worst, _worst(sp.norm_Hk(sp.sine_transform(g_diff), 2), sp.norm_Hk(d[0] - d[1], 2)))
    return CheckResult("lipschitz.G", worst <= L, worst, L, note=f"{trials} pairs")


def lipschitz_F_check(
    p: ModelParams,
    u0: np.ndarray,
    init: StateVW,
    trials: int = 1000,
    seed: int = 0,
) -> CheckResult:
    """Audit ||F(u1) - F(u2)||_L2 <= L_e ||u1 - u2||_H2 at frozen (v, w), the plate state init.

    L_e is the nonlinearity constant from the theory chain for the given data;
    pressure samples are drawn in an H2 ball of radius 0.2 around the samples
    u0 (trace theta1 of p) and measured by eval_F.
    """
    ball = 0.2
    tc = dp.theory_constants(p, u0, init)
    v, w = dp.plate_fields(init, p.theta2)  # theory_constants raised if this gap is closed
    streams = _streams(seed, 2)
    worst = 0.0
    for rows in audit_blocks(trials):
        m = _ball_pairs(streams, rows, u0.size, ball)
        u = u0 + sp.inverse_sine_transform(m)  # the pairs, shape (2, rows, n)
        F = ry.eval_F(u, np.broadcast_to(v, u.shape), np.broadcast_to(w, u.shape), p)
        worst = max(worst, _worst(sp.norm_Hk(sp.sine_transform(F[0] - F[1]), 0), sp.norm_Hk(m[0] - m[1], 2)))
    return CheckResult("lipschitz.F", worst <= tc.L_e, worst, tc.L_e, note=f"{trials} pairs")


# ---------------------------------------------------------------------------
# the Hoelder audit of the right-hand side
# ---------------------------------------------------------------------------

# sweep limit of the linear Frechet solve
_FRECHET_MAX_ITER = 200

# step h of the complex-step derivatives Im f(x + ih y) / h (Squire & Trapp,
# SIAM Rev. 40, 1998): they take no difference, so they are exact to rounding
_COMPLEX_STEP = 1e-30


def frechet_W(setup: dp.PlateSetup, q_path: np.ndarray, vw: dp.VWPath, tol: float = 1e-12) -> tuple:
    """Directional derivative (v'(u)q, w'(u)q) along a zero-trace perturbation path q.

    Solves the linear mild system

        (v'q, w'q)(t) = int_0^t T(t-s) ( beta_p q(s) + G'(w(s)) [w'q](s), 0 ) ds

    by the same Duhamel/Picard machinery as the forward solve, on the
    model, frequencies and Duhamel coefficients of the plate solve's setup;
    vw is the plate path that solve returned and q_path the array of q mode
    coefficients per node of setup.times, shape (n_t + 1, k_max).  Returns
    the arrays (v'q, w'q) of the same shape; both vanish at t = 0 by
    construction; G'(w) w'q is the complex step of dp._G_fine on the pad-2
    grid.  Raises PicardDivergence, whose report carries the sweep count and
    the ratios, when a sweep ratio reaches 1 or _FRECHET_MAX_ITER sweeps miss
    tol.
    """
    p, times, k_max = setup.params, setup.times, setup.init.k_max
    zero = StateVW(np.zeros(k_max), np.zeros(k_max))

    w_fine = vw.w_refined + p.theta2  # the gap on the pad-2 grid, from vw's own synthesis
    sp.require_open_gap(w_fine, "gap closed inside frechet_W")

    def sweep(path):  # the forcing, dealiased on the pad-2 grid
        dG = dp._G_fine(w_fine + 1j * _COMPLEX_STEP * sp.refined_values(path.w), p).imag / _COMPLEX_STEP
        forcing = sp.sine_transform(dG, k_max) + p.beta_p * q_path
        return dp.VWPath(times, *sp.duhamel_sweep(zero, setup.omega, setup.coeffs, forcing))

    path, diffs, ratios, status = dp.fixed_point(
        sweep,
        dp.VWPath(times, np.zeros(vw.v.shape), np.zeros(vw.w.shape)),
        dp.path_diff_norm,
        tol,
        _FRECHET_MAX_ITER,
        lambda ratios: bool(ratios) and ratios[-1] >= 1.0,
    )
    if status != "converged":
        raise dp.PicardDivergence(
            f"frechet_W linear sweeps {status} after {len(diffs)} sweeps (last diff {diffs[-1]:.3g}, tol {tol:g})",
            dp.PicardReport(len(diffs), ratios),
        )
    return path.v, path.w


def holder_seminorm(times: np.ndarray, values: np.ndarray, norm, alpha: float) -> float:
    """max over node pairs i < j of norm(values[j] - values[i]) / (t_j - t_i)^alpha.

    norm maps a stack of differences (one per row) to their norms.  The powers
    are taken one pair at a time in scalar arithmetic, which the vectorized
    power does not reproduce to the last bit.
    """
    worst = 0.0
    for i in range(times.size - 1):
        dists = norm(values[i + 1 :] - values[i]).tolist()
        gaps = (times[i + 1 :] - times[i]).tolist()
        worst = max(worst, *(d / h**alpha for d, h in zip(dists, gaps)))
    return worst


def frechet_F(
    u_path: np.ndarray,
    q_modes: np.ndarray,
    vw: dp.VWPath,
    dW: tuple,
    p: ModelParams,
) -> np.ndarray:
    """Directional derivative of F along q, (v'q, w'q) = dW: the complex step
    Im eval_F(u + ih q, v + ih v'q, w + ih w'q) / h with h = _COMPLEX_STEP.

    u_path holds u's samples on vw.times (trace p.theta1); (v'q, w'q) are the
    plate-derivative mode paths from frechet_W.  At t = 0 they vanish, so row
    0 is ry.assemble_Pstar applied to q(0), to rounding.  Returns one row per
    time node, shape (n_t + 1, n).
    """
    v_vals, w_vals = dp.plate_fields(vw, p.theta2)
    sp.require_open_gap(w_vals, "gap closed while assembling the F derivative", times=vw.times)
    ihq, ihvq, ihwq = (1j * _COMPLEX_STEP * sp.inverse_sine_transform(m) for m in (q_modes, *dW))
    return ry.eval_F(u_path + ihq, v_vals + ihvq, w_vals + ihwq, p).imag / _COMPLEX_STEP


@dataclass
class HolderFReport:
    """The two Hoelder quotients of holder_F_quotients and the shapes their constants multiply."""

    measured_A: float
    measured_B: float
    shape_A: float
    shape_B: float


# tolerance of the plate and Frechet solves inside the Hoelder audit
_HOLDER_INNER_TOL = 1e-12


def holder_F_quotients(setup: dp.PlateSetup, u_path: np.ndarray, q_modes: np.ndarray) -> HolderFReport:
    """Measure the two Hoelder quotients of the right-hand side and the shapes of their bounds.

    The plate solve and its Frechet march take setup's model, start state and
    grid, on which u_path (trace theta1) and q_modes are sampled.  The
    exponent is alpha = dp.HOLDER_ALPHA and the horizon T = setup.times[-1].
    measured_A = sup ||F(t+h) - F(t)||_{L2} / h^alpha, whose bound is L_A
    times shape_A = [u]_alpha + L_U, the holder_seminorm of u's sine modes in
    H2 (the lift cancels in differences) plus that of the plate path in
    L2 x H2; measured_B is the same quotient for F'(u)q - P*q, whose
    bound is L_B times shape_B = (1 + ||u||_{C^alpha}) (T^alpha ||q||_{C^alpha}
    + sup||q||_{H2}).  This only measures: holder_F_audit sizes L_A and L_B
    and gives the verdict.
    """
    alpha = dp.HOLDER_ALPHA
    p, init_vw, times = setup.params, setup.init, setup.times
    k_max = init_vw.k_max
    T = float(times[-1])
    q_modes = np.asarray(q_modes, dtype=float)

    plate, _ = dp.picard_dispersive(setup, u_path, tol=_HOLDER_INNER_TOL)
    dW = frechet_W(setup, q_modes, plate, tol=_HOLDER_INNER_TOL)
    F_series = ry.eval_F(u_path, *dp.plate_fields(plate, p.theta2), p)
    pstar = ry.assemble_Pstar(u_path[0], *dp.plate_fields(init_vw, p.theta2), p)
    Fp = frechet_F(u_path, q_modes, plate, dW, p)
    D_series = np.array([f - pstar @ q for f, q in zip(Fp, sp.inverse_sine_transform(q_modes))])

    def l2(vals):
        return sp.norm_Hk(sp.sine_transform(vals), 0)

    def h2(modes):
        return sp.norm_Hk(modes, 2)

    def l2h2(vw):  # rows (v | w) of the plate path
        return dp.state_norm_L2H2(vw[:, :k_max], vw[:, k_max:])

    u_modes = sp.sine_transform(u_path - p.theta1)
    semi_u = holder_seminorm(times, u_modes, h2, alpha)
    sup_u = float(np.max(sp.norm_Hk(u_modes, 2, p.theta1)))
    sup_q = float(np.max(sp.norm_Hk(q_modes, 2)))
    semi_q = holder_seminorm(times, q_modes, h2, alpha)
    return HolderFReport(
        measured_A=holder_seminorm(times, F_series, l2, alpha),
        measured_B=holder_seminorm(times, D_series, l2, alpha),
        shape_A=semi_u + holder_seminorm(times, np.hstack([plate.v, plate.w]), l2h2, alpha),
        shape_B=(1.0 + (sup_u + semi_u)) * (T**alpha * (sup_q + semi_q) + sup_q),
    )


def holder_F_audit(times, cal_paths, fresh_paths, q_modes: np.ndarray, p: ModelParams, init_vw: StateVW) -> CheckResult:
    """Calibrate the Hoelder constants of the right-hand side on cal_paths, then verify them on fresh_paths.

    Every path is the pressure samples at the nodes of times, measured by
    holder_F_quotients with the same q_modes and one plate setup of p and
    init_vw on that grid (the plate solve raises on a wrong row count).  L_A
    and L_B are the worst measured / shape over the calibration paths (0
    where a shape is 0).  A fresh path passes when both of its quotients stay
    at or under 2 L shape (a 2x margin), up to a relative 1e-12 for rounding.
    The check measures the largest measured / (2 L shape) over the fresh
    paths against 1; its note gives L_A and L_B.
    """
    setup = dp.plate_setup(p, init_vw, times)

    def measure(paths):  # (measured, shape), one row (A, B) per path
        reps = [holder_F_quotients(setup, path, q_modes) for path in paths]
        measured = np.array([(r.measured_A, r.measured_B) for r in reps])
        return measured, np.array([(r.shape_A, r.shape_B) for r in reps])

    measured, shape = measure(cal_paths)
    L_A, L_B = (_worst(measured[:, j], shape[:, j]) for j in (0, 1))
    measured, shape = measure(fresh_paths)
    bound = np.array([2.0 * L_A, 2.0 * L_B]) * shape
    passed = bool(np.all(measured <= bound * (1.0 + 1e-12)))
    note = f"L_A={L_A:.4g} L_B={L_B:.4g} (2x margin)"
    return CheckResult("lipschitz.holder_F", passed, _worst(measured, bound), 1.0, note=note)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


# The model of the convergence study and of the suites' audits.
VERIFY_PARAMS = ModelParams(beta_F=1.0, beta_p=0.5, theta1=1.0, theta2=1.0, eps1=0.5)


def _smooth_init(n: int) -> CoupledState:
    x = sp.grid(n)
    u = 1.0 + 0.1 * np.sin(np.pi * x)
    w = np.zeros(n)
    w[0] = 0.05
    return CoupledState(u=u, vw=StateVW(v=np.zeros(n), w=w))


def _driver_observable(p: ModelParams, n: int, T: float, tol: float, n_t: int):
    """The first 8 pressure and gap modes of the driver's final state."""
    rep = ry.run_coupled(p, _smooth_init(n), T, DriverConfig(n_t=n_t, tol=tol))
    if rep.termination != "converged":
        raise RuntimeError(f"convergence study run did not converge: {rep.termination}")
    u_modes = sp.sine_transform(rep.final_state.u - p.theta1)
    return np.concatenate([u_modes[:8], rep.final_state.vw.w[:8]])


def _order_check(axis: str, errors: tuple, order: float, lo: float, hi: float = math.inf) -> CheckResult:
    """convergence.<axis>: order in [lo, hi], bound lo; the note lists the errors to 4 digits and the band."""
    note = f"errors={tuple(float(f'{e:.3e}') for e in errors)}" + _band(lo, hi)
    return CheckResult(f"convergence.{axis}", lo <= order <= hi, order, lo, note=note)


def uniform_pressure_path(u_fn, T: float, n_t: int, n: int) -> tuple:
    """(times, values): the uniform grid of n_t steps over [0, T] and u_fn(x, t) at n interior nodes, a row per time."""
    ts = np.linspace(0.0, T, n_t + 1)
    x = sp.grid(n)
    return ts, np.array([u_fn(x, t) for t in ts], dtype=float)


def convergence_study() -> list:
    """Self-convergence orders of the integrators along their refinement axes,
    one check per axis in the order below, each judged against its band.

    The studies run VERIFY_PARAMS (plate_k with beta_F = 0, see below) to
    the horizon T = 0.01.

    oracle_dt: classical Runge-Kutta self-convergence, expected order 4.
    driver_h: coupled driver under grid doubling, expected order 2 (the
        linearization stencil is second order; the spectral plate part
        converges much faster and does not pollute the slope).
    plate_k: dispersive subproblem under mode doubling against a fine
        reference -- errors fall faster than any fixed power for analytic
        data, reported as the growing order between successive doublings.
    gamma_tol: driver final state vs outer tolerance, expected slope ~1
        (the iteration stops once successive sweeps differ by tol).  The
        errors fall in steps, not smoothly: each extra Gamma sweep cuts them
        about 500x, so tolerances between two sweep counts share one error.
        The levels (1e-3, 1e-5, 1e-7) keep every error at least 1e3 times
        the rounding floor eps max|observable|.
    """
    p = VERIFY_PARAMS
    T = 0.01
    results = []

    # --- oracle_dt ---------------------------------------------------------
    n = 24
    init = _smooth_init(n)
    dts = (8e-5, 4e-5, 2e-5)  # errors above the rounding floor; 8e-5 < 0.5/omega_max = 8.79e-5
    finals = [
        ry.integrate_reference(p, init, T, dt, store_every=10**9).u[-1] for dt in dts
    ]
    e1 = float(np.abs(finals[0] - finals[1]).max())
    e2 = float(np.abs(finals[1] - finals[2]).max())
    results.append(_order_check("oracle_dt", (e1, e2), math.log2(e1 / e2), 3.6, 4.4))

    # --- driver_h ----------------------------------------------------------
    obs = {n: _driver_observable(p, n, T, tol=1e-10, n_t=32) for n in (16, 32, 64)}
    d1 = float(np.abs(obs[16] - obs[32]).max())
    d2 = float(np.abs(obs[32] - obs[64]).max())
    results.append(_order_check("driver_h", (d1, d2), math.log2(d1 / d2), 1.5, 2.5))

    # --- plate_k -----------------------------------------------------------
    # Spectral accuracy in k_max requires data whose odd periodic extension is
    # analytic.  The physical gas-film term G carries a constant part that is
    # incompatible with the pinned sine basis (the same boundary mismatch that
    # caps the model's Sobolev regularity), so this sub-study drives the plate
    # with beta_F = 0 and a compatible analytic pressure profile instead.
    p_k = replace(p, beta_F=0.0, beta_p=1.0)

    def plate_w(k):
        times, path = uniform_pressure_path(
            lambda x, t: p.theta1
            + 0.2 * np.sin(np.pi * x) * np.exp(np.cos(2 * np.pi * x) - 1.0) * (1.0 + t / T),
            T,
            16,
            k,
        )
        w1 = np.zeros(k)
        w1[0] = 0.1
        setup = dp.plate_setup(p_k, StateVW(v=np.zeros(k), w=w1), times)
        vw, _ = dp.picard_dispersive(setup, path, tol=1e-13)
        return vw.w[-1]

    k_levels = (8, 16, 32)
    ref = plate_w(64)
    errs_k = tuple(float(np.abs(plate_w(k) - ref[:k]).max()) for k in k_levels)
    ord1 = math.log2(errs_k[0] / max(errs_k[1], 1e-300))
    ord2 = math.log2(errs_k[1] / max(errs_k[2], 1e-300))
    results.append(_order_check("plate_k", errs_k, max(ord1, ord2), 6.0))

    # --- gamma_tol ---------------------------------------------------------
    n = 32
    ref_obs = _driver_observable(p, n, T, tol=1e-12, n_t=32)
    tols = (1e-3, 1e-5, 1e-7)
    errs_t = tuple(
        float(np.abs(_driver_observable(p, n, T, tol=tl, n_t=32) - ref_obs).max()) for tl in tols
    )
    logs = [math.log10(max(e, 1e-300)) for e in errs_t]
    slope = (logs[0] - logs[-1]) / (math.log10(tols[-1]) - math.log10(tols[0]))
    results.append(_order_check("gamma_tol", errs_t, -slope, 0.5, 1.5))
    return results


# ---------------------------------------------------------------------------
# the suites of `gapflow verify`
# ---------------------------------------------------------------------------


def semigroup_apply(s: StateVW, spec: sp.PlateSpectrum, t: float) -> StateVW:
    """Closed-form mode-wise rotation e^{tA_k}: exact, unitary in the X-norm.

    Per mode:  w_k(t) =  w_k cos(om t) + v_k sin(om t)/om
               v_k(t) = -w_k om sin(om t) + v_k cos(om t)
    """
    if t < 0:
        raise ValueError("semigroup time must be >= 0")
    c, sn = sp.reduced_cossin(spec.omega, t)
    return StateVW(*_rotate(s.v, s.w, spec.omega, c, sn))


def _rotate(v, w, om, c, sn) -> tuple:
    """(v, w) turned by the mode-wise rotation with cos c and sin sn."""
    return v * c - w * om * sn, w * c + v * sn / om


def _suite_semigroup(seed: int) -> list:
    k = 256
    spec = sp.plate_eigenvalues(k)
    rng = np.random.default_rng(seed)
    decay = np.arange(1, k + 1, dtype=float) ** -2.0
    phases = [sp.reduced_cossin(spec.omega, float(t)) for t in np.linspace(0.0, 100.0, 33)[1:]]

    worst = 0.0
    for rows in audit_blocks(100):
        # one state per row, v then w: the draw order of StateVW(v=..., w=...)
        v, w = (rng.normal(size=(rows, 2, k)) * decay).transpose(1, 0, 2)
        base = sp.norm_X(v, w, spec)
        for c, sn in phases:
            drift = np.abs(sp.norm_X(*_rotate(v, w, spec.omega, c, sn), spec) - base)
            worst = max(worst, float(np.max(drift / base)))
    results = [CheckResult("semigroup.norm_conservation", worst <= 1e-10, worst, 1e-10)]
    s0 = StateVW(v=rng.normal(size=k) * decay, w=rng.normal(size=k) * decay)
    ab = semigroup_apply(semigroup_apply(s0, spec, 0.7), spec, 2.6)
    direct = semigroup_apply(s0, spec, 3.3)
    gap = max(float(np.abs(ab.v - direct.v).max()), float(np.abs(ab.w - direct.w).max()))
    scale = max(float(np.abs(direct.v).max()), float(np.abs(direct.w).max()))
    # top-mode phases reach (k pi)^4 * t ~ 1e10, so trig argument reduction
    # alone costs ~1e-10 relative; 1e-8 leaves margin without hiding real bugs
    results.append(CheckResult("semigroup.cocycle", gap <= 1e-8 * scale, gap / scale, 1e-8))
    return results


def _suite_benchmark(seed: int) -> list:
    gap = benchmark_against_duhamel(128, 1.0, 256)
    return [
        CheckResult("benchmark.closed_form_gap", gap <= 1e-10, gap, 1e-10),
        regularity_exponent_check(linear_plate_closed_form(0.37, 128)[1]),
    ]


def _suite_constants(seed: int) -> list:
    return [
        algebra_property_check(trials=10_000, seed=seed),
        inverse_power_bounds_check(VERIFY_PARAMS, np.full(32, 1.0), trials=1000, seed=seed + 1),
    ]


# Paths the Hoelder audit calibrates on: its constants spread about 5x across
# one path family, so a single path would leave the 2x margin to chance.
_HOLDER_CALIBRATION_PATHS = 4
# The Hoelder audit's grid: n modes, n_t steps of [0, T].
_HOLDER_N, _HOLDER_T, _HOLDER_NT = 32, 5e-3, 10


def _holder_q(seed) -> np.ndarray:
    """The Hoelder audit's direction: one row of k^-3-decaying modes per time
    node, drawn from seed and modulated by 1 + 0.2 cos."""
    n, n_t = _HOLDER_N, _HOLDER_NT
    qm = np.random.default_rng(seed).normal(size=n) * np.arange(1, n + 1, dtype=float) ** -3
    return np.array([qm * (1.0 + 0.2 * math.cos(2 * math.pi * i / n_t)) for i in range(n_t + 1)])


def _holder_path(seed, times: np.ndarray) -> np.ndarray:
    """The samples at the nodes of times of a pressure path of the Hoelder
    audit (trace 1): 1 plus k^-3-decaying modes drawn from seed, of H2 norm
    0.05, modulated by 1 + 0.3 sin over [0, T = times[-1]]."""
    n, T = _HOLDER_N, times[-1]
    base = np.random.default_rng(seed).normal(size=n) * np.arange(1, n + 1, dtype=float) ** -3
    base = 0.05 * base / max(1e-12, sp.norm_Hk(base, 2))
    modes = np.array([base * (1.0 + 0.3 * math.sin(2 * math.pi * t / T)) for t in times])
    return 1.0 + sp.inverse_sine_transform(modes)


def _suite_lipschitz(seed: int) -> list:
    n = _HOLDER_N
    flat = np.full(n, 1.0)
    init = StateVW(v=np.zeros(n), w=np.r_[0.05, np.zeros(n - 1)])
    # the Hoelder audit of the right-hand side calibrates on several paths and verifies on a fresh one
    times = np.linspace(0, _HOLDER_T, _HOLDER_NT + 1)
    cal = [_holder_path([seed + 3, j], times) for j in range(_HOLDER_CALIBRATION_PATHS)]
    fresh = [_holder_path(seed + 4, times)]
    return [
        lipschitz_G_check(VERIFY_PARAMS, flat, trials=1000, seed=seed),
        lipschitz_F_check(VERIFY_PARAMS, flat, init, trials=1000, seed=seed + 1),
        holder_F_audit(times, cal, fresh, _holder_q(seed + 2), VERIFY_PARAMS, init),
    ]


def _elliptic_operators(rng):
    """Yield five coefficient pairs (u0, w0) of P* at n = 48 (traces 1), each of one or
    two sine bumps with amplitudes drawn from rng (and v0's, unused, to keep the stream)."""
    x = sp.grid(48)
    for _ in range(5):
        u0 = 1.0 + 0.2 * np.sin(np.pi * x) * rng.uniform(-1, 1) + 0.1 * np.sin(2 * np.pi * x) * rng.uniform(-1, 1)
        w0 = 1.0 + 0.2 * np.sin(np.pi * x) * rng.uniform(-1, 1) + 0.1 * np.sin(3 * np.pi * x) * rng.uniform(-1, 1)
        rng.uniform(-1, 1)  # v0
        yield u0, w0


def _suite_elliptic(seed: int) -> list:
    operators = _elliptic_operators(np.random.default_rng(seed))
    slack = min(ry.elliptic_form_check(u0, w0, VERIFY_PARAMS).worst_slack for u0, w0 in operators)
    coercivity = CheckResult(
        "elliptic.coercivity",
        slack >= 0.0,
        slack,
        0.0,
        note="5 triples, exact worst case over q; measured = least slack per unit L2 norm (must stay >= bound)",
    )
    flat = np.ones(16)
    return [coercivity, _sector_gate(ry.assemble_Pstar(flat, np.zeros(16), flat, VERIFY_PARAMS))]


def _sector_gate(pstar: np.ndarray) -> CheckResult:
    """Resolvent products along the sampled rays against 1/sin(pi - widest ray).

    That bound is exact for a normal operator with real spectrum, such as the
    constant-coefficient one of the elliptic suite; a non-normal operator
    can exceed it and then fails the check.
    """
    sec = ry.sector_check(pstar)
    bound = 1.0 / math.sin(math.pi - sec.angle)
    passed = bool(sec.M_bound <= bound * (1.0 + 1e-9))
    return CheckResult("elliptic.sector", passed, sec.M_bound, bound, note=f"angle={sec.angle:.4f}")


def _suite_convergence(seed: int) -> list:
    return convergence_study()


# Suite name -> runner, in the order `verify --suite all` runs them.
SUITES = {
    "semigroup": _suite_semigroup,
    "benchmark": _suite_benchmark,
    "constants": _suite_constants,
    "lipschitz": _suite_lipschitz,
    "elliptic": _suite_elliptic,
    "convergence": _suite_convergence,
}
