"""Closed-form benchmarks, regularity diagnostics, and calibrated property audits.

The linear forced-plate benchmark has an exact mode-wise solution on the
model's own plate operator A = Lap - Lap^2; marching the production Duhamel
sweep on the production spectrum against it is the one quantitative anchor of
the whole pipeline.  The remaining suites are computable shadows of the
analytic estimates: Monte Carlo audits of the algebra constant, the
inverse-power bounds, the Lipschitz constants of G and F, plus
self-convergence studies of the two integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dispersive as dp
from . import reynolds as ry
from . import spectral as sp
from .dispersive import ModelParams
from .reynolds import CoupledState, DriverConfig
from .spectral import GridField, StateVW

__all__ = [
    "RegularityFit",
    "AlgebraReport",
    "InversePowerReport",
    "LipschitzReport",
    "StudyRow",
    "linear_plate_closed_form",
    "benchmark_against_duhamel",
    "regularity_exponent_fit",
    "algebra_property_check",
    "inverse_power_bounds_check",
    "lipschitz_G_check",
    "lipschitz_F_check",
    "convergence_study",
    "VERIFY_PARAMS",
]


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


@dataclass(frozen=True)
class RegularityFit:
    """Power-law fit of the odd-mode amplitude envelope |w_k| ~ k^{-p}.

    The implied Sobolev ceiling uses the convention s* = p - 1/2:
    sum_k k^{2s} |w_k|^2 converges iff 2s - 2p < -1, i.e. s < p - 1/2.
    A fit with p = 5 therefore reproduces membership in H^{9/2 - eps} for
    every eps > 0 but not in H^{9/2} itself.
    """

    exponent: float
    s_star: float
    residual: float
    conclusive: bool


def regularity_exponent_fit(modes: np.ndarray, k_range: tuple = (9, 101)) -> RegularityFit:
    """Least-squares slope of the windowed max envelope of odd-mode amplitudes.

    At a generic time the oscillator factor (1 - cos om_k t) scatters the raw
    amplitudes across [0, 2] x envelope; the max over a window of 5
    consecutive odd modes tracks the envelope itself.  Even modes are excluded
    (they vanish identically for the constant load).  An RMS log-residual
    above 0.6 marks the fit inconclusive.
    """
    window, residual_threshold = 5, 0.6
    modes = np.asarray(modes, dtype=float)
    k_lo, k_hi = k_range
    ks = np.arange(max(1, k_lo), min(modes.size, k_hi) + 1)
    ks = ks[ks % 2 == 1]
    if ks.size < 2 * window:
        raise ValueError("k_range too narrow for the requested window")
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
    if len(pts_k) < 3:
        return RegularityFit(
            exponent=float("nan"),
            s_star=float("nan"),
            residual=float("inf"),
            conclusive=False,
        )
    logk = np.log(np.asarray(pts_k))
    loga = np.log(np.asarray(pts_a))
    A = np.vstack([logk, np.ones(logk.size)]).T
    sol, *_ = np.linalg.lstsq(A, loga, rcond=None)
    resid = float(np.sqrt(np.mean((loga - A @ sol) ** 2)))
    p = float(-sol[0])
    return RegularityFit(
        exponent=p,
        s_star=p - 0.5,
        residual=resid,
        conclusive=resid <= residual_threshold,
    )


# ---------------------------------------------------------------------------
# calibrated Monte Carlo audits
# ---------------------------------------------------------------------------
#
# Each audit draws its samples one at a time, in a fixed order from its seed,
# and measures them in blocks of stacked rows (sp.audit_blocks).


@dataclass(frozen=True)
class AlgebraReport:
    C_alg: float
    worst_calibration: float
    worst_fresh: float
    trials: int
    passed: bool


def _lifted_draw(rng, k_max: int, decay: np.ndarray):
    theta = float(rng.uniform(0.5, 1.5))
    modes = rng.normal(size=k_max) * decay * float(rng.uniform(0.1, 1.0))
    return theta, modes


def _draw_block(rows: int, draw) -> tuple:
    """rows samples of draw() (each a tuple), stacked field by field in drawing order."""
    return tuple(np.array(col) for col in zip(*(draw() for _ in range(rows))))


@lru_cache(maxsize=None)
def _fine_sines(k_max: int) -> np.ndarray:
    """Read-only (k_max, 4 k_max + 3) table: modes @ table is eval_modes_on on the 4x refined grid, per row."""
    table = np.sin(np.outer(np.arange(1, k_max + 1, dtype=float) * np.pi, sp.grid(4 * k_max + 3)))
    table.setflags(write=False)
    return table


def _worst(num, den) -> float:
    """Largest num/den over the rows whose den is not zero; 0 when there is none."""
    keep = den != 0.0
    return float(np.max(num / np.where(keep, den, 1.0), where=keep, initial=0.0))


def algebra_property_check(
    trials: int = 10_000,
    k_max: int = 32,
    seed: int = 0,
    calibration_trials: int = 2000,
) -> AlgebraReport:
    """Calibrate C_alg with ||fg||_H2 <= C_alg ||f||_H2 ||g||_H2, then verify fresh.

    Draws are constant lifts plus random sine parts; products are formed on a
    4x refined grid and measured through the same lifted-H2 metric, the
    discrete shadow of the algebra property.  The constant pair f = g = 1
    (ratio exactly 1) anchors the calibration set, and the calibrated constant
    carries a 1.5x safety margin over the worst observed ratio.
    """
    margin = 1.5
    table = _fine_sines(k_max)
    decay = np.arange(1, k_max + 1, dtype=float) ** -2.2

    def worst_ratio(thf, mf, thg, mg):
        th = thf * thg
        prod = (thf[:, None] + mf @ table) * (thg[:, None] + mg @ table) - th[:, None]
        num = sp.lifted_norm_H2(sp.sine_transform(prod), th)
        return _worst(num, sp.lifted_norm_H2(mf, thf) * sp.lifted_norm_H2(mg, thg))

    def audit(rng, n_pairs):
        def pair():
            return _lifted_draw(rng, k_max, decay) + _lifted_draw(rng, k_max, decay)

        return max((worst_ratio(*_draw_block(rows, pair)) for rows in sp.audit_blocks(n_pairs)), default=0.0)

    one, zero = np.ones(1), np.zeros((1, k_max))
    worst_cal = max(worst_ratio(one, zero, one, zero), audit(np.random.default_rng(seed), calibration_trials))
    C_alg = margin * worst_cal
    worst_fresh = audit(np.random.default_rng(seed + 1), trials)
    return AlgebraReport(
        C_alg=C_alg,
        worst_calibration=worst_cal,
        worst_fresh=worst_fresh,
        trials=trials,
        passed=worst_fresh <= C_alg,
    )


@dataclass(frozen=True)
class InversePowerReport:
    C1: float
    C2: float
    C3: float
    worst_single: tuple  # worst ||1/w^k||_H2 / C1^k for k = 1, 2, 3
    worst_diff1: float  # worst ||1/w1 - 1/w2||_H2 / (C2 ||dw||_H2)
    worst_diff2: float  # worst ||1/w1^2 - 1/w2^2||_H2 / (C3 ||dw||_H2)
    trials: int
    passed: bool


def _ball_draw(rng, k_max: int, r: float) -> np.ndarray:
    """Random zero-trace mode vector with H2 norm uniformly in (0, r]."""
    modes = rng.normal(size=k_max) * np.arange(1, k_max + 1, dtype=float) ** -3
    nrm = sp.norm_Hk(modes, 2)
    if nrm == 0.0:
        return modes
    return modes * (r * float(rng.uniform(0.05, 1.0)) / nrm)


def inverse_power_bounds_check(
    p: ModelParams,
    w0: GridField,
    r: float | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> InversePowerReport:
    """Audit ||1/w^k||_H2 <= C1^k and the two difference bounds on the r-ball.

    Samples are w = w0 + (zero-trace perturbation) with perturbation H2 norm
    at most r < kappa/(2C); inverse powers are expanded on a 4x refined grid
    and measured in the lifted H2 metric (differences are zero-trace, so the
    lifts cancel there).  C2 = 2 C1^3 and C3 = 3 C1^4 follow the constant
    assembly of the estimates chain.
    """
    cc = dp.contraction_constants(p, w0)
    r = cc.radius(r)
    k_max = w0.n
    table = _fine_sines(k_max)
    base_fine = sp.sine_transform(w0.values - w0.bv) @ table + w0.bv
    rng = np.random.default_rng(seed)

    def inv_modes(d, kpows):
        w_fine = base_fine + d @ table
        if float(w_fine.min()) <= 0.0:
            raise RuntimeError("gap closed inside the sampling ball (r too large)")
        return [sp.sine_transform(w_fine ** (-float(k)) - w0.bv ** (-float(k))) for k in kpows]

    worst_single = [0.0, 0.0, 0.0]
    worst_d1 = 0.0
    worst_d2 = 0.0
    for rows in sp.audit_blocks(trials):
        d1, d2 = _draw_block(rows, lambda: (_ball_draw(rng, k_max, r), _ball_draw(rng, k_max, r)))
        inv1 = inv_modes(d1, (1, 2, 3))
        inv2 = inv_modes(d2, (1, 2))
        for kpow in (1, 2, 3):
            nrm = sp.lifted_norm_H2(inv1[kpow - 1], w0.bv ** (-float(kpow)))
            worst_single[kpow - 1] = max(worst_single[kpow - 1], _worst(nrm, cc.C1**kpow))
        den = sp.norm_Hk(d1 - d2, 2)
        worst_d1 = max(worst_d1, _worst(sp.norm_Hk(inv1[0] - inv2[0], 2), cc.C2 * den))
        worst_d2 = max(worst_d2, _worst(sp.norm_Hk(inv1[1] - inv2[1], 2), cc.C3 * den))
    passed = max(worst_single) <= 1.0 and worst_d1 <= 1.0 and worst_d2 <= 1.0
    return InversePowerReport(
        C1=cc.C1,
        C2=cc.C2,
        C3=cc.C3,
        worst_single=tuple(worst_single),
        worst_diff1=worst_d1,
        worst_diff2=worst_d2,
        trials=trials,
        passed=passed,
    )


@dataclass(frozen=True)
class LipschitzReport:
    name: str
    bound: float
    worst_ratio: float
    trials: int
    passed: bool


def lipschitz_G_check(
    p: ModelParams,
    w0: GridField,
    r: float | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> LipschitzReport:
    """Audit ||G(w1) - G(w2)||_H2 <= L_G ||w1 - w2||_H2 on fresh pairs in the r-ball.

    L_G = beta_F C2 is the theory constant for the admissible ball; the
    measured quotients sit far below it (the chain is existence-grade, not
    sharp), and the audit's job is zero violations, not tightness.
    """
    cc = dp.contraction_constants(p, w0)
    r = cc.radius(r)
    L = cc.L_G
    k_max = w0.n
    table = _fine_sines(k_max)
    base_fine = sp.sine_transform(w0.values - w0.bv) @ table + w0.bv
    rng = np.random.default_rng(seed)
    worst = 0.0
    for rows in sp.audit_blocks(trials):
        d1, d2 = _draw_block(rows, lambda: (_ball_draw(rng, k_max, r), _ball_draw(rng, k_max, r)))
        w1 = base_fine + d1 @ table
        w2 = base_fine + d2 @ table
        g_diff = -p.beta_F / w1**2 + p.beta_F / w2**2
        worst = max(worst, _worst(sp.norm_Hk(sp.sine_transform(g_diff), 2), sp.norm_Hk(d1 - d2, 2)))
    return LipschitzReport(
        name="G", bound=L, worst_ratio=worst, trials=trials, passed=worst <= L
    )


def lipschitz_F_check(
    p: ModelParams,
    u0: GridField,
    init: StateVW,
    trials: int = 1000,
    seed: int = 0,
) -> LipschitzReport:
    """Audit ||F(u1) - F(u2)||_L2 <= L_e ||u1 - u2||_H2 at frozen (v, w), the plate state init.

    L_e is the nonlinearity constant from the theory chain for the given data;
    pressure samples are drawn in an H2 ball of radius 0.2 around u0 and
    measured through the Reynolds stencil of eval_F.
    """
    ball = 0.2
    tc = dp.theory_constants(p, u0, init)
    n = u0.n
    rng = np.random.default_rng(seed)
    decay = np.arange(1, n + 1, dtype=float) ** -3
    th2 = p.lift.theta2
    v_field, w_field = dp.plate_fields(init, th2)  # theory_constants raised if this gap is closed
    v, w = v_field.values, w_field.values

    def draw():  # both mode vectors of a pair, then both radii
        return rng.normal(size=n) * decay, rng.normal(size=n) * decay, rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)

    worst = 0.0
    for rows in sp.audit_blocks(trials):
        m1, m2, s1, s2 = _draw_block(rows, draw)
        m1 *= (ball * s1 / np.maximum(1e-300, sp.norm_Hk(m1, 2)))[:, None]
        m2 *= (ball * s2 / np.maximum(1e-300, sp.norm_Hk(m2, 2)))[:, None]
        u1 = u0.values + sp.inverse_sine_transform(m1)
        u2 = u0.values + sp.inverse_sine_transform(m2)
        dF = ry._reynolds(u1, u0.bv, v, w, th2) - ry._reynolds(u2, u0.bv, v, w, th2)
        ry._require_finite("F", dF)
        worst = max(worst, _worst(sp.norm_Hk(sp.sine_transform(dF), 0), sp.norm_Hk(m1 - m2, 2)))
    return LipschitzReport(
        name="F", bound=tc.L_e, worst_ratio=worst, trials=trials, passed=worst <= tc.L_e
    )


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyRow:
    errors: tuple
    order: float


# The model of the convergence study and of cli's verification suites.
VERIFY_PARAMS = ModelParams(beta_F=1.0, beta_p=0.5, lift=sp.BoundaryLift(1.0, 1.0), eps1=0.5)


def _smooth_init(n: int) -> CoupledState:
    x = sp.grid(n)
    u = GridField(values=1.0 + 0.1 * np.sin(np.pi * x), bv=1.0)
    w = np.zeros(n)
    w[0] = 0.05
    return CoupledState(u=u, vw=StateVW(v=np.zeros(n), w=w))


def _driver_observable(p: ModelParams, n: int, T: float, tol: float, n_t: int):
    """The first 8 pressure and gap modes of the driver's final state."""
    rep = ry.run_coupled(p, _smooth_init(n), T, DriverConfig(n_t=n_t, tol=tol))
    if rep.termination != "converged":
        raise RuntimeError(f"convergence study run did not converge: {rep.termination}")
    u_modes = sp.sine_transform(rep.final_state.u.values - p.lift.theta1)
    return np.concatenate([u_modes[:8], rep.final_state.vw.w[:8]])


def convergence_study() -> dict:
    """Self-convergence orders of the integrators along their refinement axes,
    as {axis: StudyRow} in the order below.

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
    rows = {}

    # --- oracle_dt ---------------------------------------------------------
    n = 24
    init = _smooth_init(n)
    dts = (8e-5, 4e-5, 2e-5)  # errors above the rounding floor; 8e-5 < 0.5/omega_max = 8.79e-5
    finals = [
        ry.integrate_reference(p, init, T, dt, store_every=10**9).u[-1] for dt in dts
    ]
    e1 = float(np.abs(finals[0] - finals[1]).max())
    e2 = float(np.abs(finals[1] - finals[2]).max())
    rows["oracle_dt"] = StudyRow(errors=(e1, e2), order=math.log2(e1 / e2))

    # --- driver_h ----------------------------------------------------------
    obs = {n: _driver_observable(p, n, T, tol=1e-10, n_t=32) for n in (16, 32, 64)}
    d1 = float(np.abs(obs[16] - obs[32]).max())
    d2 = float(np.abs(obs[32] - obs[64]).max())
    rows["driver_h"] = StudyRow(errors=(d1, d2), order=math.log2(d1 / d2))

    # --- plate_k -----------------------------------------------------------
    # Spectral accuracy in k_max requires data whose odd periodic extension is
    # analytic.  The physical gas-film term G carries a constant part that is
    # incompatible with the pinned sine basis (the same boundary mismatch that
    # caps the model's Sobolev regularity), so this sub-study drives the plate
    # with beta_F = 0 and a compatible analytic pressure profile instead.
    p_k = ModelParams(beta_F=0.0, beta_p=1.0, lift=p.lift, eps1=p.eps1)
    th1 = p.lift.theta1

    def plate_w(k):
        path = dp.uniform_pressure_path(
            lambda x, t: th1
            + 0.2 * np.sin(np.pi * x) * np.exp(np.cos(2 * np.pi * x) - 1.0) * (1.0 + t / T),
            T,
            16,
            k,
            th1,
        )
        w1 = np.zeros(k)
        w1[0] = 0.1
        vw, _ = dp.picard_dispersive(p_k, path, StateVW(v=np.zeros(k), w=w1), tol=1e-13)
        return vw.w[-1]

    k_levels = (8, 16, 32)
    ref = plate_w(64)
    errs_k = tuple(float(np.abs(plate_w(k) - ref[:k]).max()) for k in k_levels)
    ord1 = math.log2(errs_k[0] / max(errs_k[1], 1e-300))
    ord2 = math.log2(errs_k[1] / max(errs_k[2], 1e-300))
    rows["plate_k"] = StudyRow(errors=errs_k, order=max(ord1, ord2))

    # --- gamma_tol ---------------------------------------------------------
    n = 32
    ref_obs = _driver_observable(p, n, T, tol=1e-12, n_t=32)
    tols = (1e-3, 1e-5, 1e-7)
    errs_t = tuple(
        float(np.abs(_driver_observable(p, n, T, tol=tl, n_t=32) - ref_obs).max()) for tl in tols
    )
    logs = [math.log10(max(e, 1e-300)) for e in errs_t]
    slope = (logs[0] - logs[-1]) / (math.log10(tols[-1]) - math.log10(tols[0]))
    rows["gamma_tol"] = StudyRow(errors=errs_t, order=-slope)

    return rows
