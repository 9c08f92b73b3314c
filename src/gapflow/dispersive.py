"""Semilinear plate subsystem for a prescribed pressure path.

Given u(t) (pressure, boundary value theta1), solve for the plate state
(v, w~) the mild-solution fixed point

    (v, w~)(t) = T(t)(v0, w~0) + int_0^t T(t-s) ( G(w~)(s) + beta_p u~(s), 0 ) ds,

    G(w~) = -beta_F/(w~ + theta2)^2 + beta_p (theta1 - 1),

by Picard iteration, with the semigroup T and the Duhamel kicks from
gapflow.spectral: a solve returns a converged PicardReport or raises
PicardDivergence.  Also provides the fixed-point loop shared by every
contraction in the package and the constants chain with its horizon T0.
ModelParams holds the five coefficients under their config key names;
plate_setup(p, init, times) is a solve's one source of model, start state,
grid and constants, for picard_dispersive and verify.frechet_W alike.

The contraction theory constants (C1, C2, L_G, T0, L_W, ...) are rigorous but
existence-grade: measured contraction ratios run orders of magnitude below the
bounds, which is what the audits check (bound >= measured, never equality).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spectral import (
    GridField,
    PlateSpectrum,
    StateVW,
    dealias_apply,
    duhamel_coeffs,
    duhamel_sweep,
    gap_min,
    grid,
    inverse_sine_transform,
    norm_Hk,
    plate_eigenvalues,
    refined_values,
    require_open_gap,
    sine_transform,
    sobolev_embedding_constant,
)


@dataclass(frozen=True)
class ModelParams:
    """The five model coefficients, named as the keys of a config's [params] section.

    beta_F, beta_p >= 0 (zero is allowed for degenerate diagnostics like the
    energy-identity check, where the forcing vanishes identically); the
    boundary values theta1 of u and theta2 of w, and eps1, are > 0.  All five
    are finite.
    """

    beta_F: float
    beta_p: float
    theta1: float
    theta2: float
    eps1: float

    def __post_init__(self):
        if not (0 <= self.beta_F < np.inf and 0 <= self.beta_p < np.inf and 0 < self.eps1 < np.inf):
            raise ValueError("beta_F, beta_p must be finite and >= 0, and eps1 finite and > 0")
        if not (0 < self.theta1 < np.inf and 0 < self.theta2 < np.inf):
            raise ValueError(f"boundary values must be finite and positive (theta1={self.theta1}, theta2={self.theta2})")


@dataclass(frozen=True)
class PressurePath:
    """u on an increasing time grid starting at 0: values[i] holds the interior
    samples at times[i], shape (n_t + 1, n); bv is the boundary trace theta1."""

    times: np.ndarray
    values: np.ndarray
    bv: float

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        if self.values.ndim != 2 or self.values.shape[0] != self.times.size or self.values.shape[1] < 3:
            raise ValueError("values need one row of n >= 3 interior samples per time node")
        if not (np.all(np.isfinite(self.values)) and np.isfinite(self.bv)):
            raise ValueError(f"pressure values and trace must be finite, got bv={self.bv}")


@dataclass(frozen=True)
class VWPath:
    """Plate trajectory in mode space: v[i] and w[i] (w~ = w - theta2) at times[i],
    each of shape (n_t + 1, k_max)."""

    times: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @cached_property
    def w_refined_min(self) -> np.ndarray:
        """min of w~ over the pad-2 refined grid (refined_values, boundary trace
        excluded) at each node, as an (n_t + 1, 1) column.  Synthesized on first
        use and kept, so the plate solve's lower-bound check and the coupled
        driver's gap monitor share one synthesis.  gap_min(w_refined_min +
        theta2, theta2) is each node's gap minimum: a float shift is monotone,
        so adding theta2 after the minimum is bitwise adding it before."""
        return refined_values(self.w).min(axis=-1, keepdims=True)


@dataclass
class PicardReport:
    """Sweeps and ratios of a fixed-point solve; a returned report is a converged one."""

    iterations: int
    contraction_ratios: list
    min_w: float = np.nan  # min gap over the fine grid (trace included) of a returned plate solve
    banach_ratio: float = np.nan  # largest ratio measured above the rounding floor (gamma_iterate)


class PicardDivergence(RuntimeError):
    """Fixed-point sweep stopped contracting; diagnostics in .report."""

    def __init__(self, message: str, report: PicardReport):
        super().__init__(message)
        self.report = report


def gap_field(s: StateVW, theta2: float) -> GridField:
    """The gap theta2 + w~ of one plate state on the n = k_max grid, carrying its trace theta2."""
    return GridField(values=inverse_sine_transform(s.w) + theta2, bv=theta2)


def plate_fields(s: StateVW, theta2: float) -> tuple:
    """(v, w) of one plate state as grid fields on the n = k_max grid; w is its gap_field."""
    return GridField(values=inverse_sine_transform(s.v), bv=0.0), gap_field(s, theta2)


def state_norm_L2H2(v: np.ndarray, w: np.ndarray):
    """|| (v, w) ||_{L2 x H2} = sqrt( ||v||_L2^2 + ||w||_H2^2 ) in mode space, along the last axis."""
    return np.sqrt(norm_Hk(v, 0) ** 2 + norm_Hk(w, 2) ** 2)


def path_diff_norm(a: VWPath, b: VWPath) -> float:
    """sup_t || (a - b)(t) ||_{L2 x H2} over the nodes of two plate paths."""
    return float(np.max(state_norm_L2H2(a.v - b.v, a.w - b.w)))


def pressure_diff_norm(a: PressurePath, b: PressurePath) -> float:
    """sup_t || a(t) - b(t) ||_H2 over the nodes of two pressure paths (the lifts cancel)."""
    return float(np.max(norm_Hk(sine_transform(a.values - b.values), 2)))


def _G_fine(w_fine: np.ndarray, p: ModelParams) -> np.ndarray:
    """G = -beta_F/w^2 + beta_p(theta1 - 1) at gap samples w_fine (trace included).

    Raises QuenchSignal where the gap is not strictly positive.
    """
    require_open_gap(w_fine, "gap closed: w <= 0 on the dealiasing grid")
    return -p.beta_F / w_fine**2 + p.beta_p * (p.theta1 - 1.0)


def _G_modes(w_modes: np.ndarray, p: ModelParams) -> np.ndarray:
    """Mode coefficients of G(w~) = -beta_F/(w~+theta2)^2 + beta_p(theta1 - 1).

    G is evaluated pointwise on the pad-2 refined grid (the dealiasing, see
    _G_fine).  A (rows, k) array of mode vectors gives one row of
    coefficients per row.
    """
    return dealias_apply(lambda w_fine: _G_fine(w_fine, p), w_modes, bvs=(p.theta2,))


def g0_norm_H2(p: ModelParams, w0: GridField, u0: GridField) -> float:
    """||G0||_H2 with G0 = G(w~0) + beta_p u~0, split into zero-trace part + constant.

    The zero-trace part -beta_F (1/w0^2 - 1/theta2^2) + beta_p u~0 vanishes at
    the boundary, so its spectral H2 norm is exact; the constant
    cb = -beta_F/theta2^2 + beta_p(theta1 - 1) enters as the lift of norm_Hk.
    """
    th2 = p.theta2
    w_modes = sine_transform(w0.values - th2)
    u_modes = sine_transform(u0.values - u0.bv)

    def z_of(w_fine, u_fine):
        require_open_gap(w_fine, "gap closed while forming G0")
        return -p.beta_F * (1.0 / w_fine**2 - 1.0 / th2**2) + p.beta_p * u_fine

    z_modes = dealias_apply(z_of, w_modes, u_modes, bvs=(th2, 0.0), pad=4)
    cb = -p.beta_F / th2**2 + p.beta_p * (p.theta1 - 1.0)
    return norm_Hk(z_modes, 2, cb)


# --- contraction-theory constants -------------------------------------------

# Hoelder exponent of the plate path in the constants chain (L_U) and of the
# admissible horizon T (1/(2 rho))^(1/alpha) that a GammaDivergence reports
HOLDER_ALPHA = 0.2


@lru_cache(maxsize=None)
def embedding_C(k_max: int) -> float:
    return sobolev_embedding_constant(max(k_max, 8))


@dataclass(frozen=True)
class ContractionConstants:
    """The constants chain kappa -> C -> C_tilde -> C1 -> C2,C3 -> L_G."""

    kappa: float
    C: float
    C_tilde: float
    C1: float
    C2: float
    C3: float
    L_G: float

    @property
    def r_max(self) -> float:
        return self.kappa / (2.0 * self.C)

    def radius(self, r: float | None = None) -> float:
        """The ball radius r (default 0.9 r_max); raises unless 0 < r < r_max = kappa/(2C)."""
        r = 0.9 * self.r_max if r is None else r
        if not (0.0 < r < self.r_max):
            raise ValueError(f"r={r} outside (0, kappa/(2C)) = (0, {self.r_max:.6g})")
        return r


def contraction_constants(p: ModelParams, w0: GridField) -> ContractionConstants:
    """The chain for the start gap w0; kappa is its minimum over the closed interval."""
    require_open_gap(np.append(w0.values, w0.bv), "w0 must be strictly positive")
    kappa = gap_min(w0.values, w0.bv)
    C = embedding_C(w0.n)
    w0_h2 = norm_Hk(sine_transform(w0.values - w0.bv), 2, w0.bv)
    C_tilde = kappa / (2.0 * C) + w0_h2
    C1_sq = (
        4.0 * C / kappa**2
        + 16.0 / kappa**4 * C_tilde**2
        + (4.0 / kappa**2 + 16.0 * C / kappa**3 * C_tilde) ** 2 * C_tilde**2
    )
    C1 = float(np.sqrt(C1_sq))
    C2 = 2.0 * C1**3
    C3 = 3.0 * C1**4
    return ContractionConstants(kappa=kappa, C=C, C_tilde=C_tilde, C1=C1, C2=C2, C3=C3, L_G=p.beta_F * C2)


def delta_o_bound(init: StateVW, spec: PlateSpectrum, r: float) -> float:
    """Largest delta <= 1 with sup_{t<=delta} ||T(t)Phi0 - Phi0||_{L2xH2} <= r/2.

    Uses the monotone per-mode envelope |cos(om t)-1| <= min(2, (om delta)^2/2),
    |sin(om t)| <= min(1, om delta), so the bisection bounds the supremum from
    above (a certified delta_o, slightly conservative).
    """
    om = spec.omega

    def dev(delta):
        e_cos = np.minimum(2.0, (om * delta) ** 2 / 2.0)
        e_sin = np.minimum(1.0, om * delta)
        dv = np.abs(init.v) * e_cos + np.abs(init.w) * om * e_sin
        dw = np.abs(init.w) * e_cos + np.abs(init.v) * e_sin / om
        return state_norm_L2H2(dv, dw)

    if dev(1.0) <= r / 2.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dev(mid) <= r / 2.0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class TheoryConstants(ContractionConstants):
    """Full existence-theory constant chain for one data set (kappa ... L_e).

    These are rigorous upper bounds, not sharp values: audits verify
    measured <= bound, and the coupled driver treats them as diagnostics.
    """

    T0: float
    T0_branches: tuple
    L_W: float
    L_U: float
    L_e: float


def theory_constants(p: ModelParams, u0: GridField, init: StateVW) -> TheoryConstants:
    """Evaluate the whole constants chain on the start pressure u0 and plate state init.

    The start gap w0 is gap_field(init, theta2), with the trace theta2 of p.

    kappa, C -> C_tilde -> C1 (inverse-gap H2 bound) -> C2, C3 (difference
    bounds for 1/w^2, 1/w^3) -> L_G -> T0 -> L_W (pressure-to-plate Lipschitz)
    -> L_U (Hoelder-in-time, exponent HOLDER_ALPHA) -> L_e
    (pressure-side Lipschitz of F).  The ball radius is the default
    0.9 kappa/(2C), the semigroup bound M0 is 1 (T is unitary in X) and
    delta_o is capped at 1.  T0 is the local-existence horizon

        T0 = min{ delta_o, 1/(2 M0 L_G), kappa/(2M0) / ((L_G+1)kappa + 2C||G0||_H2) },

    the minimum of T0_branches.
    """
    M0 = 1.0
    w0 = gap_field(init, p.theta2)
    cc = contraction_constants(p, w0)
    r = cc.radius()
    spec = plate_eigenvalues(init.k_max)
    g0h2 = g0_norm_H2(p, w0, u0)
    branches = (
        delta_o_bound(init, spec, r),
        1.0 / (2.0 * M0 * cc.L_G) if cc.L_G > 0 else np.inf,
        cc.kappa / (2.0 * M0) / ((cc.L_G + 1.0) * cc.kappa + 2.0 * cc.C * g0h2),
    )
    T0 = float(min(branches))

    L_W = T0 * M0 * p.beta_p * np.exp(M0 * cc.L_G * T0)

    u0_modes = sine_transform(u0.values - u0.bv)
    u0_h2 = norm_Hk(u0_modes, 2, u0.bv)
    u0t_h2 = norm_Hk(u0_modes, 2)  # ||u~0||_H2, zero trace
    C_t1 = u0_h2 + cc.kappa / (2.0 * cc.C)
    C_t2 = norm_Hk(init.v, 0) + cc.kappa / (2.0 * cc.C)

    # Hoelder constant of the plate path: P0 and the Gronwall amplification
    P0 = cc.kappa * (cc.L_G + 1.0) / (2.0 * cc.C) + g0h2
    amp = np.exp(M0 * cc.L_G * T0) * M0
    # graph norm of Phi0 in D(A), with A(v, w) = (A w, v) spectrally (-mu_k w_k, v_k)
    dom_A = np.hypot(state_norm_L2H2(init.v, init.w), state_norm_L2H2(-spec.mu * init.w, init.v))
    L_U = amp * (dom_A + P0) * T0 ** (1.0 - HOLDER_ALPHA) + amp * p.beta_p * T0 * (
        cc.kappa / (2.0 * cc.C) + u0t_h2
    )

    # pressure-side Lipschitz constant of F
    C_hat1 = 3.0 * cc.C * cc.C1 * L_W * cc.C_tilde**2 * C_t1**2
    C_hat2 = 2.0 * cc.C * cc.C1 * cc.C_tilde**3 * C_t1
    C_hat3 = cc.C * (C_t2 * cc.C1 + C_t1 * cc.C1 * L_W + C_t1 * C_t2 * cc.C1**2 * L_W)
    L_e = cc.C * cc.C1**2 * cc.C_tilde**3 * C_t1**2 * L_W + C_hat1 + C_hat2 + C_hat3

    return TheoryConstants(**vars(cc), T0=T0, T0_branches=branches, L_W=float(L_W), L_U=float(L_U), L_e=float(L_e))


# --- Picard construction of the mild solution --------------------------------


@dataclass(frozen=True)
class PlateSetup:
    """Everything of a plate solve but its pressure path: the model, the start
    state and the time grid, the grid's Duhamel coefficients, and the
    contraction constants of the start gap."""

    params: ModelParams
    init: StateVW
    times: np.ndarray
    omega: np.ndarray
    coeffs: tuple
    cc: ContractionConstants


def plate_setup(p: ModelParams, init: StateVW, times: np.ndarray) -> PlateSetup:
    """The PlateSetup of plate solves from init on the time grid times.

    A caller that solves on several pressure paths over one grid from one
    state (gamma_iterate) builds it once and passes it to every solve.
    """
    omega = plate_eigenvalues(init.k_max).omega
    cc = contraction_constants(p, gap_field(init, p.theta2))
    return PlateSetup(p, init, times, omega, duhamel_coeffs(omega, np.diff(times)), cc)


def fixed_point(step, x0, dist, tol: float, max_iter: int, diverged) -> tuple:
    """Iterate x <- step(x) from x0 until dist(new, old) <= tol.

    Returns (x, diffs, ratios, status): the last iterate, the distance moved
    by each sweep (len(diffs) is the sweep count), the ratios of successive
    distances (taken when the earlier one is finite and positive), and status
    "converged", "diverged" (diverged(ratios) held after a sweep that missed
    tol) or "exhausted" (max_iter sweeps without either).  Callers turn the
    last two into their own exceptions.
    """
    x, diffs, ratios = x0, [], []
    for _ in range(max_iter):
        new = step(x)
        diffs.append(dist(new, x))
        prev = diffs[-2] if len(diffs) > 1 else np.nan
        if np.isfinite(prev) and prev > 0:
            ratios.append(diffs[-1] / prev)
        x = new
        if diffs[-1] <= tol:
            return x, diffs, ratios, "converged"
        if diverged(ratios):
            return x, diffs, ratios, "diverged"
    return x, diffs, ratios, "exhausted"


# sweep limit of a plate solve
_PICARD_MAX_ITER = 200


def picard_dispersive(
    setup: PlateSetup, u_path: PressurePath, *, tol: float = 1e-10, start: VWPath | None = None
) -> tuple:
    """Construct the mild solution on u_path by Picard sweeps.

    setup = plate_setup(p, init, times) is the solve's one source of the
    model p, the start state init, the time grid (u_path must be sampled on
    it), the Duhamel coefficients and the contraction constants.  The
    certified regime is a horizon T = times[-1] below the horizon T0 of
    theory_constants, where the sweep map is a contraction with ratio <= T*M0*L_G;
    the implementation accepts any finite horizon, measures the actual ratios,
    and raises PicardDivergence on observed non-contraction (two successive
    ratios >= 1) or when _PICARD_MAX_ITER sweeps miss tol.  The ball radius
    of the lower-bound check is the default 0.9 kappa/(2C).

    The first sweep freezes G at w~0 (a cold start), or along start.w when a
    plate path on the same time grid is given (a warm start, for instance
    the solution for a nearby pressure path: it depends Hoelder-continuously
    on the pressure, so fewer sweeps reach tol).  Both converge to the same
    fixed point within tol.
    """
    p, init, times, cc = setup.params, setup.init, setup.times, setup.cc
    u_modes = sine_transform(u_path.values - u_path.bv)
    if u_modes.shape[1] != init.k_max:
        raise ValueError("pressure grid size and state k_max must agree")
    if not np.array_equal(u_path.times, times):
        raise ValueError("setup was built for another time grid")
    if start is not None and not (
        np.array_equal(start.times, times) and start.v.shape == start.w.shape == (times.size, init.k_max)
    ):
        raise ValueError("start must be a plate path on the time grid and mode count of this solve")

    def march(g):
        """One Duhamel sweep with G given per node (rows of g, or one row for all)."""
        return VWPath(times, *duhamel_sweep(init, setup.omega, setup.coeffs, g + p.beta_p * u_modes))

    path, diffs, ratios, status = fixed_point(
        lambda path: march(_G_modes(path.w, p)),
        march(_G_modes(init.w if start is None else start.w, p)),  # first sweep: G frozen at w~0 or along start
        path_diff_norm,
        tol,
        _PICARD_MAX_ITER,
        lambda ratios: len(ratios) >= 2 and ratios[-1] >= 1.0 and ratios[-2] >= 1.0,
    )
    if status != "converged":
        message = (
            f"Picard sweeps stopped contracting (last ratios {ratios[-2]:.3f}, {ratios[-1]:.3f}); "
            f"horizon T={times[-1]:.3g} is past the contraction regime"
            if status == "diverged"
            else f"no convergence to tol={tol:g} within {_PICARD_MAX_ITER} sweeps (last diff {diffs[-1]:.3g})"
        )
        raise PicardDivergence(message, PicardReport(len(diffs), ratios))
    drift = float(np.max(norm_Hk(path.w - init.w, 2)))  # sup_t ||w~(t) - w~0||_H2
    min_w = float(gap_min(path.w_refined_min + p.theta2, p.theta2).min())
    # Lower-bound preservation: inside the certified ball the gap cannot lose
    # more than C*r < kappa/2 in sup norm.
    r = cc.radius()
    if drift <= r and min_w < cc.kappa / 2.0 - 1e-12:
        raise RuntimeError(
            f"lower-bound invariant violated: drift {drift:.3g} <= r {r:.3g} "
            f"but min w = {min_w:.6g} < kappa/2 = {cc.kappa/2:.6g}"
        )
    return path, PicardReport(len(diffs), ratios, min_w=min_w)


def uniform_pressure_path(u_fn, T: float, n_t: int, n: int, theta1: float) -> PressurePath:
    """Sample u_fn(x, t) on the uniform time grid (n_t steps) and interior nodes."""
    ts = np.linspace(0.0, T, n_t + 1)
    x = grid(n)
    return PressurePath(times=ts, values=np.array([u_fn(x, t) for t in ts], dtype=float), bv=theta1)
