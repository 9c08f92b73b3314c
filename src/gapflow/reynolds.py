"""Quasilinear pressure dynamics coupled to the plate.

This module owns the gas-film side of the model and the fully coupled run:

* ``eval_F`` -- the Reynolds nonlinearity F(u; v, w) on the interior grid,
* ``assemble_Pstar`` -- the Dirichlet-realized linearization of F at the
  initial data (the exact Jacobian of the discrete ``eval_F`` in u),
* elliptic and sectorial diagnostics of that linearization,
* ``linear_parabolic_solve`` -- the analytic-semigroup propagator realized by
  dense matrix exponentials with exponential-trapezoid forcing,
* ``gamma_iterate`` -- the outer contraction that produces the pressure fixed
  point (each sweep solves the plate subproblem for the current pressure),
* ``frechet_F`` / ``holder_F_check`` -- derivative assembly and the Hoelder
  bound audit for the right-hand side,
* ``mol_rhs`` / ``integrate_reference`` -- the independent Runge-Kutta
  method-of-lines oracle on the same spatial discretization,
* ``run_coupled`` / ``continue_run`` -- the adaptive chunked driver with
  quench detection, and the restart machinery.

Geometry is the unit interval with interior nodes x_j = j/(n+1).  Pressure
fields carry their boundary trace (theta_1) in ``GridField.bv`` (one state)
or ``PressurePath.bv`` (a path, one row of samples per time node); plate
fields live in sine-mode space and are synthesized onto the pressure grid
where the two equations meet.  That synthesis is the n = k_max inverse sine
transform, so everything that couples the two sides -- the Gamma sweep, the
F derivative, the oracle right-hand side and the driver -- requires the mode
count to equal the grid size (k_max == n); the plate forcing built from
pressure samples is then the exact sine expansion of the grid data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from . import dispersive as dp
from . import spectral as sp
from .dispersive import ModelParams, PicardDivergence, PicardReport, PressurePath, VWPath
from .spectral import GridField, QuenchSignal, StateVW

__all__ = [
    "PstarOperator",
    "SectorReport",
    "EllipticReport",
    "CoupledState",
    "StepRecord",
    "RunReport",
    "DriverConfig",
    "GammaDivergence",
    "BlowupSignal",
    "EndgameBudgetSignal",
    "HolderFReport",
    "eval_F",
    "assemble_Pstar",
    "elliptic_form_check",
    "sector_check",
    "linear_parabolic_solve",
    "gamma_iterate",
    "frechet_F",
    "holder_F_check",
    "mol_rhs",
    "integrate_reference",
    "run_coupled",
    "continue_run",
    "mass_balance_residual",
    "equilibrium_state",
    "compat_regularity_proxy",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class PstarOperator:
    """Dense Dirichlet realization of the linearized pressure operator.

    ``matrix`` acts on interior values of zero-trace functions (boundary rows
    eliminated).  It is the exact algebraic Jacobian of the discrete
    ``eval_F`` with respect to u at (u0, v0, w0), which coincides with the
    conservative second-order stencil of

        psi -> (1/w0) D( w0^3 u0 D psi + (w0^3 D u0) psi ) - (v0/w0) psi.
    """

    matrix: np.ndarray
    u0: GridField
    v0: GridField
    w0: GridField
    h: float
    _prop_cache: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class SectorReport:
    """Measured sectoriality data: resolvent-norm products along rays."""

    omega_shift: float
    angle: float
    M_bound: float
    samples: list

    def __post_init__(self):
        if not (math.pi / 2 < self.angle < math.pi):
            raise ValueError("sector angle must lie in (pi/2, pi)")
        for lam, prod in self.samples:
            if not prod <= self.M_bound * (1.0 + 1e-9):
                raise ValueError(
                    f"resolvent product {prod} at lambda={lam} exceeds M={self.M_bound}"
                )


@dataclass
class EllipticReport:
    """Result of the quadratic-form lower bound check."""

    K: float
    K_o: float
    K2: float
    passed: bool
    worst_slack: float
    trials: int


@dataclass
class CoupledState:
    """Pressure field + plate state at one instant."""

    u: GridField
    vw: StateVW
    t: float = 0.0


@dataclass
class StepRecord:
    t: float
    min_w: float
    max_u: float
    mass_residual: float
    norm_X: float
    contraction_ratio: float


@dataclass
class RunReport:
    """Per-run record: parameters, discretization, termination, series."""

    params: ModelParams
    k_max: int
    n: int
    n_t: int
    tol: float
    T: float
    termination: str  # converged | quench | pressure_blowup | pressure_floor | budget | endgame_budget
    series: list
    T_used: float
    final_state: CoupledState
    states: list
    compat_proxy: float
    quench_eps: float
    u_cap: float
    quench_time: float | None = None
    note: str = ""
    config: "DriverConfig | None" = None


# Driver policy.  A chunk that contracts with ratio <= _GROW_BELOW grows
# 1.5x; once a chunk is below _TAIL_FLOOR and below _TAIL_FRACTION of the
# remaining horizon, the Runge-Kutta tail finishes the run; a run stops with
# "budget" after _MAX_CHUNKS chunk attempts.
_GROW_BELOW = 0.2
_TAIL_FLOOR = 1e-4
_TAIL_FRACTION = 0.05
_MAX_CHUNKS = 10_000
# Hoelder exponent in the admissible horizon T (1/(2 rho))^(1/alpha) that a
# GammaDivergence reports for a measured outer ratio rho.
_ALPHA = 0.2


@dataclass
class DriverConfig:
    """Adaptive-chunk driver knobs.

    ``n_t`` time samples per chunk; ``tol`` is the outer Gamma tolerance
    (inner plate solves run at 0.01 tol) and ``max_iter`` its sweep limit.
    The first chunk is ``chunk_init`` (default: min(T, 0.05 kappa^3/beta_F),
    the contraction horizon of the initial gap) and no chunk exceeds
    ``chunk_cap``.  A chunk that fails to contract is halved and one that
    contracts fast is grown; when imminent quench collapses the contraction
    horizon (like kappa^3/beta_F), the driver finishes with the Runge-Kutta
    tail on the same semidiscretization.  The run stops with "quench" once
    the gap falls to ``quench_eps`` and with "pressure_blowup" once max|u|
    reaches ``u_cap``.
    """

    n_t: int = 32
    tol: float = 1e-8
    max_iter: int = 40
    chunk_init: float | None = None
    chunk_cap: float | None = None
    quench_eps: float | None = None  # default 1e-3 * theta2
    u_cap: float | None = None  # default 1e6 * theta1


class GammaDivergence(PicardDivergence):
    """Outer contraction failed; carries the measured ratio and the horizon it implies."""

    def __init__(self, message: str, report: PicardReport, ratio: float, T_admissible: float):
        super().__init__(message, report)
        self.ratio = ratio
        self.T_admissible = T_admissible


class BlowupSignal(RuntimeError):
    """Pressure amplitude crossed the blowup cap during reference integration."""


@dataclass
class HolderFReport:
    measured_A: float
    measured_B: float
    bound_A: float
    bound_B: float
    L_A: float
    L_B: float
    passed: bool


# ---------------------------------------------------------------------------
# grid helpers
# ---------------------------------------------------------------------------


def _pad(values: np.ndarray, bv: float) -> np.ndarray:
    """Interior samples with the boundary value bv added at both ends of the last axis."""
    out = np.full(values.shape[:-1] + (values.shape[-1] + 2,), bv, dtype=float)
    out[..., 1:-1] = values
    return out


def _plate_fields(s: StateVW, theta2: float) -> tuple:
    """(v, w) of one plate state as grid fields on the n = k_max grid; w carries its trace theta2."""
    return (
        GridField(values=sp.inverse_sine_transform(s.v), bv=0.0),
        GridField(values=sp.inverse_sine_transform(s.w) + theta2, bv=theta2),
    )


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} values must be finite")


@lru_cache(maxsize=None)
def _plate_mu(k_max: int) -> np.ndarray:
    """mu_k of plate_eigenvalues(k_max), cached read-only for the oracle right-hand side."""
    mu = sp.plate_eigenvalues(k_max).mu
    mu.setflags(write=False)
    return mu


def _w_min_fine(w_modes: np.ndarray, theta2: float) -> float:
    """Gap minimum over the doubled sine grid (plus the boundary trace).

    The nonlinear terms are evaluated on this refined grid, so touchdown
    detection must look there too: near quench the mode-limited profile can
    dip between coarse nodes long before a coarse sample crosses the
    threshold.
    """
    return min(sp.refined_min(w_modes, theta2, 2), theta2)


# ---------------------------------------------------------------------------
# the nonlinearity and its linearization
# ---------------------------------------------------------------------------


def _reynolds(u: np.ndarray, u_bv: float, v: np.ndarray, w: np.ndarray, w_bv: float) -> np.ndarray:
    """The Reynolds stencil of eval_F on interior samples, along the last axis.

    u and w carry the Dirichlet traces u_bv and w_bv.  A (rows, n) stack gives
    one row of F per row, each bitwise equal to its own call.  No checks: the
    callers test the gap and finiteness.
    """
    h = 1.0 / (u.shape[-1] + 1)
    up = _pad(u, u_bv)
    wp = _pad(w, w_bv)
    a = wp**3 * up
    a_face = 0.5 * (a[..., :-1] + a[..., 1:])
    # differences by slicing: what np.diff computes, without its call overhead
    du_face = (up[..., 1:] - up[..., :-1]) / h
    flux = a_face * du_face
    div = (flux[..., 1:] - flux[..., :-1]) / h
    return div / w - (v / w) * u


def eval_F(u: GridField, v: GridField, w: GridField, p: ModelParams) -> GridField:
    """Reynolds right-hand side F = (1/w) D(w^3 u D u) - (v/w) u on interior nodes.

    The flux coefficient w^3 u is formed pointwise on the grid and averaged to
    faces; boundary neighbours take the Dirichlet traces carried by the
    fields (u.bv, w.bv).  Raises the quench signal when the gap closes.
    """
    n = u.n
    if v.n != n or w.n != n:
        raise ValueError("u, v, w must share the grid")
    _require_open_gap(w)
    return GridField(values=_reynolds(u.values, u.bv, v.values, w.values, w.bv), bv=0.0)


def _require_open_gap(w: GridField) -> None:
    """Raise the quench signal of eval_F when the gap (trace included) is closed on the grid."""
    w_min = min(float(w.values.min()), w.bv)
    if w_min <= 0.0:
        raise QuenchSignal("gap closed while evaluating F", min_value=w_min)


def assemble_Pstar(u0: GridField, v0: GridField, w0: GridField) -> PstarOperator:
    """Exact Jacobian of the discrete eval_F in u, with Dirichlet rows eliminated.

    Entry-by-entry this is the conservative stencil of
    (1/w0) D( w0^3 u0 D psi + (w0^3 D u0) psi ) - (v0/w0) psi with the second
    flux face-averaged as (w^3 psi)|_face, so frechet_F at t = 0 reproduces
    the matrix action identically.
    """
    n = u0.n
    if v0.n != n or w0.n != n:
        raise ValueError("coefficient fields must share the grid")
    if min(float(u0.values.min()), u0.bv) <= 0.0:
        raise ValueError("coefficient positivity violation: u0 must be strictly positive")
    if min(float(w0.values.min()), w0.bv) <= 0.0:
        raise ValueError("coefficient positivity violation: w0 must be strictly positive")
    h = 1.0 / (n + 1)
    up = _pad(u0.values, u0.bv)
    wp = _pad(w0.values, w0.bv)
    a = wp**3 * up
    a_face = 0.5 * (a[:-1] + a[1:])  # length n+1, faces j-1/2 for j=1..n+1
    du_face = np.diff(up)  # undivided differences u_{j+1}-u_j at faces
    w3 = wp**3
    inv_wh2 = 1.0 / (w0.values * h * h)

    # interior row i (0-based): neighbours via faces L=i, R=i+1
    aL, aR = a_face[:-1], a_face[1:]
    duL, duR = du_face[:-1], du_face[1:]
    sub = (aL - 0.5 * w3[:-2] * duL) * inv_wh2  # d F_i / d u_{i-1}
    sup = (aR + 0.5 * w3[2:] * duR) * inv_wh2  # d F_i / d u_{i+1}
    diag = (-aL - aR + 0.5 * w3[1:-1] * (duR - duL)) * inv_wh2 - v0.values / w0.values

    m = np.diag(diag)
    idx = np.arange(n - 1)
    m[idx + 1, idx] = sub[1:]
    m[idx, idx + 1] = sup[:-1]
    return PstarOperator(matrix=m, u0=u0, v0=v0, w0=w0, h=h)


def _principal_matrix(op: PstarOperator) -> np.ndarray:
    """Highest-order part (1/w0) D(w0^3 u0 D q) of the assembled operator."""
    n = op.u0.n
    h = op.h
    up = _pad(op.u0.values, op.u0.bv)
    wp = _pad(op.w0.values, op.w0.bv)
    a = wp**3 * up
    a_face = 0.5 * (a[:-1] + a[1:])
    inv_wh2 = 1.0 / (op.w0.values * h * h)
    aL, aR = a_face[:-1], a_face[1:]
    m = np.diag(-(aL + aR) * inv_wh2)
    idx = np.arange(n - 1)
    m[idx + 1, idx] = (aL * inv_wh2)[1:]
    m[idx, idx + 1] = (aR * inv_wh2)[:-1]
    return m


def _lifted_h3(modes: np.ndarray, bv: float) -> float:
    """H^3 norm of (constant lift + sine series); the lift has no third derivative."""
    h2 = sp.lifted_norm_H2(modes, bv)
    k = np.arange(1, modes.size + 1) * math.pi
    third = 0.5 * float(np.sum(k**6 * modes**2))
    return math.sqrt(h2 * h2 + third)


def elliptic_form_check(
    op: PstarOperator,
    trials: int = 10_000,
    seed: int = 0,
) -> EllipticReport:
    """Verify |<q, (1/w0) D(w0^3 u0 D q)>| >= K ||Dq||^2 - K_o ||q||^2 on random q.

    K and K_o come from the Young-split of the first-order remainder:
    K2 = C ||u0||_{H2} ||w0||_{H3}^2, eps^2 = eps1 kappa^2 / (2 K2) so that
    K = eps1 kappa^2 / 2 and K_o = K2 / (4 eps^2) = K2^2 / (2 eps1 kappa^2),
    with eps1 = min u0 and kappa = min w0 (boundary values included).
    Failures are reported in the flag, never raised; q is drawn and measured
    in blocks of sp.audit_blocks rows.
    """
    n = op.u0.n
    h = op.h
    eps1 = min(float(op.u0.values.min()), op.u0.bv)
    kappa = min(float(op.w0.values.min()), op.w0.bv)
    C = dp.embedding_C(max(n, 8))
    u_modes = sp.sine_transform(op.u0.values - op.u0.bv)
    w_modes = sp.sine_transform(op.w0.values - op.w0.bv)
    K2 = C * sp.lifted_norm_H2(u_modes, op.u0.bv) * _lifted_h3(w_modes, op.w0.bv) ** 2
    K = 0.5 * eps1 * kappa**2
    K_o = K2**2 / (2.0 * eps1 * kappa**2) if K2 > 0 else 0.0

    A = _principal_matrix(op)
    rng = np.random.default_rng(seed)
    worst = np.inf
    ok = True
    for rows in sp.audit_blocks(trials):
        q = rng.normal(size=(rows, n))  # the same stream as rows draws of size n
        lhs = np.abs(h * np.sum(q * (q @ A.T), axis=-1))
        dq2 = h * np.sum((np.diff(_pad(q, 0.0), axis=-1) / h) ** 2, axis=-1)
        q2 = h * np.sum(q * q, axis=-1)
        slack = lhs - (K * dq2 - K_o * q2)
        worst = min(worst, float(slack.min()))
        ok = ok and not np.any(slack < -1e-9 * np.maximum(1.0, lhs))
    return EllipticReport(K=K, K_o=K_o, K2=K2, passed=ok, worst_slack=worst, trials=trials)


# A resolvent-norm product past this is taken as a singular resolvent.
_PRODUCT_CAP = 1e12


def sector_check(
    op: PstarOperator,
    ray_angles: tuple = (0.55 * math.pi, 0.65 * math.pi, 0.75 * math.pi),
    extra_lambdas: list | None = None,
) -> SectorReport:
    """Sample the resolvent along rays from the measured shift and bound |lambda-omega|*||R||.

    The shift omega sits just right of the spectral bound; each ray is sampled
    at 13 radii spaced geometrically over 1e-2..1e2 times the spectral radius,
    and the report's angle is the widest sampled ray.  A singular resolvent
    -- or a resolvent-norm product past _PRODUCT_CAP, the floating-point
    shadow of singularity -- is a sector violation and raises.  extra_lambdas
    adds explicit sample points (e.g. probing a suspected spectral point).
    """
    eigs = np.linalg.eigvals(op.matrix)
    sb = float(eigs.real.max())
    scale = float(np.abs(eigs).max())
    omega = sb + 1e-3 * max(scale, 1.0)
    radii = np.geomspace(1e-2, 1e2, 13) * max(scale, 1.0)
    n = op.matrix.shape[0]
    eye = np.eye(n)

    def measure(lam: complex) -> float:
        try:
            R = np.linalg.inv(lam * eye - op.matrix)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"sector violation: singular resolvent at lambda={lam}") from exc
        prod = float(np.linalg.norm(R, 2)) * abs(lam - omega)
        if not np.isfinite(prod) or prod > _PRODUCT_CAP:
            raise ValueError(f"sector violation: resolvent blowup at lambda={lam}")
        return prod

    samples = []
    M = 0.0
    for phi in ray_angles:
        if not (math.pi / 2 < phi < math.pi):
            raise ValueError("ray angles must lie in (pi/2, pi)")
        for sgn in (1.0, -1.0):
            for rho in radii:
                lam = omega + rho * complex(math.cos(phi), sgn * math.sin(phi))
                prod = measure(lam)
                samples.append((lam, prod))
                M = max(M, prod)
    for lam in extra_lambdas or ():
        prod = measure(complex(lam))
        samples.append((complex(lam), prod))
        M = max(M, prod)
    return SectorReport(omega_shift=omega, angle=max(ray_angles), M_bound=M, samples=samples)


# ---------------------------------------------------------------------------
# analytic-semigroup linear solve
# ---------------------------------------------------------------------------


def _propagator(op: PstarOperator, dt: float):
    """E = exp(dt P*), K1 = dt phi_1(dt P*), K2 = dt phi_2(dt P*) from one augmented expm."""
    key = float(dt)
    cached = op._prop_cache.get(key)
    if cached is not None:
        return cached
    n = op.matrix.shape[0]
    aug = np.zeros((3 * n, 3 * n))
    aug[:n, :n] = dt * op.matrix
    aug[:n, n : 2 * n] = np.eye(n)
    aug[n : 2 * n, 2 * n :] = np.eye(n)
    try:
        big = expm(aug)
    except Exception as exc:  # pragma: no cover - scipy failure surface
        raise RuntimeError("matrix exponential failed (ill-conditioned operator)") from exc
    if not np.all(np.isfinite(big)):
        raise RuntimeError("matrix exponential overflow (ill-conditioned operator)")
    E = big[:n, :n]
    K1 = dt * big[:n, n : 2 * n]
    K2 = dt * big[:n, 2 * n :]
    op._prop_cache[key] = (E, K1, K2)
    return E, K1, K2


def linear_parabolic_solve(
    op: PstarOperator,
    F_path: np.ndarray,
    u0_tilde: np.ndarray,
    T: float,
    N_t: int,
) -> PressurePath:
    """March phi(t) = e^{t P*} u0 + int_0^t e^{(t-s) P*} F(s) ds with exact kicks.

    F_path holds the forcing at the N_t + 1 nodes, shape (N_t + 1, n).  The
    forcing is interpolated linearly on each step; phi_1/phi_2 kick matrices
    from the augmented exponential make that quadrature exact, so constant
    forcings and steady states are reproduced to rounding.  Returns the
    shifted (zero-trace) path, bv = 0.
    """
    if N_t < 1:
        raise ValueError("N_t must be >= 1")
    F = np.asarray(F_path, dtype=float)
    if F.shape[0] != N_t + 1:
        raise ValueError("F_path must carry N_t + 1 samples on the step grid")
    phi = np.asarray(u0_tilde, dtype=float)
    if F.shape[1] != phi.size:
        raise ValueError("forcing and state sizes differ")
    dt = T / N_t
    E, K1, K2 = _propagator(op, dt)
    out = np.empty(F.shape)
    out[0] = phi
    for m in range(N_t):
        out[m + 1] = E @ out[m] + K1 @ F[m] + K2 @ (F[m + 1] - F[m])
    return PressurePath(times=np.linspace(0.0, T, N_t + 1), values=out, bv=0.0)


# ---------------------------------------------------------------------------
# outer contraction
# ---------------------------------------------------------------------------


def _F_path(u_path: PressurePath, plate: VWPath, p: ModelParams) -> np.ndarray:
    """F(u; v, w) at every node of a pressure path and its plate path, shape (n_t + 1, n).

    Each row is bitwise eval_F at its node; the first node whose gap is
    closed raises the quench signal.
    """
    th2 = p.lift.theta2
    v_grid = sp.inverse_sine_transform(plate.v)
    w_grid = sp.inverse_sine_transform(plate.w) + th2
    w_min = np.minimum(w_grid.min(axis=-1), th2)
    closed = np.flatnonzero(w_min <= 0.0)
    if closed.size:
        raise QuenchSignal("gap closed while evaluating F", min_value=w_min[closed[0]])
    F = _reynolds(u_path.values, u_path.bv, v_grid, w_grid, th2)
    _require_finite("F", F)
    return F


def gamma_iterate(
    u_path: PressurePath,
    p: ModelParams,
    init_vw: StateVW,
    T: float,
    tol: float = 1e-8,
    max_iter: int = 40,
    return_plate: bool = False,
):
    """Fixed-point sweep for the pressure path (full u, trace theta_1).

    Each sweep: solve the plate subproblem for the current pressure (at
    0.01 tol), evaluate the Reynolds nonlinearity along the resulting
    (v, w), and propagate
    u~ -> e^{t P*} u~_0 + int e^{(t-s) P*} { F(u~)(s) - P* u~(s) } ds with the
    linearization frozen at the initial data.  Measured sup-t H2 ratios of
    successive differences are the contraction diagnostics; a ratio >= 0.9
    (two in a row >= 1 would be certain divergence, one >= 0.9 already voids
    the margin) aborts with the implied admissible horizon ~ T (1/(2 rho))^{1/alpha}.
    """
    times = u_path.times
    if abs(times[-1] - T) > 1e-12 * max(T, 1.0):
        raise ValueError("u_path must end at the requested horizon")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
        raise ValueError("gamma_iterate requires a uniform time grid")
    if init_vw.k_max != u_path.values.shape[1]:
        raise ValueError("coupled iteration requires k_max == n")
    th1, th2 = p.lift.theta1, p.lift.theta2
    if abs(u_path.bv - th1) > 1e-12 * max(1.0, th1):
        raise ValueError("pressure path must carry boundary trace theta1")
    inner_tol = 0.01 * tol
    N_t = times.size - 1

    u0 = GridField(values=u_path.values[0], bv=u_path.bv)
    op = assemble_Pstar(u0, *_plate_fields(init_vw, th2))
    u0_tilde = u0.values - th1

    def sweep(current):
        plate, _ = dp.picard_dispersive(p, current, init_vw, T, tol=inner_tol)
        F = _F_path(current, plate, p)
        forcing = np.array([f - op.matrix @ (u - th1) for f, u in zip(F, current.values)])
        fresh = linear_parabolic_solve(op, forcing, u0_tilde, T, N_t).values + th1
        # the Duhamel integral vanishes at t=0, so the initial sample is the
        # initial datum itself -- pin it bitwise rather than via the
        # subtract-add float roundtrip
        fresh[0] = u0.values
        return PressurePath(times=times.copy(), values=fresh, bv=th1)

    current, diffs, ratios, status = dp.fixed_point(
        sweep, u_path, dp.pressure_diff_norm, tol, max_iter, lambda ratios: bool(ratios) and ratios[-1] >= 0.9
    )
    converged = status == "converged"
    report = PicardReport(len(diffs), ratios, converged, T_used=T, r_used=float("nan"))
    if converged:
        if return_plate:
            plate, _ = dp.picard_dispersive(p, current, init_vw, T, tol=inner_tol)
            return current, report, plate
        return current, report
    rho = ratios[-1] if ratios else float("nan")
    T_adm = T * (0.5 / rho) ** (1.0 / _ALPHA) if ratios else float("nan")
    if status == "diverged":
        message = (
            f"outer contraction failed: measured ratio {rho:.3g} at T={T:.3g}; "
            f"the contraction criterion implies an admissible horizon of about {T_adm:.3g}"
        )
    else:
        message = f"outer iteration exhausted {max_iter} sweeps without reaching tol={tol:.3g}"
    raise GammaDivergence(message, report, ratio=rho, T_admissible=T_adm)


# ---------------------------------------------------------------------------
# derivative of F and the Hoelder audit
# ---------------------------------------------------------------------------


def frechet_F(
    u_path: PressurePath,
    q_modes: np.ndarray,
    vw: VWPath,
    dW: tuple,
    p: ModelParams,
) -> np.ndarray:
    """Directional derivative of F along q: all five terms on the interior grid.

        (1/w) D( w^3 u Dq + w^3 q Du )
      + (1/w) D( 3 w^2 (w'q) u Du )
      - ((w'q)/w^2) D( w^3 u Du )
      - (v/w) q
      - ( w (v'q) - v (w'q) ) / w^2 * u

    (w'q, v'q) are the plate-derivative mode paths from frechet_W.  At t = 0
    they vanish, so the assembly reduces to the assembled linearization
    applied to q(0) -- identical stencils, identical arithmetic.  Returns one
    row per time node, shape (n_t + 1, n).
    """
    vq_modes, wq_modes = dW
    th2 = p.lift.theta2
    h = 1.0 / (u_path.values.shape[1] + 1)
    w_vals = sp.inverse_sine_transform(vw.w) + th2
    v_vals = sp.inverse_sine_transform(vw.v)
    q_vals = sp.inverse_sine_transform(q_modes)
    wq_vals = sp.inverse_sine_transform(wq_modes)
    vq_vals = sp.inverse_sine_transform(vq_modes)
    w_min = np.minimum(w_vals.min(axis=1), th2)
    if np.any(w_min <= 0.0):
        i = int(np.argmax(w_min <= 0.0))
        raise QuenchSignal(
            "gap closed while assembling the F derivative", min_value=w_min[i], t=float(u_path.times[i])
        )

    u = u_path.values
    up = _pad(u, u_path.bv)
    wp = _pad(w_vals, th2)
    qp = _pad(q_vals, 0.0)
    wqp = _pad(wq_vals, 0.0)
    w3 = wp**3
    a_face = 0.5 * (w3[:, :-1] * up[:, :-1] + w3[:, 1:] * up[:, 1:])
    b_face = 0.5 * (w3[:, :-1] * qp[:, :-1] + w3[:, 1:] * qp[:, 1:])
    c = 3.0 * wp**2 * wqp * up
    c_face = 0.5 * (c[:, :-1] + c[:, 1:])
    dq_face = np.diff(qp, axis=1) / h
    du_face = np.diff(up, axis=1) / h

    t1 = np.diff(a_face * dq_face + b_face * du_face, axis=1) / h / w_vals
    t2 = np.diff(c_face * du_face, axis=1) / h / w_vals
    div_u = np.diff(a_face * du_face, axis=1) / h
    t3 = -(wq_vals / w_vals**2) * div_u
    t4 = -(v_vals / w_vals) * q_vals
    t5 = -((w_vals * vq_vals - v_vals * wq_vals) / w_vals**2) * u
    return t1 + t2 + t3 + t4 + t5


# tolerance of the plate and Frechet solves inside the Hoelder audit
_HOLDER_INNER_TOL = 1e-12


def holder_F_check(
    u_path: PressurePath,
    q_modes: np.ndarray,
    alpha: float,
    T: float,
    p: ModelParams,
    init_vw: StateVW,
    L_A: float | None = None,
    L_B: float | None = None,
) -> HolderFReport:
    """Measure the two Hoelder quotients of the right-hand side and compare to bounds.

    measured_A = sup ||F(t+h) - F(t)||_{L2} / h^alpha, bounded by
    ([u]_alpha + L_U) L_A with L_U the measured Hoelder constant of the plate
    path; measured_B is the same quotient for F'(u)q - P*q, bounded by
    L_B (1 + ||u||_{C^alpha}) (T^alpha ||q||_{C^alpha} + sup||q||_{H2}).  With
    L_A or L_B omitted the call calibrates: it returns the smallest constants
    making the bounds hold (pass is then trivially true); with both given it
    verifies.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    times = u_path.times
    th1, th2 = p.lift.theta1, p.lift.theta2
    q_modes = np.asarray(q_modes, dtype=float)

    plate, _ = dp.picard_dispersive(p, u_path, init_vw, T, tol=_HOLDER_INNER_TOL)
    dW = dp.frechet_W(p, q_modes, plate, tol=_HOLDER_INNER_TOL)
    F_series = _F_path(u_path, plate, p)
    op = assemble_Pstar(GridField(values=u_path.values[0], bv=u_path.bv), *_plate_fields(init_vw, th2))
    Fp = frechet_F(u_path, q_modes, plate, dW, p)
    D_series = np.array([f - op.matrix @ q for f, q in zip(Fp, sp.inverse_sine_transform(q_modes))])

    def l2(vals):
        return sp.norm_Hk(sp.sine_transform(vals), 0)

    measured_A = dp.holder_seminorm(times, F_series, l2, alpha)
    measured_B = dp.holder_seminorm(times, D_series, l2, alpha)

    semi_u = dp.empirical_holder(u_path, alpha)
    L_U = dp.empirical_holder(plate, alpha)
    sup_u = float(np.max(sp.lifted_norm_H2(sp.sine_transform(u_path.values - th1), th1)))
    u_calpha = sup_u + semi_u
    sup_q = float(np.max(sp.norm_Hk(q_modes, 2)))
    semi_q = dp.holder_seminorm(times, q_modes, lambda d: sp.norm_Hk(d, 2), alpha)
    q_calpha = sup_q + semi_q

    shape_A = semi_u + L_U
    shape_B = (1.0 + u_calpha) * (T**alpha * q_calpha + sup_q)
    if L_A is None:
        L_A = measured_A / shape_A if shape_A > 0 else 0.0
    if L_B is None:
        L_B = measured_B / shape_B if shape_B > 0 else 0.0
    bound_A = L_A * shape_A
    bound_B = L_B * shape_B
    passed = measured_A <= bound_A * (1.0 + 1e-12) and measured_B <= bound_B * (1.0 + 1e-12)
    return HolderFReport(
        measured_A=measured_A,
        measured_B=measured_B,
        bound_A=bound_A,
        bound_B=bound_B,
        L_A=L_A,
        L_B=L_B,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# method-of-lines oracle
# ---------------------------------------------------------------------------


def mol_rhs(u: np.ndarray, v: np.ndarray, w: np.ndarray, p: ModelParams) -> tuple:
    """Time derivative (du on the grid, dv and dw in mode space) of one oracle stage.

    u holds the interior pressure samples (trace theta1), v and w the plate
    modes (w~ = w - theta2), with k_max == n.  The plate operator acts
    spectrally; the gap forcing G(w~) is evaluated on the doubled dealiasing
    grid exactly as in the plate solver, and the pressure coupling uses the
    sine expansion of the grid samples -- the same forcing recipe the Picard
    construction uses, so the two integrators share one semidiscretization.
    The transforms are the cached one-row matrices of sp.sine_matrices.

    Raises ValueError when u, the synthesized v or w, or du is not finite,
    and the quench signal when the gap (trace included) closes on the grid
    or, after that, on the dealiasing grid.
    """
    th1, th2 = p.lift.theta1, p.lift.theta2
    syn, ana, syn2, ana2 = sp.sine_matrices(w.size)
    v_grid = syn @ v
    w_grid = syn @ w + th2
    for name, values in (("u", u), ("v", v_grid), ("w", w_grid)):
        _require_finite(name, values)
    w_min = min(float(w_grid.min()), th2)
    if w_min <= 0.0:
        raise QuenchSignal("gap closed while evaluating F", min_value=w_min)
    du = _reynolds(u, th1, v_grid, w_grid, th2)
    _require_finite("du", du)
    g = ana2 @ dp._G_fine(syn2 @ w + th2, p) + p.beta_p * (ana @ (u - th1))
    dv = -_plate_mu(w.size) * w + g
    return du, dv, v.copy()


# Sub-steps the Runge-Kutta endgame may take to resolve a step in which the
# gap closed.
_ENDGAME_SUBSTEPS = 400


class EndgameBudgetSignal(RuntimeError):
    """The Runge-Kutta endgame used all its sub-steps with the gap still above the quench threshold."""

    def __init__(self, message: str, min_value: float, t: float):
        super().__init__(message)
        self.min_value = float(min_value)
        self.t = float(t)


def integrate_reference(
    p: ModelParams,
    init: CoupledState,
    T: float,
    dt: float,
    store_every: int | None = None,
    quench_eps: float | None = None,
    u_cap: float | None = None,
) -> list:
    """Classical four-stage Runge-Kutta on mol_rhs; the independent oracle.

    Requires dt <= 0.5/omega_max (explicit stability with a 5.6x margin under
    the RK4 imaginary-axis limit |z| <= 2*sqrt(2)), k_max == n and the
    pressure trace theta1.  Returns sampled states, always including the
    first and last.  Raises the quench signal when the gap reaches quench_eps
    (or closes entirely); a step in which a stage sees the gap closed is
    redone in adaptive sub-steps, and EndgameBudgetSignal reports that
    _ENDGAME_SUBSTEPS of them did not resolve it.  Every signal carries the
    stored trajectory, ending at the state where it was raised.
    """
    if init.vw.k_max != init.u.n:
        raise ValueError(f"integrate_reference requires k_max == n (got k_max={init.vw.k_max}, n={init.u.n})")
    th1, th2 = p.lift.theta1, p.lift.theta2
    if abs(init.u.bv - th1) > 1e-12 * max(1.0, th1):
        raise ValueError("the initial pressure must carry boundary trace theta1")
    omega_max = float(sp.plate_eigenvalues(init.vw.k_max).omega[-1])
    if dt > 0.5 / omega_max:
        raise ValueError(f"step-size violation: dt={dt} exceeds 0.5/omega_max={0.5 / omega_max:.3e}")
    steps = max(1, int(round(T / dt)))
    dt = T / steps
    if store_every is None:
        store_every = max(1, steps // 512)
    floor = 0.0 if quench_eps is None else quench_eps

    def sample(u_s, v_s, w_s, t_s):
        return CoupledState(u=GridField(values=u_s.copy(), bv=th1), vw=StateVW(v=v_s.copy(), w=w_s.copy()), t=t_s)

    u, v, w = init.u.values, init.vw.v, init.vw.w
    out = [sample(u, v, w, init.t)]

    def rk_step(u0, v0, w0, step):
        k1 = mol_rhs(u0, v0, w0, p)
        k2 = mol_rhs(u0 + 0.5 * step * k1[0], v0 + 0.5 * step * k1[1], w0 + 0.5 * step * k1[2], p)
        k3 = mol_rhs(u0 + 0.5 * step * k2[0], v0 + 0.5 * step * k2[1], w0 + 0.5 * step * k2[2], p)
        k4 = mol_rhs(u0 + step * k3[0], v0 + step * k3[1], w0 + step * k3[2], p)
        return (
            u0 + (step / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            v0 + (step / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
            w0 + (step / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
        )

    def stop(sig, u_f, v_f, w_f, t_f):
        out.append(sample(u_f, v_f, w_f, t_f))
        sig.trajectory = out
        raise sig

    def quench_raise(u_f, v_f, w_f, t_f, w_min_f):
        stop(QuenchSignal("gap reached the quench threshold", min_value=w_min_f, t=t_f), u_f, v_f, w_f, t_f)

    def endgame(u0, v0, w0, t0, span):
        """The gap died inside a full step: roll back and sub-step adaptively
        until the monitor band is crossed cleanly (or the span survives)."""
        u_l, v_l, w_l, t_l = u0, v0, w0, t0
        left = span
        dt_loc = span / 2.0
        for _ in range(_ENDGAME_SUBSTEPS):
            if left <= 1e-12 * span:
                return u_l, v_l, w_l
            try:
                u_n, v_n, w_n = rk_step(u_l, v_l, w_l, min(dt_loc, left))
            except QuenchSignal:
                dt_loc /= 2.0
                if dt_loc < 1e-14 * span:
                    quench_raise(u_l, v_l, w_l, t_l, _w_min_fine(w_l, th2))
                continue
            taken = min(dt_loc, left)
            u_l, v_l, w_l, t_l, left = u_n, v_n, w_n, t_l + taken, left - taken
            w_min_l = _w_min_fine(w_l, th2)
            if w_min_l <= floor:
                quench_raise(u_l, v_l, w_l, t_l, w_min_l)
        w_min_l = _w_min_fine(w_l, th2)
        message = (
            f"Runge-Kutta endgame used its {_ENDGAME_SUBSTEPS} sub-steps at t={t_l:.6g} "
            f"with min w={w_min_l:.6g} above the quench threshold"
        )
        stop(EndgameBudgetSignal(message, min_value=w_min_l, t=t_l), u_l, v_l, w_l, t_l)

    for m in range(steps):
        t_pre = init.t + m * dt
        try:
            u, v, w = rk_step(u, v, w, dt)
        except QuenchSignal:
            u, v, w = endgame(u, v, w, t_pre, dt)
        t = init.t + (m + 1) * dt
        w_min = _w_min_fine(w, th2)
        if w_min <= floor:
            quench_raise(u, v, w, t, w_min)
        if u_cap is not None and float(np.abs(u).max()) >= u_cap:
            sig = BlowupSignal(f"pressure blowup: max|u| exceeded {u_cap} at t={t}")
            sig.t = t
            stop(sig, u, v, w, t)
        if (m + 1) % store_every == 0 or m + 1 == steps:
            out.append(sample(u, v, w, t))
    return out


def _status_of(u_vals: np.ndarray, w_min: float, quench_eps: float, u_cap: float) -> str:
    """Classify a state: 'quench' (gap at/below threshold), 'pressure_blowup', or 'alive'."""
    if w_min <= quench_eps:
        return "quench"
    if float(np.abs(u_vals).max()) >= u_cap:
        return "pressure_blowup"
    return "alive"


# ---------------------------------------------------------------------------
# coupled driver
# ---------------------------------------------------------------------------


# Sobolev order sigma of the compatibility proxy
_COMPAT_SIGMA = 0.45


def compat_regularity_proxy(state: CoupledState, p: ModelParams) -> float:
    """Discrete H^sigma seminorm (sigma = 0.45) of F at t=0 -- the recorded
    stand-in for the interpolation-space compatibility condition (no
    computable membership test exists at the discrete level; this decay proxy
    is logged, never gated on)."""
    F0 = eval_F(state.u, *_plate_fields(state.vw, p.lift.theta2), p)
    c = sp.sine_transform(F0.values)
    k = np.arange(1, c.size + 1) * math.pi
    return math.sqrt(0.5 * float(np.sum(k ** (2.0 * _COMPAT_SIGMA) * c**2)))


def _constant_path(u: GridField, T: float, n_t: int) -> PressurePath:
    return PressurePath(times=np.linspace(0.0, T, n_t + 1), values=np.tile(u.values, (n_t + 1, 1)), bv=u.bv)


def run_coupled(p: ModelParams, init: CoupledState, T: float, config: DriverConfig | None = None) -> RunReport:
    """Adaptive chunked time integration of the coupled system to horizon T.

    Marches Gamma fixed points chunk by chunk (halving a chunk that fails to
    contract, growing one that contracts fast), monitors quench/blowup and
    pressure positivity at every sample, and hands the final approach to
    touchdown to the Runge-Kutta tail when the contraction horizon collapses.
    """
    if config is None:
        config = DriverConfig()
    n = init.u.n
    k = init.vw.k_max
    if n != k:
        raise ValueError("the coupled driver requires k_max == n")
    th1, th2 = p.lift.theta1, p.lift.theta2
    quench_eps = config.quench_eps if config.quench_eps is not None else 1e-3 * th2
    u_cap = config.u_cap if config.u_cap is not None else 1e6 * th1
    spec = sp.plate_eigenvalues(k)

    proxy = compat_regularity_proxy(init, p)
    state = CoupledState(u=GridField(values=init.u.values.copy(), bv=init.u.bv), vw=init.vw, t=init.t)

    w_min0 = _w_min_fine(state.vw.w, th2)
    status0 = _status_of(state.u.values, w_min0, quench_eps, u_cap)
    series: list = [_step_record(state, w_min0, spec)]
    states: list = [state]
    if status0 != "alive":
        return _finalize_report(p, init, T, config, status0, series, states, proxy, quench_eps, u_cap)

    kappa0 = w_min0
    if p.beta_F > 0:
        guess = 0.05 * kappa0**3 / p.beta_F
    else:
        guess = T
    chunk = config.chunk_init if config.chunk_init is not None else min(T, guess)
    if config.chunk_cap is not None:
        chunk = min(chunk, config.chunk_cap)
    chunk = min(chunk, T)

    t_now = state.t
    t_end = init.t + T
    chunks_done = 0
    termination = "budget"
    note = ""
    while True:
        remaining = t_end - t_now
        if remaining <= 1e-12 * max(1.0, abs(t_end)):
            termination = "converged"
            break
        if chunks_done >= _MAX_CHUNKS:
            termination = "budget"
            note = "chunk budget exhausted"
            break
        this_chunk = min(chunk, remaining)
        if this_chunk < _TAIL_FLOOR and this_chunk < _TAIL_FRACTION * remaining:
            termination, note = _rk4_tail(p, state, remaining, quench_eps, u_cap, series, states, spec)
            t_now = states[-1].t
            state = states[-1]
            break
        guess_path = _constant_path(state.u, this_chunk, config.n_t)
        try:
            u_new, rep, plate = gamma_iterate(
                guess_path,
                p,
                state.vw,
                this_chunk,
                tol=config.tol,
                max_iter=config.max_iter,
                return_plate=True,
            )
        except (GammaDivergence, PicardDivergence, QuenchSignal):
            chunk = this_chunk / 2.0
            chunks_done += 1
            continue

        ratio = rep.contraction_ratios[-1] if rep.contraction_ratios else 0.0
        stop_at = None
        stop_status = "alive"
        for i in range(1, u_new.times.size):
            w_min = _w_min_fine(plate.w[i], th2)
            u_vals = u_new.values[i]
            status = _status_of(u_vals, w_min, quench_eps, u_cap)
            abs_t = t_now + u_new.times[i]
            cs = CoupledState(
                u=GridField(values=u_vals, bv=u_new.bv), vw=StateVW(v=plate.v[i], w=plate.w[i]), t=abs_t
            )
            states.append(cs)
            series.append(_step_record(cs, w_min, spec, ratio))
            if status != "alive":
                stop_at = i
                stop_status = status
                break
            if float(u_vals.min()) < p.eps1 * (1.0 - 1e-9):
                stop_at = i
                stop_status = "pressure_floor"
                note = f"pressure positivity floor eps1={p.eps1} violated at t={abs_t:.6g}"
                break
        state = states[-1]
        t_now = state.t
        chunks_done += 1
        if stop_at is not None:
            termination = stop_status
            break
        if ratio <= _GROW_BELOW:
            chunk = chunk * 1.5
            if config.chunk_cap is not None:
                chunk = min(chunk, config.chunk_cap)

    return _finalize_report(
        p, init, T, config, termination, series, states, proxy, quench_eps, u_cap, note
    )


def _rk4_tail(p, state, remaining, quench_eps, u_cap, series, states, spec):
    """Resolve the final approach with the oracle integrator; returns (termination, note)."""
    omega_max = float(spec.omega[-1])
    dt = 0.25 / omega_max
    try:
        tail = integrate_reference(p, state, remaining, dt, quench_eps=quench_eps, u_cap=u_cap)
    except QuenchSignal as sig:
        _append_tail(sig.trajectory[1:], p, series, states, spec)
        return "quench", "contraction horizon collapsed; touchdown resolved by the reference scheme"
    except BlowupSignal as sig:
        _append_tail(sig.trajectory[1:], p, series, states, spec)
        return "pressure_blowup", "pressure cap crossed during the reference-scheme tail"
    except EndgameBudgetSignal as sig:
        _append_tail(sig.trajectory[1:], p, series, states, spec)
        return "endgame_budget", str(sig)
    _append_tail(tail[1:], p, series, states, spec)
    return "converged", "tail integrated with the reference scheme"


def _append_tail(tail_states, p, series, states, spec):
    for cs in tail_states:
        states.append(cs)
        series.append(_step_record(cs, _w_min_fine(cs.vw.w, p.lift.theta2), spec))


def _step_record(cs: CoupledState, w_min: float, spec, ratio: float = float("nan")) -> StepRecord:
    """Series row of one state; mass_residual is filled in once the run is over."""
    return StepRecord(cs.t, w_min, float(cs.u.values.max()), float("nan"), sp.norm_X(cs.vw, spec), ratio)


def _finalize_report(
    p, init, T, config, termination, series, states, proxy, quench_eps, u_cap, note=""
):
    final = states[-1]
    quench_time = final.t if termination == "quench" else None
    residuals = mass_balance_residual(states, p)
    for rec, r in zip(series, residuals):
        rec.mass_residual = float(r)
    return RunReport(
        params=p,
        k_max=init.vw.k_max,
        n=init.u.n,
        n_t=config.n_t,
        tol=config.tol,
        T=T,
        termination=termination,
        series=series,
        T_used=final.t - init.t,
        final_state=final,
        states=states,
        compat_proxy=proxy,
        quench_eps=quench_eps,
        u_cap=u_cap,
        quench_time=quench_time,
        note=note,
        config=config,
    )


def continue_run(report: RunReport, extra_T: float, config: DriverConfig | None = None) -> RunReport:
    """Restart the driver from a converged run's final state for extra_T more time.

    The concatenated trajectory must agree with a single longer run over the
    overlap (restart re-assembles the linearization from data the two runs
    share to within tol).  Refuses to continue past quench or blowup; zero
    extra horizon is the identity.
    """
    if report.termination != "converged":
        raise ValueError(f"cannot continue a run that terminated with '{report.termination}'")
    if extra_T < 0:
        raise ValueError("extra_T must be nonnegative")
    if extra_T == 0:
        return replace(report)
    cfg = config if config is not None else report.config
    status = _status_of(
        report.final_state.u.values,
        _w_min_fine(report.final_state.vw.w, report.params.lift.theta2),
        report.quench_eps,
        report.u_cap,
    )
    if status != "alive":
        raise ValueError(f"cannot continue: final state is not alive ({status})")
    second = run_coupled(report.params, report.final_state, extra_T, cfg)
    return replace(
        report,
        T=report.T + extra_T,
        termination=second.termination,
        series=report.series + second.series[1:],
        T_used=report.T_used + second.T_used,
        final_state=second.final_state,
        states=report.states + second.states[1:],
        quench_time=second.quench_time,
        note=second.note or report.note,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# diagnostics & fixtures
# ---------------------------------------------------------------------------


def mass_balance_residual(trajectory: list, p: ModelParams) -> np.ndarray:
    """|d/dt int w u dx  -  [w^3 u u_x]_0^1| along a trajectory of coupled states.

    Quadrature is the trapezoid rule including the boundary values theta2 *
    theta1; boundary derivatives are second-order one-sided; the time
    derivative is the central difference (one-sided at the ends).
    """
    if len(trajectory) < 3:
        return np.full(len(trajectory), np.nan)
    th1, th2 = p.lift.theta1, p.lift.theta2
    n = trajectory[0].u.n
    h = 1.0 / (n + 1)
    ts = np.array([s.t for s in trajectory])
    u = np.array([s.u.values for s in trajectory])
    w_grid = sp.inverse_sine_transform(np.array([s.vw.w for s in trajectory])) + th2
    mass = h * (th2 * th1 + (w_grid * u).sum(axis=-1))  # trapezoid: half of each boundary value twice
    ux0 = (-3.0 * th1 + 4.0 * u[:, 0] - u[:, 1]) / (2.0 * h)
    ux1 = (3.0 * th1 - 4.0 * u[:, -1] + u[:, -2]) / (2.0 * h)
    flux = th2**3 * th1 * (ux1 - ux0)
    dmass = np.gradient(mass, ts, edge_order=2)
    return np.abs(dmass - flux)


def equilibrium_state(p: ModelParams, k_max: int, n: int | None = None) -> CoupledState:
    """Stationary fixture: u = theta1, v = 0, and w~ solving A w~ + G(w~) = 0.

    Newton iteration with the Jacobian approximated by its dominant spectral
    diagonal -mu (exact as beta_F -> 0), damped on residual increase, to a
    max-norm residual of 1e-12 within 200 steps.  With this state, D u = 0
    and v = 0 make F vanish identically on the grid, so the Gamma map has an
    exact constant fixed point.
    """
    tol, max_iter = 1e-12, 200
    if n is None:
        n = k_max
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
    th1 = p.lift.theta1
    u = GridField(values=np.full(n, th1), bv=th1)
    return CoupledState(u=u, vw=StateVW(v=np.zeros(k_max), w=w), t=0.0)
