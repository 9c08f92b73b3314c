"""Quasilinear pressure dynamics coupled to the plate.

This module owns the gas-film side of the model and the fully coupled run:

* ``eval_F`` -- the Reynolds nonlinearity F(u; v, w) on the interior grid,
* ``assemble_Pstar`` -- the Dirichlet-realized linearization P* of F at the
  initial data (the exact Jacobian of the discrete ``eval_F`` in u), a matrix,
* elliptic and sectorial diagnostics of that linearization,
* ``linear_parabolic_solve`` -- the analytic-semigroup march by the dense exp /
  phi_1 / phi_2 matrices of P* (``_propagator``, built once per Gamma chunk),
* ``gamma_iterate`` -- the outer contraction that produces the pressure fixed
  point (each sweep solves the plate subproblem for the current pressure),
* ``mol_rhs`` / ``integrate_reference`` -- the independent Runge-Kutta
  method-of-lines oracle on the same spatial discretization,
* ``run_coupled`` / ``continue_run`` -- the adaptive chunked driver with
  quench detection, and the restart machinery.

Geometry is the unit interval with interior nodes x_j = j/(n+1).  Pressure
fields carry their boundary trace (theta_1) in ``GridField.bv`` (one state)
or ``PressurePath.bv`` (a path, one row of samples per time node); plate
fields live in sine-mode space and are synthesized onto the pressure grid
where the two equations meet.  That synthesis is the n = k_max inverse sine
transform, so everything that couples the two sides -- the Gamma sweep,
verify's F derivative, the oracle right-hand side and the driver -- requires
the mode count to equal the grid size (k_max == n); the plate forcing built
from pressure samples is then the exact sine expansion of the grid data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

from . import dispersive as dp
from . import spectral as sp
from .dispersive import ModelParams, PicardDivergence, PicardReport, PressurePath, VWPath
from .spectral import GridField, QuenchSignal, StateVW

__all__ = [
    "SectorReport",
    "EllipticReport",
    "CoupledState",
    "Trajectory",
    "RunReport",
    "DriverConfig",
    "GammaDivergence",
    "BlowupSignal",
    "EndgameBudgetSignal",
    "eval_F",
    "assemble_Pstar",
    "elliptic_form_check",
    "sector_check",
    "linear_parabolic_solve",
    "gamma_iterate",
    "mol_rhs",
    "integrate_reference",
    "run_coupled",
    "continue_run",
    "mass_balance_residual",
    "mass_balance_terms",
    "compat_regularity_proxy",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class SectorReport:
    """Measured sectoriality data: resolvent-norm products along rays."""

    omega_shift: float
    angle: float
    M_bound: float
    samples: list


@dataclass
class EllipticReport:
    """Result of the quadratic-form lower bound check."""

    K: float
    K_o: float
    K2: float
    passed: bool
    worst_slack: float


@dataclass
class CoupledState:
    """Pressure field + plate state at one instant."""

    u: GridField
    vw: StateVW
    t: float = 0.0


@dataclass
class Trajectory:
    """A run as (time, .) arrays: row i is the state at time t[i].

    u (N, n) holds the interior pressure samples, whose boundary trace is
    theta1; v and w (N, k_max) hold the plate modes (w~ = w - theta2).
    """

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    theta1: float

    def state(self, i: int) -> CoupledState:
        return CoupledState(
            u=GridField(values=self.u[i], bv=self.theta1), vw=StateVW(v=self.v[i], w=self.w[i]), t=float(self.t[i])
        )


def _join(parts: list) -> Trajectory:
    """The rows of several trajectories in order; each part after the first
    starts at the last row of the one before, so its first row is dropped."""
    rows = [(p.t, p.u, p.v, p.w) if i == 0 else (p.t[1:], p.u[1:], p.v[1:], p.w[1:]) for i, p in enumerate(parts)]
    return Trajectory(*(np.concatenate(col) for col in zip(*rows)), theta1=parts[0].theta1)


# The columns of RunReport.series, in the order the exporters write them.
SERIES_COLUMNS = ("t", "min_w", "max_u", "mass_residual", "norm_X", "contraction_ratio")


@dataclass
class RunReport:
    """Per-run record: parameters, discretization, termination, series.

    config is the DriverConfig the run used, with quench_eps and u_cap
    resolved to numbers; the report keeps no copy of its settings.
    series maps each name of SERIES_COLUMNS to one value per trajectory row;
    contraction_ratio is the chunk's PicardReport.banach_ratio, NaN at the
    initial row and on the Runge-Kutta tail.
    """

    params: ModelParams
    config: "DriverConfig"
    k_max: int
    n: int
    T: float
    termination: str  # converged | quench | pressure_blowup | pressure_floor | budget | endgame_budget
    series: dict
    T_used: float
    trajectory: Trajectory
    compat_proxy: float
    quench_time: float | None = None
    note: str = ""

    @property
    def final_state(self) -> CoupledState:
        return self.trajectory.state(-1)


# Driver policy.  A chunk that contracts with ratio <= _GROW_BELOW grows
# 1.5x; once a chunk is below _TAIL_FLOOR and below _TAIL_FRACTION of the
# remaining horizon, the Runge-Kutta tail finishes the run; a run stops with
# "budget" after _MAX_CHUNKS chunk attempts.
_GROW_BELOW = 0.2
_TAIL_FLOOR = 1e-4
_TAIL_FRACTION = 0.05
_MAX_CHUNKS = 10_000


@dataclass
class DriverConfig:
    """Adaptive-chunk driver knobs, and the one owner of their defaults:
    the config schema (the fields of cli.RunConfig, whose driver keys carry
    these names) and gamma_iterate read theirs from this class.

    ``n_t`` time samples per chunk; ``tol`` is the outer Gamma tolerance
    (inner plate solves run at 0.01 tol) and ``max_iter`` its sweep limit.
    The first chunk is ``chunk_init`` (default: min(T, 0.05 kappa^3/beta_F),
    the contraction horizon of the initial gap) and no chunk exceeds
    ``chunk_cap``.  A chunk that fails to contract is halved and one that
    contracts fast is grown; when imminent quench collapses the contraction
    horizon (like kappa^3/beta_F), the driver finishes with the Runge-Kutta
    tail on the same semidiscretization.  The run stops with "quench" once
    the gap falls to ``quench_eps`` and with "pressure_blowup" once max|u|
    reaches ``u_cap``; run_coupled resolves both into the config it stores.
    """

    n_t: int = 32
    tol: float = 1e-9
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


# ---------------------------------------------------------------------------
# grid helpers
# ---------------------------------------------------------------------------


def _pad(values: np.ndarray, bv: float) -> np.ndarray:
    """Interior samples with the boundary value bv added at both ends of the last axis."""
    out = np.empty(values.shape[:-1] + (values.shape[-1] + 2,))
    out[..., 0] = out[..., -1] = bv
    out[..., 1:-1] = values
    return out


def _face_avg(x: np.ndarray) -> np.ndarray:
    """0.5 (x_j + x_{j+1}) along the last axis: node values averaged to the faces between them."""
    return 0.5 * (x[..., :-1] + x[..., 1:])


def _dq(x: np.ndarray, h: float) -> np.ndarray:
    """(x_{j+1} - x_j) / h along the last axis, by slicing: what np.diff computes, without its call overhead."""
    return (x[..., 1:] - x[..., :-1]) / h


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} values must be finite")


def _require_coupled(state: CoupledState, p: ModelParams) -> None:
    """The coupled-state contract: k_max == n, and the pressure carries the boundary trace theta1."""
    if state.vw.k_max != state.u.n:
        raise ValueError(f"a coupled state requires k_max == n (got k_max={state.vw.k_max}, n={state.u.n})")
    if abs(state.u.bv - p.theta1) > 1e-12 * max(1.0, p.theta1):
        raise ValueError("the initial pressure must carry boundary trace theta1")


@lru_cache(maxsize=None)
def _neg_plate_mu(k_max: int) -> np.ndarray:
    """-mu_k of plate_eigenvalues(k_max), cached read-only for the oracle right-hand side."""
    neg_mu = -sp.plate_eigenvalues(k_max).mu
    neg_mu.setflags(write=False)
    return neg_mu


# ---------------------------------------------------------------------------
# the nonlinearity and its linearization
# ---------------------------------------------------------------------------


def _reynolds_padded(up: np.ndarray, v: np.ndarray, wp: np.ndarray) -> np.ndarray:
    """The Reynolds stencil of eval_F on u and w given with their Dirichlet
    traces as end samples (n + 2 along the last axis).  A stack of rows gives
    one row of F per row, each bitwise its own call.  No checks: the callers
    test the gap and finiteness."""
    h = 1.0 / (up.shape[-1] - 1)
    div = _dq(_face_avg(wp**3 * up) * _dq(up, h), h)
    w = wp[..., 1:-1]
    return div / w - (v / w) * up[..., 1:-1]


def eval_F(u: GridField, v: GridField, w: GridField) -> GridField:
    """Reynolds right-hand side F = (1/w) D(w^3 u D u) - (v/w) u on interior nodes.

    The flux coefficient w^3 u is formed pointwise on the grid and averaged to
    faces; boundary neighbours take the Dirichlet traces carried by the
    fields (u.bv, w.bv).  Raises the quench signal when the gap closes.
    """
    n = u.n
    if v.n != n or w.n != n:
        raise ValueError("u, v, w must share the grid")
    wp = _pad(w.values, w.bv)
    sp.require_open_gap(wp, "gap closed while evaluating F")
    return GridField(values=_reynolds_padded(_pad(u.values, u.bv), v.values, wp), bv=0.0)


def assemble_Pstar(u0: GridField, v0: GridField, w0: GridField) -> np.ndarray:
    """P*, the exact Jacobian of the discrete eval_F in u at (u0, v0, w0): a dense
    tridiagonal matrix on the interior values of zero-trace functions.

    Entry-by-entry this is the conservative stencil of
    (1/w0) D( w0^3 u0 D psi + (w0^3 D u0) psi ) - (v0/w0) psi with the second
    flux face-averaged as (w^3 psi)|_face, so verify.frechet_F at t = 0 forms
    the same matrix action.  Not bit for bit: the matrix multiplies undivided
    differences by 1/(w0 h^2), while frechet_F divides by h twice and then by
    w; test_matches_linearization_at_t0 holds the two to 1e-12 relative.
    """
    up, w3, aL, aR, inv_wh2 = _faces(u0, w0, v0)
    du_face = np.diff(up)  # undivided differences u_{j+1}-u_j at faces
    duL, duR = du_face[:-1], du_face[1:]
    sub = (aL - 0.5 * w3[:-2] * duL) * inv_wh2  # d F_i / d u_{i-1}
    sup = (aR + 0.5 * w3[2:] * duR) * inv_wh2  # d F_i / d u_{i+1}
    diag = (-aL - aR + 0.5 * w3[1:-1] * (duR - duL)) * inv_wh2 - v0.values / w0.values
    return _tridiagonal(sub, diag, sup)


def _faces(u0: GridField, w0: GridField, *others: GridField) -> tuple:
    """Face arithmetic of the linearization: (u0 and w0^3 padded with their traces,
    the averages of w0^3 u0 on the left and right face of each interior node, 1/(w0 h^2)).
    ValueError unless u0, w0 and others share the grid and u0, w0 > 0, traces included."""
    if any(f.n != u0.n for f in (w0, *others)):
        raise ValueError("coefficient fields must share the grid")
    for name, f in (("u0", u0), ("w0", w0)):
        if min(float(f.values.min()), f.bv) <= 0.0:
            raise ValueError(f"coefficient positivity violation: {name} must be strictly positive")
    h = 1.0 / (u0.n + 1)
    up = _pad(u0.values, u0.bv)
    w3 = _pad(w0.values, w0.bv) ** 3
    a_face = _face_avg(w3 * up)  # length n+1, faces j-1/2 for j=1..n+1
    return up, w3, a_face[:-1], a_face[1:], 1.0 / (w0.values * h * h)


def _tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Dense matrix whose row i holds sub[i], diag[i], sup[i] at columns i-1, i, i+1 (sub[0], sup[-1] fall outside)."""
    m = np.diag(diag)
    idx = np.arange(diag.size - 1)
    m[idx + 1, idx] = sub[1:]
    m[idx, idx + 1] = sup[:-1]
    return m


def _principal_matrix(u0: GridField, w0: GridField) -> np.ndarray:
    """Highest-order part (1/w0) D(w0^3 u0 D q) of P* at (u0, w0)."""
    _, _, aL, aR, inv_wh2 = _faces(u0, w0)
    return _tridiagonal(aL * inv_wh2, -(aL + aR) * inv_wh2, aR * inv_wh2)


def elliptic_form_check(
    u0: GridField,
    w0: GridField,
    trials: int = 10_000,
    seed: int = 0,
) -> EllipticReport:
    """Verify |<q, (1/w0) D(w0^3 u0 D q)>| >= K ||Dq||^2 - K_o ||q||^2 on random q.

    K and K_o come from the Young-split of the first-order remainder:
    K2 = C ||u0||_{H2} ||w0||_{H3}^2, eps^2 = eps1 kappa^2 / (2 K2) so that
    K = eps1 kappa^2 / 2 and K_o = K2 / (4 eps^2) = K2^2 / (2 eps1 kappa^2),
    with eps1 = min u0 and kappa = min w0 (boundary values included).
    Invalid u0, w0 raise as in assemble_Pstar; failures are reported in the
    flag, never raised; q is drawn and measured in blocks of sp.audit_blocks rows.
    """
    A = _principal_matrix(u0, w0)
    n = u0.n
    h = 1.0 / (n + 1)
    eps1 = min(float(u0.values.min()), u0.bv)
    kappa = sp.gap_min(w0.values, w0.bv)
    C = dp.embedding_C(n)
    u_modes = sp.sine_transform(u0.values - u0.bv)
    w_modes = sp.sine_transform(w0.values - w0.bv)
    K2 = C * sp.norm_Hk(u_modes, 2, u0.bv) * sp.norm_Hk(w_modes, 3, w0.bv) ** 2
    K = 0.5 * eps1 * kappa**2
    K_o = K2**2 / (2.0 * eps1 * kappa**2) if K2 > 0 else 0.0

    rng = np.random.default_rng(seed)
    worst = np.inf
    ok = True
    for rows in sp.audit_blocks(trials):
        q = rng.normal(size=(rows, n))  # the same stream as rows draws of size n
        lhs = np.abs(h * np.sum(q * (q @ A.T), axis=-1))
        dq2 = h * np.sum(_dq(_pad(q, 0.0), h) ** 2, axis=-1)
        q2 = h * np.sum(q * q, axis=-1)
        slack = lhs - (K * dq2 - K_o * q2)
        worst = min(worst, float(slack.min()))
        ok = ok and not np.any(slack < -1e-9 * np.maximum(1.0, lhs))
    return EllipticReport(K=K, K_o=K_o, K2=K2, passed=ok, worst_slack=worst)


# A resolvent-norm product past this is taken as a singular resolvent.
_PRODUCT_CAP = 1e12


def sector_check(
    matrix: np.ndarray,
    ray_angles: tuple = (0.55 * math.pi, 0.65 * math.pi, 0.75 * math.pi),
    extra_lambdas: list | None = None,
) -> SectorReport:
    """Sample the resolvent of matrix (P*) along rays from the measured shift and bound |lambda-omega|*||R||.

    The shift omega sits just right of the spectral bound; each ray is sampled
    at 13 radii spaced geometrically over 1e-2..1e2 times the spectral radius,
    and the report's angle is the widest sampled ray.  A singular resolvent
    -- or a resolvent-norm product past _PRODUCT_CAP, the floating-point
    shadow of singularity -- is a sector violation and raises.  extra_lambdas
    adds explicit sample points (e.g. probing a suspected spectral point).
    """
    eigs = np.linalg.eigvals(matrix)
    sb = float(eigs.real.max())
    scale = float(np.abs(eigs).max())
    omega = sb + 1e-3 * max(scale, 1.0)
    radii = np.geomspace(1e-2, 1e2, 13) * max(scale, 1.0)
    eye = np.eye(matrix.shape[0])

    def measure(lam: complex) -> float:
        try:
            R = np.linalg.inv(lam * eye - matrix)
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


# Largest condition number max(s)/min(s) of the diagonal similarity S that
# the eigen route of _propagator accepts; its rounding grows with cond(S).
_COND_S_MAX = 1e3

# phi_2 is summed from its Taylor series where |z| <= 1, since
# (expm1(z) - z) / z^2 cancels there; the first term left out is 1/20! < 1e-18.
_PHI2_TAYLOR = 1.0 / np.array([math.factorial(j + 2) for j in range(18)])


def _phi12(z: np.ndarray) -> tuple:
    """phi_1(z) = expm1(z)/z and phi_2(z) = (expm1(z) - z)/z^2, elementwise."""
    small = np.abs(z) <= 1.0
    zz = np.where(small, 1.0, z)
    em1 = np.expm1(z)
    phi2 = np.where(small, np.polynomial.polynomial.polyval(z, _PHI2_TAYLOR), (em1 - zz) / zz**2)
    phi1 = np.where(small, 1.0 + z * phi2, em1 / zz)
    return phi1, phi2


def _symmetrized_eigen(m: np.ndarray):
    """Eigen-factorisation m = W diag(lam) W_inv of a real tridiagonal matrix.

    Where every sub_i sup_i > 0, the diagonal S with s_{i+1}/s_i =
    sqrt(sub_i/sup_i) makes S^-1 m S symmetric tridiagonal, with off-diagonal
    sqrt(sub_i sup_i); its eigenpairs (lam, V) give W = S V and W_inv = V^T S^-1.
    None when some sub_i sup_i <= 0 or cond(S) > _COND_S_MAX.
    """
    sub, sup = np.diag(m, -1), np.diag(m, 1)
    if not np.all(sub * sup > 0.0):
        return None
    s = np.concatenate(([1.0], np.cumprod(np.sqrt(sub / sup))))
    if not s.max() <= _COND_S_MAX * s.min():
        return None
    lam, V = eigh_tridiagonal(np.diag(m), np.sqrt(sub * sup))
    return s[:, None] * V, lam, V.T / s


def _propagator(matrix: np.ndarray, dt: float) -> tuple:
    """E = exp(dt P*), K1 = dt phi_1(dt P*), K2 = dt phi_2(dt P*), as dense matrices, for P* = matrix.

    P* is tridiagonal, so where a diagonal similarity symmetrizes it
    (_symmetrized_eigen) each of the three is W f(dt lam) W_inv for a scalar
    f (Hochbruck & Ostermann, Exponential integrators, Acta Numerica 19,
    2010).  Otherwise they are blocks of one expm of the 3n x 3n augmented
    matrix [[dt P*, I, 0], [0, 0, I], [0, 0, 0]].
    """
    eigen = _symmetrized_eigen(matrix)
    if eigen is not None:
        W, lam, W_inv = eigen
        z = dt * lam
        phi1, phi2 = _phi12(z)
        E, K1, K2 = ((W * f) @ W_inv for f in (np.exp(z), dt * phi1, dt * phi2))
    else:
        n = matrix.shape[0]
        aug = np.zeros((3 * n, 3 * n))
        aug[:n, :n] = dt * matrix
        aug[:n, n : 2 * n] = np.eye(n)
        aug[n : 2 * n, 2 * n :] = np.eye(n)
        big = expm(aug)
        E = big[:n, :n]
        K1 = dt * big[:n, n : 2 * n]
        K2 = dt * big[:n, 2 * n :]
    if not all(np.all(np.isfinite(a)) for a in (E, K1, K2)):
        raise RuntimeError("matrix exponential overflow (ill-conditioned operator)")
    return E, K1, K2


def linear_parabolic_solve(propagator: tuple, F_path: np.ndarray, u0_tilde: np.ndarray) -> np.ndarray:
    """March phi(t) = e^{t P*} u0 + int_0^t e^{(t-s) P*} F(s) ds with exact kicks.

    propagator is _propagator(P*, dt), and F_path holds the forcing at the
    nodes of a uniform grid of that step dt, one row per node; the march
    takes one step per row after the first.  The forcing is interpolated
    linearly on each step; the phi_1/phi_2 kick matrices make that
    quadrature exact, so constant forcings and steady states are reproduced
    to rounding.  Returns the shifted (zero-trace) samples, one row per node.
    """
    F = np.asarray(F_path, dtype=float)
    phi = np.asarray(u0_tilde, dtype=float)
    if F.shape[1] != phi.size:
        raise ValueError("forcing and state sizes differ")
    E, K1, K2 = propagator
    # The forcing kicks need no state: one gemv per step, formed before the
    # march, is bitwise K1 @ F[m] and K2 @ (F[m + 1] - F[m]) of that step.
    kick1 = np.matmul(K1, F[:-1, :, None])[..., 0]
    kick2 = np.matmul(K2, (F[1:] - F[:-1])[..., None])[..., 0]
    out = np.empty(F.shape)
    out[0] = phi
    for m in range(F.shape[0] - 1):
        out[m + 1] = E @ out[m] + kick1[m] + kick2[m]
    return out


# ---------------------------------------------------------------------------
# outer contraction
# ---------------------------------------------------------------------------


def _F_path(u_path: PressurePath, plate: VWPath, p: ModelParams) -> np.ndarray:
    """F(u; v, w) at every node of a pressure path and its plate path, shape (n_t + 1, n).

    Each row is bitwise eval_F at its node; the first node whose gap is
    closed raises the quench signal.
    """
    th2 = p.theta2
    v_grid = sp.inverse_sine_transform(plate.v)
    w_grid = sp.inverse_sine_transform(plate.w) + th2
    sp.require_open_gap(w_grid, "gap closed while evaluating F")
    F = _reynolds_padded(_pad(u_path.values, u_path.bv), v_grid, _pad(w_grid, th2))
    _require_finite("F", F)
    return F


# Margin over the rounding floor of the Gamma differences a recorded ratio uses
_FLOOR_MARGIN = 1e3


def _banach_ratio(diffs: list, path: PressurePath) -> float:
    """Banach's estimate of the contraction constant: the largest ratio d_{i+1}/d_i
    of successive Gamma differences with both at least _FLOOR_MARGIN times the
    rounding floor eps max|u| (n pi)^2 (the H2 norm of a unit roundoff on the
    top grid mode), so known to 2/_FLOOR_MARGIN; NaN if there is none."""
    values = path.values
    floor = np.finfo(float).eps * float(np.abs(values).max()) * (math.pi * values.shape[-1]) ** 2
    d = np.asarray(diffs, dtype=float)
    above = np.minimum(d[:-1], d[1:]) >= _FLOOR_MARGIN * floor
    return float(np.max(d[1:][above] / d[:-1][above])) if above.any() else float("nan")


def gamma_iterate(
    p: ModelParams,
    state: CoupledState,
    T: float,
    n_t: int,
    tol: float = DriverConfig.tol,
    max_iter: int = DriverConfig.max_iter,
) -> tuple:
    """Fixed-point sweep for the pressure path (full u, trace theta_1) from state
    on the uniform grid of n_t steps over [0, T], the chunk's one time grid.

    Returns (pressure path, PicardReport, plate path): the fixed point, its
    report and the plate solved for it.

    The first iterate holds state.u at every node.  Each sweep: solve the
    plate subproblem for the current pressure (at 0.01 tol, warm-started from
    the previous sweep's plate path), evaluate the Reynolds nonlinearity along
    the resulting (v, w), and propagate
    u~ -> e^{t P*} u~_0 + int e^{(t-s) P*} { F(u~)(s) - P* u~(s) } ds with the
    linearization frozen at the initial data.  Measured sup-t H2 ratios of
    successive differences are the contraction diagnostics; a ratio >= 0.9
    (two in a row >= 1 would be certain divergence, one >= 0.9 already voids
    the margin) aborts with the implied admissible horizon ~ T (1/(2 rho))^{1/alpha}.
    """
    _require_coupled(state, p)
    u0, init_vw = state.u, state.vw
    th1, th2 = p.theta1, p.theta2
    inner_tol = 0.01 * tol
    times = np.linspace(0.0, T, n_t + 1)

    pstar = assemble_Pstar(u0, *dp.plate_fields(init_vw, th2))
    u0_tilde = u0.values - th1
    # every plate solve of this call starts from init_vw on the same grid
    setup = dp.plate_setup(p, init_vw, times)
    plate = None  # the last plate path, where the next plate solve starts
    propagator = None  # for the step T / n_t, built at the first march (a quench before it needs none)

    def solve_plate(current):
        nonlocal plate
        plate, _ = dp.picard_dispersive(setup, current, tol=inner_tol, start=plate)
        return plate

    def sweep(current):
        nonlocal propagator
        F = _F_path(current, solve_plate(current), p)
        forcing = F - (current.values - th1) @ pstar.T
        if propagator is None:
            propagator = _propagator(pstar, T / n_t)
        fresh = linear_parabolic_solve(propagator, forcing, u0_tilde) + th1
        # the Duhamel integral vanishes at t=0, so the initial sample is the
        # initial datum itself -- pin it bitwise rather than via the
        # subtract-add float roundtrip
        fresh[0] = u0.values
        return PressurePath(times=times.copy(), values=fresh, bv=th1)

    guess = PressurePath(times=times, values=np.tile(u0.values, (n_t + 1, 1)), bv=u0.bv)
    current, diffs, ratios, status = dp.fixed_point(
        sweep, guess, dp.pressure_diff_norm, tol, max_iter, lambda ratios: bool(ratios) and ratios[-1] >= 0.9
    )
    report = PicardReport(len(diffs), ratios, banach_ratio=_banach_ratio(diffs, current))
    if status == "converged":
        return current, report, solve_plate(current)
    rho = ratios[-1] if ratios else float("nan")
    T_adm = T * (0.5 / rho) ** (1.0 / dp.HOLDER_ALPHA) if ratios else float("nan")
    if status == "diverged":
        message = (
            f"outer contraction failed: measured ratio {rho:.3g} at T={T:.3g}; "
            f"the contraction criterion implies an admissible horizon of about {T_adm:.3g}"
        )
    else:
        message = f"outer iteration exhausted {max_iter} sweeps without reaching tol={tol:.3g}"
    raise GammaDivergence(message, report, ratio=rho, T_admissible=T_adm)


# ---------------------------------------------------------------------------
# method-of-lines oracle
# ---------------------------------------------------------------------------


def _stack(u: np.ndarray, v: np.ndarray, w: np.ndarray, theta1: float) -> np.ndarray:
    """The oracle's stacked state (theta1, u, theta1, v, w): interior pressure samples with their traces, plate modes."""
    return np.concatenate(([theta1], u, [theta1], v, w))


_ZERO = np.zeros(1)  # a trace entry of the oracle's derivative


def mol_rhs(y: np.ndarray, p: ModelParams) -> np.ndarray:
    """Time derivative of one oracle stage on the stacked state y = _stack(u, v, w, theta1).

    u holds the interior pressure samples, v and w the plate modes (w~ = w -
    theta2), with k_max == n; the derivative has the same layout, zero at the
    trace entries.  The plate operator acts spectrally; the gap forcing G(w~)
    is evaluated on the doubled dealiasing grid exactly as in the plate
    solver, and the pressure coupling uses the sine expansion of the grid
    samples -- the same forcing recipe the Picard construction uses, so the
    two integrators share one semidiscretization.  The transforms are the
    cached one-row matrices of sp.sine_matrices.

    Raises ValueError when u, the synthesized v or w, or du is not finite,
    and the quench signal when the gap (trace included) closes on the grid
    or, after that, on the dealiasing grid.
    """
    th1, th2 = p.theta1, p.theta2
    n = (y.size - 2) // 3
    syn, ana, syn2, ana2 = sp.sine_matrices(n)
    up, vw, w = y[: n + 2], y[n + 2 :], y[2 * n + 2 :]
    grid = (syn @ vw.reshape(2, n, 1)).reshape(2 * n)  # two matrix-vector products, bitwise
    v_grid = grid[:n]
    wp = _pad(grid[n:] + th2, th2)
    # a cheap guard: the named checks run whenever it is not finite
    if not math.isfinite(up @ up + grid @ grid):
        for name, values in (("u", up), ("v", v_grid), ("w", wp)):
            _require_finite(name, values)
    sp.require_open_gap(wp, "gap closed while evaluating F")
    du = _reynolds_padded(up, v_grid, wp)
    _require_finite("du", du)
    g = ana2 @ dp._G_fine(syn2 @ w + th2, p) + p.beta_p * (ana @ (up[1:-1] - th1))
    return np.concatenate((_ZERO, du, _ZERO, _neg_plate_mu(n) * w + g, vw[:n]))


def _w_min_oracle(w_modes: np.ndarray, theta2: float) -> float:
    """sp.gap_min over the refined_values of one row of w~ modes, to rounding, by the
    cached pad-2 synthesis matrix (a float shift is monotone)."""
    syn2 = sp.sine_matrices(w_modes.size)[2]
    return min(float((syn2 @ w_modes).min()) + theta2, theta2)


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
) -> Trajectory:
    """Classical four-stage Runge-Kutta on the stacked state of mol_rhs; the independent oracle.

    Requires dt <= 0.5/omega_max (explicit stability with a 5.6x margin under
    the RK4 imaginary-axis limit |z| <= 2*sqrt(2)), k_max == n and the
    pressure trace theta1; the marched step T/steps stays under that limit.
    Returns the sampled states as a Trajectory, always including the first
    and last.  Raises the quench signal when the gap reaches quench_eps (or
    closes entirely); a step in which a stage sees
    the gap closed is redone in adaptive sub-steps, and EndgameBudgetSignal
    reports that _ENDGAME_SUBSTEPS of them did not resolve it.  Every signal
    carries the stored Trajectory, ending at the state where it was raised.
    """
    _require_coupled(init, p)
    n = init.u.n
    th1, th2 = p.theta1, p.theta2
    limit = 0.5 / float(sp.plate_eigenvalues(n).omega[-1])
    if dt > limit:
        raise ValueError(f"step-size violation: dt={dt} exceeds 0.5/omega_max={limit:.3e}")
    steps = max(1, int(round(T / dt)))
    steps += T / steps > limit  # where round() went down to a step over the limit
    dt = T / steps
    if store_every is None:
        store_every = max(1, steps // 512)
    floor = 0.0 if quench_eps is None else quench_eps
    u_of, v_of, w_of = slice(1, n + 1), slice(n + 2, 2 * n + 2), slice(2 * n + 2, None)
    y = _stack(init.u.values, init.vw.v, init.vw.w, th1)
    samples = [(init.t, y)]  # the stored (t, y); no step writes into a stored y

    def trajectory():
        ts, ys = zip(*samples)
        rows = np.array(ys)
        return Trajectory(np.array(ts), rows[:, u_of], rows[:, v_of], rows[:, w_of], th1)

    def rk_step(y0, step):
        k1 = mol_rhs(y0, p)
        k2 = mol_rhs(y0 + 0.5 * step * k1, p)
        k3 = mol_rhs(y0 + 0.5 * step * k2, p)
        k4 = mol_rhs(y0 + step * k3, p)
        return y0 + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def stop(sig, y_f, t_f):
        """sig with its time and the stored Trajectory, which ends at (t_f, y_f).  The
        caller raises it, so no frame on its traceback holds it in a reference cycle."""
        samples.append((t_f, y_f))
        sig.t, sig.trajectory = t_f, trajectory()
        return sig

    def quench_raise(y_f, t_f, w_min_f):
        raise stop(QuenchSignal("gap reached the quench threshold", min_value=w_min_f), y_f, t_f)

    def endgame(y0, t0, span):
        """The gap died inside a full step: roll back and sub-step adaptively
        until the monitor band is crossed cleanly (or the span survives)."""
        y_l, t_l = y0, t0
        left = span
        dt_loc = span / 2.0
        for _ in range(_ENDGAME_SUBSTEPS):
            if left <= 1e-12 * span:
                return y_l
            try:
                y_n = rk_step(y_l, min(dt_loc, left))
            except QuenchSignal:
                dt_loc /= 2.0
                if dt_loc < 1e-14 * span:
                    quench_raise(y_l, t_l, _w_min_oracle(y_l[w_of], th2))
                continue
            taken = min(dt_loc, left)
            y_l, t_l, left = y_n, t_l + taken, left - taken
            w_min_l = _w_min_oracle(y_l[w_of], th2)
            if w_min_l <= floor:
                quench_raise(y_l, t_l, w_min_l)
        w_min_l = _w_min_oracle(y_l[w_of], th2)
        message = (
            f"Runge-Kutta endgame used its {_ENDGAME_SUBSTEPS} sub-steps at t={t_l:.6g} "
            f"with min w={w_min_l:.6g} above the quench threshold"
        )
        raise stop(EndgameBudgetSignal(message, min_value=w_min_l, t=t_l), y_l, t_l)

    for m in range(steps):
        t_pre = init.t + m * dt
        try:
            y = rk_step(y, dt)
        except QuenchSignal:
            y = endgame(y, t_pre, dt)
        t = init.t + (m + 1) * dt
        w_min = _w_min_oracle(y[w_of], th2)
        if w_min <= floor:
            quench_raise(y, t, w_min)
        if u_cap is not None and float(np.abs(y[u_of]).max()) >= u_cap:
            raise stop(BlowupSignal(f"pressure blowup: max|u| exceeded {u_cap} at t={t}"), y, t)
        if (m + 1) % store_every == 0 or m + 1 == steps:
            samples.append((t, y))
    return trajectory()


def _status_of(u: np.ndarray, w_min, quench_eps: float, u_cap: float) -> np.ndarray:
    """Classify each row of pressure samples u with its gap minimum w_min:
    'quench' (gap at/below threshold) before 'pressure_blowup', else 'alive'."""
    blowup = np.abs(u).max(axis=-1) >= u_cap
    return np.where(w_min <= quench_eps, "quench", np.where(blowup, "pressure_blowup", "alive"))


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
    F0 = eval_F(state.u, *dp.plate_fields(state.vw, p.theta2))
    c = sp.sine_transform(F0.values)
    k = np.arange(1, c.size + 1) * math.pi
    return math.sqrt(0.5 * float(np.sum(k ** (2.0 * _COMPAT_SIGMA) * c**2)))


def run_coupled(p: ModelParams, init: CoupledState, T: float, config: DriverConfig | None = None) -> RunReport:
    """Adaptive chunked time integration of the coupled system to horizon T.

    Marches Gamma fixed points chunk by chunk (halving a chunk that fails to
    contract, growing one 1.5x up to chunk_cap that contracts fast), monitors
    quench/blowup and pressure positivity at every sample, and hands the final
    approach to touchdown to the Runge-Kutta tail when the contraction horizon
    collapses.  One loop runs while the termination, first the status of the
    initial state, is "alive", and the run has one exit.
    """
    if config is None:
        config = DriverConfig()
    _require_coupled(init, p)
    th1, th2 = p.theta1, p.theta2
    config = replace(
        config,
        quench_eps=config.quench_eps if config.quench_eps is not None else 1e-3 * th2,
        u_cap=config.u_cap if config.u_cap is not None else 1e6 * th1,
    )

    try:
        proxy = compat_regularity_proxy(init, p)
    except QuenchSignal:  # the gap is closed at a grid node; the status check below reports the quench
        proxy = math.nan
    kappa0 = sp.gap_min(sp.refined_values(init.vw.w, th2), th2)
    # the stored run: trajectory parts for _join, and the gap minimum and the
    # contraction ratio of each row they add
    parts = [Trajectory(np.array([init.t]), init.u.values[None], init.vw.v[None], init.vw.w[None], th1)]
    w_mins, ratios = [np.array([kappa0])], [np.full(1, np.nan)]

    # the initial state is checked for quench and blowup, not for the pressure floor
    termination = str(_status_of(init.u.values, kappa0, config.quench_eps, config.u_cap))
    note = ""
    cap = math.inf if config.chunk_cap is None else config.chunk_cap
    guess = T if p.beta_F == 0 else 0.05 * kappa0**3 / p.beta_F
    chunk = min(T, guess if config.chunk_init is None else config.chunk_init, cap)
    state, t_end, chunks_done = init, init.t + T, 0
    while termination == "alive":
        remaining = t_end - state.t
        this_chunk = min(chunk, remaining)
        if remaining <= 1e-12 * max(1.0, abs(t_end)):
            termination = "converged"
        elif chunks_done >= _MAX_CHUNKS:
            termination, note = "budget", "chunk budget exhausted"
        elif this_chunk < _TAIL_FLOOR and this_chunk < _TAIL_FRACTION * remaining:
            termination, note, tail = _rk4_tail(p, state, remaining, config)
            parts.append(tail)
            w_mins.append(sp.gap_min(sp.refined_values(tail.w[1:], th2), th2))
            ratios.append(np.full(tail.t.size - 1, np.nan))
        else:
            chunks_done += 1
            try:
                u_new, rep, plate = gamma_iterate(p, state, this_chunk, config.n_t, tol=config.tol, max_iter=config.max_iter)
            except (PicardDivergence, QuenchSignal):  # a GammaDivergence is a PicardDivergence
                chunk = this_chunk / 2.0
                continue
            # the chunk is cut after its first row that is not alive; at one row
            # quench and blowup take precedence over the pressure floor
            u_rows = u_new.values[1:]
            # the rows' gap minima, from the synthesis the plate solve's own check made
            w_min = sp.gap_min(plate.w_refined_min[1:] + th2, th2)
            status = _status_of(u_rows, w_min, config.quench_eps, config.u_cap)
            below_floor = u_rows.min(axis=-1) < p.eps1 * (1.0 - 1e-9)
            status = np.where((status == "alive") & below_floor, "pressure_floor", status)
            dead = np.flatnonzero(status != "alive")
            rows = dead[0] + 2 if dead.size else u_new.times.size
            parts.append(Trajectory(state.t + u_new.times[:rows], u_new.values[:rows], plate.v[:rows], plate.w[:rows], th1))
            w_mins.append(w_min[: rows - 1])
            ratios.append(np.full(rows - 1, rep.banach_ratio))
            state = parts[-1].state(-1)
            # chunk growth reads the last ratio; the series records Banach's estimate
            ratio = rep.contraction_ratios[-1] if rep.contraction_ratios else 0.0
            if dead.size:
                termination = str(status[dead[0]])
                if termination == "pressure_floor":
                    note = f"pressure positivity floor eps1={p.eps1} violated at t={state.t:.6g}"
            elif ratio <= _GROW_BELOW:
                chunk = min(1.5 * chunk, cap)

    return _finalize_report(p, init, T, config, termination, parts, w_mins, ratios, proxy, note)


def _rk4_tail(p, state, remaining, config):
    """Resolve the final approach with the oracle integrator; returns (termination, note, Trajectory)."""
    dt = 0.25 / float(sp.plate_eigenvalues(state.vw.k_max).omega[-1])
    try:
        tail = integrate_reference(p, state, remaining, dt, quench_eps=config.quench_eps, u_cap=config.u_cap)
    except QuenchSignal as sig:
        return "quench", "contraction horizon collapsed; touchdown resolved by the reference scheme", sig.trajectory
    except BlowupSignal as sig:
        return "pressure_blowup", "pressure cap crossed during the reference-scheme tail", sig.trajectory
    except EndgameBudgetSignal as sig:
        return "endgame_budget", str(sig), sig.trajectory
    return "converged", "tail integrated with the reference scheme", tail


def _finalize_report(p, init, T, config, termination, parts, w_mins, ratios, proxy, note=""):
    """The RunReport of a run stored as trajectory parts (see _join) and the
    gap minimum (sp.gap_min on the refined grid) and the contraction ratio of each row they add."""
    tr = _join(parts)
    columns = (
        tr.t,
        np.concatenate(w_mins),
        tr.u.max(axis=-1),
        mass_balance_residual(tr, p),
        sp.norm_X(tr.v, tr.w, sp.plate_eigenvalues(init.vw.k_max)),
        np.concatenate(ratios),
    )
    t_final = float(tr.t[-1])
    return RunReport(
        params=p,
        config=config,
        k_max=init.vw.k_max,
        n=init.u.n,
        T=T,
        termination=termination,
        series=dict(zip(SERIES_COLUMNS, columns)),
        T_used=t_final - init.t,
        trajectory=tr,
        compat_proxy=proxy,
        quench_time=t_final if termination == "quench" else None,
        note=note,
    )


def continue_run(report: RunReport, extra_T: float, config: DriverConfig | None = None) -> RunReport:
    """Restart the driver from a converged run's final state for extra_T more time.

    The concatenated trajectory must agree with a single longer run over the
    overlap (restart re-assembles the linearization from data the two runs
    share to within tol).  Refuses to continue past quench or blowup; zero
    extra horizon is the identity.  Each part keeps the series values of its
    own run, mass_residual included.
    """
    if report.termination != "converged":
        raise ValueError(f"cannot continue a run that terminated with '{report.termination}'")
    if extra_T < 0:
        raise ValueError("extra_T must be nonnegative")
    if extra_T == 0:
        return replace(report)
    first = report.config
    status = _status_of(report.trajectory.u[-1], report.series["min_w"][-1], first.quench_eps, first.u_cap)
    if status != "alive":
        raise ValueError(f"cannot continue: final state is not alive ({status})")
    second = run_coupled(report.params, report.final_state, extra_T, config if config is not None else first)
    return replace(
        report,
        T=report.T + extra_T,
        termination=second.termination,
        series={c: np.concatenate((report.series[c], second.series[c][1:])) for c in SERIES_COLUMNS},
        T_used=report.T_used + second.T_used,
        trajectory=_join([report.trajectory, second.trajectory]),
        quench_time=second.quench_time,
        note=second.note or report.note,
        config=second.config,
    )


# ---------------------------------------------------------------------------
# diagnostics & fixtures
# ---------------------------------------------------------------------------


def mass_balance_residual(trajectory: Trajectory, p: ModelParams) -> np.ndarray:
    """|d/dt int w u dx  -  [w^3 u u_x]_0^1| at each row of a trajectory.

    Quadrature is the trapezoid rule including the boundary values theta2 *
    theta1; boundary derivatives are second-order one-sided; the time
    derivative is the central difference (one-sided at the ends).
    """
    if trajectory.t.size < 3:
        return np.full(trajectory.t.size, np.nan)
    ts, mass, flux = mass_balance_terms(trajectory, p)
    return np.abs(np.gradient(mass, ts, edge_order=2) - flux)


def mass_balance_terms(trajectory: Trajectory, p: ModelParams) -> tuple:
    """(t, int w u dx, [w^3 u u_x]_0^1) at each row of a trajectory, the terms of mass_balance_residual."""
    th1, th2 = p.theta1, p.theta2
    u = trajectory.u
    h = 1.0 / (u.shape[-1] + 1)
    w_grid = sp.inverse_sine_transform(trajectory.w) + th2
    mass = h * (th2 * th1 + (w_grid * u).sum(axis=-1))  # trapezoid: half of each boundary value twice
    ux0 = (-3.0 * th1 + 4.0 * u[:, 0] - u[:, 1]) / (2.0 * h)
    ux1 = (3.0 * th1 - 4.0 * u[:, -1] + u[:, -2]) / (2.0 * h)
    return trajectory.t, mass, th2**3 * th1 * (ux1 - ux0)
