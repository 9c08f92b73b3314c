"""Sine-spectral backbone on (0,1): transforms, plate spectrum, the Duhamel march, norms.

Everything here is built on the pinned sine basis phi_k(x) = sin(k*pi*x), which
diagonalizes the plate operator A = Lap - Lap^2 with w = Lap w = 0 at x = 0,1:

    A phi_k = -mu_k phi_k,    mu_k = (k*pi)^2 + (k*pi)^4.

L2 normalization convention (documented once, used everywhere):

    int_0^1 sin(k*pi*x) sin(m*pi*x) dx = (1/2) * delta_km,

so every spectral norm in this module carries the factor 1/2, e.g.
||f||_L2^2 = sum_k f_k^2 / 2 for f = sum_k f_k sin(k*pi*x).

Collocation grid: x_j = j/(n+1), j = 1..n (interior nodes only).  A field
on the grid is the array of its interior samples; its boundary trace is a
model constant of dispersive.ModelParams (theta1 for the pressure, theta2
for the gap, 0 for the velocity).  With n = k_max the type-I DST is a square
invertible map and round-trips are exact to rounding.

Array convention: the transforms, the refined-grid synthesis, dealias_apply
and norm_Hk act along the last axis, so a (n_t + 1, k) array holds a whole
time path (one row per node) and is transformed in one call; every row comes
out bitwise equal to transforming it on its own.  The Duhamel march takes
its rotation and kick coefficients for all steps at once (duhamel_coeffs),
forms the forcing kicks of all steps in one array operation, and then steps
node to node, adding the rotation of each row onto the next row's kick.
Callers that transform one row at a time in a hot loop (the Runge-Kutta
oracle) use the cached dense matrices of sine_matrices instead of a DST
dispatch per call.

Transform route, chosen per length (Frigo & Johnson, The Design and
Implementation of FFTW3, Proc. IEEE 93(2), 2005): a transform between
n_nodes samples and k modes is a DST-I, whose FFT has length 2(n_nodes+1),
unless that length has a prime factor p > k.  pocketfft's pass for a prime
radix costs O(p) per element, so there the transforms multiply by cached
sine tables instead, O(k) per element.  Row n_nodes+1-j of the (n_nodes, k)
table is row j times (-1)^(i+1) in mode i, so the route keeps only the first
half of its rows, split into the odd and the even modes (_half_tables): the
two products do half the flops and read half the bytes of one with the full
table.  Each product is one BLAS gemv per row and the combines are
elementwise, so each row is bitwise its own call and independent of the BLAS
pool size (one gemm over the stack would give neither).  33 rows, one
thread, synthesis / analysis:

    n_nodes          DST             full table      half tables     route
    256 (k = 256)    425 / 425 us    215 / 210 us    100 / 95 us     table (p = 257)
    513 (k = 256)    630 / 630 us    425 / 420 us    200 / 175 us    table (p = 257)
    16 (k = 16)      6 / 6 us        3 / 2 us        9 / 9 us        table (p = 17)
    64, 129 (k = 64) 12, 22 us       10, 21 us       14, 22 us       DST
    128, 257         37, 68 us       about the DST   27, 62 us       DST
    512              100 us          1035 us         390 us          DST (p = 19)

At n = 16 the call overhead of two gemvs per row outweighs the halved flops.
The DST is scipy.fftpack's: the same pocketfft kernel as scipy.fft's, with
the same bytes, without the backend dispatch and array-API conversion that
cost scipy.fft about 3 us more per call (3.3 against 6.0 us for one row of
129 nodes).
The shipped configs' lengths (n = 48 and 64, their pad-2 and pad-4 grids)
stay on the DST but one: 193 nodes, the pad-4 grid of n = 48 (FFT length
388 = 4 * 97, 97 > 48), which dispersive.g0_norm_H2 reaches when T = auto.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fftpack import dst


class QuenchSignal(RuntimeError):
    """The gap field touched (or crossed) zero somewhere an operation needed 1/w.

    The model is only defined while w > 0; rather than letting 1/w^2 turn into
    Inf/NaN and poison a whole run, operations that evaluate inverse powers of
    w raise this signal.  Drivers catch it and report touchdown.
    """

    def __init__(self, message: str, min_value: float = np.nan, t: float = np.nan):
        super().__init__(message)
        self.min_value = float(min_value)
        self.t = float(t)


def require_open_gap(w: np.ndarray, message: str, times=None) -> None:
    """Raise QuenchSignal(message) where the gap samples w (last axis) are not all > 0.

    w may be a stack of rows (any leading axes); the signal reports the minimum
    of the first closed row in C order and, given times (one per row), its time.
    A NaN sample closes nothing: a row whose minimum is NaN passes.  The trace
    needs no sample where it is known to be positive (theta2).
    """
    if w.min() > 0.0:
        return
    row_min = np.ravel(w.min(axis=-1))
    closed = np.flatnonzero(row_min <= 0.0)
    if closed.size:
        i = closed[0]
        raise QuenchSignal(message, min_value=row_min[i], t=np.nan if times is None else times[i])


def gap_min(w: np.ndarray, trace: float):
    """Gap minimum over the closed interval: the minimum of the samples w (last
    axis) capped by the boundary trace.  One per row; a float for one row."""
    m = np.minimum(w.min(axis=-1), trace)
    return m if m.ndim else float(m)


@dataclass(frozen=True)
class PlateSpectrum:
    """Eigenvalues mu_k of -A and frequencies omega_k = sqrt(mu_k) for k = 1..k_max."""

    mu: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True)
class StateVW:
    """Plate state in mode space: v = gap velocity, w = shifted gap w~ = w - theta2."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if self.v.shape != self.w.shape or self.v.ndim != 1:
            raise ValueError("v and w must be 1-d mode vectors of equal length")
        if not (np.isfinite(self.v).all() and np.isfinite(self.w).all()):
            raise ValueError("v and w modes must be finite")

    @property
    def k_max(self) -> int:
        return self.v.size


def grid(n: int) -> np.ndarray:
    """Interior collocation nodes x_j = j/(n+1), j = 1..n."""
    return np.arange(1, n + 1, dtype=float) / (n + 1)


def plate_eigenvalues(k_max: int) -> PlateSpectrum:
    """mu_k = (k*pi)^2 + (k*pi)^4."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    kpi = np.pi * np.arange(1, k_max + 1, dtype=float)
    mu = kpi**2 + kpi**4
    return PlateSpectrum(mu=mu, omega=np.sqrt(mu))


def _largest_prime_factor(m: int) -> int:
    p, largest = 2, 1
    while p * p <= m:
        while m % p == 0:
            m, largest = m // p, p
        p += 1
    return max(largest, m)


@lru_cache(maxsize=None)
def _table_route(n_nodes: int, k: int) -> bool:
    """True where the n_nodes-point DST-I is slower than the k-mode table product:
    its FFT length 2(n_nodes+1) has a prime factor p > k.  pocketfft's pass for a
    prime radix p costs O(p) per element, the table product O(k)."""
    return _largest_prime_factor(2 * (n_nodes + 1)) > k


# Both caches fill once per key, under the one lock (the cells of a sweep run
# on two threads), and hold read-only arrays.
_TABLES: dict = {}
_HALF_TABLES: dict = {}
_TABLES_LOCK = threading.Lock()


def _cached(cache: dict, key, build):
    got = cache.get(key)
    if got is None:
        with _TABLES_LOCK:
            got = cache.get(key)
            if got is None:
                got = cache[key] = build()
    return got


def _sines(n_nodes: int, rows: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """sin(j i pi/(n_nodes+1)) for the nodes j in rows by the modes i, read-only."""
    # j*i reduced mod 2(n_nodes+1) in integers keeps the angle in [0, 2 pi)
    ji = np.multiply.outer(rows, modes)
    ji %= 2 * (n_nodes + 1)
    table = ji.astype(float)
    del ji
    table *= np.pi
    table /= n_nodes + 1
    np.sin(table, out=table)
    table.setflags(write=False)
    return table


def _sine_table(n_nodes: int, k: int) -> np.ndarray:
    """table[j, i] = sin((j+1)(i+1) pi/(n_nodes+1)), shape (n_nodes, k): nodes by
    modes.  The dense matrices of sine_matrices; the transforms use _half_tables."""
    return _cached(_TABLES, (n_nodes, k), lambda: _sines(n_nodes, np.arange(1, n_nodes + 1), np.arange(1, k + 1)))


def _half_tables(n_nodes: int, k: int) -> tuple:
    """(odd, even): the sine table's rows j = 1..ceil(n_nodes/2) at the odd modes
    and rows 1..floor(n_nodes/2) at the even modes: all of it, by the mirror
    symmetry (the first butterfly of the fast DST; Britanak, Yip & Rao,
    Discrete Cosine and Sine Transforms, 2007)."""

    def build():
        half = n_nodes // 2
        odd = _sines(n_nodes, np.arange(1, n_nodes - half + 1), np.arange(1, k + 1, 2))
        return odd, _sines(n_nodes, np.arange(1, half + 1), np.arange(2, k + 1, 2))

    return _cached(_HALF_TABLES, (n_nodes, k), build)


def _rowwise(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ row for every row of x (last axis): one BLAS gemv per row, so each
    row comes out bitwise as its own call, whatever the pool size.  One gemm over
    the stack would not keep that."""
    return np.matmul(matrix, np.ascontiguousarray(x)[..., None])[..., 0]


def _table_synthesis(m: np.ndarray, n_nodes: int) -> np.ndarray:
    """sum_i m_i sin(i pi x_j) from the half tables: f_j = o_j + e_j and
    f_{n_nodes+1-j} = o_j - e_j, with o from the odd modes and e from the even."""
    odd, even = _half_tables(n_nodes, m.shape[-1])
    half = n_nodes // 2
    o = _rowwise(odd, m[..., 0::2])
    e = _rowwise(even, m[..., 1::2])
    f = np.empty(m.shape[:-1] + (n_nodes,))
    np.add(o[..., :half], e, out=f[..., :half])
    np.subtract(o[..., :half], e, out=f[..., ::-1][..., :half])
    if n_nodes % 2:
        f[..., half] = o[..., half]
    return f


def _table_analysis(f: np.ndarray, k: int) -> np.ndarray:
    """sum_j f_j sin(i pi x_j) for i = 1..k from the half tables: the odd modes
    from f_j + f_{n+1-j} (and the middle sample of an odd n), the even modes
    from f_j - f_{n+1-j}."""
    n_nodes = f.shape[-1]
    odd, even = _half_tables(n_nodes, k)
    half = n_nodes // 2
    head, tail = f[..., :half], f[..., ::-1][..., :half]
    folded = np.empty(f.shape[:-1] + (n_nodes - half,))
    np.add(head, tail, out=folded[..., :half])
    if n_nodes % 2:
        folded[..., half] = f[..., half]
    coeffs = np.empty(f.shape[:-1] + (k,))
    coeffs[..., 0::2] = _rowwise(odd.T, folded)
    coeffs[..., 1::2] = _rowwise(even.T, head - tail)
    return coeffs


def sine_transform(f: np.ndarray, k: int | None = None) -> np.ndarray:
    """Forward sine transform along the last axis: coeffs_i = 2/(n+1) * sum_j f(x_j) sin(i*pi*x_j).

    Returns the first k coefficients, i = 1..k (all n by default).  Exactly
    inverts inverse_sine_transform when n = k_max.  Note the transform sees
    only the interior samples; a constant boundary lift leaks into the
    coefficients as the sine series of the constant (~ 4/(k*pi) for odd k),
    which is the intended analytic behavior.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    k = n if k is None else k
    if not 1 <= k <= n:
        raise ValueError(f"sine_transform returns 1 to {n} coefficients, not {k}")
    if _table_route(n, k):
        coeffs = _table_analysis(f, k)
        coeffs *= 2.0
        coeffs /= n + 1
        return coeffs
    return dst(f, type=1, axis=-1)[..., :k] / (n + 1)


def inverse_sine_transform(m: np.ndarray, n: int | None = None) -> np.ndarray:
    """Evaluate sum_k m_k sin(k*pi*x_j) on the n-node grid (n = k_max by default), along the last axis."""
    m = np.asarray(m, dtype=float)
    k = m.shape[-1]
    n = k if n is None else n
    if n < k:
        raise ValueError(f"{k} modes need at least {k} nodes, got {n}")
    if _table_route(n, k):
        return _table_synthesis(m, n)
    if n > k:
        padded = np.zeros(m.shape[:-1] + (n,))
        padded[..., :k] = m
        m = padded
    return dst(m, type=1, axis=-1) / 2.0


@lru_cache(maxsize=None)
def sine_matrices(k: int) -> tuple:
    """Dense one-row form of the sine layer at k modes: (syn, ana, syn2, ana2).

    syn (k, k) is inverse_sine_transform on the n = k grid, syn[j, i] =
    sin((i+1)(j+1) pi/(k+1)); ana = 2/(k+1) syn is sine_transform (syn is
    symmetric); syn2 (2k+1, k) synthesizes on the pad-2 grid of
    refined_values; ana2 = syn2.T/(k+1) (k, 2k+1) is the pad-2 analysis
    truncated to k modes, so ana2 @ func(syn2 @ m + bv) is
    dealias_apply(func, m, bvs=(bv,)).  syn and syn2 are the full sine
    tables (_sine_table), whose entries the transforms' half tables share
    bitwise, but a product with any of the four sums every mode at once, so
    it rounds like neither route and agrees with both to rounding.  A small
    matrix-vector product beats a DST dispatch for one row (the Runge-Kutta
    oracle).  Built on first use of each k and cached; the arrays are
    read-only.
    """
    syn = _sine_table(k, k)
    syn2 = _sine_table(2 * k + 1, k)
    ana = (2.0 / (k + 1)) * syn
    ana2 = np.ascontiguousarray(syn2.T) / (k + 1)
    for m in (ana, ana2):
        m.setflags(write=False)
    return syn, ana, syn2, ana2


def eval_modes_on(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_k m_k sin(k*pi*x) at arbitrary points (used for fine/refined grids)."""
    m = np.asarray(m, dtype=float)
    k = np.arange(1, m.size + 1, dtype=float)
    return np.sin(np.outer(x, k * np.pi)) @ m


def refined_values(m: np.ndarray, bv: float = 0.0, pad: int = 2) -> np.ndarray:
    """sum_k m_k sin(k*pi*x) + bv on the pad-refined grid of pad*K + 1 interior nodes."""
    m = np.asarray(m, dtype=float)
    return inverse_sine_transform(m, pad * m.shape[-1] + 1) + bv


def dealias_apply(func, *mode_args, bvs=None, pad: int = 2):
    """Apply a pointwise nonlinearity on a pad-times refined grid, truncate back.

    Each argument holds mode vectors of length K along its last axis; they are
    evaluated on the pad*K + 1 node grid (with their boundary lift added),
    func is applied pointwise, and the raw result is transformed back to its
    first K modes.  Raw samples in, coefficients out — same convention as
    sine_transform, so a constant output shows up as its sine series.
    """
    k_max = np.shape(mode_args[0])[-1]
    if bvs is None:
        bvs = (0.0,) * len(mode_args)
    out = func(*(refined_values(m, bv, pad) for m, bv in zip(mode_args, bvs)))
    return sine_transform(out, k_max)


# Two-double angle handling for the rotation phases.  With omega_k ~ (k pi)^2
# and horizons up to t = 100 the raw product omega*t reaches ~1e7 rad; plain
# double reduction then injects ~|theta|*eps ~ 1e-9 rad of phase noise, which
# breaks the 1e-12 semigroup-law and benchmark tolerances.  Splitting the
# product exactly (Dekker) and reducing mod 2*pi with a hi/lo representation
# of 2*pi keeps the phase consistent to a few ulp at any horizon.

_TWO_PI_HI = 6.283185307179586232e0
_TWO_PI_LO = 2.449293598294706414e-16
_SPLITTER = 134217729.0  # 2^27 + 1


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    a_hi = ca - (ca - a)
    a_lo = a - a_hi
    cb = _SPLITTER * b
    b_hi = cb - (cb - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def reduced_cossin(omega: np.ndarray, t):
    """cos/sin of omega*t (t a scalar or an array that broadcasts against omega)
    with exact product + double-double mod-2pi reduction."""
    p, e = _two_prod(np.asarray(omega, dtype=float), np.asarray(t, dtype=float))
    n = np.round(p / _TWO_PI_HI)
    r_hi, r_lo = _two_prod(n, _TWO_PI_HI)
    theta = ((p - r_hi) - r_lo) + e - n * _TWO_PI_LO
    return np.cos(theta), np.sin(theta)


def norm_X(v: np.ndarray, w: np.ndarray, spec: PlateSpectrum):
    """Energy norm of the state space X = L2 x H2*: sqrt( sum v_k^2/2 + sum mu_k w_k^2/2 ).

    Acts along the last axis of the mode arrays v and w: a float for one
    state, one norm per row for a stack of states (a path).
    """
    norms = np.sqrt(0.5 * np.sum(v**2, axis=-1) + 0.5 * np.sum(spec.mu * w**2, axis=-1))
    return norms if norms.ndim else float(norms)


@lru_cache(maxsize=None)
def _hk_weights(k_max: int, k: int) -> np.ndarray:
    kpi2 = (np.pi * np.arange(1, k_max + 1)) ** 2
    lam = np.ones(k_max)
    p = np.ones(k_max)
    for _ in range(k):
        p = p * kpi2
        lam = lam + p
    lam.setflags(write=False)
    return lam


def norm_Hk(f: np.ndarray, k: int, bv=0.0):
    """Spectral Sobolev norm of bv + f(x), f = sum_m f_m sin(m pi x), for k = 0..3:

        ||bv + f||_Hk^2 = sum_m (1 + (m pi)^2 + ... + (m pi)^{2k}) f_m^2 / 2
                          + bv^2 + 2 bv int f.

    The constant lift bv (the physical w0 = theta2 + w~0, or G0 with its
    constant term) has no derivative, so it enters only the L2 term, through
    the closed-form sine moments int_sine.  Acts along the last axis: a float
    for one mode vector, one norm per row for a stack, each bitwise its own
    call; bv is a scalar or holds one value per row.
    """
    f = np.asarray(f, dtype=float)
    if k not in (0, 1, 2, 3):
        raise ValueError("norm_Hk supports k in {0,1,2,3}")
    k_max = f.shape[-1]
    sq = 0.5 * np.sum(_hk_weights(k_max, k) * f**2, axis=-1)
    if not (isinstance(bv, float) and bv == 0.0):  # a zero scalar lift adds nothing
        sq = sq + bv**2 + 2.0 * (bv * np.sum(f * int_sine(k_max), axis=-1))
    norms = np.sqrt(sq)
    return norms if f.ndim > 1 else float(norms)


def int_sine(k_max: int) -> np.ndarray:
    """int_0^1 sin(k pi x) dx = (1 - (-1)^k)/(k pi)  (4/(k pi) for odd k, 0 even)."""
    k = np.arange(1, k_max + 1, dtype=float)
    return (1.0 - (-1.0) ** np.arange(1, k_max + 1)) / (k * np.pi)


# scan points of the embedding-constant maximization over x
_EMBED_SCAN = 4096
# Bytes of the sine table the scan holds at once.  Its rows are a power of
# two, so they divide _EMBED_SCAN, and at least 8, so each row's dot product
# with the weights rounds as in one gemv over the whole scan.  2 MiB is the
# whole table up to k_max = 64: smaller blocks there leave glibc's dynamic
# mmap threshold low, and `gapflow verify` then page-faults on the arrays it
# allocates and frees (8% of its time, measured in process).
_EMBED_BLOCK_BYTES = 2 << 20


def sobolev_embedding_constant(k_max: int) -> float:
    """Sharp H2 -> Linf embedding constant on the k_max-mode sine subspace.

    By Cauchy-Schwarz, |f(x)| = |sum f_k sin(k pi x)| <= ||f||_H2 * C(x) with
        C(x)^2 = 2 sum_k sin^2(k pi x) / (1 + (k pi)^2 + (k pi)^4),
    and equality at f_k ~ sin(k pi x)/lambda_k, so max_x C(x) is the exact
    subspace operator norm.  It is grid/subspace specific (the continuum
    constant is its k_max -> inf limit) and stabilizes quickly since the
    weights decay like k^-4.

    The _EMBED_SCAN points of x are scanned in blocks of rows, so the
    working memory is one table of at most _EMBED_BLOCK_BYTES (2 MiB) at any
    k_max; the result has the bits of one scan over the whole table.
    """
    if k_max < 8:
        raise ValueError("k_max >= 8 required for a stable embedding estimate")
    x = (np.arange(1, _EMBED_SCAN + 1) - 0.5) / _EMBED_SCAN

    def c_of(km):
        w = 1.0 / _hk_weights(km, 2)
        kpi = np.pi * np.arange(1, km + 1)
        rows = _EMBED_SCAN
        while rows > 8 and rows * km * 8 > _EMBED_BLOCK_BYTES:
            rows //= 2
        s = np.empty((rows, km))
        block_max = []
        for start in range(0, _EMBED_SCAN, rows):
            np.outer(x[start : start + rows], kpi, out=s)
            np.sin(s, out=s)
            s *= s
            block_max.append(np.max(s @ w))
        return float(np.sqrt(2.0 * np.max(block_max)))

    c_full = c_of(k_max)
    c_half = c_of(max(8, k_max // 2))
    if abs(c_full - c_half) > 0.05 * c_full:
        raise RuntimeError(
            f"embedding constant did not stabilize: C({k_max//2})={c_half:.6f} vs C({k_max})={c_full:.6f}"
        )
    return c_full


# --- Duhamel quadrature -----------------------------------------------------
#
# One step of the mild solution over [t0, t1], h = t1 - t0, forcing (g(s), 0)
# interpolated linearly between g0 = g(t0) and g1 = g(t1):
#
#   state(t1) = T(h) state(t0) + kick,
#   kick_v_k = h   * [ g0 (S - A) + g1 A ],
#   kick_w_k = h^2 * [ g0 (A - B) + g1 B ],
#
# with x = om_k h and the entire trig integrals done exactly:
#   S = sin(x)/x,   A = (1 - cos x)/x^2,   B = (1 - S)/x^2.
# A is evaluated as 2 sin^2(x/2)/x^2 and B by series for small x — the naive
# forms lose ~half the mantissa to cancellation exactly where the benchmark
# needs 1e-10.

_B_SERIES_CUT = 0.35


def _kick_coeffs(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    xs = np.maximum(x, 1e-300)  # keeps the vector branches warning-free at x=0
    S = np.sinc(x / np.pi)
    A = 2.0 * np.sin(x / 2.0) ** 2 / xs**2
    A = np.where(x < 1e-8, 0.5, A)
    x2 = x * x
    b_series = 1.0 / 6.0 - x2 / 120.0 + x2 * x2 / 5040.0 - x2 * x2 * x2 / 362880.0
    B = np.where(x < _B_SERIES_CUT, b_series, (1.0 - S) / xs**2)
    return S, A, B


def duhamel_coeffs(omega: np.ndarray, h: np.ndarray) -> tuple:
    """Rotation and kick coefficients of the exp-trapezoid step for each step size in h.

    Returns (h, cos, sin, S - A, A, A - B, B); all but h have shape (len(h), k).
    Computed once, they serve every sweep over the same time grid.
    """
    h = np.asarray(h, dtype=float)
    c, sn = reduced_cossin(omega, h[:, None])
    S, A, B = _kick_coeffs(omega * h[:, None])
    return h, c, sn, S - A, A, A - B, B


def duhamel_sweep(init: StateVW, omega: np.ndarray, coeffs: tuple, forcing: np.ndarray) -> tuple:
    """March the mild solution from init across the steps of coeffs (see duhamel_coeffs).

    forcing holds the v-equation forcing modes at every node, shape
    (n_steps + 1, k).  Returns (v, w) of the same shape; row 0 is init.
    """
    h, c, sn, s_a, a, a_b, b = coeffs
    f0, f1 = forcing[:-1], forcing[1:]
    v = np.empty(forcing.shape)
    w = np.empty(forcing.shape)
    v[0], w[0] = init.v, init.w
    # Rows 1.. start as the kicks of all steps, formed at once; each step then
    # adds the rotation of the row before (verify._rotate's arithmetic, inlined).
    # IEEE addition commutes, so kick + rotation is bitwise rotation + kick.
    v[1:] = h[:, None] * (f0 * s_a + f1 * a)
    w[1:] = (h * h)[:, None] * (f0 * a_b + f1 * b)
    for v0, w0, v1, w1, ci, si in zip(v[:-1], w[:-1], v[1:], w[1:], c, sn):
        v1 += v0 * ci - w0 * omega * si
        w1 += w0 * ci + v0 * si / omega
    return v, w


def duhamel_step(s: StateVW, spec: PlateSpectrum, g0: np.ndarray, g1: np.ndarray, t0: float, t1: float) -> StateVW:
    """Advance the mild solution one step; forcing enters the v-equation only.

    The one-step case of duhamel_sweep: piecewise-linear g, trig kernels
    integrated exactly (order 2, uniformly in omega; exact for constant and
    linear-in-t forcing).
    """
    h = t1 - t0
    if h < 0:
        raise ValueError("duhamel_step needs t1 >= t0")
    v, w = duhamel_sweep(s, spec.omega, duhamel_coeffs(spec.omega, [h]), np.array([g0, g1], dtype=float))
    return StateVW(v=v[1], w=w[1])
