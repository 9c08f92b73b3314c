import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.fft import dst

from gapflow import dispersive as dp
from gapflow import spectral as sp
from gapflow import verify as vf

ROOT = Path(__file__).resolve().parent.parent


def test_grid_nodes():
    x = sp.grid(7)
    assert np.allclose(x, np.arange(1, 8) / 8.0)


def test_plate_eigenvalues_first_two():
    spec = sp.plate_eigenvalues(4)
    # mu_k = (k pi)^2 + (k pi)^4
    assert spec.mu[0] == pytest.approx(np.pi**2 + np.pi**4, rel=1e-14)
    assert spec.mu[0] == pytest.approx(107.27869536, rel=1e-8)
    assert spec.mu[1] == pytest.approx(4 * np.pi**2 + 16 * np.pi**4, rel=1e-14)
    assert spec.mu[1] == pytest.approx(1598.02387415, rel=1e-8)
    assert np.all(np.diff(spec.mu) > 0)
    assert np.allclose(spec.omega**2, spec.mu, rtol=1e-15)


def test_sine_transform_eigenfunction():
    x = sp.grid(7)
    c = sp.sine_transform(np.sin(np.pi * x))
    expect = np.zeros(7)
    expect[0] = 1.0
    assert np.allclose(c, expect, atol=1e-14)


def test_sine_transform_zero():
    assert np.allclose(sp.sine_transform(np.zeros(5)), 0.0)


def test_sine_transform_constant_matches_analytic_series():
    # sine series of 1 on (0,1): 4/(k pi) for odd k, 0 for even
    n = 2001
    c = sp.sine_transform(np.ones(n))
    k = np.arange(1, 12)
    analytic = np.where(k % 2 == 1, 4.0 / (k * np.pi), 0.0)
    assert np.allclose(c[:11], analytic, atol=2e-6)


def test_round_trip_identity():
    rng = np.random.default_rng(7)
    for n in (8, 33, 128, 256):  # 256 takes the table route, the others the DST
        m = rng.normal(size=n)
        again = sp.sine_transform(sp.inverse_sine_transform(m))
        assert np.max(np.abs(again - m)) < 1e-12 * max(1.0, np.max(np.abs(m)))
        # a stack of rows transforms along the last axis, each row bitwise as on its own
        rows = rng.normal(size=(5, n))
        for transform in (sp.sine_transform, sp.inverse_sine_transform):
            assert np.array_equal(transform(rows), [transform(r) for r in rows])
        assert np.array_equal(sp.norm_Hk(rows, 2), [sp.norm_Hk(r, 2) for r in rows])


# (n_nodes, k) of the DSTs the shipped configs and the golden runs make
# (n = 48 and 64 with their pad-2 and pad-4 grids), and of other lengths whose
# FFT length 2(n_nodes + 1) has no prime factor above k
DST_LENGTHS = [
    (48, 48), (97, 48), (195, 48), (64, 64), (129, 64), (259, 64), (128, 128), (257, 128), (512, 512), (1025, 256)
]
# n = 256, its pad-2 grid and the pad-2 grid of that: 2(n_nodes + 1) = 2, 4 and 8 times 257;
# n = 16 (the convergence study's coarse level) and its pad-2 grid: 2 and 4 times 17
TABLE_LENGTHS = [(16, 16), (33, 16), (256, 256), (513, 256), (1027, 256)]
# the half route also at odd mode counts and at k = 1; an odd n_nodes has a middle row
HALF_ROUTE_LENGTHS = TABLE_LENGTHS + [(16, 15), (33, 15), (7, 1)]


def _transform_both_ways(n_nodes, k):
    rng = np.random.default_rng(n_nodes)
    m = rng.normal(size=(3, k))
    f = rng.normal(size=(3, n_nodes))
    return sp.inverse_sine_transform(m, n_nodes), sp.sine_transform(f, k)


@pytest.mark.parametrize("n_nodes, k", DST_LENGTHS)
def test_lengths_without_a_prime_above_k_keep_the_dst(monkeypatch, n_nodes, k):
    assert not sp._table_route(n_nodes, k)

    def no_table(*args):
        raise AssertionError("table route taken")

    monkeypatch.setattr(sp, "_half_tables", no_table)  # the tables of the table route
    _transform_both_ways(n_nodes, k)


@pytest.mark.parametrize("n_nodes, k", TABLE_LENGTHS)
def test_lengths_with_a_prime_above_k_take_the_table(monkeypatch, n_nodes, k):
    assert sp._table_route(n_nodes, k)
    monkeypatch.setattr(sp, "dst", None)  # any DST call would raise
    _transform_both_ways(n_nodes, k)


def test_the_dst_entry_point_has_the_bytes_of_scipy_fft():
    # spectral takes its DST from scipy.fftpack, which calls the pocketfft
    # kernel without scipy.fft's backend dispatch; the two must stay bitwise
    # equal, so that a SciPy that splits them fails here and not in the golden
    # files.  Every DST length runs and verify reach (8-131 nodes) and the two
    # route-test lengths of 512 nodes and up; 1-, 2- and 3-axis stacks, and
    # views with a stride, a reversed stride and swapped axes.
    rng = np.random.default_rng(131)
    for n in list(range(8, 132)) + [512, 1025]:
        wide = rng.normal(size=(2, 3, 2 * n))
        for x in (wide[0, 0, :n], wide[0, :, :n], wide[..., :n], wide[..., ::2], wide[0, :, ::-2], wide[..., :n].swapaxes(0, 1)):
            assert sp.dst(x, type=1, axis=-1).tobytes() == dst(x, type=1, axis=-1).tobytes(), (n, x.shape, x.strides)


def test_table_route_agrees_with_the_dst_to_rounding():
    # At n = k = 256 (and its pad-2 grid) the transforms multiply by the sine
    # table; scipy's DST of the same data is the reference.  A priori, to first
    # order in u = eps/2, with the terms' sum of magnitudes l1 (|m|_1 for a
    # synthesis, 2 |f|_1 / (n + 1) for an analysis):
    # - table: an entry sin(pi (ji mod 2(n+1)) / (n+1)) rounds its angle
    #   (< 2 pi) twice and its sine once, (4 pi + 1) u; the gemv sums k
    #   (synthesis) or n (analysis) terms, at most n u; the scaling 1 u;
    # - DST: the FFT of length 2(n+1) = 2^a 257 is a plain 257-term sum per
    #   output with twiddles good to an ulp, (257 + 2) u, and a radix-2 or
    #   radix-4 pass, 4 u.
    # The bound is their sum; the measured gap is about 1 u l1.
    u = np.finfo(float).eps / 2
    rng = np.random.default_rng(256)
    k = 256
    for n_nodes in (256, 513):
        assert sp._table_route(n_nodes, k)
        bound = (n_nodes + 4 * np.pi + 2 + 257 + 6) * u
        m = rng.normal(size=(20, k))
        padded = np.zeros((20, n_nodes))
        padded[:, :k] = m
        gap = np.abs(sp.inverse_sine_transform(m, n_nodes) - dst(padded, type=1, axis=-1) / 2).max(axis=-1)
        assert np.all(gap <= bound * np.abs(m).sum(axis=-1))
        f = rng.normal(size=(20, n_nodes))
        want = dst(f, type=1, axis=-1)[:, :k] / (n_nodes + 1)
        gap = np.abs(sp.sine_transform(f, k) - want).max(axis=-1)
        assert np.all(gap <= bound * 2 * np.abs(f).sum(axis=-1) / (n_nodes + 1))


def _worst_error_over_bound(n_nodes, k):
    """Largest error of the table route over its a-priori bound, both ways, on 20 random rows.

    Against the exact transform, to first order in u = eps/2, with the terms'
    sum of magnitudes l1 (|m|_1 for a synthesis, 2 |f|_1 / (n + 1) for an analysis):
    - a table entry rounds pi, its product with j i mod 2(n + 1) and the
      quotient by n + 1, so its angle (< 2 pi) is off by 6 pi u, and its sine
      rounds once: (6 pi + 1) u;
    - synthesis: each half table's gemv sums ceil(k/2) terms, ceil(k/2) u,
      and one add or subtract combines the halves, u;
    - analysis: one add or subtract folds the samples, u; the gemv sums
      ceil(n/2) terms, ceil(n/2) u; the scaling by 1/(n + 1), u.
    Rounding 6 pi + 2 and 6 pi + 3 up to 21 and 22 covers the second-order
    terms.  The reference sums the same way in long double, good to
    (max(n, k) + 22) u_ld l1.
    """
    u, u_ld = np.finfo(float).eps / 2, np.finfo(np.longdouble).eps / 2
    pi = 4 * np.arctan(np.longdouble(1))
    ji = np.outer(np.arange(1, n_nodes + 1), np.arange(1, k + 1)) % (2 * (n_nodes + 1))
    exact = np.sin(pi * ji.astype(np.longdouble) / (n_nodes + 1))
    reference = (max(n_nodes, k) + 22) * u_ld
    rng = np.random.default_rng(n_nodes * k)
    m = rng.normal(size=(20, k))
    gap = np.abs(sp.inverse_sine_transform(m, n_nodes) - m.astype(np.longdouble) @ exact.T).max(axis=-1)
    syn = gap / (((k + 1) // 2 + 21) * u + reference) / np.abs(m).sum(axis=-1)
    f = rng.normal(size=(20, n_nodes))
    want = 2 * (f.astype(np.longdouble) @ exact) / (n_nodes + 1)
    gap = np.abs(sp.sine_transform(f, k) - want).max(axis=-1)
    ana = gap / (((n_nodes + 1) // 2 + 22) * u + reference) / (2 * np.abs(f).sum(axis=-1) / (n_nodes + 1))
    return float(max(syn.max(), ana.max()))


@pytest.mark.parametrize("n_nodes, k", HALF_ROUTE_LENGTHS)
def test_half_route_meets_its_a_priori_bound(monkeypatch, n_nodes, k):
    assert sp._table_route(n_nodes, k)
    assert _worst_error_over_bound(n_nodes, k) <= 1.0
    # the bound is tight enough to catch a flipped mirror sign and a dropped middle row
    odd, even = sp._half_tables(n_nodes, k)
    mutants = [(odd, -even)] if even.size else []
    if n_nodes % 2:
        no_middle = odd.copy()
        no_middle[-1] = 0.0
        mutants.append((no_middle, even))
    for tables in mutants:
        monkeypatch.setattr(sp, "_HALF_TABLES", {(n_nodes, k): tables})
        assert _worst_error_over_bound(n_nodes, k) > 1.0


@pytest.mark.parametrize("n_nodes, k", HALF_ROUTE_LENGTHS)
def test_table_route_rows_are_bitwise_their_own_calls(n_nodes, k):
    # the halves are per-row gemvs and the combines elementwise, so a stack of
    # any depth (or a strided view of one) gives each row the bytes of its own call
    rng = np.random.default_rng(k)
    m, f = rng.normal(size=(2, 3, k)), rng.normal(size=(2, 3, n_nodes))
    for transform, stack, size in ((sp.inverse_sine_transform, m, n_nodes), (sp.sine_transform, f, k)):
        each = np.array([[transform(row, size) for row in rows] for rows in stack])
        assert np.array_equal(transform(stack, size), each)
        assert np.array_equal(transform(stack[1], size), each[1])
        assert np.array_equal(transform(stack[:, ::2], size), each[:, ::2])


_TABLE_ROUTE_BYTES = """
import hashlib
import numpy as np
from gapflow import spectral as sp

rng = np.random.default_rng(2)
m = rng.normal(size=(33, 256)) * np.arange(1, 257) ** -2.0
digest = hashlib.sha256()
for out in (
    sp.refined_values(m, 1.0),
    sp.dealias_apply(lambda a, b: a / b**2, m, m[::-1], bvs=(1.5, 1.0)),
    sp.sine_transform(sp.inverse_sine_transform(m)),
):
    digest.update(out.tobytes())
print(digest.hexdigest())
"""


def test_table_route_bytes_do_not_depend_on_the_blas_pool_size():
    # the shipped configs stay on the DST, so test_golden's pool test never
    # reaches the gemv of the table route; a fresh process per pool size
    def run(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
        cmd = [sys.executable, "-c", _TABLE_ROUTE_BYTES]
        return subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=120).stdout

    one = run("1")
    assert len(one.strip()) == 64 and run("2") == one


def test_sine_tables_are_built_once_per_length(monkeypatch):
    monkeypatch.setattr(sp, "_TABLES", {})
    table = sp._sine_table(13, 6)
    assert table.shape == (13, 6) and not table.flags.writeable
    assert sp._sine_table(13, 6) is table and sp._sine_table(6, 6) is not table
    ji = np.outer(np.arange(1, 14), np.arange(1, 7)) % 28
    assert np.array_equal(table, np.sin(np.pi * ji / 14))


def test_half_tables_are_blocks_of_the_sine_table(monkeypatch):
    monkeypatch.setattr(sp, "_TABLES", {})
    monkeypatch.setattr(sp, "_HALF_TABLES", {})
    for n_nodes, k in ((13, 6), (14, 7), (7, 1)):
        full = sp._sine_table(n_nodes, k)
        odd, even = sp._half_tables(n_nodes, k)
        again = sp._half_tables(n_nodes, k)
        assert again[0] is odd and again[1] is even
        assert not (odd.flags.writeable or even.flags.writeable)
        # the same angle formula, so the same bytes as the full table's first rows
        assert np.array_equal(odd, full[: n_nodes - n_nodes // 2, 0::2])
        assert np.array_equal(even, full[: n_nodes // 2, 1::2])
        # the mirror they stand for: row n_nodes + 1 - j is row j times (-1)^(i+1) in mode i
        sign = np.where(np.arange(1, k + 1) % 2, 1.0, -1.0)
        half = n_nodes // 2
        assert np.allclose(full[::-1][:half], sign * full[:half], rtol=0.0, atol=1e-14)
        if n_nodes % 2:
            assert np.allclose(full[half, 1::2], 0.0, rtol=0.0, atol=1e-14)


def test_each_route_builds_only_its_own_tables(monkeypatch):
    # the transforms never build a full table (only sine_matrices does, which
    # test_sine_matrices_match_the_transforms checks), and the DST route builds none
    monkeypatch.setattr(sp, "_TABLES", {})
    monkeypatch.setattr(sp, "_HALF_TABLES", {})
    for n_nodes, k in DST_LENGTHS:
        _transform_both_ways(n_nodes, k)
    assert sp._HALF_TABLES == {}
    for n_nodes, k in HALF_ROUTE_LENGTHS:
        _transform_both_ways(n_nodes, k)
    assert sp._TABLES == {} and set(sp._HALF_TABLES) == set(HALF_ROUTE_LENGTHS)


def test_threads_racing_for_a_table_share_one_build(monkeypatch):
    # the cells of a sweep run on two threads; a table built twice would hand
    # the threads different arrays (and hold two in memory at once)
    monkeypatch.setattr(sp, "_TABLES", {})
    monkeypatch.setattr(sp, "_HALF_TABLES", {})
    n_threads = 6
    barrier = threading.Barrier(n_threads, timeout=30)
    got = [[] for _ in range(n_threads)]

    def build(slot):
        for n_nodes in (1027, 2053, 4111):
            barrier.wait()
            slot.append(sp._sine_table(n_nodes, 256))
            slot.append(sp._half_tables(n_nodes, 256))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(slot,)) for slot in got]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    for i, n_nodes in enumerate((1027, 2053, 4111)):
        assert all(len(slot) == 6 and slot[2 * i] is sp._TABLES[(n_nodes, 256)] for slot in got)
        assert all(slot[2 * i + 1] is sp._HALF_TABLES[(n_nodes, 256)] for slot in got)


def test_semigroup_t0_identity_and_negative_rejected():
    rng = np.random.default_rng(1)
    spec = sp.plate_eigenvalues(16)
    s = sp.StateVW(rng.normal(size=16), rng.normal(size=16))
    s0 = vf.semigroup_apply(s, spec, 0.0)
    assert np.allclose(s0.v, s.v) and np.allclose(s0.w, s.w)
    with pytest.raises(ValueError):
        vf.semigroup_apply(s, spec, -0.1)


def test_semigroup_single_mode_full_period():
    spec = sp.plate_eigenvalues(1)
    s = sp.StateVW(np.array([0.0]), np.array([1.0]))
    out = vf.semigroup_apply(s, spec, 2 * np.pi / spec.omega[0])
    assert abs(out.w[0] - 1.0) < 1e-12
    assert abs(out.v[0]) < 1e-12 * spec.omega[0]


def test_semigroup_norm_conservation():
    rng = np.random.default_rng(3)
    spec = sp.plate_eigenvalues(256)
    s = sp.StateVW(rng.normal(size=256), rng.normal(size=256))
    n0 = sp.norm_X(s.v, s.w, spec)
    for t in (0.01, 1.0, 37.5, 100.0):
        turned = vf.semigroup_apply(s, spec, t)
        nt = sp.norm_X(turned.v, turned.w, spec)
        assert abs(nt - n0) <= 1e-10 * n0


def test_semigroup_law():
    rng = np.random.default_rng(4)
    spec = sp.plate_eigenvalues(128)
    s = sp.StateVW(rng.normal(size=128), rng.normal(size=128))
    for t, tau in ((0.25, 0.5), (1.0, 0.6875), (40.0, 24.0)):
        a = vf.semigroup_apply(s, spec, t + tau)
        b = vf.semigroup_apply(vf.semigroup_apply(s, spec, t), spec, tau)
        scale = sp.norm_X(a.v, a.w, spec)
        assert sp.norm_X(a.v - b.v, a.w - b.w, spec) <= 1e-12 * scale


def test_norm_X_values():
    spec = sp.plate_eigenvalues(4)
    assert sp.norm_X(np.zeros(4), np.zeros(4), spec) == 0.0
    assert sp.norm_X(np.array([1.0, 0, 0, 0]), np.zeros(4), spec) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    # a stack of states: one norm per row, each bitwise its own call
    rng = np.random.default_rng(8)
    v, w = rng.normal(size=(2, 50, 4))
    rows = sp.norm_X(v, w, spec)
    one = [sp.norm_X(a, b, spec) for a, b in zip(v, w)]
    assert rows.shape == (50,) and all(isinstance(x, float) for x in one)
    assert np.array_equal(rows, one)


def test_norm_Hk_values():
    f = np.array([1.0, 0.0, 0.0])
    assert sp.norm_Hk(np.zeros(3), 2) == 0.0
    assert sp.norm_Hk(f, 0) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert sp.norm_Hk(f, 2) == pytest.approx(np.sqrt((1 + np.pi**2 + np.pi**4) / 2), rel=1e-15)
    assert sp.norm_Hk(f, 2) == pytest.approx(7.3579445, rel=1e-6)
    with pytest.raises(ValueError):
        sp.norm_Hk(f, 5)


def _hk_weights_uncached(k_max, k):
    """The H^k weights as norm_Hk built them on every call before they were cached."""
    kpi2 = (np.pi * np.arange(1, k_max + 1)) ** 2
    lam = np.ones(k_max)
    p = np.ones(k_max)
    for _ in range(k):
        p = p * kpi2
        lam = lam + p
    return lam


@pytest.mark.parametrize("k_max", [3, 16, 64])
def test_norm_Hk_with_cached_weights_is_bitwise_unchanged(k_max):
    rng = np.random.default_rng(k_max)
    stack = rng.normal(size=(50, k_max)) / np.arange(1, k_max + 1) ** 2
    for k in (0, 1, 2, 3):
        lam = _hk_weights_uncached(k_max, k)
        want = np.sqrt(0.5 * np.sum(lam * stack**2, axis=-1))
        assert np.array_equal(sp.norm_Hk(stack, k), want)
        assert [sp.norm_Hk(f, k) for f in stack] == [float(np.sqrt(0.5 * np.sum(lam * f**2))) for f in stack]
        cached = sp._hk_weights(k_max, k)
        assert cached is sp._hk_weights(k_max, k) and not cached.flags.writeable
        assert np.array_equal(cached, lam)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_norm_Hk_against_quadrature(k):
    # dense Gauss quadrature of ||bv + f||_Hk for a constant lift: the lift
    # enters the L2 term only, the derivatives of f all the others
    from numpy.polynomial.legendre import leggauss

    rng = np.random.default_rng(11)
    xs, ws = leggauss(400)
    xs = 0.5 * (xs + 1)
    ws = 0.5 * ws
    fm = rng.normal(size=12) / np.arange(1, 13) ** 3
    bv = 1.3
    kpi = np.pi * np.arange(1, 13)
    s, c = np.sin(np.outer(xs, kpi)), np.cos(np.outer(xs, kpi))
    derivatives = [s @ fm, (c * kpi) @ fm, (-s * kpi**2) @ fm, (-c * kpi**3) @ fm]
    dense = np.sum(ws * (bv + derivatives[0]) ** 2) + sum(np.sum(ws * d**2) for d in derivatives[1 : k + 1])
    assert sp.norm_Hk(fm, k, bv) == pytest.approx(np.sqrt(dense), rel=1e-12)


def _lifted_norm_Hk_formula(f, k, bv):
    """norm_Hk of bv + f written out with uncached weights: one weighted sum,
    with the lift in its L2 term."""
    k_max = f.shape[-1]
    lam = _hk_weights_uncached(k_max, k)
    return np.sqrt(0.5 * np.sum(lam * f**2, axis=-1) + bv**2 + 2.0 * (bv * np.sum(f * sp.int_sine(k_max), axis=-1)))


def _three_sum_H2_before(f, bv):
    """The lifted H2 norm as the package formed it before norm_Hk took a lift
    (1-d only): its own weights and three separate sums, with the affine lift
    bv + slope (x - 1/2) at slope 0, kept as a second reference."""
    f = np.asarray(f, dtype=float)
    k_max = f.size
    a = 0.0
    b = bv - 0.5 * a
    int_x_sine = (-1.0) ** np.arange(2, k_max + 2) / (np.arange(1, k_max + 1) * np.pi)
    int_ell_sq = a**2 / 3.0 + a * b + b**2
    int_ell_f = a * np.sum(f * int_x_sine) + b * np.sum(f * sp.int_sine(k_max))
    kpi2 = (np.pi * np.arange(1, k_max + 1)) ** 2
    l2 = 0.5 * np.sum(f**2) + int_ell_sq + 2.0 * int_ell_f
    h1 = 0.5 * np.sum(kpi2 * f**2) + a**2
    h2 = 0.5 * np.sum(kpi2**2 * f**2)
    return float(np.sqrt(l2 + h1 + h2))


@pytest.mark.parametrize("k", [12, 32, 131])
def test_lifted_norm_Hk_rows_are_bitwise_the_one_row_calls(k):
    rng = np.random.default_rng(k)
    stack = rng.normal(size=(300, k)) / np.arange(1, k + 1) ** 2.2
    for bv in (1.3, 0.0):
        for order in (0, 1, 2, 3):
            rows = sp.norm_Hk(stack, order, bv)
            assert rows.shape == (300,)
            one = [sp.norm_Hk(f, order, bv) for f in stack]
            assert all(isinstance(x, float) for x in one)
            assert np.array_equal(rows, one)
            assert np.array_equal(rows, _lifted_norm_Hk_formula(stack, order, bv))
        # the three-sum H2 norm rounds differently, by a few ulp
        old = np.array([_three_sum_H2_before(f, bv) for f in stack])
        assert np.max(np.abs(sp.norm_Hk(stack, 2, bv) - old) / old) <= 1e-15
    # one lift per row: Python's scalar b**2 and numpy's square may differ in the last bit
    bvs = rng.uniform(0.25, 2.25, size=300)
    rows = sp.norm_Hk(stack, 2, bvs)
    assert np.array_equal(rows, _lifted_norm_Hk_formula(stack, 2, bvs))
    one = np.array([_three_sum_H2_before(f, float(b)) for f, b in zip(stack, bvs)])
    assert np.max(np.abs(rows - one) / one) <= 1e-15


def test_embedding_constant_bounds_and_stability():
    C = sp.sobolev_embedding_constant(128)
    # single test function lower bound: sup|sin(pi x)| / ||sin(pi x)||_H2
    assert C >= 1.0 / np.sqrt((1 + np.pi**2 + np.pi**4) / 2)
    C64 = sp.sobolev_embedding_constant(64)
    assert abs(C - C64) <= 0.01 * C
    # definition check on random truncated fields
    rng = np.random.default_rng(5)
    x = sp.grid(511)
    for _ in range(200):
        m = rng.normal(size=64) * np.arange(1, 65) ** -1.0
        f = sp.eval_modes_on(m, x)
        assert np.max(np.abs(f)) <= C * sp.norm_Hk(m, 2) * (1 + 1e-12)


def test_duhamel_zero_forcing_is_semigroup():
    rng = np.random.default_rng(6)
    spec = sp.plate_eigenvalues(8)
    s = sp.StateVW(rng.normal(size=8), rng.normal(size=8))
    z = np.zeros(8)
    a = sp.duhamel_step(s, spec, z, z, 0.0, 0.37)
    b = vf.semigroup_apply(s, spec, 0.37)
    assert np.allclose(a.v, b.v, atol=1e-14) and np.allclose(a.w, b.w, atol=1e-14)


def test_duhamel_constant_forcing_closed_form():
    # forced oscillator from rest: w_k = c (1 - cos om t)/mu_k, v_k = c sin(om t)/om_k
    rng = np.random.default_rng(8)
    spec = sp.plate_eigenvalues(32)
    c = rng.normal(size=32)
    for h in (1e-4, 0.013, 0.37):
        out = sp.duhamel_step(sp.StateVW(np.zeros(32), np.zeros(32)), spec, c, c, 0.0, h)
        # reference in the cancellation-free form (1 - cos x = 2 sin^2(x/2))
        w_exact = c * 2.0 * np.sin(spec.omega * h / 2) ** 2 / spec.mu
        v_exact = c * np.sin(spec.omega * h) / spec.omega
        assert np.max(np.abs(out.w - w_exact)) < 1e-13 * np.max(np.abs(w_exact))
        assert np.max(np.abs(out.v - v_exact)) < 1e-13 * np.max(np.abs(v_exact))


def test_duhamel_exact_for_linear_forcing():
    # exp-trapezoid integrates a linear-in-time forcing exactly; check one mode
    # against dense quadrature of the kernel integral
    spec = sp.plate_eigenvalues(1)
    om = spec.omega[0]
    g0, g1 = 0.7, -0.4
    h = 0.05
    out = sp.duhamel_step(sp.StateVW(np.zeros(1), np.zeros(1)), spec, np.array([g0]), np.array([g1]), 0.0, h)
    from numpy.polynomial.legendre import leggauss

    xs, ws = leggauss(60)
    tau = 0.5 * (xs + 1) * h
    wq = 0.5 * h * ws
    g = g0 + (g1 - g0) * tau / h
    v_ref = np.sum(wq * g * np.cos(om * (h - tau)))
    w_ref = np.sum(wq * g * np.sin(om * (h - tau)) / om)
    assert out.v[0] == pytest.approx(v_ref, abs=1e-15)
    assert out.w[0] == pytest.approx(w_ref, abs=1e-16)


def trapezoid_step(s, spec, g0, g1, t0, t1):
    """One step of the plain trapezoid on the kernel-weighted Duhamel integrand.

    Order 2 like the exp-trapezoid step, but with an omega*h-dependent error
    constant: the Richardson reference for the exp-trapezoid kick.
    """
    h = t1 - t0
    rot = vf.semigroup_apply(s, spec, h)
    x = spec.omega * h
    return sp.StateVW(v=rot.v + 0.5 * h * (g0 * np.cos(x) + g1), w=rot.w + 0.5 * h * (g0 * np.sin(x) / spec.omega))


def test_duhamel_rule_convergence_order():
    # both rules converge at >= order 2 to the many-step limit; measure on a
    # stiff mode with smooth forcing g(t) = sin(3t)
    spec = sp.plate_eigenvalues(6)

    def march(n_steps, step):
        s = sp.StateVW(np.zeros(6), np.zeros(6))
        ts = np.linspace(0.0, 0.8, n_steps + 1)
        for a, b in zip(ts[:-1], ts[1:]):
            g0 = np.full(6, np.sin(3 * a))
            g1 = np.full(6, np.sin(3 * b))
            s = step(s, spec, g0, g1, a, b)
        return s

    ref = march(4096, sp.duhamel_step)
    for step in (sp.duhamel_step, trapezoid_step):
        errs = []
        for n in (32, 64, 128):
            out = march(n, step)
            errs.append(sp.norm_X(out.v - ref.v, out.w - ref.w, spec))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order1, order2) > 1.8, (step.__name__, errs)


def test_plain_trapezoid_second_order():
    # against the forced-plate closed form of the Duhamel benchmark (constant
    # load, plate spectrum, from rest) the plain trapezoid decays O(dt^2)
    k, T = 4, 0.5
    spec = sp.plate_eigenvalues(k)
    g = 2.0 * sp.int_sine(k)
    gaps = []
    for N in (256, 512, 1024):
        s = sp.StateVW(np.zeros(k), np.zeros(k))
        times = np.linspace(0.0, T, N + 1)
        gap = 0.0
        for a, b in zip(times[:-1], times[1:]):
            s = trapezoid_step(s, spec, g, g, a, b)
            v_cf, w_cf = vf.linear_plate_closed_form(b, k)
            gap = max(gap, np.abs(s.w - w_cf).max(), np.abs(s.v - v_cf).max())
        gaps.append(gap)
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5
    assert 3.5 <= gaps[1] / gaps[2] <= 4.5


def test_duhamel_sweep_matches_step_by_step():
    # the sweep with coefficients for all steps at once is bitwise equal to
    # stepping duhamel_step node to node, and to the step as written out
    # before the coefficients were shared (rotation, then the exp-trapezoid
    # kick at that step's own h); linspace steps differ in the last ulp, so
    # each step must keep its own h
    rng = np.random.default_rng(12)
    k, n_t = 64, 32
    spec = sp.plate_eigenvalues(k)
    times = np.linspace(0.0, 0.013, n_t + 1)
    forcing = rng.normal(size=(n_t + 1, k))
    init = sp.StateVW(rng.normal(size=k), rng.normal(size=k))
    v, w = sp.duhamel_sweep(init, spec.omega, sp.duhamel_coeffs(spec.omega, np.diff(times)), forcing)
    s = ref = init
    for i in range(n_t):
        s = sp.duhamel_step(s, spec, forcing[i], forcing[i + 1], times[i], times[i + 1])
        h = times[i + 1] - times[i]
        rot = vf.semigroup_apply(ref, spec, h)
        S, A, B = sp._kick_coeffs(spec.omega * h)
        ref = sp.StateVW(
            v=rot.v + h * (forcing[i] * (S - A) + forcing[i + 1] * A),
            w=rot.w + h * h * (forcing[i] * (A - B) + forcing[i + 1] * B),
        )
        for state in (s, ref):
            assert np.array_equal(v[i + 1], state.v) and np.array_equal(w[i + 1], state.w)


@pytest.mark.parametrize("k", [64, 256])
def test_duhamel_sweep_bytes_equal_the_per_step_formula(k):
    # the march forms the kicks of all steps at once and adds each rotation
    # without a negation; byte for byte (tobytes tells -0.0 from 0.0, which
    # array_equal does not) it is the step as written with the kick formed
    # per step and the rotation -w om sin + v cos, on a non-uniform grid with
    # exact zeros of both signs in the initial state and the forcing
    rng = np.random.default_rng(k)
    n_t = 24
    om = sp.plate_eigenvalues(k).omega
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-5, 1e-3, n_t))])
    forcing = rng.normal(size=(n_t + 1, k))
    forcing[:3] = -0.0
    forcing[5] = 0.0
    forcing[9, ::2] = -0.0
    v0, w0 = rng.normal(size=k), rng.normal(size=k)
    v0[: k // 2] = -0.0
    w0[: k // 4] = 0.0
    w0[k // 4 : k // 2] = -0.0
    coeffs = sp.duhamel_coeffs(om, np.diff(times))
    v, w = sp.duhamel_sweep(sp.StateVW(v0, w0), om, coeffs, forcing)

    h, c, sn, s_a, a, a_b, b = coeffs
    ref_v, ref_w = [v0], [w0]
    for i in range(n_t):
        vi, wi = ref_v[i], ref_w[i]
        ref_v.append((-wi * om * sn[i] + vi * c[i]) + h[i] * (forcing[i] * s_a[i] + forcing[i + 1] * a[i]))
        ref_w.append((wi * c[i] + vi * sn[i] / om) + h[i] * h[i] * (forcing[i] * a_b[i] + forcing[i + 1] * b[i]))
    assert v.tobytes() == np.array(ref_v).tobytes()
    assert w.tobytes() == np.array(ref_w).tobytes()
    zeros = np.concatenate([v[v == 0.0], w[w == 0.0]])
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()


def test_dealias_apply_plain_product():
    # product of two low-mode fields computed with 2x padding lands close to
    # the analytic projection (fine-grid reference); the residual is the
    # aliasing of the product's slow cosine-content sine tail, O(1/n_fine^2)
    k_max = 16
    a = np.zeros(k_max)
    b = np.zeros(k_max)
    a[0] = 1.0  # sin(pi x)
    b[1] = 1.0  # sin(2 pi x)
    got = sp.dealias_apply(lambda f, g: f * g, a, b)
    x = sp.grid(4097)
    reference = sp.sine_transform(np.sin(np.pi * x) * np.sin(2 * np.pi * x))[:k_max]
    assert np.max(np.abs(got - reference)) < 1e-4
    # (rows, k) arguments: one product per row, bitwise equal to row-by-row calls
    rng = np.random.default_rng(4)
    A, B = rng.normal(size=(2, 7, k_max))
    rowwise = [sp.dealias_apply(lambda f, g: f * g, r, s, bvs=(1.5, 0.0)) for r, s in zip(A, B)]
    assert np.array_equal(sp.dealias_apply(lambda f, g: f * g, A, B, bvs=(1.5, 0.0)), rowwise)


@pytest.mark.parametrize("k", [16, 64, 128])
def test_sine_matrices_match_the_transforms(k):
    # the cached one-row matrices agree with the DST forms within 1e-13 of the sup norm
    syn, ana, syn2, ana2 = sp.sine_matrices(k)
    assert syn.shape == ana.shape == (k, k) and syn2.shape == (2 * k + 1, k) and ana2.shape == (k, 2 * k + 1)
    assert np.array_equal(syn, syn.T) and np.array_equal(ana2, syn2.T / (k + 1))
    # syn and syn2 are the cached full sine tables, not copies (the transforms'
    # table route uses the half tables of _half_tables instead)
    assert syn is sp._sine_table(k, k) and syn2 is sp._sine_table(2 * k + 1, k)
    rng = np.random.default_rng(k)
    m = rng.normal(size=k) * np.arange(1, k + 1) ** -2.0
    f = rng.normal(size=k)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    assert close(syn @ m, sp.inverse_sine_transform(m))
    assert close(ana @ f, sp.sine_transform(f))
    assert close(syn2 @ m + 1.0, sp.refined_values(m, 1.0))

    def func(g):
        return 1.0 / g**2

    assert close(ana2 @ func(syn2 @ m + 2.0), sp.dealias_apply(func, m, bvs=(2.0,)))
    assert sp.sine_matrices(k) is sp.sine_matrices(k)  # cached
    with pytest.raises(ValueError):
        syn[0, 0] = 0.0  # read-only, since every caller shares them


def test_dealias_padding_beats_no_padding():
    # squaring the highest retained mode: without padding sin^2(k_max pi x)
    # aliases catastrophically onto the low modes; with 2x padding the result
    # tracks the true projection
    k_max = 8
    m = np.zeros(k_max)
    m[k_max - 1] = 1.0
    x = sp.grid(4095)
    reference = sp.sine_transform(np.sin(8 * np.pi * x) ** 2)[:k_max]
    padded = sp.dealias_apply(lambda f: f * f, m, pad=2)
    unpadded = sp.dealias_apply(lambda f: f * f, m, pad=1)
    err_pad = np.max(np.abs(padded - reference))
    err_nopad = np.max(np.abs(unpadded - reference))
    assert err_pad < 2e-2
    assert err_nopad > 10 * err_pad
    # and padding further keeps improving (quadratically in the fine-grid size)
    err_pad4 = np.max(np.abs(sp.dealias_apply(lambda f: f * f, m, pad=4) - reference))
    assert err_pad4 < 0.25 * err_pad


def test_quench_signal_carries_fields():
    err = sp.QuenchSignal("touchdown", min_value=-0.01, t=1.25)
    assert err.min_value == -0.01 and err.t == 1.25


def test_require_open_gap_reports_the_first_closed_row():
    # rows 1 and 2 are closed; row 2 holds the stack's minimum, row 1 is reported
    w = np.array([[1.0, 0.5, 1.0], [1.0, -0.1, 1.0], [-0.5, 1.0, 1.0]])
    times = np.array([0.0, 0.25, 0.5])
    with pytest.raises(sp.QuenchSignal, match="^closed$") as exc:
        sp.require_open_gap(w, "closed", times=times)
    assert exc.value.min_value == -0.1 and exc.value.t == 0.25
    with pytest.raises(sp.QuenchSignal) as exc:
        sp.require_open_gap(w, "closed")
    assert exc.value.min_value == -0.1 and np.isnan(exc.value.t)
    # one row, and a gap that only touches zero
    with pytest.raises(sp.QuenchSignal) as exc:
        sp.require_open_gap(w[2], "row")
    assert exc.value.min_value == -0.5
    with pytest.raises(sp.QuenchSignal) as exc:
        sp.require_open_gap(np.array([1.0, 0.0]), "touch")
    assert exc.value.min_value == 0.0
    assert sp.require_open_gap(w[:1], "open") is None
    # a NaN sample closes nothing, and hides no closed row
    nan_row = np.array([np.nan, -1.0, 1.0])
    assert sp.require_open_gap(nan_row, "nan") is None
    with pytest.raises(sp.QuenchSignal) as exc:
        sp.require_open_gap(np.array([nan_row, w[1]]), "closed", times=times[:2])
    assert exc.value.min_value == -0.1 and exc.value.t == 0.25


@pytest.mark.parametrize("first", [(1, 2, 1), (0, 1, 1)])
def test_require_open_gap_reports_the_first_closed_row_of_a_deeper_stack(first):
    # a (2, 3, 4) stack: rows in C order are (0, 0) .. (1, 2); a second closed
    # row after the first, with a lower minimum, is not the one reported
    w = np.ones((2, 3, 4))
    w[first] = -0.25
    if first != (1, 2, 1):
        w[1, 2, 3] = -0.5
    times = np.arange(6) * 0.1
    with pytest.raises(sp.QuenchSignal, match="^closed$") as exc:
        sp.require_open_gap(w, "closed", times=times)
    assert exc.value.min_value == -0.25
    assert exc.value.t == times[3 * first[0] + first[1]]
    with pytest.raises(sp.QuenchSignal) as exc:
        sp.require_open_gap(w, "closed")
    assert exc.value.min_value == -0.25 and np.isnan(exc.value.t)


def test_gap_min_caps_each_row_by_the_trace():
    w = np.array([[1.5, 0.7, 2.0], [1.2, 1.4, 1.3]])
    assert np.array_equal(sp.gap_min(w, 1.0), [0.7, 1.0])
    assert sp.gap_min(w[0], 1.0) == 0.7 and isinstance(sp.gap_min(w[0], 1.0), float)
    # a float shift is monotone: shifting the minimum is bitwise shifting the samples
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 129))
    for th2 in (1.0, 0.3, 0.1 + 1e-9):
        assert np.array_equal(sp.gap_min(x + th2, th2), sp.gap_min(x.min(axis=-1, keepdims=True) + th2, th2))


def test_boundary_lift_validation():
    # the boundary values theta1 and theta2 of the model must be finite and positive
    for theta1, theta2 in ((0.0, 1.0), (1.0, -2.0), (np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="boundary values must be finite and positive"):
            dp.ModelParams(beta_F=1.0, beta_p=0.5, theta1=theta1, theta2=theta2, eps1=0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=200), st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(n, seed):
    m = np.random.default_rng(seed).normal(size=n)
    again = sp.sine_transform(sp.inverse_sine_transform(m))
    assert np.max(np.abs(again - m)) <= 1e-12 * max(1.0, np.max(np.abs(m)))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=100.0), st.integers(min_value=0, max_value=2**32 - 1))
def test_norm_conservation_property(t, seed):
    rng = np.random.default_rng(seed)
    spec = sp.plate_eigenvalues(64)
    s = sp.StateVW(rng.normal(size=64), rng.normal(size=64))
    n0 = sp.norm_X(s.v, s.w, spec)
    turned = vf.semigroup_apply(s, spec, t)
    assert abs(sp.norm_X(turned.v, turned.w, spec) - n0) <= 1e-10 * n0
