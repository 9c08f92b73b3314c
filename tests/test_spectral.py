import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapflow import spectral as sp


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


def test_plate_eigenvalues_biharmonic_flag():
    spec = sp.plate_eigenvalues(3, biharmonic_only=True)
    assert np.allclose(spec.mu, (np.pi * np.arange(1, 4)) ** 4, rtol=1e-15)


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
    for n in (8, 33, 128):
        m = rng.normal(size=n)
        again = sp.sine_transform(sp.inverse_sine_transform(m))
        assert np.max(np.abs(again - m)) < 1e-12 * max(1.0, np.max(np.abs(m)))
        # a stack of rows transforms along the last axis, each row bitwise as on its own
        rows = rng.normal(size=(5, n))
        for transform in (sp.sine_transform, sp.inverse_sine_transform):
            assert np.array_equal(transform(rows), [transform(r) for r in rows])
        assert np.array_equal(sp.norm_Hk(rows, 2), [sp.norm_Hk(r, 2) for r in rows])


def test_semigroup_t0_identity_and_negative_rejected():
    rng = np.random.default_rng(1)
    spec = sp.plate_eigenvalues(16)
    s = sp.StateVW(rng.normal(size=16), rng.normal(size=16))
    s0 = sp.semigroup_apply(s, spec, 0.0)
    assert np.allclose(s0.v, s.v) and np.allclose(s0.w, s.w)
    with pytest.raises(ValueError):
        sp.semigroup_apply(s, spec, -0.1)


def test_semigroup_single_mode_full_period():
    spec = sp.plate_eigenvalues(1)
    s = sp.StateVW(np.array([0.0]), np.array([1.0]))
    out = sp.semigroup_apply(s, spec, 2 * np.pi / spec.omega[0])
    assert abs(out.w[0] - 1.0) < 1e-12
    assert abs(out.v[0]) < 1e-12 * spec.omega[0]


def test_semigroup_norm_conservation():
    rng = np.random.default_rng(3)
    spec = sp.plate_eigenvalues(256)
    s = sp.StateVW(rng.normal(size=256), rng.normal(size=256))
    n0 = sp.norm_X(s, spec)
    for t in (0.01, 1.0, 37.5, 100.0):
        nt = sp.norm_X(sp.semigroup_apply(s, spec, t), spec)
        assert abs(nt - n0) <= 1e-10 * n0


def test_semigroup_law():
    rng = np.random.default_rng(4)
    spec = sp.plate_eigenvalues(128)
    s = sp.StateVW(rng.normal(size=128), rng.normal(size=128))
    for t, tau in ((0.25, 0.5), (1.0, 0.6875), (40.0, 24.0)):
        a = sp.semigroup_apply(s, spec, t + tau)
        b = sp.semigroup_apply(sp.semigroup_apply(s, spec, t), spec, tau)
        scale = sp.norm_X(a, spec)
        assert sp.norm_X(sp.StateVW(a.v - b.v, a.w - b.w), spec) <= 1e-12 * scale


def test_norm_X_values():
    spec = sp.plate_eigenvalues(4)
    z = sp.StateVW(np.zeros(4), np.zeros(4))
    assert sp.norm_X(z, spec) == 0.0
    s = sp.StateVW(np.array([1.0, 0, 0, 0]), np.zeros(4))
    assert sp.norm_X(s, spec) == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_norm_Hk_values():
    f = np.array([1.0, 0.0, 0.0])
    assert sp.norm_Hk(np.zeros(3), 2) == 0.0
    assert sp.norm_Hk(f, 0) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert sp.norm_Hk(f, 2) == pytest.approx(np.sqrt((1 + np.pi**2 + np.pi**4) / 2), rel=1e-15)
    assert sp.norm_Hk(f, 2) == pytest.approx(7.3579445, rel=1e-6)
    with pytest.raises(ValueError):
        sp.norm_Hk(f, 5)


def test_lifted_norm_H2_against_quadrature():
    # dense Gauss quadrature of ||ell + f||_H2 for an affine lift
    from numpy.polynomial.legendre import leggauss

    rng = np.random.default_rng(11)
    xs, ws = leggauss(400)
    xs = 0.5 * (xs + 1)
    ws = 0.5 * ws
    fm = rng.normal(size=12) / np.arange(1, 13) ** 3
    bv, slope = 1.3, 0.4
    kpi = np.pi * np.arange(1, 13)
    f0 = np.sin(np.outer(xs, kpi)) @ fm
    f1 = (np.cos(np.outer(xs, kpi)) * kpi) @ fm
    f2 = (-np.sin(np.outer(xs, kpi)) * kpi**2) @ fm
    a, b = slope, bv - 0.5 * slope
    dense = np.sqrt(
        np.sum(ws * (a * xs + b + f0) ** 2) + np.sum(ws * (a + f1) ** 2) + np.sum(ws * f2**2)
    )
    assert sp.lifted_norm_H2(fm, bv, slope) == pytest.approx(dense, rel=1e-12)


def _lifted_norm_H2_before_rows(f, bv, slope=0.0):
    """lifted_norm_H2 as it was before it took stacks (1-d only), kept as the reference."""
    f = np.asarray(f, dtype=float)
    k_max = f.size
    a = slope
    b = bv - 0.5 * slope
    int_ell_sq = a**2 / 3.0 + a * b + b**2
    int_ell_f = a * np.sum(f * sp.int_x_sine(k_max)) + b * np.sum(f * sp.int_sine(k_max))
    kpi2 = (np.pi * np.arange(1, k_max + 1)) ** 2
    l2 = 0.5 * np.sum(f**2) + int_ell_sq + 2.0 * int_ell_f
    h1 = 0.5 * np.sum(kpi2 * f**2) + a**2
    h2 = 0.5 * np.sum(kpi2**2 * f**2)
    return float(np.sqrt(l2 + h1 + h2))


@pytest.mark.parametrize("k", [12, 32, 131])
def test_lifted_norm_H2_rows_are_bitwise_the_one_row_calls(k):
    rng = np.random.default_rng(k)
    stack = rng.normal(size=(300, k)) / np.arange(1, k + 1) ** 2.2
    for bv, slope in ((1.3, 0.0), (0.7, 0.4), (0.0, 0.0)):
        rows = sp.lifted_norm_H2(stack, bv, slope)
        assert rows.shape == (300,)
        one = [sp.lifted_norm_H2(f, bv, slope) for f in stack]
        assert all(isinstance(x, float) for x in one)
        assert np.array_equal(rows, one)
        assert one == [_lifted_norm_H2_before_rows(f, bv, slope) for f in stack]
    # one lift per row: Python's scalar b**2 and numpy's square may differ in the last bit
    bvs = rng.uniform(0.25, 2.25, size=300)
    rows = sp.lifted_norm_H2(stack, bvs)
    one = np.array([_lifted_norm_H2_before_rows(f, float(b)) for f, b in zip(stack, bvs)])
    assert np.max(np.abs(rows - one) / one) <= 1e-15


def test_audit_blocks_cover_the_trials():
    assert sp.audit_blocks(0) == []
    assert sp.audit_blocks(100) == [100]
    assert sp.audit_blocks(256) == [256]
    assert sp.audit_blocks(1000) == [256, 256, 256, 232]


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
    b = sp.semigroup_apply(s, spec, 0.37)
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


def test_duhamel_rule_convergence_order():
    # both rules converge at >= order 2 to the many-step limit; measure on a
    # stiff mode with smooth forcing g(t) = sin(3t)
    spec = sp.plate_eigenvalues(6)

    def march(n_steps, rule):
        s = sp.StateVW(np.zeros(6), np.zeros(6))
        ts = np.linspace(0.0, 0.8, n_steps + 1)
        for a, b in zip(ts[:-1], ts[1:]):
            g0 = np.full(6, np.sin(3 * a))
            g1 = np.full(6, np.sin(3 * b))
            s = sp.duhamel_step(s, spec, g0, g1, a, b, rule=rule)
        return s

    ref = march(4096, "exp_trapezoid")
    for rule in ("exp_trapezoid", "trapezoid"):
        errs = []
        for n in (32, 64, 128):
            out = march(n, rule)
            errs.append(sp.norm_X(sp.StateVW(out.v - ref.v, out.w - ref.w), spec))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order1, order2) > 1.8, (rule, errs)


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
        rot = sp.semigroup_apply(ref, spec, h)
        S, A, B = sp._kick_coeffs(spec.omega * h)
        ref = sp.StateVW(
            v=rot.v + h * (forcing[i] * (S - A) + forcing[i + 1] * A),
            w=rot.w + h * h * (forcing[i] * (A - B) + forcing[i + 1] * B),
        )
        for state in (s, ref):
            assert np.array_equal(v[i + 1], state.v) and np.array_equal(w[i + 1], state.w)


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


def test_boundary_lift_validation():
    with pytest.raises(ValueError):
        sp.BoundaryLift(theta1=0.0, theta2=1.0)
    with pytest.raises(ValueError):
        sp.BoundaryLift(theta1=1.0, theta2=-2.0)


def test_grid_field_validation():
    with pytest.raises(ValueError):
        sp.GridField(values=np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError):
        sp.GridField(values=np.array([1.0, 2.0]))


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
    n0 = sp.norm_X(s, spec)
    assert abs(sp.norm_X(sp.semigroup_apply(s, spec, t), spec) - n0) <= 1e-10 * n0
