"""The model's right-hand sides against their equations, written out by hand.

The Reynolds right-hand side (w u)_t = (w^3 u u_x)_x gives, with w_t = v,

    F = (1/w) (w^3 u u_x)_x - (v/w) u,

and the plate forcing is G = -beta_F/w^2 + beta_p (theta1 - 1).  Here both
are formed from closed-form sine fields with the model's traces (u = theta1
+ sum a_m sin(m pi x), w = theta2 + sum b_m sin(m pi x), v = sum c_m
sin(m pi x)) in plain numpy, with no gapflow arithmetic, and compared with
reynolds.eval_F and dispersive._G_modes on grids of n = 16, 32, 64 and 128.
Both discretizations are second order, so each observed order between
successive grids must lie in ORDER_BAND, stated before it was measured.  A
wrong flux, a wrong sign or a wrong coefficient leaves an O(1) error that
does not fall with h, and its order drops out of the band.
"""

import numpy as np
import pytest

from gapflow import dispersive as dp
from gapflow import reynolds as ry
from gapflow import spectral as sp

NS = (16, 32, 64, 128)
ORDER_BAND = (1.6, 2.4)
# low modes of G compared: for a fixed mode the pad-2 DST is the trapezoid
# rule, O(h^2); the modes near k alias to O(h) and are no test of the formula
G_MODES = 8

# (theta, {mode: amplitude}) of u, w and v: one mode each, and a two-mode variant
ONE_MODE = ((1.0, {1: 0.3}), (1.0, {1: -0.4}), (0.0, {1: 0.7}))
TWO_MODES = ((1.5, {1: 0.3, 2: -0.2}), (0.8, {1: 0.25, 3: -0.1}), (0.0, {1: 0.7, 2: 0.4}))


def sine_field(theta, amps, x):
    """f = theta + sum a_m sin(m pi x) and its first two derivatives at x."""
    f, fx, fxx = np.full_like(x, theta), np.zeros_like(x), np.zeros_like(x)
    for m, a in amps.items():
        k = m * np.pi
        f = f + a * np.sin(k * x)
        fx = fx + a * k * np.cos(k * x)
        fxx = fxx - a * k * k * np.sin(k * x)
    return f, fx, fxx


def reynolds_rhs(fields, x):
    """(1/w)(w^3 u u_x)_x - (v/w) u, with the product rule done by hand."""
    (u, ux, uxx), (w, wx, _), (v, _, _) = (sine_field(theta, amps, x) for theta, amps in fields)
    flux_x = 3.0 * w**2 * wx * u * ux + w**3 * (ux * ux + u * uxx)
    return flux_x / w - (v / w) * u


def observed_orders(errors, hs):
    return [np.log(e0 / e1) / np.log(h0 / h1) for e0, e1, h0, h1 in zip(errors, errors[1:], hs, hs[1:])]


@pytest.mark.parametrize("fields", [ONE_MODE, TWO_MODES], ids=["one_mode", "two_modes"])
def test_eval_F_is_the_reynolds_equation_to_second_order(fields):
    (th1, _), (th2, _), _ = fields
    errors = []
    for n in NS:
        x = np.arange(1, n + 1) / (n + 1)
        u, w, v = (sine_field(theta, amps, x)[0] for theta, amps in fields)
        got = ry.eval_F(sp.GridField(u, th1), sp.GridField(v, 0.0), sp.GridField(w, th2)).values
        want = reynolds_rhs(fields, x)
        errors.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    orders = observed_orders(errors, [1.0 / (n + 1) for n in NS])
    assert all(ORDER_BAND[0] <= q <= ORDER_BAND[1] for q in orders), (errors, orders)


def gauss_sine_coefficients(g, modes: int, nodes: int) -> np.ndarray:
    """2 int_0^1 g(x) sin(i pi x) dx for i = 1..modes, by Gauss-Legendre on [0, 1]."""
    t, wt = np.polynomial.legendre.leggauss(nodes)
    x, wt = 0.5 * (t + 1.0), 0.5 * wt
    return np.array([2.0 * np.sum(wt * g(x) * np.sin(i * np.pi * x)) for i in range(1, modes + 1)])


@pytest.mark.parametrize("fields", [ONE_MODE, TWO_MODES], ids=["one_mode", "two_modes"])
def test_G_modes_are_the_sine_series_of_the_gap_forcing_to_second_order(fields):
    (th1, _), (th2, w_amps), _ = fields
    p = dp.ModelParams(beta_F=2.0, beta_p=0.7, theta1=th1, theta2=th2, eps1=0.5)

    def forcing(x):
        return -p.beta_F / sine_field(th2, w_amps, x)[0] ** 2 + p.beta_p * (p.theta1 - 1.0)

    want = gauss_sine_coefficients(forcing, G_MODES, 200)
    # the quadrature itself is converged: G is analytic on [0, 1]
    assert np.max(np.abs(want - gauss_sine_coefficients(forcing, G_MODES, 300))) <= 1e-14 * np.max(np.abs(want))
    errors = []
    for k in NS:
        w_modes = np.zeros(k)
        for m, b in w_amps.items():
            w_modes[m - 1] = b
        got = dp._G_modes(w_modes, p)[:G_MODES]
        errors.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    # G is sampled on the pad-2 grid, h = 1/(2k + 2)
    orders = observed_orders(errors, [1.0 / (2 * k + 2) for k in NS])
    assert all(ORDER_BAND[0] <= q <= ORDER_BAND[1] for q in orders), (errors, orders)
