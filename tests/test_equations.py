"""The model's right-hand sides against their equations, written out by hand.

The Reynolds right-hand side (w u)_t = (w^3 u u_x)_x gives, with w_t = v,

    F = (1/w) (w^3 u u_x)_x - (v/w) u,

its linearization in u along psi (zero traces) is

    P* psi = (1/w) (w^3 u psi_x + w^3 u_x psi)_x - (v/w) psi,

the mass flux through the ends is [w^3 u u_x]_0^1 = theta2^3 theta1 (u_x(1)
- u_x(0)), the plate operator is w_xx - w_xxxx, and the plate forcing is
G = -beta_F/w^2 + beta_p (theta1 - 1).  Here each is formed from
closed-form sine fields with the model's traces (u = theta1 + sum a_m
sin(m pi x), w = theta2 + sum b_m sin(m pi x), v = sum c_m sin(m pi x)) in
plain numpy, with no gapflow arithmetic, and compared with reynolds.eval_F,
reynolds.assemble_Pstar, reynolds.mass_balance_terms, the plate eigenvalues
and dispersive._G_modes on grids of n = 16, 32, 64 and 128.  The
discretizations are second order, so each observed order between successive
grids must lie in ORDER_BAND, stated before it was measured.  A wrong flux,
a wrong sign or a wrong coefficient leaves an O(1) error that does not fall
with h, and its order drops out of the band.  The plate operator acts
exactly on the modes, so it is held to a rounding bound instead."""

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


def interior_grid(n):
    return np.arange(1, n + 1) / (n + 1)


def traces(th1, th2):
    """A model whose boundary traces are theta1 = th1 and theta2 = th2."""
    return dp.ModelParams(beta_F=1.0, beta_p=1.0, theta1=th1, theta2=th2, eps1=0.5)


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
        x = interior_grid(n)
        u, w, v = (sine_field(theta, amps, x)[0] for theta, amps in fields)
        got = ry.eval_F(u, v, w, traces(th1, th2))
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


# directions psi of P*: zero traces, one mode and two
PSI = ({1: 1.0}, {1: 1.0, 2: -0.6})


def pstar_rhs(fields, psi_amps, x):
    """(1/w)(w^3 u psi_x + w^3 u_x psi)_x - (v/w) psi, with the product rule done by hand."""
    (u, ux, uxx), (w, wx, _), (v, _, _) = (sine_field(theta, amps, x) for theta, amps in fields)
    psi, psix, psixx = sine_field(0.0, psi_amps, x)
    w3_x = 3.0 * w**2 * wx
    flux_x = w3_x * (u * psix + ux * psi) + w**3 * (2.0 * ux * psix + u * psixx + uxx * psi)
    return flux_x / w - (v / w) * psi


@pytest.mark.parametrize("psi_amps", PSI, ids=["psi_one_mode", "psi_two_modes"])
@pytest.mark.parametrize("fields", [ONE_MODE, TWO_MODES], ids=["one_mode", "two_modes"])
def test_Pstar_is_the_linearized_reynolds_equation_to_second_order(fields, psi_amps):
    (th1, _), (th2, _), _ = fields
    errors = []
    for n in NS:
        x = interior_grid(n)
        u, w, v = (sine_field(theta, amps, x)[0] for theta, amps in fields)
        pstar = ry.assemble_Pstar(u, v, w, traces(th1, th2))
        got = pstar @ sine_field(0.0, psi_amps, x)[0]
        want = pstar_rhs(fields, psi_amps, x)
        errors.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    orders = observed_orders(errors, [1.0 / (n + 1) for n in NS])
    assert all(ORDER_BAND[0] <= q <= ORDER_BAND[1] for q in orders), (errors, orders)


@pytest.mark.parametrize("fields", [ONE_MODE, TWO_MODES], ids=["one_mode", "two_modes"])
def test_mass_balance_flux_is_the_boundary_flux_to_second_order(fields):
    # on the ends w = theta2 and u = theta1, so [w^3 u u_x]_0^1 is
    # theta2^3 theta1 (u_x(1) - u_x(0)); u_x at the ends from the closed form
    (th1, u_amps), (th2, w_amps), (_, v_amps) = fields
    p = traces(th1, th2)
    ends = np.array([0.0, 1.0])
    ux0, ux1 = sine_field(th1, u_amps, ends)[1]
    want = th2**3 * th1 * (ux1 - ux0)
    errors = []
    for n in NS:
        x = interior_grid(n)
        modes = [np.array([[amps.get(m, 0.0) for m in range(1, n + 1)]]) for amps in (v_amps, w_amps)]
        u = sine_field(th1, u_amps, x)[0][None, :]
        traj = ry.Trajectory(t=np.zeros(1), u=u, v=modes[0], w=modes[1])
        _, _, flux = ry.mass_balance_terms(traj, p)
        errors.append(abs(flux[0] - want) / abs(want))
    orders = observed_orders(errors, [1.0 / (n + 1) for n in NS])
    assert all(ORDER_BAND[0] <= q <= ORDER_BAND[1] for q in orders), (errors, orders)


@pytest.mark.parametrize("fields", [ONE_MODE, TWO_MODES], ids=["one_mode", "two_modes"])
def test_plate_eigenvalues_are_the_plate_operator_on_the_modes(fields):
    # w_xx - w_xxxx of w~ = sum b_m sin(m pi x), by hand, against the modes
    # -mu_m b_m synthesized on the grid.  Both are exact but for rounding:
    # each of the n terms of the synthesis and each hand-written sine carry
    # a relative error of a few eps, the sine's grown by its argument m pi x,
    # so the a-priori bound is 8 n eps sum_m mu_m |b_m| (1 + m pi).
    _, (_, w_amps), _ = fields
    eps = np.finfo(float).eps
    for n in NS:
        x = interior_grid(n)
        want = np.zeros_like(x)
        bound = 0.0
        for m, b in w_amps.items():
            k = m * np.pi
            want -= b * (k**2 + k**4) * np.sin(k * x)
            bound += 8.0 * n * eps * (k**2 + k**4) * abs(b) * (1.0 + k)
        modes = np.array([w_amps.get(m, 0.0) for m in range(1, n + 1)])
        got = sp.inverse_sine_transform(-sp.plate_eigenvalues(n).mu * modes)
        assert np.max(np.abs(got - want)) <= bound, (n, np.max(np.abs(got - want)), bound)
