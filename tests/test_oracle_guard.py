"""Guard the independence of the Runge-Kutta oracle.

mol_rhs and integrate_reference share the production route's
semidiscretization by design: the Reynolds stencil, the dealiased gap
forcing, the sine tables and the plate spectrum.  So the cross-route checks
compare two time integrators over one semidiscretization.  The oracle must
never reach the production route's time integration: the Duhamel march, the
Picard plate solve, the Gamma iteration or the pressure propagator.  From the
two oracle functions, this follows every reference to a module-level function
or class of spectral, dispersive and reynolds, through all that those
reference in turn (the graph of model_graph.py).
"""

from model_graph import reached, references, sources

ORACLE = ("reynolds.mol_rhs", "reynolds.integrate_reference")
SHARED = {"reynolds._reynolds_padded", "dispersive._G_fine", "spectral.sine_matrices", "spectral.plate_eigenvalues"}
FORBIDDEN = (
    "spectral.duhamel_",
    "dispersive.picard_dispersive",
    "reynolds.gamma_iterate",
    "reynolds._propagator",
    "reynolds.linear_parabolic_solve",
)


def _reached(texts: dict) -> set:
    """Every "module.name" the oracle functions reach."""
    return reached(references(texts), ORACLE)


def test_the_oracle_shares_the_semidiscretization_and_no_time_integrator():
    oracle = _reached(sources())
    assert SHARED <= oracle, SHARED - oracle
    assert not sorted(r for r in oracle if r.startswith(FORBIDDEN))


def test_the_guard_sees_an_oracle_that_marches_with_the_production_route():
    texts = sources()
    line = "    du = _reynolds_padded(up, v_grid, wp)\n"
    assert line in texts["reynolds"]
    texts["reynolds"] = texts["reynolds"].replace(line, line + "    sp.duhamel_sweep(None, None, None, None)\n")
    assert "spectral.duhamel_sweep" in _reached(texts)
