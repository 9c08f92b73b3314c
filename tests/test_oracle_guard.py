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

The stencil itself has two callers: F's one entry point, eval_F, and the
oracle's mol_rhs.  The production route and verify.py evaluate F through
eval_F, which checks the gap and finiteness.
"""

from model_graph import PACKAGE, named_by, reached, references, sources

ORACLE = ("reynolds.mol_rhs", "reynolds.integrate_reference")
STENCIL = "reynolds._reynolds_padded"
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


def _stencil_callers(texts: dict, verify: str) -> set:
    """The model functions that reference the Reynolds stencil, and "verify"
    if the source text of verify.py names it."""
    callers = {name for name, refs in references(texts).items() if STENCIL in refs}
    return callers | ({"verify"} if STENCIL in named_by(verify) else set())


def test_F_has_one_entry_point_besides_the_oracle():
    verify = (PACKAGE / "verify.py").read_text(encoding="utf-8")
    assert _stencil_callers(sources(), verify) == {"reynolds.eval_F", "reynolds.mol_rhs"}


def test_the_entry_point_guard_sees_a_planted_stencil_call():
    texts = sources()
    verify = (PACKAGE / "verify.py").read_text(encoding="utf-8")
    line = "        F = eval_F(current, *dp.plate_fields(solve_plate(current, plate_tol), th2), p)\n"
    assert line in texts["reynolds"]
    texts["reynolds"] = texts["reynolds"].replace(line, line + "        _reynolds_padded(current, None, None)\n")
    assert _stencil_callers(texts, verify) == {"reynolds.eval_F", "reynolds.mol_rhs", "reynolds.gamma_iterate"}
    planted = verify + "\n\ndef _dF(up, v, wp):\n    return ry._reynolds_padded(up, v, wp)\n"
    assert _stencil_callers(sources(), planted) == {"reynolds.eval_F", "reynolds.mol_rhs", "verify"}
