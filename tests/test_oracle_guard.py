"""Guard the independence of the Runge-Kutta oracle.

mol_rhs and integrate_reference share the production route's
semidiscretization by design: the Reynolds stencil, the dealiased gap
forcing, the sine tables and the plate spectrum.  So the cross-route checks
compare two time integrators over one semidiscretization.  The oracle must
never reach the production route's time integration: the Duhamel march, the
Picard plate solve, the Gamma iteration or the pressure propagator.  From the
two oracle functions, this follows every reference to a module-level function
of spectral, dispersive and reynolds, through all that those functions
reference in turn.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gapflow"
MODULES = ("spectral", "dispersive", "reynolds")
ORACLE = ("reynolds.mol_rhs", "reynolds.integrate_reference")
SHARED = {"reynolds._reynolds_padded", "dispersive._G_fine", "spectral.sine_matrices", "spectral.plate_eigenvalues"}
FORBIDDEN = (
    "spectral.duhamel_",
    "dispersive.picard_dispersive",
    "reynolds.gamma_iterate",
    "reynolds._propagator",
    "reynolds.linear_parabolic_solve",
)


def _sources() -> dict:
    return {m: (PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}


def _references(sources: dict) -> dict:
    """{"module.function": the "module.name"s its body refers to} for every
    module-level function: its module's own functions by bare name, names
    imported from a sibling module, and alias.name of an imported sibling."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    graph = {}
    for m, tree in trees.items():
        functions = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        aliases, imported = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None and a.name in trees:
                        aliases[a.asname or a.name] = a.name
                    elif node.module in trees:
                        imported[a.asname or a.name] = f"{node.module}.{a.name}"

        def resolve(node):
            if isinstance(node, ast.Name):
                return f"{m}.{node.id}" if node.id in functions else imported.get(node.id)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                return f"{aliases[node.value.id]}.{node.attr}"
            return None

        for name, fn in functions.items():
            graph[f"{m}.{name}"] = {r for node in ast.walk(fn) if (r := resolve(node))}
    return graph


def _reached(sources: dict) -> set:
    """Every "module.name" the oracle functions reach."""
    graph = _references(sources)
    reached, todo = set(ORACLE), list(ORACLE)
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    return reached


def test_the_oracle_shares_the_semidiscretization_and_no_time_integrator():
    reached = _reached(_sources())
    assert SHARED <= reached, SHARED - reached
    assert not sorted(r for r in reached if r.startswith(FORBIDDEN))


def test_the_guard_sees_an_oracle_that_marches_with_the_production_route():
    sources = _sources()
    line = "    du = _reynolds_padded(up, v_grid, wp)\n"
    assert line in sources["reynolds"]
    sources["reynolds"] = sources["reynolds"].replace(line, line + "    sp.duhamel_sweep(None, None, None, None)\n")
    assert "spectral.duhamel_sweep" in _reached(sources)
