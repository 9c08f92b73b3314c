"""The reference graph of the model modules (spectral, dispersive, reynolds),
shared by the guards of test_oracle_guard.py and test_dead_code.py.

A node is a module-level function or class, named "module.name".  A class
refers to all that its body refers to, its methods included, so a property
of a class (such as dispersive.VWPath.w_refined) reaches the functions
it calls.  The edges are read
from the source text with the stdlib ast, so a test can edit the text and
see what the edit reaches.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gapflow"
MODULES = ("spectral", "dispersive", "reynolds")


def sources() -> dict:
    """{module: its source text} of the model modules."""
    return {m: (PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}


def _resolver(tree, own: dict):
    """A function from an ast node to the "module.name" it names, or None.

    own maps the names the module defines itself to their nodes.  Model
    modules are reached by relative imports inside the package and by
    absolute ones (from gapflow ...) outside it.
    """
    aliases, imported = {}, {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and (node.module or "").split(".")[0] == "gapflow":
            module = node.module.partition(".")[2] or None
        else:
            continue
        for a in node.names:
            if module is None and a.name in MODULES:
                aliases[a.asname or a.name] = a.name
            elif module in MODULES:
                imported[a.asname or a.name] = f"{module}.{a.name}"

    def resolve(node):
        if isinstance(node, ast.Name):
            return own.get(node.id) or imported.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            return f"{aliases[node.value.id]}.{node.attr}"
        return None

    return resolve


def references(texts: dict) -> dict:
    """{"module.name": the "module.name"s its body refers to} for every
    module-level function and class of the model modules in texts: its
    module's own functions and classes by bare name, names imported from a
    sibling module, and alias.name of an imported sibling."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    graph = {}
    for m, text in texts.items():
        tree = ast.parse(text)
        defs = {n.name: n for n in tree.body if isinstance(n, kinds)}
        resolve = _resolver(tree, {name: f"{m}.{name}" for name in defs})
        for name, node in defs.items():
            graph[f"{m}.{name}"] = {r for sub in ast.walk(node) if (r := resolve(sub))}
    return graph


def named_by(text: str) -> set:
    """The "module.name"s of the model modules that the source text of a
    module outside them names."""
    tree = ast.parse(text)
    resolve = _resolver(tree, {})
    return {r for node in ast.walk(tree) if (r := resolve(node))}


def reached(graph: dict, roots) -> set:
    """Every node reached from roots along the graph, the roots included."""
    seen, todo = set(roots), list(roots)
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen
