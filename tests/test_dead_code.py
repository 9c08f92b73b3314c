"""Guard against dead code: every module-level def or class in src/gapflow
must be named somewhere in src/, tests/ or perfbench/ besides its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gapflow"


def _sources():
    for folder in ("src", "tests", "perfbench"):
        yield from sorted((ROOT / folder).rglob("*.py"))


def _is_all_assignment(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _mentions(tree) -> set:
    """Identifiers a module uses: names, attributes, imports and identifier-like
    string constants (tables that look functions up with getattr), but not the
    strings of an __all__ list, which only re-export."""
    skip = {id(n) for node in ast.walk(tree) if _is_all_assignment(node) for n in ast.walk(node)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_module_level_definition_is_used():
    used = set()
    for path in _sources():
        used |= _mentions(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in used:
                unused.append(f"{path.name}: {node.name}")
    assert not unused, "defined but used nowhere: " + ", ".join(unused)
