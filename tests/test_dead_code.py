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


def _defaulted(fn) -> dict:
    """{parameter: (position, default node)} of fn's parameters with a default;
    keyword-only ones have position None."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = {a.arg: (i, fn.args.defaults[i - first]) for i, a in enumerate(positional) if i >= first}
    out.update({a.arg: (None, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None})
    return out


def _same_literal(a, b) -> bool:
    """Whether two expression nodes are literals of equal value."""
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except ValueError:
        return False


def test_every_defaulted_parameter_is_passed_somewhere():
    """An option (a parameter with a default) that no call site in src/, tests/ or
    perfbench/ passes, by keyword or by position, a value other than a literal
    equal to its default is a constant in disguise.  Calls are matched by the
    function's name; a call that splats *args or **kwargs counts as passing
    every option."""
    options = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _defaulted(node):
                options.setdefault(node.name, {}).update(_defaulted(node))
    passed = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in options:
                continue
            splat = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            keywords = {k.arg: k.value for k in node.keywords}
            for param, (pos, default) in options[name].items():
                value = keywords.get(param, node.args[pos] if pos is not None and pos < len(node.args) else None)
                if splat or (value is not None and not _same_literal(value, default)):
                    passed.add((name, param))
    never = [f"{fn}({param})" for fn, params in sorted(options.items()) for param in params if (fn, param) not in passed]
    assert not never, "options no caller passes other than at their default: " + ", ".join(never)
