"""Guard against dead code: every module-level def or class in src/gapflow
must be named somewhere in src/, tests/ or perfbench/ besides its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gapflow"


def _sources():
    for folder in ("src", "tests", "perfbench"):
        yield from sorted((ROOT / folder).rglob("*.py"))


def _callee(call) -> str | None:
    """The name a call is made by: f of f(...) or of obj.f(...)."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


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
            name = _callee(node)
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


def _calls_by_function(tree) -> list:
    """(dotted names of the enclosing defs, call node) for every call in a module."""
    calls = []

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, names + (child.name,))
                continue
            if isinstance(child, ast.Call):
                calls.append((".".join(names), child))
            visit(child, names)

    visit(tree, ())
    return calls


# The one QuenchSignal outside spectral: the oracle's gap reaching its quench
# threshold, which is not a closed gap.
_THRESHOLD_SIGNAL = ("integrate_reference", "gap reached the quench threshold")


def test_only_spectral_decides_that_the_gap_closed():
    """spectral.require_open_gap is the one place that decides the gap has closed:
    no other module of the package constructs a QuenchSignal, except the
    threshold signal of integrate_reference."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for where, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            if _callee(call) != "QuenchSignal":
                continue
            first = call.args[0] if call.args else None
            message = first.value if isinstance(first, ast.Constant) else None
            if (where.split(".")[0], message) != _THRESHOLD_SIGNAL:
                sites.append(f"{path.stem}.{where or '<module>'}")
    assert not sites, "QuenchSignal constructed outside spectral.require_open_gap: " + ", ".join(sites)


def _dataclass_fields(tree) -> list:
    """(class name, field name) of every field declared in the body of a @dataclass."""
    fields = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.append((node.name, stmt.target.id))
    return fields


def _written_in_place(tree) -> set:
    """ids of the attribute loads that only write into the attribute's value:
    x.f of x.f[k] = v and of x.f.update(...)."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            ids.add(id(node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "update":
            ids.add(id(node.func.value))
    return ids


def test_every_dataclass_field_is_read_somewhere():
    """A field of a @dataclass in src/gapflow that nothing in src/, tests/ or
    perfbench/ reads is data computed for no one.  A read is an attribute load
    of that name, an identifier-like string (a getattr table), or a keyword of
    a call other than the class's own constructor (a dict of expected values
    that a test compares with getattr).  Writing into a field's value,
    x.f[k] = v or x.f.update(...), is not a read of f."""
    attributes, strings, keywords = set(), set(), {}
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        written = _written_in_place(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in written:
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                strings.add(node.value)
            elif isinstance(node, ast.Call):
                keywords.setdefault(_callee(node), set()).update(k.arg for k in node.keywords if k.arg)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, name in _dataclass_fields(ast.parse(path.read_text(encoding="utf-8"))):
            passed = any(name in kws for callee, kws in keywords.items() if callee != cls)
            if name not in attributes and name not in strings and not passed:
                unread.append(f"{path.stem}.{cls}.{name}")
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)
