"""Guard against dead code: every module-level def or class in src/gapflow
must be named somewhere in src/, tests/ or perfbench/ besides its own
definition, no module keeps an __all__ list, and no module imports a name
it does not use.  Also guards where code lives: only spectral decides that
the gap closed, only verify constructs a CheckResult, the model modules
hold only what a run reaches, verify names no private helper of reynolds or
spectral, only verify draws random numbers, run code reads a field of every
dataclass, and only ModelParams (and the config it is built from) holds a
boundary trace."""

import ast
from pathlib import Path

from model_graph import MODULES, named_by, reached, references, sources

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gapflow"


def _sources():
    for folder in ("src", "tests", "perfbench"):
        yield from sorted((ROOT / folder).rglob("*.py"))


def _callee(call) -> str | None:
    """The name a call is made by: f of f(...) or of obj.f(...)."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _mentions(tree) -> set:
    """Identifiers a module uses: names, attributes, imports and identifier-like
    string constants (tables that look functions up with getattr)."""
    names = set()
    for node in ast.walk(tree):
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


def _unused_imports(texts: dict) -> list:
    """"module: name" for each name that a module of texts ({module: source
    text}) imports and never uses.  A use is a load of the bare name, in an
    annotation too (a string annotation is parsed for its names); the
    imports of __future__ bind nothing and are exempt."""
    unused = []
    for m, text in texts.items():
        tree = ast.parse(text)
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        annotations = [
            a
            for node in ast.walk(tree)
            for a in (getattr(node, "annotation", None), getattr(node, "returns", None))
            if isinstance(a, ast.Constant) and isinstance(a.value, str)
        ]
        used = {
            n.id
            for root in [tree, *(ast.parse(a.value, mode="eval") for a in annotations)]
            for n in ast.walk(root)
            if isinstance(n, ast.Name)
        }
        unused += [f"{m}: {name}" for name in imported if name not in used]
    return unused


def test_no_package_module_imports_a_name_it_does_not_use():
    unused = _unused_imports(_package_texts())
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_the_import_guard_sees_a_planted_import():
    texts = _package_texts()
    texts["reynolds"] = texts["reynolds"].replace(
        "from .dispersive import ModelParams,", "from .dispersive import VWPath, ModelParams,"
    )
    texts["verify"] = texts["verify"].replace("import math\n", "import math\nimport os.path\n")
    texts["spectral"] += '\n\ndef _probe(s: "Sequence") -> "Iterator":\n    return iter(s)\n'
    texts["spectral"] = texts["spectral"].replace("import threading\n", "import threading\nfrom typing import Iterator, Sequence\n")
    assert _unused_imports(texts) == ["reynolds: VWPath", "verify: os"]


def _export_lists(texts: dict) -> list:
    """The modules of texts ({module: source text}) that assign __all__."""
    return [
        m
        for m, text in texts.items()
        if any(
            isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
            for node in ast.walk(ast.parse(text))
        )
    ]


def _package_texts() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_no_package_module_keeps_an_export_list():
    """No module of the package assigns __all__: nothing star-imports them, a
    list of names beside the definitions goes stale, and its strings would
    count as uses of the names it lists."""
    kept = _export_lists(_package_texts())
    assert not kept, "modules that assign __all__: " + ", ".join(kept)


def test_the_export_list_guard_sees_a_planted_all():
    texts = _package_texts()
    texts["reynolds"] += '\n\n__all__ = ["run_coupled"]\n'
    assert _export_lists(texts) == ["reynolds"]


def _defaulted(fn, offset: int = 0) -> dict:
    """{parameter: (position, default node)} of fn's parameters with a default;
    keyword-only ones have position None.  A position counts the arguments of
    a call, which skips the first offset parameters (1 for a method's self)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = {a.arg: (i - offset, fn.args.defaults[i - first]) for i, a in enumerate(positional) if i >= first}
    out.update({a.arg: (None, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None})
    return out


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _options(texts) -> dict:
    """{callee name: {parameter: (position, default node)}} of the options of
    the module-level functions and the methods of module-level classes in the
    source texts.  A method is called by its name, an __init__ by its class's
    name, and a call to either binds self."""
    options = {}
    for text in texts:
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                methods = [fn for fn in node.body if isinstance(fn, _DEFS)]
                defs = [(fn, node.name if fn.name == "__init__" else fn.name, 1) for fn in methods]
            else:
                defs = [(node, node.name, 0)] if isinstance(node, _DEFS) else []
            for fn, name, offset in defs:
                if _defaulted(fn):
                    options.setdefault(name, {}).update(_defaulted(fn, offset))
    return options


def _same_literal(a, b) -> bool:
    """Whether two expression nodes are literals of equal value."""
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except ValueError:
        return False


def _never_passed(options: dict, texts) -> list:
    """The options, as "name(parameter)", that no call in the source texts passes
    other than at their default."""
    passed = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
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
    return [f"{fn}({param})" for fn, params in sorted(options.items()) for param in params if (fn, param) not in passed]


def test_every_defaulted_parameter_is_passed_somewhere():
    """An option (a parameter with a default) of a function, a method or an
    __init__ of the package that no call site in src/, tests/ or perfbench/
    passes, by keyword or by position, a value other than a literal equal to
    its default is a constant in disguise.  Calls are matched by the
    function's, the method's or the class's name; a call that splats *args
    or **kwargs counts as passing every option."""
    options = _options(path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py")))
    never = _never_passed(options, [path.read_text(encoding="utf-8") for path in _sources()])
    assert not never, "options no caller passes other than at their default: " + ", ".join(never)


def test_the_option_guard_sees_a_method_option_nobody_passes():
    # a planted method option and an __init__ option, each called only at
    # their defaults, positionally past self and by keyword
    probe = (
        "class _Probe:\n"
        "    def __init__(self, a, b=2):\n"
        "        self.a = a\n"
        "    def scaled(self, x, factor=1.0):\n"
        "        return factor * x\n"
    )
    calls = "_Probe(1, 2).scaled(3, 1.0)\n_Probe(1, b=2).scaled(3, factor=1.0)\n"
    options = _options([probe])
    positions = {name: {param: pos for param, (pos, _) in params.items()} for name, params in options.items()}
    assert positions == {"_Probe": {"b": 1}, "scaled": {"factor": 1}}
    assert _never_passed(options, [probe, calls]) == ["_Probe(b)", "scaled(factor)"]
    assert _never_passed(options, [probe, calls, "_Probe(1, 3).scaled(3, 2.0)\n"]) == []


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


def test_only_verify_constructs_a_check_result():
    """verify.py owns every check of `gapflow verify`, its bound and its
    verdict: no other module of the package constructs a CheckResult."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "verify.py":
            continue
        for where, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            if _callee(call) == "CheckResult":
                sites.append(f"{path.stem}.{where or '<module>'}")
    assert not sites, "CheckResult constructed outside verify.py: " + ", ".join(sites)


def _run_roots() -> set:
    """The model-module names that cli.py or perfbench/ names: by import, by
    attribute of an imported module, or in the tracer's LAYERS table."""
    texts = [(PACKAGE / "cli.py").read_text(encoding="utf-8")]
    texts += [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    roots = set().union(*map(named_by, texts))
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tracer.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            layers = ast.literal_eval(node.value)
            roots |= {f"{m}.{fn}" for m in MODULES for fn in layers.get(m, ())}
    return roots


def _not_run_code(texts: dict) -> list:
    """The module-level functions of the model modules that the run roots do
    not reach."""
    kept = reached(references(texts), _run_roots())
    return [
        f"{m}.{node.name}"
        for m, text in texts.items()
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and f"{m}.{node.name}" not in kept
    ]


def test_the_model_modules_hold_only_run_code():
    """spectral, dispersive and reynolds hold what a run uses: every function
    of theirs is reached from what cli.py or perfbench/ names, through the
    references of the model modules alone.  What only verify or the tests
    call belongs in verify.py."""
    unreached = _not_run_code(sources())
    assert not unreached, "model-module functions no run reaches: " + ", ".join(unreached)


def test_the_run_code_guard_sees_a_verify_only_function():
    texts = sources()
    texts["reynolds"] += "\n\ndef _slack(pstar):\n    return sector_check(pstar, (2.0,))\n"
    assert _not_run_code(texts) == ["reynolds._slack"]


def _random_users(texts: dict) -> list:
    """The modules of texts ({module: source text}) other than verify that name
    np.random (or numpy.random) or import random or numpy.random."""
    users = []
    for m, text in texts.items():
        names = []
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names.append(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.Import):
                names += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names += [f"{node.module}.{a.name}" for a in node.names]
        if m != "verify" and any(n.split(".")[0] == "random" or n.startswith(("np.random", "numpy.random")) for n in names):
            users.append(m)
    return users


def test_randomness_lives_in_verify():
    """The runs are deterministic: random numbers, always seeded, are drawn
    only by the verification suites of verify.py."""
    users = _random_users(_package_texts())
    assert not users, "package modules besides verify that draw random numbers: " + ", ".join(users)


def test_the_randomness_guard_sees_planted_draws():
    texts = _package_texts()
    texts["reynolds"] += "\n\ndef _probe(n):\n    return np.random.default_rng(0).normal(size=n)\n"
    texts["spectral"] = texts["spectral"].replace("import threading\n", "import threading\nimport random\n")
    texts["dispersive"] += "\n\nfrom numpy.random import default_rng\n"
    texts["cli"] += "\n\nfrom numpy import random\n"
    assert _random_users(texts) == ["cli", "dispersive", "reynolds", "spectral"]


# The model modules whose private helpers verify may not name: verify checks
# their operators (eval_F, the transforms, the Duhamel march), not the
# stencils inside them.  dispersive._G_fine is G itself, the operator that
# lipschitz.G audits, and stays open.
_SEALED = ("reynolds", "spectral")


def _private_reaches(text: str) -> list:
    """The private names ("module._name") of the sealed model modules that a
    source text names."""
    return sorted(r for r in named_by(text) if r.split(".")[0] in _SEALED and r.split(".")[1].startswith("_"))


def test_verify_names_no_private_helper_of_reynolds_or_spectral():
    """verify differentiates and audits the model through its operators: a
    stencil or transform helper it reached into would be a second copy of
    the model to keep in step with the first."""
    reaches = _private_reaches((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    assert not reaches, "private model helpers verify names: " + ", ".join(reaches)


def test_the_private_helper_guard_sees_planted_names():
    text = (PACKAGE / "verify.py").read_text(encoding="utf-8")
    text += "\n\nfrom .spectral import _rotate\n\n\ndef _probe(x):\n    return ry._pad(x, 0.0), _rotate, dp._G_fine\n"
    assert _private_reaches(text) == ["reynolds._pad", "spectral._rotate"]


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


def _copied_by_keyword(tree) -> set:
    """ids of the attribute loads that only copy a field into a keyword of its
    own name: x.f of X(f=x.f)."""
    return {
        id(k.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for k in node.keywords
        if isinstance(k.value, ast.Attribute) and k.value.attr == k.arg
    }


def _not_names(tree) -> set:
    """ids of the string constants that name nothing: the argnames of
    pytest.mark.parametrize(...) and the mode of open(...)."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node) == "parametrize" and node.args:
            ids.update(id(n) for n in ast.walk(node.args[0]))
        elif isinstance(node, ast.Call) and _callee(node) == "open":
            ids.update(id(n) for n in node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"])
    return ids


def _field_reads(text: str) -> set:
    """The names a source text reads as fields (see _unread_fields)."""
    tree = ast.parse(text)
    skip = _written_in_place(tree) | _copied_by_keyword(tree) | _not_names(tree)
    reads = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            reads.add(node.value)
        elif isinstance(node, ast.Call) and _callee(node) == "dict":
            reads.update(k.arg for k in node.keywords if k.arg)
    return reads


def _unread_fields(texts: dict) -> list:
    """The fields of the @dataclasses of the package that no text of texts
    ({path: source text}) reads.

    A read is an attribute load of that name, an identifier-like string (a
    getattr table) other than the argnames of parametrize and the mode of
    open, or a keyword of a dict(...) call (a dict of expected values that a
    test compares with getattr).  Writing into a field's value, x.f[k] = v or
    x.f.update(...), is not a read of f, and neither is copying it into a
    keyword of its own name, X(f=x.f).
    """
    reads = set().union(*map(_field_reads, texts.values()))
    return [
        f"{path.stem}.{cls}.{name}"
        for path, text in sorted(texts.items())
        if path.parent == PACKAGE
        for cls, name in _dataclass_fields(ast.parse(text))
        if name not in reads
    ]


def _source_texts() -> dict:
    return {path: path.read_text(encoding="utf-8") for path in _sources()}


def test_every_dataclass_field_is_read_somewhere():
    """A field of a @dataclass in src/gapflow that nothing in src/, tests/ or
    perfbench/ reads (_unread_fields) is data computed for no one."""
    unread = _unread_fields(_source_texts())
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)


def test_the_field_guard_does_not_count_a_copy_as_a_read():
    texts = _source_texts()
    texts[PACKAGE / "reynolds.py"] += "\n\n@dataclass\nclass _Probe:\n    probe_field: float\n"
    copy = "\n\ndef _copy(x):\n    return _Probe(probe_field=x.probe_field)\n"
    texts[ROOT / "tests" / "test_probe.py"] = copy
    assert _unread_fields(texts) == ["reynolds._Probe.probe_field"]
    texts[ROOT / "tests" / "test_probe.py"] = copy + "\n\ndef _read(x):\n    return x.probe_field + 1.0\n"
    assert _unread_fields(texts) == []


# The run code: the package modules besides verify, which only judges, and perfbench/.
_RUN_MODULES = ("cli", "spectral", "dispersive", "reynolds")


def _not_read_by_run_code(texts: dict) -> list:
    """The @dataclasses of the package ("module.Class") none of whose fields the
    run code of texts ({path: source text}) reads, a read as in _unread_fields."""
    reads = set().union(
        *(
            _field_reads(text)
            for path, text in texts.items()
            if path.parent == ROOT / "perfbench" or (path.parent == PACKAGE and path.stem in _RUN_MODULES)
        )
    )
    fields = {}
    for path, text in sorted(texts.items()):
        if path.parent == PACKAGE:
            for cls, name in _dataclass_fields(ast.parse(text)):
                fields.setdefault(f"{path.stem}.{cls}", set()).add(name)
    return [cls for cls, names in fields.items() if reads.isdisjoint(names)]


def test_every_dataclass_is_read_by_run_code():
    """A dataclass that only verify and the tests read stands between a
    measurement and its verdict: the check can return the number itself."""
    unread = _not_read_by_run_code(_source_texts())
    assert not unread, "dataclasses no run code reads a field of: " + ", ".join(unread)


def test_the_run_read_guard_sees_a_dataclass_only_verify_reads():
    texts = _source_texts()
    texts[PACKAGE / "reynolds.py"] += "\n\n@dataclass\nclass _Probe:\n    probe_field: float\n"
    texts[PACKAGE / "verify.py"] += "\n\ndef _read(x):\n    return x.probe_field + 1.0\n"
    texts[ROOT / "tests" / "test_probe.py"] = "\n\ndef _read(x):\n    return x.probe_field\n"
    assert _not_read_by_run_code(texts) == ["reynolds._Probe"]
    texts[ROOT / "perfbench" / "probe.py"] = "\n\ndef _read(x):\n    return x.probe_field\n"
    assert _not_read_by_run_code(texts) == []


# The dataclasses that may declare a boundary trace: the model's record, and
# the config whose [params] keys it is built from.
_TRACE_HOLDERS = {("dispersive", "ModelParams"), ("cli", "RunConfig")}


def _trace_fields(texts: dict) -> list:
    """(module, class, field) of each dataclass field of texts ({module: source
    text}) named theta1, theta2 or bv, outside _TRACE_HOLDERS."""
    return [
        (m, cls, name)
        for m, text in texts.items()
        for cls, name in _dataclass_fields(ast.parse(text))
        if name in ("theta1", "theta2", "bv") and (m, cls) not in _TRACE_HOLDERS
    ]


def test_only_model_params_holds_a_boundary_trace():
    """theta1 and theta2 have one source, dispersive.ModelParams: a field is
    the array of its interior samples, and no other dataclass carries a
    second copy of a trace that could disagree with the model's."""
    held = _trace_fields(_package_texts())
    assert not held, "dataclass fields that hold a boundary trace: " + ", ".join(map(".".join, held))


def test_the_trace_guard_sees_a_planted_field():
    texts = _package_texts()
    texts["spectral"] += "\n\n@dataclass(frozen=True)\nclass _Samples:\n    values: np.ndarray\n    bv: float = 0.0\n"
    texts["reynolds"] += "\n\n@dataclass\nclass _Run:\n    u: np.ndarray\n    theta1: float\n"
    assert _trace_fields(texts) == [("reynolds", "_Run", "theta1"), ("spectral", "_Samples", "bv")]
