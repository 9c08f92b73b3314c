"""Per-layer tracing of gapflow from outside the package.

`Tracer` replaces the public functions named in `LAYERS` by timing
wrappers, in the module that defines them and in every gapflow module that
imported the same function object by name (``from .spectral import ...``).
Each wrapper records a span: its duration, and its self time, which is the
duration minus the time covered by child spans of the same thread.  Spans
are aggregated in memory per function as a call count and a self time.

A few counts are derived from return values at the same boundaries:

- ``dispersive.picard_dispersive.sweeps``: sum of ``PicardReport.iterations``
  over every plate solve, including ones that raise ``PicardDivergence``;
- ``reynolds.gamma_iterate.accepted``: Gamma chunks that returned a fixed
  point (``reynolds.gamma_iterate.calls`` counts the attempts);
- ``reynolds.gamma_iterate.outer_iters``: sum of outer iterations over all
  attempts that ended in a fixed point or a ``GammaDivergence``;
- ``cli.export.bytes``: bytes of every file ``cli.export`` wrote;
- ``cli.sweep.overlap``: per-cell ``cmd_simulate`` wall time summed over the
  cells of a sweep, divided by the wall time of the sweep.
"""

from __future__ import annotations

import functools
import os
import threading
import time

LAYERS = {
    "spectral": (
        "sine_transform",
        "inverse_sine_transform",
        "eval_modes_on",
        "dealias_apply",
        "duhamel_step",
    ),
    "dispersive": ("picard_dispersive", "path_diff_norm", "contraction_constants"),
    "reynolds": (
        "gamma_iterate",
        "linear_parabolic_solve",
        "assemble_Pstar",
        "mol_rhs",
        "eval_F",
        "integrate_reference",
        "mass_balance_residual",
        "elliptic_form_check",
        "sector_check",
    ),
    "verify": (
        "algebra_property_check",
        "inverse_power_bounds_check",
        "lipschitz_G_check",
        "lipschitz_F_check",
        "convergence_study",
    ),
    "cli": ("parse_config", "export", "cmd_simulate", "cmd_sweep", "cmd_verify"),
}

DERIVED = (
    "dispersive.picard_dispersive.sweeps",
    "reynolds.gamma_iterate.accepted",
    "reynolds.gamma_iterate.outer_iters",
    "cli.export.bytes",
)


def traced_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Install with `with Tracer(package) as tr:`; read `tr.calls`, `tr.self_s`, `tr.counts`."""

    def __init__(self, package):
        self._modules = {name: getattr(package, name) for name in LAYERS}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []
        self.reset()

    def reset(self) -> None:
        names = traced_names()
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.counts = dict.fromkeys(DERIVED, 0)
        self.sweep_wall_s = 0.0
        self.cell_wall_s = 0.0

    # -- installation --------------------------------------------------------

    def __enter__(self):
        for mod_name, fns in LAYERS.items():
            home = self._modules[mod_name]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in self._modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        on_return = _ON_RETURN.get(name)
        on_raise = _ON_RAISE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]  # child time covered by nested spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, stack, frame, start)
                if on_raise is not None:
                    on_raise(tracer, exc)
                raise
            duration = tracer._close(name, stack, frame, start)
            if on_return is not None:
                on_return(tracer, result, duration)
            return result

        return wrapper

    def _close(self, name, stack, frame, start) -> float:
        duration = time.perf_counter() - start
        stack.pop()
        if stack:
            stack[-1][0] += duration
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += duration - frame[0]
        return duration

    def _add(self, key, value) -> None:
        with self._lock:
            self.counts[key] += value

    def overlap(self) -> float:
        """Sum of per-cell simulate wall time over sweep wall time (0 without a sweep)."""
        return self.cell_wall_s / self.sweep_wall_s if self.sweep_wall_s > 0 else 0.0


# -- derived counts ------------------------------------------------------------


def _picard_returned(tr, result, _duration):
    tr._add("dispersive.picard_dispersive.sweeps", result[1].iterations)


def _picard_raised(tr, exc):
    report = getattr(exc, "report", None)
    if report is not None:
        tr._add("dispersive.picard_dispersive.sweeps", report.iterations)


def _gamma_returned(tr, result, _duration):
    tr._add("reynolds.gamma_iterate.accepted", 1)
    tr._add("reynolds.gamma_iterate.outer_iters", result[1].iterations)


def _gamma_raised(tr, exc):
    # a PicardDivergence or QuenchSignal from the inner solve propagates
    # without a count of the outer iterations it interrupted
    if isinstance(exc, tr._modules["reynolds"].GammaDivergence):
        report = exc.report
        tr._add("reynolds.gamma_iterate.outer_iters", report.iterations)


def _export_returned(tr, files, _duration):
    tr._add("cli.export.bytes", sum(os.path.getsize(path) for path in files.values()))


def _simulate_returned(tr, _record, duration):
    with tr._lock:
        tr.cell_wall_s += duration


def _sweep_returned(tr, _result, duration):
    with tr._lock:
        tr.sweep_wall_s += duration


_ON_RETURN = {
    "dispersive.picard_dispersive": _picard_returned,
    "reynolds.gamma_iterate": _gamma_returned,
    "cli.export": _export_returned,
    "cli.cmd_simulate": _simulate_returned,
    "cli.cmd_sweep": _sweep_returned,
}

_ON_RAISE = {
    "dispersive.picard_dispersive": _picard_raised,
    "reynolds.gamma_iterate": _gamma_raised,
}
