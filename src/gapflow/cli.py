"""Command-line front end: simulate / verify / sweep / export.

Batch-only interface.  Configuration is flat INI text (sections + key = value)
with every key documented in configs/reference.ini; parsing validates the full
config up front and reports *all* violations at once.  Simulation runs are
seed-free and deterministic: identical config text produces byte-identical
series and record files.  Randomness (with a documented seed) appears only in
the verification suites, which verify.SUITES owns with every check's bound
and verdict; cmd_verify only dispatches to them, prints and writes the JSON.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from . import dispersive as dp
from . import reynolds as ry
from . import spectral as sp
from . import verify as vf
from .dispersive import ModelParams
from .reynolds import SERIES_COLUMNS, CoupledState, DriverConfig, RunReport
from .spectral import StateVW

SCHEMA_VERSION = "1.1"

SNAPSHOT_COLUMNS = ("t", "field", "index", "value")
SWEEP_COLUMNS = ("beta_F", "beta_p", "termination", "T_used", "quench_time", "note")

VERIFY_SUITES = (*vf.SUITES, "all")


class ConfigError(ValueError):
    """Raised by parse_config with the complete list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _key(section: str, kind: str, default: str, bound=None, key: str | None = None):
    """The RunConfig field of one config key, with its row of _CONFIG_KEYS:
    [section] key (default: the field name), kind, default text and bound.

    The kind fixes how the text converts and echoes: "float" (a value is
    required), "float?" (empty means None), "floats" (comma list), "int",
    "str" (kept as written) and "horizon" (run.T: "auto", or a float echoed
    as the resolved horizon).  Every number must be finite, list entries
    included.  The bound, (">=" or ">", limit) or ("in", choices), holds for
    every value given, and for each entry of a list.  parse_config resolves
    init.file_sha256 and run.T_source further; N_t, tol and max_iter default
    to DriverConfig's.  Sections and keys echo in field order.
    """
    return field(metadata={"row": (section, key, kind, default, bound)})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run configuration.

    Every field but init_arrays is one config key, declared by _key.  T is
    always the numeric horizon; T_source records whether it came from the
    config verbatim or from the constructive horizon estimate ("auto").  For
    file-loaded initial data the arrays live in init_arrays and the file's
    content hash enters the canonical echo (and thus the config hash).
    """

    beta_F: float = _key("params", "float", "1.0", (">=", 0))
    beta_p: float = _key("params", "float", "0.5", (">=", 0))
    theta1: float = _key("params", "float", "1.0", (">", 0))
    theta2: float = _key("params", "float", "1.0", (">", 0))
    eps1: float = _key("params", "float", "0.5", (">", 0))
    init_kind: str = _key("init", "str", "single-bump", ("in", ("constant", "single-bump", "file")), key="kind")
    u_amp: float = _key("init", "float", "0.1")
    w_amp: float = _key("init", "float", "0.05")
    v_amp: float = _key("init", "float", "0.0")
    init_file: str = _key("init", "str", "", key="file")
    init_file_sha256: str = _key("init", "str", "", key="file_sha256")
    k_max: int = _key("discretization", "int", "48", (">=", 3))
    n: int = _key("discretization", "int", "48", (">=", 3))
    n_t: int = _key("discretization", "int", str(DriverConfig.n_t), (">=", 1), key="N_t")
    T: float = _key("run", "horizon", "0.02", (">", 0))
    T_source: str = _key("run", "str", "")
    tol: float = _key("run", "float", repr(DriverConfig.tol), (">", 0))
    max_iter: int = _key("run", "int", str(DriverConfig.max_iter), (">=", 1))
    quench_eps: float | None = _key("run", "float?", "", (">", 0))
    u_cap: float | None = _key("run", "float?", "", (">", 0))
    chunk_init: float | None = _key("run", "float?", "", (">", 0))
    chunk_cap: float | None = _key("run", "float?", "", (">", 0))
    outdir: str = _key("output", "str", "out")
    snapshots: tuple = _key("output", "floats", "")
    seed: int = _key("output", "int", "0", (">=", 0))
    sweep_beta_F: tuple = _key("sweep", "floats", "", (">=", 0), key="beta_F_values")
    sweep_beta_p: tuple = _key("sweep", "floats", "", (">=", 0), key="beta_p_values")
    init_arrays: tuple | None = field(default=None, repr=False, compare=False)

    def canonical(self) -> str:
        """Deterministic full echo: every key explicit, defaults filled, T resolved."""
        lines = []
        for section in dict.fromkeys(sec for sec, *_ in _CONFIG_KEYS):
            lines.append(f"[{section}]")
            for sec, key, name, kind, *_ in _CONFIG_KEYS:
                if sec == section:
                    lines.append(f"{key} = {_echo(kind, getattr(self, name))}")
            lines.append("")
        return "\n".join(lines)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def model_params(self) -> ModelParams:
        return ModelParams(**{f.name: getattr(self, f.name) for f in fields(ModelParams)})

    def initial_state(self) -> CoupledState:
        if self.init_kind == "file":
            u_vals, v_modes, w_modes = (np.asarray(a, dtype=float) for a in self.init_arrays)
        else:
            u_vals = np.full(self.n, self.theta1)
            v_modes = np.zeros(self.k_max)
            w_modes = np.zeros(self.k_max)
            if self.init_kind == "single-bump":
                u_vals = u_vals + self.u_amp * np.sin(np.pi * sp.grid(self.n))
                w_modes[0] = self.w_amp
                v_modes[0] = self.v_amp
        return CoupledState(u=u_vals, vw=StateVW(v=v_modes, w=w_modes))

    def driver_config(self) -> DriverConfig:
        return DriverConfig(**{f.name: getattr(self, f.name) for f in fields(DriverConfig)})


# Every config key: (section, key, RunConfig field, kind, default text, bound),
# in field order.
_CONFIG_KEYS = tuple(
    (sec, key or f.name, f.name, kind, default, bound)
    for f in fields(RunConfig)
    if "row" in f.metadata
    for sec, key, kind, default, bound in [f.metadata["row"]]
)


def _echo(kind: str, value) -> str:
    if kind == "floats":
        return ",".join(repr(float(x)) for x in value)
    if value is None:
        return ""
    if kind in ("float", "float?", "horizon"):
        return repr(float(value))
    return str(value)


def _finite(name: str, text: str, violations: list) -> float | None:
    """text as a finite float; otherwise None, with a violation appended."""
    try:
        value = float(text)
    except ValueError:
        violations.append(f"{name}: not a number (got {text!r})")
        return None
    if not math.isfinite(value):
        violations.append(f"{name}: must be finite (got {value!r})")
        return None
    return value


def _convert(kind: str, name: str, text: str, violations: list):
    """The value of one key from its text: None for an empty "float?" key and,
    with a violation appended, for a failed conversion."""
    if kind == "str":
        return text
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            violations.append(f"{name}: not an integer (got {text!r})")
            return None
    if kind == "floats":
        return tuple(_finite(name, piece.strip(), violations) for piece in text.split(",")) if text else ()
    if text == "":
        if kind != "float?":
            violations.append(f"{name}: value required")
        return None
    if kind == "horizon" and text.lower() == "auto":
        return "auto"
    return _finite(name, text, violations)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate flat INI config text; raise ConfigError listing
    every violation (unknown sections/keys, conversion failures, semantic
    constraints) rather than stopping at the first."""
    violations = []
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc!s}".replace("\n", " ")]) from exc

    raw = {(sec, key): default for sec, key, _, _, default, _ in _CONFIG_KEYS}
    sections = {sec for sec, _ in raw}
    for section in cp.sections():
        if section not in sections:
            violations.append(f"unknown section [{section}]")
            continue
        for key, value in cp.items(section):
            if (section, key) not in raw:
                violations.append(f"unknown key {section}.{key}")
            else:
                raw[(section, key)] = value.strip()
    # every key converts and meets its bound; a rejected value is None
    c = {}
    for sec, key, name, kind, _, bound in _CONFIG_KEYS:
        value = _convert(kind, f"{sec}.{key}", raw[(sec, key)], violations)
        if bound and value is not None and (kind, value) != ("horizon", "auto"):
            op, limit = bound
            entries = value if kind == "floats" else (value,)
            for x in entries:
                if x is not None and not (x in limit if op == "in" else x >= limit if op == ">=" else x > limit):
                    want = "one of " + ", ".join(limit) if op == "in" else f"{op} {limit}"
                    violations.append(f"{sec}.{key}: must be {want} (got {x!r})")
                    value = None
        c[name] = value
    # a repeated entry of a sweep list would run its cells more than once;
    # compared as floats, so 0.0 and -0.0 are one value
    for sec, key, name, *_ in _CONFIG_KEYS:
        if sec == "sweep" and c[name] is not None:
            entries = [x for x in c[name] if x is not None]
            if len(set(entries)) < len(entries):
                violations.append(f"{sec}.{key}: repeated value (got {', '.join(map(repr, entries))})")
    init_kind, init_file, k_max, n = c["init_kind"], c["init_file"], c["k_max"], c["n"]
    file_sha_given = c["init_file_sha256"].strip().lower()
    T_source_raw = c["T_source"].strip().lower()

    if None not in (k_max, n) and n != k_max:
        violations.append(
            f"discretization: the coupled driver requires n == k_max (got n={n}, k_max={k_max})"
        )
    if T_source_raw not in ("", "explicit", "auto"):
        violations.append(
            f"run.T_source: must be explicit or auto when given (got {T_source_raw!r})"
        )

    init_arrays = None
    file_sha = ""
    if init_kind != "file":
        if init_file:
            violations.append("init.file: only valid with kind = file")
        if file_sha_given:
            violations.append("init.file_sha256: only valid with kind = file")
    else:
        if not init_file:
            violations.append("init.file: path required for kind = file")
        elif not os.path.isfile(init_file):
            violations.append(f"init.file: no such file (got {init_file!r})")
        else:
            with open(init_file, "rb") as fh:
                blob = fh.read()
            file_sha = hashlib.sha256(blob).hexdigest()
            if file_sha_given and file_sha_given != file_sha:
                violations.append(
                    "init.file_sha256: content hash mismatch "
                    f"(config says {file_sha_given[:12]}..., file has {file_sha[:12]}...)"
                )
            try:
                with np.load(io.BytesIO(blob)) as data:  # the bytes that were hashed
                    u_vals = np.asarray(data["u_values"], dtype=float)
                    v_modes = np.asarray(data["v_modes"], dtype=float)
                    w_modes = np.asarray(data["w_modes"], dtype=float)
            except Exception as exc:
                violations.append(
                    f"init.file: expected .npz with u_values, v_modes, w_modes ({exc!s})"
                )
            else:
                # a size that was rejected above has no shape to check against
                if n is not None and u_vals.shape != (n,):
                    violations.append(
                        f"init.file: u_values must have shape ({n},), got {u_vals.shape}"
                    )
                if k_max is not None and (v_modes.shape != (k_max,) or w_modes.shape != (k_max,)):
                    violations.append(
                        f"init.file: v_modes/w_modes must have shape ({k_max},)"
                    )
                if not (
                    np.all(np.isfinite(u_vals))
                    and np.all(np.isfinite(v_modes))
                    and np.all(np.isfinite(w_modes))
                ):
                    violations.append("init.file: arrays must be finite")
                if not violations:
                    init_arrays = (tuple(u_vals), tuple(v_modes), tuple(w_modes))

    # Horizon: explicit positive number, or "auto" via the constructive
    # estimate.  A numeric T together with T_source = auto is the canonical
    # echo of an already-resolved auto horizon and is taken as-is, so the
    # echo re-parses to the identical configuration.
    needs_resolution = c["T"] == "auto"
    T_source = "auto" if needs_resolution or T_source_raw == "auto" else "explicit"

    if violations:
        raise ConfigError(violations)

    T = math.nan if needs_resolution else c["T"]
    cfg = RunConfig(**{**c, "T": T, "T_source": T_source, "init_file_sha256": file_sha}, init_arrays=init_arrays)
    return _with_horizon(cfg, needs_resolution)


def _with_horizon(cfg: RunConfig, auto: bool) -> RunConfig:
    """cfg with its snapshots checked against its horizon T, resolved first from the
    constructive estimate T0 of cfg's own parameters and initial data when auto
    (ConfigError otherwise): the one horizon rule of parse_config and sweep cells."""
    if auto:
        try:
            init = cfg.initial_state()
            T_res = dp.theory_constants(cfg.model_params(), init.u, init.vw).T0
        except Exception as exc:
            raise ConfigError([f"run.T: auto horizon resolution failed ({exc!s})"]) from exc
        if not (np.isfinite(T_res) and T_res > 0):
            raise ConfigError([f"run.T: auto horizon resolved to {T_res!r}"])
        cfg = replace(cfg, T=T_res)
    bad_snaps = [t for t in cfg.snapshots if not (0.0 <= t <= cfg.T * (1 + 1e-12))]
    if bad_snaps:
        raise ConfigError(
            [f"output.snapshots: time {t!r} outside [0, T={cfg.T!r}]" for t in bad_snaps]
        )
    return cfg


# ---------------------------------------------------------------------------
# run records and export
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """One executed simulation: its config, report and snapshots."""

    config: RunConfig
    report: RunReport
    snapshots: tuple


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _json_float(x) -> float | None:
    """x as a float, or None (JSON null) where it is undefined (NaN) or infinite."""
    x = float(x)
    return x if math.isfinite(x) else None


def _snapshot_at(report: RunReport, t_req: float) -> dict:
    tr = report.trajectory
    i = int(np.argmin(np.abs(tr.t - t_req)))
    return {
        "t_requested": float(t_req),
        "t": float(tr.t[i]),
        "u": tr.u[i].tolist(),
        "v": tr.v[i].tolist(),
        "w": tr.w[i].tolist(),
    }


def _execute(cfg: RunConfig) -> RunRecord:
    report = ry.run_coupled(cfg.model_params(), cfg.initial_state(), cfg.T, cfg.driver_config())
    snap_times = cfg.snapshots if cfg.snapshots else (0.0, report.final_state.t)
    snaps = tuple(_snapshot_at(report, t) for t in snap_times)
    return RunRecord(cfg, report, snaps)


def _record_payload(record: RunRecord) -> dict:
    rep = record.report
    return {
        "schema_version": SCHEMA_VERSION,
        "config_hash": record.config.config_hash,
        "code_version": __version__,
        "termination": rep.termination,
        "T": float(rep.T),
        "T_used": float(rep.T_used),
        "quench_time": None if rep.quench_time is None else float(rep.quench_time),
        "quench_eps": float(rep.config.quench_eps),
        "u_cap": float(rep.config.u_cap),
        "note": rep.note,
        "k_max": rep.trajectory.w.shape[1],
        "n": rep.trajectory.u.shape[1],
        "n_t": rep.config.n_t,
        "tol": float(rep.config.tol),
        "compat_proxy": _json_float(rep.compat_proxy),
        "series": {c: [_json_float(x) for x in rep.series[c]] for c in SERIES_COLUMNS},
        "snapshots": list(record.snapshots),
    }


def _write_json(path: str, payload: dict) -> str:
    """Write payload to path as strict JSON (sorted keys, no NaN or infinity,
    trailing newline); returns path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    return path


def export(record: RunRecord, fmt: str, outdir: str) -> dict:
    """Write the record in one format; returns {logical name: path}.

    csv: series.csv (columns exactly t,min_w,max_u,mass_residual,norm_X,
    contraction_ratio; floats %.17g) and snapshots.csv (t,field,index,value;
    field in {u, v, w}, u indexed by grid node, v/w by mode number).
    json: record.json (schema_version-tagged, sorted keys, strict JSON: null
    for undefined or non-finite series values).
    """
    os.makedirs(outdir, exist_ok=True)
    files = {}
    if fmt == "csv":
        series_path = os.path.join(outdir, "series.csv")
        with open(series_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(SERIES_COLUMNS) + "\n")
            for row in zip(*(record.report.series[c] for c in SERIES_COLUMNS)):
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        snap_path = os.path.join(outdir, "snapshots.csv")
        with open(snap_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(SNAPSHOT_COLUMNS) + "\n")
            for snap in record.snapshots:
                for fname in ("u", "v", "w"):
                    for i, val in enumerate(snap[fname], start=1):
                        fh.write(f"{_fmt(snap['t'])},{fname},{i},{_fmt(val)}\n")
        files["series"] = series_path
        files["snapshots"] = snap_path
    elif fmt == "json":
        files["record"] = _write_json(os.path.join(outdir, "record.json"), _record_payload(record))
    else:
        raise ValueError(f"unknown export format {fmt!r} (expected csv or json)")
    return files


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: RunConfig, out: str | None = None, quiet: bool = False) -> RunRecord:
    """Run the coupled driver and write echo + record + series + snapshots."""
    outdir = out or cfg.outdir
    record = _execute(cfg)
    os.makedirs(outdir, exist_ok=True)
    echo_path = os.path.join(outdir, "config_echo.ini")
    with open(echo_path, "w", encoding="utf-8") as fh:
        fh.write(record.config.canonical())
    export(record, "csv", outdir)
    export(record, "json", outdir)
    if not quiet:
        rep = record.report
        qt = "-" if rep.quench_time is None else _fmt(rep.quench_time)
        print(
            f"simulate: termination={rep.termination} T_used={_fmt(rep.T_used)} "
            f"quench_time={qt} files in {outdir}"
        )
    return record


@dataclass(frozen=True)
class SweepCell:
    beta_F: float
    beta_p: float
    termination: str
    T_used: float
    quench_time: float | None
    note: str


@dataclass
class SweepResult:
    cells: tuple


def _monotonicity_scan(cells) -> tuple:
    """Once quench appears along increasing beta_F (fixed beta_p) it should persist."""
    notes = []
    by_bp = {}
    for c in cells:
        by_bp.setdefault(c.beta_p, []).append(c)
    for bp in sorted(by_bp):
        row = sorted(by_bp[bp], key=lambda c: c.beta_F)
        seen_quench = None
        for c in row:
            if c.termination == "quench" and seen_quench is None:
                seen_quench = c.beta_F
            elif seen_quench is not None and c.termination != "quench":
                notes.append(
                    f"beta_p={c.beta_p!r}: quench at beta_F={seen_quench!r} but "
                    f"termination={c.termination} at beta_F={c.beta_F!r}"
                )
    return tuple(notes)


def cmd_sweep(cfg: RunConfig, out: str | None = None, jobs: int = 1, quiet: bool = False) -> SweepResult:
    """Run the beta_F x beta_p grid; each cell is an isolated simulate run.

    Partial failures are recorded per cell (termination = "error") and the
    sweep continues.  The quench-monotonicity diagnostic is logged, never
    asserted.  Cells re-resolve an "auto" horizon for their own parameters.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (got {jobs})")
    if not cfg.sweep_beta_F or not cfg.sweep_beta_p:
        raise ConfigError(
            ["sweep: beta_F_values and beta_p_values must both be nonempty for cmd_sweep"]
        )
    outdir = out or cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    grid = sorted(
        (bf, bp) for bf in cfg.sweep_beta_F for bp in cfg.sweep_beta_p
    )

    def run_cell(pair):
        bf, bp = pair
        cell_cfg = replace(cfg, beta_F=bf, beta_p=bp, sweep_beta_F=(), sweep_beta_p=())
        cell_dir = os.path.join(outdir, f"bF_{bf!r}_bp_{bp!r}")
        try:
            record = cmd_simulate(_with_horizon(cell_cfg, cfg.T_source == "auto"), out=cell_dir, quiet=True)
            rep = record.report
            return SweepCell(bf, bp, rep.termination, float(rep.T_used), rep.quench_time, rep.note)
        except Exception as exc:  # partial failure: record and continue
            return SweepCell(bf, bp, "error", math.nan, None, str(exc).replace("\n", " ")[:200])

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        cells = tuple(pool.map(run_cell, grid))

    csv_path = os.path.join(outdir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for c in cells:
            qt = "nan" if c.quench_time is None else _fmt(c.quench_time)
            note = c.note.replace(",", ";")
            fh.write(
                f"{_fmt(c.beta_F)},{_fmt(c.beta_p)},{c.termination},{_fmt(c.T_used)},{qt},{note}\n"
            )
    notes = _monotonicity_scan(cells)
    if not quiet:
        for c in cells:
            print(
                f"sweep: beta_F={c.beta_F!r} beta_p={c.beta_p!r} -> {c.termination}"
                + (f" (quench_time={_fmt(c.quench_time)})" if c.quench_time is not None else "")
            )
        if notes:
            for line in notes:
                print(f"sweep: monotonicity flag: {line}")
        else:
            print("sweep: quench monotonicity holds along sampled beta_F rays")
    return SweepResult(cells=cells)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifySummary:
    suite: str
    results: tuple
    passed: bool


def cmd_verify(suite: str, seed: int = 0, out: str | None = None, quiet: bool = False) -> VerifySummary:
    """Run one named verification suite (or all); returns the summary.

    The summary is also written as JSON (schema_version-tagged) to
    <out>/verify_<suite>.json when an output directory is given.
    """
    if suite not in VERIFY_SUITES:
        raise ValueError(
            f"unknown suite {suite!r} (expected one of {', '.join(VERIFY_SUITES)})"
        )
    results = []
    for name in vf.SUITES if suite == "all" else [suite]:
        results.extend(vf.SUITES[name](seed))
    summary = VerifySummary(
        suite=suite, results=tuple(results), passed=all(bool(r.passed) for r in results)
    )
    if not quiet:
        for r in summary.results:
            mark = "PASS" if r.passed else "FAIL"
            note = f" [{r.note}]" if r.note else ""
            print(f"[{mark}] {r.name}: measured={r.measured:.6g} bound={r.bound:.6g}{note}")
        failed = sum(not r.passed for r in summary.results)
        print(f"suite {suite}: {len(summary.results)} checks, {failed} failed")
    if out is not None:
        os.makedirs(out, exist_ok=True)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "suite": suite,
            "passed": summary.passed,
            "results": [
                {
                    "name": r.name,
                    "passed": bool(r.passed),
                    "measured": _json_float(r.measured),
                    "bound": _json_float(r.bound),
                    "note": r.note,
                }
                for r in summary.results
            ],
        }
        _write_json(os.path.join(out, f"verify_{suite}.json"), payload)
    return summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapflow",
        description="Simulate and verify the coupled gas-film / pinned-plate model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the coupled driver from a config file")
    p_sim.add_argument("--config", required=True, help="path to the INI config")
    p_sim.add_argument("--out", default=None, help="output directory (default: config outdir)")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "--suite", default="all", help="one of " + ", ".join(VERIFY_SUITES)
    )
    p_ver.add_argument("--out", default=None, help="directory for the JSON summary")
    p_ver.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")

    p_swp = sub.add_parser("sweep", help="run a beta_F x beta_p grid of simulations")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--out", default=None)
    p_swp.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")

    p_exp = sub.add_parser("export", help="re-run a config and write one format")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--format", required=True, choices=("csv", "json"))
    p_exp.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cmd_simulate(_load_config(args.config), out=args.out)
            return 0
        if args.command == "verify":
            summary = cmd_verify(args.suite, seed=args.seed, out=args.out)
            return 0 if summary.passed else 1
        if args.command == "sweep":
            cmd_sweep(_load_config(args.config), out=args.out, jobs=args.jobs)
            return 0
        if args.command == "export":
            cfg = _load_config(args.config)
            record = _execute(cfg)
            files = export(record, args.format, args.out or cfg.outdir)
            for name, path in sorted(files.items()):
                print(f"export: {name} -> {path}")
            return 0
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
