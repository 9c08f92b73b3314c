"""The four benchmark workloads: set-up, one timed operation, and its checks.

Each workload is a class with

- ``prepare()``: untimed set-up -- parse the config, build the inputs and
  fill the first-call caches (``dispersive.embedding_C``); the fresh-
  interpreter probe behind ``setup_s`` runs exactly this;
- ``op()``: one operation through the program's public entry points; this
  is what ``wall_s`` times;
- ``min_ops``: the fewest operations a timed run makes, whatever its
  length (README.md, "Budget");
- ``check(result)``: a list of problems with the operation's output, empty
  when the output is correct.  Checks read the files the program wrote
  wherever a user would.

Problems are plain strings so that ``selfcheck.py`` can show each check
rejecting a perturbed output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys

import numpy as np

from gapflow import cli, dispersive, reynolds, spectral

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "quench_reference.json")

# Cross-route agreement on the quench time (acceptance criterion c10).
QUENCH_REL_TOL = 0.05
# The oracle's step: the stability limit 0.5/omega_max of integrate_reference.
ORACLE_DT_FACTOR = 0.5
# Sweep: low modes compared against a run at a quarter of the resolution.
SWEEP_N = 256
SWEEP_LOW_MODES = 16
SWEEP_TOL_W = 2e-6
SWEEP_TOL_V = 1.2e-5
# The zero-coupling cell against the closed-form free rotation.
ROTATION_TOL = 1e-12
VERIFY_CHECKS = 15


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def quench_config(root: str):
    """The text of configs/quench.ini and its parsed config."""
    with open(os.path.join(root, "configs", "quench.ini"), encoding="utf-8") as fh:
        text = fh.read()
    return text, cli.parse_config(text)


def oracle_dt(k_max: int) -> float:
    return ORACLE_DT_FACTOR / float(spectral.plate_eigenvalues(k_max).omega[-1])


def oracle_run(cfg):
    """RK4 oracle on a config until touchdown: (quench time or None, mass-balance residual).

    The threshold is the driver's default quench_eps = 1e-3 theta2.
    """
    p = cfg.model_params()
    quench_eps = cfg.quench_eps if cfg.quench_eps is not None else 1e-3 * cfg.theta2
    try:
        trajectory = reynolds.integrate_reference(
            p, cfg.initial_state(), cfg.T, oracle_dt(cfg.k_max), quench_eps=quench_eps
        )
        t_q = None
    except spectral.QuenchSignal as sig:
        trajectory, t_q = sig.trajectory, float(sig.t)
    return t_q, reynolds.mass_balance_residual(trajectory, p)


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Quench:
    """`cmd_simulate` on configs/quench.ini, through touchdown."""

    name = "quench"
    min_ops = 3  # later operations' series.csv are compared with the first's

    def __init__(self, root, workdir, seed):
        self.root = root
        self.outdir = os.path.join(workdir, "quench")
        self.series_sha = None

    def prepare(self):
        self.text, cfg = quench_config(self.root)
        dispersive.embedding_C(cfg.n)

    def op(self):
        cfg = cli.parse_config(self.text)
        cli.cmd_simulate(cfg, out=self.outdir, quiet=True)
        return self.outdir

    def check(self, outdir):
        return check_quench(outdir, load_reference()["oracle_quench_time"], self.remember_series(outdir))

    def remember_series(self, outdir):
        """SHA-256 of the first operation's series.csv; later ones must match it."""
        sha = sha256_file(os.path.join(outdir, "series.csv"))
        if self.series_sha is None:
            self.series_sha = sha
        return self.series_sha


def check_quench(outdir, oracle_time, first_series_sha) -> list:
    problems = []
    with open(os.path.join(outdir, "record.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    min_w_final = record["series"]["min_w"][-1]
    if record["termination"] != "quench":
        problems.append(f"termination {record['termination']!r}, expected 'quench'")
    if not min_w_final <= record["quench_eps"]:
        problems.append(f"final min_w {min_w_final!r} above quench_eps {record['quench_eps']!r}")
    t_q = record["quench_time"]
    if t_q is None or not rel_gap(t_q, oracle_time) <= QUENCH_REL_TOL:
        problems.append(f"quench time {t_q!r} not within 5% of the oracle's {oracle_time!r}")
    echo_sha = sha256_file(os.path.join(outdir, "config_echo.ini"))
    if echo_sha != record["config_hash"]:
        problems.append("SHA-256 of config_echo.ini differs from config_hash in record.json")
    if sha256_file(os.path.join(outdir, "series.csv")) != first_series_sha:
        problems.append("series.csv differs from the first operation's")
    return problems


class Oracle:
    """`integrate_reference` (RK4 method of lines) on the quench problem until its QuenchSignal."""

    name = "oracle"
    # one operation is 78k right-hand sides (12-19 s on a 2-core host); a
    # second would overrun the budget
    min_ops = 1

    def __init__(self, root, workdir, seed):
        self.root = root

    def prepare(self):
        _, self.cfg = quench_config(self.root)

    def op(self):
        return oracle_run(self.cfg)

    def check(self, result):
        return check_oracle(result[0], load_reference()["driver_quench_time"])


def check_oracle(t_q, driver_time) -> list:
    if t_q is None:
        return ["the oracle reached the horizon without a QuenchSignal"]
    if not rel_gap(t_q, driver_time) <= QUENCH_REL_TOL:
        return [f"oracle touchdown {t_q!r} not within 5% of the driver's {driver_time!r}"]
    return []


def sweep_config_text(n: int) -> str:
    """The sweep grid: beta_F x beta_p = {0, 1} x {0, 0.5}, single-bump data, T = 0.2."""
    return f"""[params]
beta_F = 1.0
beta_p = 0.5
theta1 = 1.0
theta2 = 1.0
eps1 = 0.5

[init]
kind = single-bump
u_amp = 0.1
w_amp = 0.05
v_amp = 0.1

[discretization]
k_max = {n}
n = {n}
N_t = 32

[run]
T = 0.2
tol = 1e-9

[sweep]
beta_F_values = 0.0, 1.0
beta_p_values = 0.0, 0.5
"""


def read_sweep_cells(outdir: str) -> dict:
    """{(beta_F, beta_p): record.json payload} for every cell of a sweep directory."""
    cells = {}
    for entry in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, entry, "record.json")
        if entry.startswith("bF_") and os.path.isfile(path):
            _, bf, _, bp = entry.split("_")
            with open(path, encoding="utf-8") as fh:
                cells[(float(bf), float(bp))] = json.load(fh)
    return cells


class Sweep:
    """`cmd_sweep` with jobs = 2 over a 2 x 2 non-quenching grid at n = k = 256."""

    name = "sweep"
    min_ops = 3
    jobs = 2

    def __init__(self, root, workdir, seed):
        self.outdir = os.path.join(workdir, "sweep")
        self.coarse_dir = os.path.join(workdir, "sweep_quarter")
        self.coarse = None

    def prepare(self):
        self.text = sweep_config_text(SWEEP_N)
        dispersive.embedding_C(SWEEP_N)

    def op(self):
        cfg = cli.parse_config(self.text)
        result = cli.cmd_sweep(cfg, out=self.outdir, jobs=self.jobs, quiet=True)
        return result, self.outdir

    def check(self, result_and_dir):
        if self.coarse is None:
            # the quarter-resolution run is verification data, computed once
            coarse_cfg = cli.parse_config(sweep_config_text(SWEEP_N // 4))
            shutil.rmtree(self.coarse_dir, ignore_errors=True)
            cli.cmd_sweep(coarse_cfg, out=self.coarse_dir, jobs=1, quiet=True)
            self.coarse = read_sweep_cells(self.coarse_dir)
        result, outdir = result_and_dir
        cfg = cli.parse_config(self.text)
        return check_sweep(result.cells, read_sweep_cells(outdir), self.coarse, cfg.T)


def free_rotation(w0: np.ndarray, v0: np.ndarray, T: float) -> np.ndarray:
    """w_k(T) = w_k cos(omega_k T) + v_k sin(omega_k T) / omega_k, omega_k^2 = (k pi)^2 + (k pi)^4."""
    kpi = math.pi * np.arange(1, w0.size + 1, dtype=float)
    omega = np.sqrt(kpi**2 + kpi**4)
    return w0 * np.cos(omega * T) + v0 * np.sin(omega * T) / omega


def check_sweep(cells, records, coarse, T) -> list:
    problems = []
    if len(cells) != 4 or len(records) != 4:
        problems.append(f"expected 4 cells, got {len(cells)} results and {len(records)} records")
    for c in cells:
        if c.termination != "converged" or c.T_used != T:
            problems.append(f"cell ({c.beta_F}, {c.beta_p}): {c.termination}, T_used {c.T_used!r}")
    for key, rec in records.items():
        first, last = rec["snapshots"][0], rec["snapshots"][-1]
        w = np.asarray(last["w"])
        v = np.asarray(last["v"])
        if key == (0.0, 0.0):
            exact = free_rotation(np.asarray(first["w"]), np.asarray(first["v"]), last["t"])
            gap = float(np.abs(w - exact).max())
            if not gap <= ROTATION_TOL:
                problems.append(f"zero-coupling cell off the closed-form rotation by {gap:.3g}")
            continue
        ref = coarse.get(key)
        if ref is None:
            problems.append(f"no quarter-resolution reference for cell {key}")
            continue
        k = SWEEP_LOW_MODES
        dw = float(np.abs(w[:k] - np.asarray(ref["snapshots"][-1]["w"])[:k]).max())
        dv = float(np.abs(v[:k] - np.asarray(ref["snapshots"][-1]["v"])[:k]).max())
        if not (dw <= SWEEP_TOL_W and dv <= SWEEP_TOL_V):
            problems.append(f"cell {key}: low modes off the quarter-resolution run (w {dw:.3g}, v {dv:.3g})")
    return problems


class Verify:
    """`cmd_verify("all", seed)`: the 15 checks of every suite, Monte Carlo draws from the seed."""

    name = "verify"
    min_ops = 3

    def __init__(self, root, workdir, seed):
        self.outdir = os.path.join(workdir, "verify")
        self.seed = seed

    def prepare(self):
        for k in (8, 16, 32, 48, 64):
            dispersive.embedding_C(k)

    def op(self):
        return cli.cmd_verify("all", seed=self.seed, out=self.outdir, quiet=True)

    def check(self, summary):
        return check_verify(summary)


# A known fault, not a benchmark failure: this audit fails on some seeds
# (seed 40: measured 1.461 against bound 1.0), so its verdict is reported
# on standard error and left out of `correct` (README.md, "Correctness checks").
SEED_DEPENDENT_FAULTS = ("lipschitz.holder_F",)


def check_verify(summary) -> list:
    problems = []
    for r in summary.results:
        if r.passed:
            continue
        message = f"{r.name} failed: measured {float(r.measured)!r}, bound {float(r.bound)!r}"
        if r.name in SEED_DEPENDENT_FAULTS:
            print(f"perfbench: verify: known seed-dependent fault: {message}", file=sys.stderr)
        else:
            problems.append(message)
    if len(summary.results) != VERIFY_CHECKS:
        problems.append(f"{len(summary.results)} checks ran, expected {VERIFY_CHECKS}")
    return problems


WORKLOADS = {cls.name: cls for cls in (Quench, Oracle, Sweep, Verify)}
