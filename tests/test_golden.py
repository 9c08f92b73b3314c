"""Pinned outputs: `simulate` must keep reproducing the series.csv and
snapshots.csv stored in tests/golden/ (configs/reference.ini) and
tests/golden/quench/ (configs/quench.ini).  Refactors of the numerical core
are checked against these files, which were written before the refactor.

reference.ini: relative difference at most 1e-12 on every value, NaN equal
to NaN.

quench.ini: series.csv at 1e-12 relative, except mass_residual from the row
where the driver hands off to the Runge-Kutta tail on, at 1e-9: that column
is a central time difference across the tail's tiny steps, and 1e-9 is the
quench-time tolerance.  snapshots.csv per field and per time at
max |diff| <= 1e-9 * max |value|: modes that vanish by symmetry hold only
rounding noise, so a plain relative check on them would be meaningless.

The runs go through the command line in a child process with the BLAS and
OpenMP pools pinned to one thread, as the golden files were written: the
contraction ratios in series.csv change in the fourth digit with the size of
the OpenBLAS pool."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
TAIL_MASS_RTOL = 1e-9
SNAPSHOT_SUP_RTOL = 1e-9


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _simulate(config, out):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-m", "gapflow.cli", "simulate", "--config", str(ROOT / "configs" / config), "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=600)
    return out


def _numeric(rows, columns):
    return np.array([[float(r[c]) for c in columns] for r in rows])


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return _simulate("reference.ini", tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def fresh_quench(tmp_path_factory):
    return _simulate("quench.ini", tmp_path_factory.mktemp("golden_quench"))


@pytest.mark.parametrize("name, text_columns", [("series.csv", ()), ("snapshots.csv", (1,))])
def test_simulate_reference_matches_golden(fresh, name, text_columns):
    want = _read(GOLDEN / name)
    got = _read(fresh / name)
    assert got[0] == want[0], "header changed"
    assert len(got) == len(want), f"{len(got) - 1} rows, golden has {len(want) - 1}"
    rows_w, rows_g = want[1:], got[1:]
    for col in text_columns:
        assert [r[col] for r in rows_g] == [r[col] for r in rows_w]
    numeric = [c for c in range(len(want[0])) if c not in text_columns]
    a = _numeric(rows_g, numeric)
    b = _numeric(rows_w, numeric)
    close = np.isclose(a, b, rtol=RTOL, atol=0.0, equal_nan=True)
    bad = np.argwhere(~close)
    assert bad.size == 0, f"{len(bad)} values differ beyond {RTOL:g} relative, first at row {bad[0][0] + 1}"


def test_simulate_quench_series_matches_golden(fresh_quench):
    want = _read(GOLDEN / "quench" / "series.csv")
    got = _read(fresh_quench / "series.csv")
    assert got[0] == want[0], "header changed"
    assert len(got) == len(want), f"{len(got) - 1} rows, golden has {len(want) - 1}"
    header = want[0]
    a = _numeric(got[1:], range(len(header)))
    b = _numeric(want[1:], range(len(header)))
    # tail rows carry no contraction ratio; the handoff row is the one before
    # the first of them, and its mass residual already differences a tail state
    tail = np.flatnonzero(np.isnan(b[1:, header.index("contraction_ratio")])) + 1
    handoff = int(tail[0]) - 1
    assert b[handoff, header.index("t")] == pytest.approx(0.2425687, abs=1e-7)
    rtol = np.full(b.shape, RTOL)
    rtol[handoff:, header.index("mass_residual")] = TAIL_MASS_RTOL
    close = np.isclose(a, b, rtol=rtol, atol=0.0, equal_nan=True)
    bad = np.argwhere(~close)
    assert bad.size == 0, f"{len(bad)} values differ beyond tolerance, first at row {bad[0][0] + 1}, column {header[bad[0][1]]}"


def test_simulate_quench_snapshots_match_golden(fresh_quench):
    want = _read(GOLDEN / "quench" / "snapshots.csv")
    got = _read(fresh_quench / "snapshots.csv")
    assert got[0] == want[0], "header changed"
    assert [r[:3] for r in got[1:]] == [r[:3] for r in want[1:]], "t, field or index columns changed"
    groups = {}
    for row_w, row_g in zip(want[1:], got[1:]):
        groups.setdefault((row_w[0], row_w[1]), []).append((float(row_w[3]), float(row_g[3])))
    for (t, field), pairs in groups.items():
        b, a = np.array(pairs).T
        scale = np.max(np.abs(b))
        err = np.max(np.abs(a - b))
        assert err <= SNAPSHOT_SUP_RTOL * scale, f"{field} at t={t}: max |diff| {err:.3g} against sup {scale:.3g}"
