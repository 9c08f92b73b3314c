"""Pinned outputs: `simulate` on configs/reference.ini must keep reproducing the
series.csv and snapshots.csv stored in tests/golden/ (relative difference at
most 1e-12, NaN equal to NaN).  Refactors of the numerical core are checked
against these files, which were written before the refactor.

The run goes through the command line in a child process with the BLAS and
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


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-m", "gapflow.cli", "simulate", "--config", str(ROOT / "configs" / "reference.ini"), "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=600)
    return out


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
    a = np.array([[float(r[c]) for c in numeric] for r in rows_g])
    b = np.array([[float(r[c]) for c in numeric] for r in rows_w])
    close = np.isclose(a, b, rtol=RTOL, atol=0.0, equal_nan=True)
    bad = np.argwhere(~close)
    assert bad.size == 0, f"{len(bad)} values differ beyond {RTOL:g} relative, first at row {bad[0][0] + 1}"
