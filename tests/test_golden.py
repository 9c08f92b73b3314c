"""Pinned outputs: `simulate` must keep reproducing the physics stored in
tests/golden/ (configs/reference.ini) and tests/golden/quench/
(configs/quench.ini).  Refactors of the numerical core are checked against
these files, which are written before the refactor by tests/golden_run.py.
The runs override the configs' tol with golden_run.GOLDEN_TOL = 1e-10, so
the files pin the fixed point and not the iteration path: at the shipped tol
the quench series carries about 5e-11 of unconverged iteration, and any other
route to the same fixed point would move it by that much.

The contract compares each column by what it can carry:

* t, max_u and norm_X: at most RTOL = 1e-12 relative, NaN equal to NaN.
* min_w is the refined minimum of w~ plus theta2, so near touchdown it
  cancels terms of size theta2.  It is compared at RTOL * max(|min_w|, theta2),
  the size of those terms, as mass_residual is below.
* mass_residual = |d/dt int w u - flux| cancels terms of order one, and its
  time derivative is a difference quotient of int w u over the local step dt.
  It is compared at RTOL against the size of the terms it is formed from,
  |int w u| / dt + |flux|, read from the pinned mass_terms.csv.
* contraction_ratio is Banach's estimate from Gamma differences at least
  reynolds._FLOOR_MARGIN times their rounding floor, so it is known to
  2 / _FLOOR_MARGIN relative, and compared at that.
* snapshots.csv per field and per time: max |diff| <= rtol * max |value|,
  since modes that vanish by symmetry hold only rounding noise.  rtol is RTOL
  for reference.ini and 1e-9 for quench.ini, whose final snapshot comes from
  the Runge-Kutta tail at the touchdown.

series_allowance holds the one per-value allowance of the series columns,
and allowance_shares reports how much of it a run uses: for each column and
snapshot field, the largest |diff| over its allowance and the row where it
falls.  A share is at most 1 exactly where the contract holds.

The runs are child processes with the BLAS and OpenMP pools pinned to one
thread, as the golden files were written; a run with two threads must write
the same bytes.  The last tests show the strength of the contract: a
rounding-level change of the pressure propagator passes it, and a 1e-9
change of it or of the plate march, a wrong phi_2 kick, theta2 moved by 1e-10
in the min_w synthesis or a quench run at its shipped tol fails it."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gapflow import cli
from gapflow import reynolds as ry

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
RATIO_RTOL = 2.0 / ry._FLOOR_MARGIN
SNAPSHOT_RTOL = {"reference.ini": RTOL, "quench.ini": 1e-9}
GOLDEN_DIRS = {"reference.ini": GOLDEN, "quench.ini": GOLDEN / "quench"}
THETA2 = {config: cli._load_config(str(ROOT / "configs" / config)).theta2 for config in GOLDEN_DIRS}


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _simulate(config, out, *perturbation, threads="1"):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    cmd = [sys.executable, str(ROOT / "tests" / "golden_run.py"), config, str(out), *perturbation]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=600)
    return out


def _numeric(rows):
    return np.array([[float(x) for x in r] for r in rows])


def series_allowance(golden, theta2):
    """(header, values, allowance) of golden's series.csv, whose run has gap
    boundary value theta2: the allowance atol + rtol |value| of each value
    under the contract."""
    want = _read(golden / "series.csv")
    header, b = want[0], _numeric(want[1:])
    ts, mass, flux = _numeric(_read(golden / "mass_terms.csv")[1:]).T
    atol = np.zeros(b.shape)
    rtol = np.full(b.shape, RTOL)
    col = header.index("mass_residual")
    rtol[:, col] = 0.0
    atol[:, col] = RTOL * (np.abs(mass) / np.gradient(ts) + np.abs(flux))
    rtol[:, header.index("contraction_ratio")] = RATIO_RTOL
    col = header.index("min_w")
    rtol[:, col] = 0.0
    atol[:, col] = RTOL * np.maximum(np.abs(b[:, col]), theta2)
    return header, b, atol + rtol * np.abs(b)


def series_pairs(golden, fresh, theta2):
    """(header, fresh values, golden values, allowance) of series.csv, or a
    message when the header or the row count changed."""
    header, b, allowance = series_allowance(golden, theta2)
    got = _read(fresh / "series.csv")
    if got[0] != header:
        return "header changed"
    if len(got) - 1 != len(b):
        return f"{len(got) - 1} rows, golden has {len(b)}"
    return header, _numeric(got[1:]), b, allowance


def series_mismatches(golden, fresh, theta2):
    """Messages for the series.csv values of fresh outside the contract with golden,
    whose run has gap boundary value theta2."""
    pairs = series_pairs(golden, fresh, theta2)
    if isinstance(pairs, str):
        return [pairs]
    header, a, b, allowance = pairs
    bad = np.argwhere(~(np.abs(a - b) <= allowance) & ~(np.isnan(a) & np.isnan(b)))
    return [f"series row {i + 1}, {header[j]}: {a[i, j]!r} against {b[i, j]!r}" for i, j in bad]


def snapshot_groups(golden, fresh):
    """{(t, field): (golden values, fresh values, snapshots.csv rows)} of the
    two snapshots.csv files, or a message when their layout differs."""
    want = _read(golden / "snapshots.csv")
    got = _read(fresh / "snapshots.csv")
    if got[0] != want[0]:
        return "header changed"
    if [r[:3] for r in got[1:]] != [r[:3] for r in want[1:]]:
        return "t, field or index columns changed"
    groups = {}
    for row, (row_w, row_g) in enumerate(zip(want[1:], got[1:]), start=1):
        groups.setdefault((row_w[0], row_w[1]), []).append((float(row_w[3]), float(row_g[3]), row))
    return {key: tuple(np.array(column) for column in zip(*values)) for key, values in groups.items()}


def snapshot_mismatches(golden, fresh, rtol):
    """Messages for the (time, field) groups of fresh's snapshots.csv outside rtol of their sup norm."""
    groups = snapshot_groups(golden, fresh)
    if isinstance(groups, str):
        return [groups]
    out = []
    for (t, field), (b, a, _) in groups.items():
        scale = np.max(np.abs(b))
        err = np.max(np.abs(a - b))
        if not err <= rtol * scale:
            out.append(f"{field} at t={t}: max |diff| {err:.3g} against sup {scale:.3g}")
    return out


def mismatches(config, fresh):
    golden = GOLDEN_DIRS[config]
    return series_mismatches(golden, fresh, THETA2[config]) + snapshot_mismatches(golden, fresh, SNAPSHOT_RTOL[config])


def _shares(diff, allowance):
    """diff / allowance per value, 0 where diff is 0 and inf where it is NaN:
    at most 1 exactly where diff <= allowance."""
    with np.errstate(divide="ignore", invalid="ignore"):
        share = diff / allowance
    share[diff == 0.0] = 0.0
    return np.nan_to_num(share, nan=np.inf)


def allowance_shares(config, fresh):
    """{name: (share, row)} of fresh against the golden files of config: for
    each series column, and for each snapshot field as "snapshot <field>", the
    largest |diff| / allowance and the data row of the CSV file where it
    occurs (1 is the row under the header).  The allowance is the contract's:
    a share is at most 1 exactly where the contract holds."""
    golden = GOLDEN_DIRS[config]
    pairs, groups = series_pairs(golden, fresh, THETA2[config]), snapshot_groups(golden, fresh)
    for layout in (pairs, groups):
        if isinstance(layout, str):
            raise ValueError(layout)
    header, a, b, allowance = pairs
    shares = _shares(np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b)), allowance)
    out = {name: (float(shares[:, j].max()), int(shares[:, j].argmax()) + 1) for j, name in enumerate(header)}
    for (_, field), (b, a, rows) in groups.items():
        share = _shares(np.abs(a - b), SNAPSHOT_RTOL[config] * np.max(np.abs(b)))
        worst, name = int(share.argmax()), f"snapshot {field}"
        if name not in out or share[worst] > out[name][0]:
            out[name] = (float(share[worst]), int(rows[worst]))
    return out


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return _simulate("reference.ini", tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def fresh_quench(tmp_path_factory):
    return _simulate("quench.ini", tmp_path_factory.mktemp("golden_quench"))


def test_simulate_reference_series_matches_golden(fresh):
    bad = series_mismatches(GOLDEN, fresh, THETA2["reference.ini"])
    assert not bad, f"{len(bad)} values outside the contract, first: {bad[0]}"


def test_simulate_reference_snapshots_match_golden(fresh):
    bad = snapshot_mismatches(GOLDEN, fresh, SNAPSHOT_RTOL["reference.ini"])
    assert not bad, bad[0]


def test_simulate_quench_series_matches_golden(fresh_quench):
    golden = GOLDEN / "quench"
    want = _numeric(_read(golden / "series.csv")[1:])
    # the Runge-Kutta tail records no contraction ratio; the driver hands off
    # to it after the last Gamma row, at t = 0.2425687
    handoff = np.flatnonzero(np.isfinite(want[:, -1]))[-1]
    assert want[handoff, 0] == pytest.approx(0.2425687, abs=1e-7)
    bad = series_mismatches(golden, fresh_quench, THETA2["quench.ini"])
    assert not bad, f"{len(bad)} values outside the contract, first: {bad[0]}"


def test_simulate_quench_snapshots_match_golden(fresh_quench):
    bad = snapshot_mismatches(GOLDEN / "quench", fresh_quench, SNAPSHOT_RTOL["quench.ini"])
    assert not bad, bad[0]


@pytest.mark.parametrize("config", ["reference.ini", "quench.ini"])
def test_allowance_shares_are_at_most_one_exactly_when_nothing_mismatches(request, config):
    run = request.getfixturevalue("fresh" if config == "reference.ini" else "fresh_quench")
    shares = allowance_shares(config, run)
    assert set(shares) == {*_read(GOLDEN_DIRS[config] / "series.csv")[0], "snapshot u", "snapshot v", "snapshot w"}
    within = all(share <= 1.0 for share, _ in shares.values())
    assert within == (mismatches(config, run) == [])
    assert within, shares


@pytest.mark.parametrize("config", ["reference.ini", "quench.ini"])
def test_outputs_do_not_depend_on_the_blas_pool_size(request, tmp_path, config):
    one = request.getfixturevalue("fresh" if config == "reference.ini" else "fresh_quench")
    two = _simulate(config, tmp_path, threads="2")
    for name in ("series.csv", "snapshots.csv", "mass_terms.csv"):
        assert (two / name).read_bytes() == (one / name).read_bytes(), f"{name} differs between 1 and 2 threads"


@pytest.mark.parametrize("config", ["reference.ini", "quench.ini"])
def test_rounding_level_change_of_E_passes(tmp_path, config):
    assert mismatches(config, _simulate(config, tmp_path, "--scale-E", "1e-15")) == []


def test_1e9_change_of_E_fails(tmp_path):
    fresh = _simulate("reference.ini", tmp_path, "--scale-E", "1e-9")
    bad = mismatches("reference.ini", fresh)
    assert any("max_u" in m for m in bad) and any(m.startswith("u at") for m in bad)
    shares = allowance_shares("reference.ini", fresh)
    assert shares["max_u"][0] > 1.0 and shares["snapshot u"][0] > 1.0


def test_1e9_change_of_the_plate_march_fails(tmp_path):
    # every plate march's (v, w) scaled by 1 + 1e-9: max_u and norm_X fail on
    # most rows where min_w is above theta2 / 2, away from the touchdown rows
    # that magnify a plate-path change by theta2 / min_w, so the contract
    # catches plate-path errors far below a loose inner solve's
    theta2 = THETA2["quench.ini"]
    fresh = _simulate("quench.ini", tmp_path, "--scale-march", "1e-9")
    header, a, b, allowance = series_pairs(GOLDEN / "quench", fresh, theta2)
    column = {name: j for j, name in enumerate(header)}
    failing = ~(np.abs(a - b) <= allowance)
    far = b[:, column["min_w"]] > 0.5 * theta2
    for name in ("max_u", "norm_X"):
        assert failing[far, column[name]].sum() > far.sum() / 2, name


def test_wrong_K2_fails(tmp_path):
    bad = mismatches("reference.ini", _simulate("reference.ini", tmp_path, "--wrong-K2"))
    assert any("max_u" in m for m in bad) and any(m.startswith("u at") for m in bad)


def test_theta2_shift_in_the_min_w_synthesis_fails(tmp_path):
    # 1e-10 is 100 times the min_w allowance at theta2 = 1, on every row,
    # the touchdown rows where min_w is near 1e-3 included
    bad = mismatches("quench.ini", _simulate("quench.ini", tmp_path, "--shift-theta2", "1e-10"))
    rows = len(_read(GOLDEN / "quench" / "series.csv")) - 1
    assert sum("min_w" in m for m in bad) == rows
    assert all("min_w" in m for m in bad)


def test_shipped_tol_quench_run_fails(tmp_path):
    # at tol 1e-8 the Gamma iteration stops about 5e-11 short of its fixed point
    fresh = _simulate("quench.ini", tmp_path, "--shipped-tol")
    bad = series_mismatches(GOLDEN / "quench", fresh, THETA2["quench.ini"])
    assert any("max_u" in m for m in bad), bad
