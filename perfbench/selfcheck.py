"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selfcheck.py

Runs the quench, sweep and verify operations once, then feeds each check its
real output (which must pass) and deliberately perturbed copies (each of
which must be rejected).  The oracle check is fed the oracle time recorded
in quench_reference.json and perturbed copies of it.  Exits 1 if a real output is rejected or a
perturbed one gets through.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys
import tempfile

import run

run._import_program()
import workloads as wk  # noqa: E402

FAILURES = []


def expect(label: str, problems: list, should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    verdict = "rejected" if problems else "accepted"
    print(f"[{'ok' if ok else 'WRONG'}] {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    if not ok:
        FAILURES.append(label)


def edit_json(path: str, change) -> None:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    change(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def edit_text(path: str, change) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(change(text))


def quench_cases(tmp: str) -> None:
    wl = wk.Quench(run.ROOT, tmp, 0)
    wl.prepare()
    outdir = wl.op()
    oracle_time = wk.load_reference()["oracle_quench_time"]
    series_sha = wl.remember_series(outdir)
    expect("quench: real output", wk.check_quench(outdir, oracle_time, series_sha), False)

    def set_series_min_w(rec):
        rec["series"]["min_w"][-1] = 2.0 * rec["quench_eps"]

    perturbations = {
        "termination 'budget'": ("record.json", lambda rec: rec.update(termination="budget")),
        "final min_w above quench_eps": ("record.json", set_series_min_w),
        "quench time 10% late": ("record.json", lambda rec: rec.update(quench_time=1.1 * rec["quench_time"])),
        "config_echo.ini edited": ("config_echo.ini", lambda text: text + "\n"),
        "series.csv last digit changed": ("series.csv", lambda text: text[:-2] + ("1" if text[-2] != "1" else "2") + "\n"),
    }
    for label, (fname, change) in perturbations.items():
        bad = os.path.join(tmp, "quench_bad")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(outdir, bad)
        (edit_json if fname.endswith(".json") else edit_text)(os.path.join(bad, fname), change)
        expect(f"quench: {label}", wk.check_quench(bad, oracle_time, series_sha), True)


def oracle_cases() -> None:
    ref = wk.load_reference()
    t_oracle, t_driver = ref["oracle_quench_time"], ref["driver_quench_time"]
    expect("oracle: recorded touchdown", wk.check_oracle(t_oracle, t_driver), False)
    expect("oracle: touchdown 10% late", wk.check_oracle(1.1 * t_oracle, t_driver), True)
    expect("oracle: no QuenchSignal", wk.check_oracle(None, t_driver), True)


def sweep_cases(tmp: str) -> None:
    wl = wk.Sweep(run.ROOT, tmp, 0)
    wl.prepare()
    result_and_dir = wl.op()
    expect("sweep: real output", wl.check(result_and_dir), False)
    result, outdir = result_and_dir
    cells, records = result.cells, wk.read_sweep_cells(outdir)
    T = 0.2

    def with_cell(i, **changes):
        return tuple(dataclasses.replace(c, **changes) if j == i else c for j, c in enumerate(cells))

    def with_mode(key, field, mode, delta):
        recs = copy.deepcopy(records)
        recs[key]["snapshots"][-1][field][mode] += delta
        return recs

    expect("sweep: a cell ends 'budget'", wk.check_sweep(with_cell(1, termination="budget"), records, wl.coarse, T), True)
    expect("sweep: a cell stops at T/2", wk.check_sweep(with_cell(2, T_used=0.1), records, wl.coarse, T), True)
    expect("sweep: a cell missing", wk.check_sweep(cells[:3], records, wl.coarse, T), True)
    expect(
        "sweep: zero-coupling w_1 off by 1e-9",
        wk.check_sweep(cells, with_mode((0.0, 0.0), "w", 0, 1e-9), wl.coarse, T),
        True,
    )
    expect(
        "sweep: coupled w_4 off by 1e-5",
        wk.check_sweep(cells, with_mode((1.0, 0.5), "w", 3, 1e-5), wl.coarse, T),
        True,
    )
    expect(
        "sweep: coupled v_2 off by 1e-4",
        wk.check_sweep(cells, with_mode((0.0, 0.5), "v", 1, 1e-4), wl.coarse, T),
        True,
    )


def verify_cases(tmp: str) -> None:
    wl = wk.Verify(run.ROOT, tmp, 0)
    wl.prepare()
    summary = wl.op()
    expect("verify: real summary", wk.check_verify(summary), False)
    results = list(summary.results)
    failed_one = [dataclasses.replace(results[0], passed=False)] + results[1:]
    expect(
        "verify: one check failed",
        wk.check_verify(dataclasses.replace(summary, results=tuple(failed_one), passed=False)),
        True,
    )
    holder = next(i for i, r in enumerate(results) if r.name == "lipschitz.holder_F")
    holder_failed = results[:holder] + [dataclasses.replace(results[holder], passed=False)] + results[holder + 1 :]
    expect(
        "verify: lipschitz.holder_F failed (known seed-dependent fault)",
        wk.check_verify(dataclasses.replace(summary, results=tuple(holder_failed), passed=False)),
        False,
    )
    expect(
        "verify: one check missing",
        wk.check_verify(dataclasses.replace(summary, results=tuple(results[1:]))),
        True,
    )


def main() -> int:
    os.makedirs(run.WORKDIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
        oracle_cases()
        quench_cases(tmp)
        sweep_cases(tmp)
        verify_cases(tmp)
    print(f"selfcheck: {len(FAILURES)} wrong" + (f": {', '.join(FAILURES)}" if FAILURES else ""))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
