"""Run `simulate` on a shipped config the way the golden files were written.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/golden_run.py CONFIG OUTDIR [--shipped-tol] [--scale-E X] [--wrong-K2]
        [--shift-theta2 X] [--scale-march X]

CONFIG is a file name in configs/.  The run overrides the config's tol with
GOLDEN_TOL = 1e-10, a hundred times under the shipped configs' 1e-8 and
1e-9, so that the files pin the fixed point the Gamma and Picard iterations
converge to and not their unconverged remainder; --shipped-tol keeps the
config's own tol instead.  OUTDIR receives the series.csv and
snapshots.csv that `gapflow simulate` writes, and mass_terms.csv: per series
row the time, int w u dx and the boundary flux [w^3 u u_x]_0^1, the terms the
mass-balance residual is formed from (tests/test_golden.py compares that
residual against their size).

Re-pinning the golden files is this script with OUTDIR tests/golden
(reference.ini) or tests/golden/quench (quench.ini), run with the pools
pinned to one thread as above.

--scale-E X wraps reynolds._propagator(matrix, dt), which each Gamma chunk
calls once to build its pressure propagator, and multiplies its
E = exp(dt P*) by 1 + X; on both shipped configs that is the E of the eigen
route, which no P* of theirs leaves for the augmented expm.  --wrong-K2
replaces its K2 = dt phi_2(dt P*) by K1/2.  --shift-theta2 X
wraps reynolds.run_coupled and adds X to the min_w column of the report it
returns (the refined minimum of w~ plus theta2), as if theta2 were shifted
there and nowhere else.  --scale-march X wraps spectral.duhamel_sweep where
the plate solve (dispersive.picard_dispersive) calls it and multiplies the
(v, w) of every plate march by 1 + X.  These exist to show which changes the
golden comparison lets through and which it catches.
"""

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TOL = 1e-10


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("outdir")
    parser.add_argument("--shipped-tol", action="store_true")
    parser.add_argument("--scale-E", type=float, default=0.0)
    parser.add_argument("--wrong-K2", action="store_true")
    parser.add_argument("--shift-theta2", type=float, default=0.0)
    parser.add_argument("--scale-march", type=float, default=0.0)
    args = parser.parse_args(argv)

    from gapflow import cli
    from gapflow import dispersive as dp
    from gapflow import reynolds as ry

    if args.scale_E or args.wrong_K2:
        exact = ry._propagator

        def perturbed(matrix, dt):
            E, K1, K2 = exact(matrix, dt)
            return E * (1.0 + args.scale_E), K1, 0.5 * K1 if args.wrong_K2 else K2

        ry._propagator = perturbed

    if args.scale_march:
        march = dp.duhamel_sweep

        def scaled(*march_args):
            v, w = march(*march_args)
            return v * (1.0 + args.scale_march), w * (1.0 + args.scale_march)

        dp.duhamel_sweep = scaled

    if args.shift_theta2:
        run = ry.run_coupled

        def shifted(*run_args, **kwargs):
            report = run(*run_args, **kwargs)
            report.series["min_w"] = report.series["min_w"] + args.shift_theta2
            return report

        ry.run_coupled = shifted

    cfg = cli._load_config(str(ROOT / "configs" / args.config))
    if not args.shipped_tol:
        cfg = replace(cfg, tol=GOLDEN_TOL)
    os.makedirs(args.outdir, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        record = cli.cmd_simulate(cfg, out=tmp, quiet=True)
        for name in ("series.csv", "snapshots.csv"):
            shutil.copyfile(os.path.join(tmp, name), os.path.join(args.outdir, name))
    ts, mass, flux = ry.mass_balance_terms(record.report.trajectory, cfg.model_params())
    with open(os.path.join(args.outdir, "mass_terms.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,mass,flux\n")
        for row in zip(ts, mass, flux):
            fh.write(",".join(cli._fmt(x) for x in row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
