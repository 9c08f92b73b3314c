"""Recompute the two cross-route quench times and write quench_reference.json.

    python3 perfbench/reference.py

Runs the production driver (``cli.cmd_simulate`` on configs/quench.ini) and
the RK4 oracle exactly as the oracle workload does, from the checkout's
source.  The quench workload checks its quench time against the oracle's
value in this file and the oracle workload against the driver's, so neither
has to run the other route.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

run._import_program()
import workloads  # noqa: E402
from gapflow import cli  # noqa: E402


def main() -> int:
    _, cfg = workloads.quench_config(run.ROOT)
    with tempfile.TemporaryDirectory(dir=run.HERE) as out:
        driver = cli.cmd_simulate(cfg, out=out, quiet=True).report.quench_time
    oracle, _ = workloads.oracle_run(cfg)
    if driver is None or oracle is None:
        print(f"no quench: driver {driver!r}, oracle {oracle!r}", file=sys.stderr)
        return 1
    payload = {
        "command": "python3 perfbench/reference.py",
        "config": "configs/quench.ini",
        "driver_quench_time": driver,
        "oracle_quench_time": oracle,
        "oracle_dt": workloads.oracle_dt(cfg.k_max),
        "relative_gap": workloads.rel_gap(driver, oracle),
    }
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
