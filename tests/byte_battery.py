"""Byte-identity battery: the SHA-256 of every file the deterministic commands write.

    python tests/byte_battery.py --manifest OUT.json [--seeds 0-39] [--repo DIR | --rev REV]
    python tests/byte_battery.py --compare A.json B.json

--manifest runs these commands with the gapflow of DIR/src (default: the
checkout that holds this script), in one child process whose BLAS pools are
pinned to one thread, and writes OUT.json, a map from each output file to
its SHA-256.  With --rev, DIR is a temporary export (git archive) of the
revision REV of the checkout that holds this script.  The commands:

- `gapflow simulate` on each config of DIR/configs (simulate/<config>/);
- `gapflow simulate` on a copy of each config whose run.T is auto, the
  horizon T0 of the theory constants (simulate/<config>_auto/);
- `gapflow verify --suite all --seed S` for each seed S (verify/<S>/);
- `gapflow sweep --jobs 2` on the n = 256 grid of
  DIR/perfbench/workloads.py's sweep_config_text (sweep/).

Each command's directory also holds its exit code, so a verdict that flips
shows as a changed file.  --seeds takes a range A-B, a comma list, or both
(0-3,7).

--compare lists the files whose hashes differ or that only one manifest
holds, and exits 1 if there are any.  A change that claims byte identity
with its parent writes one manifest of the parent (--rev HEAD~1, say) and
one of its own working tree, and compares the two.
"""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_N = 256
SWEEP_JOBS = 2
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_commands(repo: Path, outdir: Path, seeds: list) -> None:
    """The battery's commands, in this process, each writing under outdir."""
    sys.path[:0] = [str(repo / "src"), str(repo / "perfbench")]
    from gapflow import cli
    from workloads import sweep_config_text

    sweep_config = outdir / "sweep.ini"
    sweep_config.write_text(sweep_config_text(SWEEP_N), encoding="utf-8")
    configs = sorted((repo / "configs").glob("*.ini"))
    commands = {f"simulate/{config.stem}": ["simulate", "--config", str(config)] for config in configs}
    for config in configs:
        text, count = re.subn(r"(?m)^T\s*=.*$", "T = auto", config.read_text(encoding="utf-8"))
        if count != 1:
            raise ValueError(f"{config.name}: expected one run.T line, found {count}")
        auto = outdir / f"{config.stem}_auto.ini"
        auto.write_text(text, encoding="utf-8")
        commands[f"simulate/{config.stem}_auto"] = ["simulate", "--config", str(auto)]
    commands.update({f"verify/{seed}": ["verify", "--suite", "all", "--seed", str(seed)] for seed in seeds})
    commands["sweep"] = ["sweep", "--config", str(sweep_config), "--jobs", str(SWEEP_JOBS)]
    for name, argv in commands.items():
        out = outdir / name
        out.mkdir(parents=True)
        code = cli.main(argv + ["--out", str(out)])
        (out / "exit_code").write_text(f"{code}\n", encoding="utf-8")
    for config in outdir.glob("*.ini"):  # sweep.ini and the auto copies
        config.unlink()


def manifest(repo: Path, seeds: list) -> dict:
    """{file: sha256} of the battery's outputs, from a child process with pinned BLAS pools."""
    env = dict(os.environ, **{var: "1" for var in PINNED})
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        subprocess.run(
            [sys.executable, __file__, "--run", str(outdir), "--repo", str(repo), "--seeds", ",".join(map(str, seeds))],
            env=env,
            cwd=tmp,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        return {
            path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.rglob("*"))
            if path.is_file()
        }


def export(rev: str, dest: Path) -> None:
    """Write the tree of the git revision rev of this script's checkout into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def differences(a: dict, b: dict) -> list:
    """The files whose hashes differ, or that only one of the manifests holds."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--manifest", metavar="OUT.json")
    mode.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    mode.add_argument("--run", help=argparse.SUPPRESS)  # the child: run the commands into this directory
    parser.add_argument("--seeds", default="0-39")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--repo", default=str(ROOT))
    source.add_argument("--rev", help="a git revision of this checkout, exported to a temporary directory")
    args = parser.parse_args(argv)

    if args.run:
        run_commands(Path(args.repo).resolve(), Path(args.run), parse_seeds(args.seeds))
        return 0
    if args.manifest:
        with tempfile.TemporaryDirectory() as tmp:
            if args.rev:
                export(args.rev, Path(tmp))
            hashes = manifest(Path(tmp) if args.rev else Path(args.repo).resolve(), parse_seeds(args.seeds))
        Path(args.manifest).write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{len(hashes)} files -> {args.manifest}")
        return 0
    a, b = (json.loads(Path(name).read_text(encoding="utf-8")) for name in args.compare)
    differ = differences(a, b)
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
