"""tests/byte_battery.py --compare: the verdict a byte-identity claim rests on.

The manifests here are written by hand; writing a real one runs every
battery command (about 10 s), which tier-1 leaves to the change that
claims byte identity.  Of --manifest --rev, tier-1 tests the export of the
revision's tree.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from byte_battery import ROOT, export

BATTERY = Path(__file__).resolve().parent / "byte_battery.py"

MANIFEST = {
    "simulate/quench/series.csv": "0" * 64,
    "verify/0/verify_all.json": "1" * 64,
    "sweep/sweep.csv": "2" * 64,
}


def compare(tmp_path, a: dict, b: dict):
    paths = []
    for name, manifest in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(manifest), encoding="utf-8")
    return subprocess.run([sys.executable, str(BATTERY), "--compare", *map(str, paths)], capture_output=True, text=True, timeout=60)


def test_compare_passes_identical_manifests(tmp_path):
    done = compare(tmp_path, MANIFEST, dict(MANIFEST))
    assert done.returncode == 0 and "0 of 3 files differ" in done.stdout


def test_compare_flags_the_one_edited_entry(tmp_path):
    edited = dict(MANIFEST, **{"verify/0/verify_all.json": "3" * 64})
    done = compare(tmp_path, MANIFEST, edited)
    assert done.returncode == 1
    assert done.stdout.splitlines()[:-1] == ["differs: verify/0/verify_all.json"]


def test_compare_flags_a_file_only_one_manifest_holds(tmp_path):
    fewer = {name: digest for name, digest in MANIFEST.items() if name != "sweep/sweep.csv"}
    done = compare(tmp_path, fewer, MANIFEST)
    assert done.returncode == 1 and done.stdout.splitlines()[:-1] == ["differs: sweep/sweep.csv"]


def test_export_writes_the_tree_of_the_revision(tmp_path):
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-tree", "-r", "HEAD"], capture_output=True, text=True)
    if listed.returncode != 0:
        pytest.skip("not a git checkout")
    blobs = {}  # path: git's blob id of the file's bytes
    for line in listed.stdout.splitlines():
        meta, _, path = line.partition("\t")
        blobs[path] = meta.split()[2]
    export("HEAD", tmp_path)
    exported = {}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            exported[path.relative_to(tmp_path).as_posix()] = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
    assert exported == blobs
