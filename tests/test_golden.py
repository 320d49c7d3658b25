"""Byte-identity gate: the CLI's outputs for fixed seeds, as SHA-256 digests.

Every case runs ``cli.main`` in process and hashes its exit code, its
stdout and every file it writes.  ``golden.json`` holds one digest per
case, taken once from a known-good tree, with the numpy version and the
BLAS library they were taken under; under another numpy or BLAS the
tests skip, naming both, since the last bits of a dot product may move.

The cases:

* ``experiment`` on seeds {1, 2, 3, 7, 11, 12345} x dims {2, 3, 5, 9} x
  {no filter and the four ``BehaviorTag`` filters} x (trials, k_max) in
  {(40, 50), (1, 3), (0, 50), (7, 200)}: 480 configs;
* ``generate`` on seeds {1, 2, 3, 7, 11} x dims {2, 3, 5} x the three
  kinds;
* ``project`` with each method on every point of those instances.

``python tests/test_golden.py --write`` rewrites the manifest; a digest
that moves is a changed output, to be explained, not rewritten.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from polyproj import cli
from polyproj.iterate import BehaviorTag

MANIFEST = Path(__file__).with_name("golden.json")

EXPERIMENT_SEEDS = (1, 2, 3, 7, 11, 12345)
EXPERIMENT_DIMS = (2, 3, 5, 9)
EXPERIMENT_FILTERS = (None, *(t.value for t in BehaviorTag))
EXPERIMENT_SIZES = ((40, 50), (1, 3), (0, 50), (7, 200))

GENERATE_SEEDS = (1, 2, 3, 7, 11)
GENERATE_DIMS = (2, 3, 5)
KINDS = ("pair_halfspace", "hyperplane_halfspace", "hyperplane_system")
METHODS = ("closed_form", "oracle", "dykstra")


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config and has no dict mode
        return "unknown"


def _run(argv, out_dir: Path | None = None) -> str:
    """SHA-256 of the exit code, stdout and every file in ``out_dir`` after ``cli.main(argv)``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    h = hashlib.sha256(f"exit {code}\n".encode())
    h.update(stdout.getvalue().encode())
    if out_dir is not None:
        for path in sorted(out_dir.iterdir()):
            h.update(f"\nfile {path.name}\n".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def experiment_digests(work: Path) -> dict[str, str]:
    digests = {}
    for seed in EXPERIMENT_SEEDS:
        for dim in EXPERIMENT_DIMS:
            for case_filter in EXPERIMENT_FILTERS:
                for trials, k_max in EXPERIMENT_SIZES:
                    name = f"experiment/{seed}/{dim}/{case_filter}/{trials}/{k_max}"
                    case = work / name.replace("/", "_")
                    case.mkdir()
                    config = case / "config.json"
                    config.write_text(json.dumps(
                        {"seed": seed, "dim": dim, "trials": trials,
                         "case_filter": case_filter, "k_max": k_max}
                    ))
                    out = case / "out"
                    digests[name] = _run(["experiment", "--config", str(config), "--out", str(out)], out)
    return digests


def _instance_path(work: Path, seed, dim, kind) -> Path:
    return work / f"instance_{seed}_{dim}_{kind}.json"


def generate_digests(work: Path) -> dict[str, str]:
    digests = {}
    for seed in GENERATE_SEEDS:
        for dim in GENERATE_DIMS:
            for kind in KINDS:
                out = work / f"generate_{seed}_{dim}_{kind}"
                out.mkdir()
                argv = ["generate", "--seed", str(seed), "--dim", str(dim), "--kind", kind,
                        "--out", str(out / "instance.json")]
                digests[f"generate/{seed}/{dim}/{kind}"] = _run(argv, out)
                _instance_path(work, seed, dim, kind).write_bytes((out / "instance.json").read_bytes())
    return digests


def project_digests(work: Path) -> dict[str, str]:
    """Digests of ``project``; reads the instances :func:`generate_digests` wrote to ``work``."""
    digests = {}
    for seed in GENERATE_SEEDS:
        for dim in GENERATE_DIMS:
            for kind in KINDS:
                path = _instance_path(work, seed, dim, kind)
                for point in range(len(json.loads(path.read_text())["points"])):
                    for method in METHODS:
                        argv = ["project", "--instance", str(path), "--point", str(point),
                                "--method", method]
                        digests[f"project/{seed}/{dim}/{kind}/{point}/{method}"] = _run(argv)
    return digests


@pytest.fixture(scope="module")
def manifest():
    data = json.loads(MANIFEST.read_text())
    here = (np.__version__, blas_name())
    taken = (data["numpy"], data["blas"])
    if here != taken:
        pytest.skip(f"digests were taken under numpy {taken[0]} with {taken[1]}; "
                    f"this is numpy {here[0]} with {here[1]}")
    return data["digests"]


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("POLYPROJ_TOL", raising=False)


def _assert_digests(expected: dict, got: dict):
    wanted = {k: v for k, v in expected.items() if k.split("/")[0] == next(iter(got)).split("/")[0]}
    assert got.keys() == wanted.keys()
    moved = sorted(k for k in got if got[k] != wanted[k])
    assert not moved, f"{len(moved)} of {len(got)} cases changed bytes, first: {moved[:5]}"


def test_experiment_bytes(manifest, clean_env, tmp_path):
    _assert_digests(manifest, experiment_digests(tmp_path))


def test_generate_and_project_bytes(manifest, clean_env, tmp_path):
    _assert_digests(manifest, generate_digests(tmp_path))
    _assert_digests(manifest, project_digests(tmp_path))


def _write_manifest(work: Path) -> None:
    os.environ.pop("POLYPROJ_TOL", None)
    digests = {**experiment_digests(work), **generate_digests(work), **project_digests(work)}
    data = {"numpy": np.__version__, "blas": blas_name(), "digests": digests}
    MANIFEST.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_manifest(Path(tmp))
