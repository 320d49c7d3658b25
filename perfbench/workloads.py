"""The benchmark's workloads: seeded inputs, the timed op, and its check.

Each workload is built from a namespace of freshly imported ``polyproj``
modules and a seed; building it is the set-up that ``setup_s`` times.
``args(i)`` prepares op ``i`` outside the timed region from input
``i % pool_size``, ``op(args)`` is the timed call, and
``check(i, args, out)`` is the untimed correctness gate.  Every op calls
the library through module attributes at call time, so the tracer's
wrappers see it.

All workloads run at d = 5, where the cost of a call is per-call
overhead rather than arithmetic.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

DIM = 5

# Golden-ratio step of the Kronecker sequence used to spread 1 - gamma
# evenly over its band in every prefix of the pool.
_GOLDEN = 0.6180339887498949


class _Workload:
    """Defaults for the hooks most workloads do not need."""

    def finish(self):
        """Final gate after the timed run; True when it passes."""
        return True

    def extra_metrics(self):
        """Per-layer metrics that only the workload can count."""
        return {}


class _Pooled(_Workload):
    """Inputs are a fixed pool, cycled."""

    def args(self, i):
        return self.pool[i % len(self.pool)]


class PairsCertify(_Pooled):
    """Closed-form projection of one point, certified with ``kkt_check``.

    Equal thirds of halfspace pairs (the generator's documented case
    mix), hyperplane+halfspace pairs, and 4-plane hyperplane systems.
    The oracle is the reference in the untimed check only.
    """

    name = "pairs-certify"
    pool_size = 1500

    def __init__(self, lib, seed, scratch):
        self.lib = lib
        self.tol = lib.sets.MEMBERSHIP_TOL
        gen = lib.instances
        rng = np.random.default_rng(seed)
        self.pool = []
        for j in range(self.pool_size):
            family = j % 3
            if family == 0:
                sets = list(gen.random_halfspace_pair(rng, DIM))
            elif family == 1:
                sets = list(gen.random_hyperplane_halfspace(rng, DIM))
            else:
                sets = gen.random_hyperplane_system(rng, DIM, num_planes=4)
            self.pool.append((family, sets, gen.random_point(rng, DIM)))
        self.reference = [None] * self.pool_size

    def op(self, item):
        family, sets, x = item
        closed_form, oracle = self.lib.closed_form, self.lib.oracle
        if family == 0:
            w1, w2 = sets
            bd = closed_form.project_halfspace_pair(w1, w2, x)
            if bd.case == "merged_halfspace":
                # certified the way `polyproj project --method closed_form` does it
                merged_eta = min(
                    w1.eta * float(np.linalg.norm(w2.u)),
                    w2.eta * float(np.linalg.norm(w1.u)),
                )
                merged = [self.lib.sets.Halfspace(bd.normals[0], merged_eta)]
                cert = oracle.kkt_check(merged, x, bd.point, bd.coefficients, [], self.tol)
            else:
                cert = oracle.kkt_check(sets, x, bd.point, bd.coefficients, [], self.tol)
        elif family == 1:
            bd = closed_form.project_hyperplane_halfspace(sets[0], sets[1], x)
            cert = oracle.kkt_check(
                sets, x, bd.point, [bd.coefficients[1]], [bd.coefficients[0]], self.tol
            )
        else:
            bd = closed_form.project_hyperplanes(sets, x)
            cert = oracle.kkt_check(sets, x, bd.point, [], bd.coefficients, self.tol)
        return bd.point, cert.valid

    def check(self, i, item, out):
        point, valid = out
        slot = i % self.pool_size
        if self.reference[slot] is None:
            _, sets, x = item
            self.reference[slot] = self.lib.oracle.oracle_project(sets, x).point
        return bool(valid) and float(np.linalg.norm(point - self.reference[slot])) <= 1e-9


class OracleEnum(_Pooled):
    """One ``oracle_project`` call onto one hyperplane and 8 halfspaces.

    Every instance is built around a seeded anchor point that lies on
    the hyperplane and inside every halfspace, so none is empty.  The
    enumeration visits 2^8 active sets per call.
    """

    name = "oracle-enum"
    pool_size = 256
    num_halfspaces = 8

    def __init__(self, lib, seed, scratch):
        self.lib = lib
        gen, sets_mod = lib.instances, lib.sets
        rng = np.random.default_rng(seed)
        self.pool = []
        for _ in range(self.pool_size):
            anchor = gen.random_point(rng, DIM, scale=1.0)
            u = gen.unit_vector(rng, DIM)
            sets = [sets_mod.Hyperplane(u, float(np.dot(u, anchor)))]
            for _ in range(self.num_halfspaces):
                u = gen.unit_vector(rng, DIM)
                slack = float(rng.uniform(0.0, 1.0))
                sets.append(sets_mod.Halfspace(u, float(np.dot(u, anchor)) + slack))
            self.pool.append((sets, anchor + gen.random_point(rng, DIM)))

    def op(self, item):
        sets, x = item
        return self.lib.oracle.oracle_project(sets, x)

    def check(self, i, item, out):
        sets, x = item
        point, cert = out
        recheck = self.lib.oracle.kkt_check(sets, x, point, cert.lam, cert.beta, cert.tol)
        return bool(cert.valid) and recheck.valid


class ExperimentSweep(_Workload):
    """One in-process ``polyproj experiment`` run with dim 5, 25 trials, k_max 50.

    The config seed of op ``i`` is entry ``i % pool_size`` of a list drawn
    from the workload seed; each op writes its CSV files and
    ``summary.json`` to its own directory under the run's scratch
    directory.
    """

    name = "experiment-sweep"
    pool_size = 4096

    def __init__(self, lib, seed, scratch):
        self.lib = lib
        self.scratch = scratch
        self.seeds = np.random.default_rng(seed).integers(0, 2**31, size=self.pool_size)
        self.bytes_written = 0
        self.checked = 0

    def _paths(self, i, tag="op"):
        base = os.path.join(self.scratch, f"{tag}{i}")
        return base + ".json", base

    def args(self, i):
        config_path, out_dir = self._paths(i)
        config = {"seed": int(self.seeds[i % self.pool_size]), "dim": DIM, "trials": 25, "k_max": 50}
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return ["experiment", "--config", config_path, "--out", out_dir]

    def op(self, argv):
        sink = _CountingSink()
        stdout = sys.stdout
        sys.stdout = sink
        try:
            code = self.lib.cli.main(argv)
        finally:
            sys.stdout = stdout
        return code, sink.count

    def _read_outputs(self, out_dir):
        files = {}
        for name in ("rates.csv", "exactness.csv", "dykstra.csv", "summary.json"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
        return files

    def check(self, i, argv, out):
        code, stdout_bytes = out
        out_dir = argv[-1]
        try:
            if code != 0:
                return False
            files = self._read_outputs(out_dir)
            self.bytes_written += stdout_bytes + sum(len(b) for b in files.values())
            self.checked += 1
            return json.loads(files["summary.json"])["all_ok"] is True
        finally:
            # op 0 is kept for the byte-identity gate in finish()
            if i != 0:
                shutil.rmtree(out_dir, ignore_errors=True)
                os.remove(argv[2])

    def finish(self):
        """Re-run op 0's config and require byte-identical files."""
        config_path, first_dir = self._paths(0)
        _, rerun_dir = self._paths(0, tag="rerun")
        argv = ["experiment", "--config", config_path, "--out", rerun_dir]
        code, _ = self.op(argv)
        same = code == 0 and self._read_outputs(first_dir) == self._read_outputs(rerun_dir)
        shutil.rmtree(rerun_dir, ignore_errors=True)
        return same

    def extra_metrics(self):
        per_call = self.bytes_written / self.checked if self.checked else 0.0
        return {"cli.bytes_written": (per_call, "B")}


class DykstraConverge(_Pooled):
    """One ``dykstra(sets, x)`` call with default settings.

    Halfspace pairs and hyperplane+halfspace pairs alternate.  1 - gamma
    is log-uniform on [1e-4, 1e-1]; its positions follow a Kronecker
    sequence from a seeded offset, so every prefix of the pool covers
    the band evenly.  Each point is built as p + l1 u1 + l2 u2 with both
    multipliers positive, so both constraints are active at the
    projection p.  An op is correct within 1e-6 of the closed form.
    """

    name = "dykstra-converge"
    pool_size = 256

    def __init__(self, lib, seed, scratch):
        self.lib = lib
        gen, sets_mod = lib.instances, lib.sets
        rng = np.random.default_rng(seed)
        offset = float(rng.uniform())
        self.pool = []
        for j in range(self.pool_size):
            gap = 10.0 ** (-4.0 + 3.0 * ((offset + j * _GOLDEN) % 1.0))
            cosine = (1.0 - gap) * (1.0 if rng.uniform() < 0.5 else -1.0)
            u1 = gen.unit_vector(rng, DIM)
            w = gen.unit_vector(rng, DIM)
            w = w - float(np.dot(w, u1)) * u1
            w /= float(np.linalg.norm(w))
            u2 = cosine * u1 + np.sqrt(1.0 - cosine * cosine) * w
            p = gen.random_point(rng, DIM, scale=1.0)
            l1, l2 = rng.uniform(0.5, 2.0, size=2)
            first = sets_mod.Halfspace if j % 2 == 0 else sets_mod.Hyperplane
            sets = [first(u1, float(np.dot(u1, p))), sets_mod.Halfspace(u2, float(np.dot(u2, p)))]
            self.pool.append((sets, p + l1 * u1 + l2 * u2))
        self.reference = [None] * self.pool_size

    def op(self, item):
        sets, x = item
        return self.lib.iterate.dykstra(sets, x).final

    def check(self, i, item, out):
        slot = i % self.pool_size
        if self.reference[slot] is None:
            (s1, s2), x = item
            closed_form = self.lib.closed_form
            if s1.kind == "halfspace":
                self.reference[slot] = closed_form.project_halfspace_pair(s1, s2, x).point
            else:
                self.reference[slot] = closed_form.project_hyperplane_halfspace(s1, s2, x).point
        return float(np.linalg.norm(out - self.reference[slot])) <= 1e-6


class _CountingSink:
    """Stand-in for stdout that discards text and counts its bytes."""

    def __init__(self):
        self.count = 0

    def write(self, text):
        self.count += len(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


WORKLOADS = {w.name: w for w in (PairsCertify, OracleEnum, ExperimentSweep, DykstraConverge)}
