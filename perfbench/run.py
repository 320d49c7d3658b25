"""Benchmark for polyproj: one workload per process, one thread, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pairs-certify --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout.  One caller runs
the ops back to back: op i+1 starts only when op i returns.  Each op is
timed on its own; bookkeeping and the correctness checks between ops are
not timed.  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` the same workload runs
once untraced and once traced, and the JSON holds the per-layer metrics.
A full record (environment, sample counts, metrics and, when traced,
the first spans) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from array import array
from functools import partial
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

SETUP_REPEATS = 5
WARMUP_SECONDS = 1.0
# p90 needs at least ten samples beyond it.
MIN_OPS = 100
CHECK_BATCH = 64
# Ops are grouped into segments of at least this much timed op work,
# with a probe of the host between segments; latency metrics use the
# segments whose probes were fastest.
SEGMENT_NS = 20_000_000
KEEP_FRACTION = 0.25
PROBE_DOTS = 200
# No timed run lasts longer than this, so a traced run (two timed runs)
# still ends well within three minutes.
MAX_RUN_S = 75.0


def import_polyproj():
    """Import every polyproj module afresh and return them as a namespace."""
    for name in [m for m in sys.modules if m == "polyproj" or m.startswith("polyproj.")]:
        del sys.modules[name]
    from tracer import LAYERS

    lib = SimpleNamespace(
        **{layer: importlib.import_module(f"polyproj.{layer}") for layer in LAYERS}
    )
    if not lib.linalg.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"polyproj was imported from {lib.linalg.__file__}, not from src/")
    return lib


def probe(x=np.arange(8.0)):
    """Time a fixed reference kernel, in ns: how fast the host runs now."""
    for _ in range(50):
        float(np.dot(x, x))
    start = perf_counter_ns()
    for _ in range(PROBE_DOTS):
        float(np.dot(x, x))
    return perf_counter_ns() - start


class Ops:
    """Outcome of one measured run: every op's latency, the segments and
    their probe scores, and the failures."""

    def __init__(self):
        self.latencies = array("q")
        self.total_ns = 0
        # (score_ns, first op, end op) per segment
        self.segments: list[tuple[int, int, int]] = []
        self.failed = 0
        self._reported: set[str] = set()

    @property
    def count(self):
        return len(self.latencies)

    def report_once(self, kind, i):
        """Print the first traceback of each kind of failure."""
        if kind not in self._reported:
            self._reported.add(kind)
            print(f"perfbench: {kind} {i} raised:\n{traceback.format_exc()}", file=sys.stderr)


def run_ops(workload, seconds, min_ops, call, wall_s):
    """Run ops until ``seconds`` of timed work are done and ``min_ops`` ops
    have run, or until ``wall_s`` seconds of wall time have passed.

    Closes a segment after each ``SEGMENT_NS`` of op work and probes the
    host between segments, outside the timed region.  Counts the ops that
    raised or failed the workload's check.
    """
    ops = Ops()
    pending = []
    limit = seconds * 1e9
    deadline = perf_counter() + wall_s
    last_probe = probe()
    first = segment_ns = 0
    i = 0
    while (ops.total_ns < limit or ops.count < min_ops) and perf_counter() < deadline:
        args = workload.args(i)
        start = perf_counter_ns()
        try:
            out = call(args)
        except Exception:
            out = _RAISED
            ops.report_once("op", i)
        elapsed = perf_counter_ns() - start
        ops.latencies.append(elapsed)
        ops.total_ns += elapsed
        segment_ns += elapsed
        pending.append((i, args, out))
        i += 1
        if segment_ns >= SEGMENT_NS:
            reading = probe()
            ops.segments.append((max(last_probe, reading), first, i))
            last_probe, first, segment_ns = reading, i, 0
        if len(pending) >= CHECK_BATCH:
            _check(workload, pending, ops)
    if first < i:
        ops.segments.append((max(last_probe, probe()), first, i))
    _check(workload, pending, ops)
    return ops


_RAISED = object()


def _check(workload, pending, ops):
    """Run the workload's check on each pending op; count the failures."""
    for i, args, out in pending:
        if out is _RAISED:
            ops.failed += 1
            continue
        try:
            ok = workload.check(i, args, out)
        except Exception:
            ok = False
            ops.report_once("check of op", i)
        ops.failed += not ok
    pending.clear()


def warm_up(workload, call):
    """Run ops for ``WARMUP_SECONDS`` untimed; return their mean latency in s."""
    warm = run_ops(workload, WARMUP_SECONDS, 2, call, 1.5 * WARMUP_SECONDS + 5)
    return warm.total_ns / warm.count / 1e9


def measure(workload, seconds, call, warm_s):
    """Run the timed ops and the workload's final gate.

    The wall-time cap leaves room for ``MIN_OPS`` ops at twice the
    warm-up latency, up to ``MAX_RUN_S``.
    """
    wall_s = min(MAX_RUN_S, max(1.5 * seconds + 5, 2 * MIN_OPS * warm_s))
    gc.collect()
    ops = run_ops(workload, seconds, MIN_OPS, call, wall_s)
    if ops.count < MIN_OPS:
        print(
            f"perfbench: only {ops.count} ops in {wall_s:.0f} s, fewer than {MIN_OPS};"
            " op_p90_us has fewer than ten samples beyond it",
            file=sys.stderr,
        )
    _finish(workload, ops)
    return ops


def _finish(workload, ops):
    if not workload.finish():
        ops.failed = min(ops.failed + 1, ops.count)
        print("perfbench: final gate failed", file=sys.stderr)


def kept_latencies(ops):
    """The latencies the metrics use, in ns.

    On a shared host the same code runs up to 1.8 times slower for
    seconds to minutes at a time while other tenants load the machine.
    A segment's score is the slower of the probes before and after it.
    The metrics use the ops of the quarter of the segments with the
    fastest scores, and of further segments in score order until they
    hold ``MIN_OPS`` ops.  The score never looks at the ops' own
    latencies, so the choice picks quiet periods of the host, not cheap
    inputs.
    """
    lat = np.frombuffer(ops.latencies, dtype=np.int64)
    ranked = sorted(ops.segments)
    quarter = math.ceil(len(ranked) * KEEP_FRACTION)
    kept, count = [], 0
    for k, (_, first, end) in enumerate(ranked):
        if k >= quarter and count >= MIN_OPS:
            break
        kept.append(lat[first:end])
        count += end - first
    return np.concatenate(kept)


def summarize(ops):
    """Latency statistics over the kept ops, and the mean over every op."""
    kept = kept_latencies(ops).astype(float)
    return {
        "ops": ops.count,
        "segments": len(ops.segments),
        "kept_ops": len(kept),
        "timed_s": ops.total_ns / 1e9,
        "all_mean_us": ops.total_ns / ops.count / 1e3,
        "mean_us": float(kept.mean()) / 1e3,
        "p50_us": float(np.percentile(kept, 50)) / 1e3,
        "p90_us": float(np.percentile(kept, 90)) / 1e3,
    }


def set_up(workload_cls, seed, scratch):
    """Import polyproj and build the workload's inputs several times.

    Returns the last namespace and workload, and the time of each repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = import_polyproj()
        workload = workload_cls(lib, seed, scratch)
        times.append(perf_counter() - start)
    return lib, workload, times


def setup_median(times):
    """Median of the faster half of the set-up repeats.

    Every repeat does the same work on the same inputs, and load from
    other tenants only ever slows a repeat, so the slower half is dropped.
    """
    return statistics.median(sorted(times)[: max(1, len(times) // 2)])


def environment(args):
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "polyproj")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def git_sha():
    """The checkout's commit, read from .git without running git; None if absent."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "polyproj", "__init__.py")):
        print(f"perfbench: no polyproj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    try:
        return run(args, WORKLOADS[args.workload], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, workload_cls, scratch):
    lib, workload, setups = set_up(workload_cls, args.seed, scratch)
    ops = measure(workload, args.seconds, workload.op, warm_up(workload, workload.op))
    plain = summarize(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Half the set-up repeats run after the timed run, so a burst of host
    # load at start-up does not decide setup_s alone.  The run's inputs are
    # freed first, so those repeats start from the same heap.
    del workload
    gc.collect()
    lib, _, more = set_up(workload_cls, args.seed, scratch)
    setups += more
    setup_s = setup_median(setups)
    attempted, failed = ops.count, ops.failed
    record = {
        "meta": environment(args),
        "setup_times_s": setups,
        "untraced": plain,
    }

    if args.trace:
        metrics, traced = traced_run(args, workload_cls, lib, scratch, plain, record)
        attempted += traced.count
        failed += traced.failed
    else:
        metrics = {
            "ops_per_s": (1e6 / plain["mean_us"], "1/s"),
            "op_p50_us": (plain["p50_us"], "us"),
            "op_p90_us": (plain["p90_us"], "us"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    record["attempted"] = attempted
    record["failed"] = failed
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    meta = record["meta"]
    print(
        f"# {meta['workload']} seed={meta['seed']} seconds={meta['seconds']} trace={meta['trace']}"
        f" python={meta['python']} numpy={meta['numpy']} nproc={meta['nproc']}"
        f" git={meta['git_sha']} src={meta['src_sha256'][:12]}"
    )
    short = "" if plain["ops"] >= MIN_OPS else f" (fewer than {MIN_OPS}: op_p90_us is unreliable)"
    print(
        f"# samples={plain['kept_ops']} of {plain['ops']} timed ops{short},"
        f" kept from the fastest of {plain['segments']} segments;"
        f" attempted={attempted} failed={failed} failed_frac={failed / attempted:.6g}"
        f" record={os.path.relpath(path, ROOT)}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def traced_run(args, workload_cls, lib, scratch, plain, record):
    """Run the workload again with every layer wrapped; return per-layer metrics."""
    from tracer import Tracer, span_cost_ns

    span_ns = span_cost_ns()
    tracer = Tracer()
    tracer.install()
    try:
        warm = workload_cls(lib, args.seed, scratch)
        warm_s = warm_up(warm, partial(tracer.root, "op", warm.op))
        tracer.reset()
        workload = tracer.root("setup", workload_cls, lib, args.seed, scratch)
        ops = measure(workload, args.seconds, partial(tracer.root, "op", workload.op), warm_s)
    finally:
        tracer.uninstall()
    traced = summarize(ops)
    metrics = tracer.metrics()
    metrics.update(workload.extra_metrics())
    metrics.setdefault("cli.bytes_written", (0.0, "B"))
    metrics["trace.overhead_frac"] = (traced["all_mean_us"] / plain["all_mean_us"] - 1.0, "ratio")
    metrics["trace.span_cost_us"] = (span_ns / 1e3, "us")
    # The traced op time, less the calibrated cost of every wrapper it ran,
    # against the untraced time of as many ops: 1 when the layers' and the
    # benchmark's self times account for the untraced op time.
    op_roots = tracer.roots["op"]
    untraced_ns = op_roots.count * plain["all_mean_us"] * 1e3
    accounted_ns = op_roots.total_ns - op_roots.spans * span_ns
    metrics["trace.accounted_frac"] = (accounted_ns / untraced_ns, "ratio")
    record["traced"] = traced
    record["spans"] = tracer.spans
    return metrics, ops


if __name__ == "__main__":
    sys.exit(main())
