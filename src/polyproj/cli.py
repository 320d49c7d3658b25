"""Command-line front end: single projections, experiments, generation.

Exit codes: 0 on success, 1 on malformed input or configuration, 2 when
the requested intersection is empty, 3 when the oracle has more
inequality constraints than it enumerates.  Diagnostics go to stderr,
data to stdout or the requested output files.  The environment variable
``POLYPROJ_TOL`` overrides the KKT tolerance that ``project`` certifies
results with (the ``tol`` of the oracle and of ``certify``, which also
checks the closed form's point against the input sets); it is the only
tolerance override.  ``experiment`` judges its rows by fixed
thresholds: ``iterate.RATE_SLACK``, ``EXACTNESS_TOL``,
``sets.MEMBERSHIP_TOL`` (through ``sets.membership_bound``, the rule
``contains`` applies) and ``DYKSTRA_MATCH_TOL``; a config key other than
the five of :class:`ExperimentConfig` is rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .closed_form import certify, project, project_pair_rows
from .errors import EmptySet, PolyprojError, TooManyConstraints
from .instances import (
    generate_instance,
    halfspace_pair,
    hyperplane_halfspace,
    pair_of_normals,
    random_offset,
    random_point,
)
from .iterate import RATE_SLACK, BehaviorTag, dykstra, rate_gamma
from .oracle import KKT_TOL, KktCertificate, oracle_project
from .sets import MEMBERSHIP_TOL, Halfspace, instance_to_dict, load_instance, membership_bound
from .atomic import SetBlock, project_rows
from .linalg import _norm, _row_norms, row_dots


def certificate_tol() -> float:
    """KKT tolerance for ``project``: ``POLYPROJ_TOL`` if set, else ``KKT_TOL``."""
    raw = os.environ.get("POLYPROJ_TOL")
    if raw is None:
        return KKT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"POLYPROJ_TOL must be a number, got {raw!r}") from exc
    if value <= 0:
        raise ValueError("POLYPROJ_TOL must be positive")
    return value


def canonical_json(obj) -> str:
    """Serialize with floats at 17 significant digits, byte-deterministic."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return canonical_json([float(v) for v in obj])
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{canonical_json(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_csv(path, header, rows) -> None:
    """Write comma-separated rows, one per line, with LF line ends.

    Floats get 17 significant digits so they read back exactly; booleans
    are written ``true``/``false``; anything else goes through ``str``.
    Each row shape (the types of its cells) gets one ``%`` template:
    ``"%.17g" % v`` is ``format(v, ".17g")`` for a float, ``"%d"`` is
    ``str`` for an int, and a cell of any other type (bool, numpy
    scalars, subclasses) goes through :func:`_csv_cell`.
    """
    lines = [",".join(header)]
    templates = {}
    for row in rows:
        shape = tuple(map(type, row))
        if shape not in templates:
            others = [i for i, kind in enumerate(shape) if kind not in _CELL_FORMATS]
            templates[shape] = (",".join(_CELL_FORMATS.get(kind, "%s") for kind in shape), others)
        template, others = templates[shape]
        if others:
            row = list(row)
            for i in others:
                row[i] = _csv_cell(row[i])
        lines.append(template % tuple(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_CELL_FORMATS = {float: "%.17g", int: "%d", str: "%s"}


def _csv_cell(value) -> str:
    # bool before float, and isinstance rather than type(): np.float64 is a
    # float subclass and must get 17 digits too
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _certificate_dict(cert: KktCertificate) -> dict:
    return {
        "lambda": [float(v) for v in cert.lam],
        "beta": [float(v) for v in cert.beta],
        "stationarity_residual": cert.stationarity_residual,
        "feasibility_residual": cert.feasibility_residual,
        "complementarity_residual": cert.complementarity_residual,
        "tol": cert.tol,
        "valid": cert.valid,
    }


def _result_dict(point, multipliers, region_or_case, cert: KktCertificate | None) -> dict:
    return {
        "point": [float(v) for v in point],
        "multipliers": None if multipliers is None else [float(v) for v in multipliers],
        "region_or_case": region_or_case,
        "certificate": None if cert is None else _certificate_dict(cert),
    }


def cmd_project(args) -> int:
    inst = load_instance(args.instance)
    if not 0 <= args.point < len(inst.points):
        raise ValueError(f"point index {args.point} out of range")
    x = inst.points[args.point]
    tol = certificate_tol()
    if args.method == "dykstra":
        print(canonical_json(_result_dict(dykstra(inst.sets, x).final, None, None, None)))
        return 0
    if args.method == "closed_form":
        bd = project(inst.sets, x)
        point, cert = bd.point, certify(bd, x, tol)
        region_or_case = bd.case if bd.region is None else bd.region.value
    elif args.method == "oracle":
        (point, cert), region_or_case = oracle_project(inst.sets, x, tol), None
    else:
        raise ValueError(f"unknown method: {args.method!r}")
    # lam follows the halfspaces and beta the hyperplanes; print them in set
    # order, except a merged pair's one multiplier for two sets
    multipliers = [*cert.lam, *cert.beta]
    if len(multipliers) == len(inst.sets):
        lam, beta = iter(cert.lam), iter(cert.beta)
        multipliers = [next(lam if isinstance(s, Halfspace) else beta) for s in inst.sets]
    print(canonical_json(_result_dict(point, multipliers, region_or_case, cert)))
    return 0


def cmd_generate(args) -> int:
    if args.dim < 2:
        raise ValueError("dim must be at least 2")
    inst = generate_instance(args.seed, args.dim, args.kind)
    text = canonical_json(instance_to_dict(inst)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# largest deviation from the closed form that counts as an exact composition
EXACTNESS_TOL = 1e-10

# largest deviation of a Dykstra run from the closed-form pair projection
DYKSTRA_MATCH_TOL = 1e-6

_FILTERS = {t.value for t in BehaviorTag}


@dataclass
class ExperimentConfig:
    """Validated experiment settings; the same seed reproduces the same files."""

    seed: int = 0
    dim: int = 2
    trials: int = 100
    case_filter: str | None = None
    k_max: int = 50

    def __post_init__(self):
        for key in ("seed", "dim", "trials", "k_max"):
            value = getattr(self, key)
            # JSON reads 2.7 as a float and true as a bool, neither of which counts
            if type(value) is not int:
                raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.case_filter is not None and self.case_filter not in _FILTERS:
            raise ValueError(f"unknown case_filter: {self.case_filter!r}")


def _load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    keys = ("seed", "dim", "trials", "case_filter", "k_max")
    for key in raw:
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}; experiment configs accept {', '.join(keys)}")
    return ExperimentConfig(**raw)


def _tally(counts, family, ok) -> None:
    total_ok = counts.setdefault(family, [0, 0])
    total_ok[0] += 1
    total_ok[1] += 1 if ok else 0


def _experiment_rates(rng, config, rows, counts):
    # Draw every trial first, in the per-trial order (the projections and
    # rate_gamma draw nothing), then step all trials together: row i of
    # the point block is trial i.
    dim = config.dim
    drawn = []
    for trial in range(config.trials):
        x = random_point(rng, dim)
        if trial % 2 == 0:
            family = "halfspace_pair_rate"
            first, second = halfspace_pair(rng, dim, "negative")
        else:
            family = "plane_halfspace_rate"
            flavor = "negative" if rng.uniform() < 0.5 else "positive"
            first, second = hyperplane_halfspace(rng, dim, flavor)
        drawn.append((family, rate_gamma(first.u, second.u), first, second, x))
    if not drawn:
        return
    families, gammas, firsts, seconds, points = zip(*drawn)
    first_block, second_block = SetBlock(firsts), SetBlock(seconds)
    current = np.array(points)
    reference = project_pair_rows(first_block, second_block, current)
    bases = _row_norms(current - reference).tolist()
    observed = []
    for _ in range(config.k_max):
        current = project_rows(second_block, project_rows(first_block, current))
        observed.append(_row_norms(current - reference))
    # Python floats, so every ok below is a Python bool: the CSV writer
    # prints an np.bool_ as True, not true
    errors_by_trial = np.stack(observed, axis=1).tolist()
    for trial, (family, gamma, base, errors) in enumerate(
        zip(families, gammas, bases, errors_by_trial)
    ):
        all_ok = True
        for k, observed_error in enumerate(errors, start=1):
            bound = gamma**k * base
            ok = observed_error <= bound + RATE_SLACK
            all_ok = all_ok and ok
            rows.append([trial, gamma, k, observed_error, bound, ok])
        _tally(counts, family, all_ok)


def _experiment_exactness(rng, config, rows, counts, include_exact, include_feasible):
    # Draw every trial first, in the per-trial order.  Each composition
    # row is (trial, family, first set, second set, point, reference
    # row); a _rev row composes its _fwd pair in the other order and
    # shares its closed-form reference, and one_step_feasible has none.
    dim = config.dim
    drawn, ref_pairs = [], []
    for trial in range(config.trials):
        x = random_point(rng, dim)
        if include_exact:
            dependent = "dependent_positive" if rng.uniform() < 0.5 else "dependent_negative"
            for flavor, label in (
                (dependent, "dependent_halfspace_pair"),
                ("orthogonal", "orthogonal_halfspace_pair"),
            ):
                w1, w2 = halfspace_pair(rng, dim, flavor)
                drawn.append((trial, label, w1, w2, x, len(ref_pairs)))
                ref_pairs.append((w1, w2, x))
            for flavor, label in (
                ("dependent_positive", "dependent_plane_halfspace"),
                ("orthogonal", "orthogonal_plane_halfspace"),
            ):
                h1, w2 = hyperplane_halfspace(rng, dim, flavor)
                drawn.append((trial, label + "_fwd", h1, w2, x, len(ref_pairs)))
                drawn.append((trial, label + "_rev", w2, h1, x, len(ref_pairs)))
                ref_pairs.append((h1, w2, x))
        if include_feasible:
            w1, w2 = halfspace_pair(rng, dim, "positive")
            drawn.append((trial, "one_step_feasible", w1, w2, x, None))
    if not drawn:
        return
    trials, families, firsts, seconds, points, ref_rows = zip(*drawn)
    first_block, second_block = SetBlock(firsts), SetBlock(seconds)
    composed = project_rows(second_block, project_rows(first_block, np.array(points)))
    deviations = {}
    if ref_pairs:
        ref_firsts, ref_seconds, ref_points = zip(*ref_pairs)
        references = project_pair_rows(
            SetBlock(ref_firsts), SetBlock(ref_seconds), np.array(ref_points)
        )
        exact = [i for i, r in enumerate(ref_rows) if r is not None]
        misses = composed[exact] - references[[ref_rows[i] for i in exact]]
        deviations = dict(zip(exact, _row_norms(misses).tolist()))
    # one_step_feasible's violation max(<c,u1> - eta1, <c,u2> - eta2, 0.0); it
    # is ok when no gap is above membership_bound, where contains says OUTSIDE
    blocks, norms = (first_block, second_block), _row_norms(composed)
    gaps1, gaps2 = (row_dots(composed, b.u) - b.eta for b in blocks)
    bound1, bound2 = (membership_bound(b.eta, b.norm, norms, MEMBERSHIP_TOL) for b in blocks)
    feasible = ((gaps1 <= bound1) & (gaps2 <= bound2)).tolist()
    gaps1, gaps2 = gaps1.tolist(), gaps2.tolist()
    for i, (trial, family) in enumerate(zip(trials, families)):
        if i in deviations:
            dev = deviations[i]
            ok = dev <= EXACTNESS_TOL
        else:
            dev = max(gaps1[i], gaps2[i], 0.0)
            ok = feasible[i]
        rows.append([trial, family, dev, ok])
        _tally(counts, family, ok)


def _experiment_dykstra(rng, config, rows, counts):
    dim = config.dim
    drawn = []
    for trial in range(config.trials):
        while True:
            flavor = rng.choice(["negative", "positive", "orthogonal"])
            u1, u2 = pair_of_normals(rng, dim, str(flavor))
            # keep the contraction factor away from 1 so the sweep budget
            # always reaches the reported tolerance
            if rate_gamma(u1, u2) <= 0.95:
                break
        w1 = Halfspace(u1, random_offset(rng))
        w2 = Halfspace(u2, random_offset(rng))
        drawn.append((w1, w2, random_point(rng, dim)))
    if not drawn:
        return
    firsts, seconds, points = zip(*drawn)
    references = project_pair_rows(SetBlock(firsts), SetBlock(seconds), np.array(points))
    for trial, (w1, w2, x, reference) in enumerate(zip(firsts, seconds, points, references)):
        trace = dykstra([w1, w2], x, max_sweeps=10_000, tol=1e-12)
        deviation = _norm(trace.final - reference)
        ok = deviation <= DYKSTRA_MATCH_TOL
        rows.append([trial, len(trace.iterates) - 1, deviation, ok])
        _tally(counts, "dykstra_pair", ok)


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    case_filter = config.case_filter

    rate_rows: list = []
    exact_rows: list = []
    dykstra_rows: list = []
    counts: dict[str, list[int]] = {}

    if case_filter in (None, "LinearRateBAM"):
        _experiment_rates(rng, config, rate_rows, counts)
    include_exact = case_filter in (None, "ExactComposition", "ExactBothOrders")
    include_feasible = case_filter in (None, "OneStepFeasible")
    if include_exact or include_feasible:
        _experiment_exactness(rng, config, exact_rows, counts, include_exact, include_feasible)
    if case_filter is None:
        _experiment_dykstra(rng, config, dykstra_rows, counts)

    write_csv(
        os.path.join(out_dir, "rates.csv"),
        ["trial", "gamma", "k", "observed_error", "bound_gamma_pow_k", "ok"],
        rate_rows,
    )
    write_csv(
        os.path.join(out_dir, "exactness.csv"),
        ["trial", "family", "deviation", "ok"],
        exact_rows,
    )
    write_csv(
        os.path.join(out_dir, "dykstra.csv"),
        ["trial", "sweeps", "deviation", "ok"],
        dykstra_rows,
    )

    summary = {
        "seed": config.seed,
        "dim": config.dim,
        "trials": config.trials,
        "case_filter": case_filter,
        "k_max": config.k_max,
        "pass_counts": {
            family: {"total": total, "ok": ok}
            for family, (total, ok) in sorted(counts.items())
        },
        "all_ok": all(total == ok for total, ok in counts.values()),
    }
    text = canonical_json(summary) + "\n"
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyproj",
        description="Projections onto hyperplanes, halfspaces, and their intersections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_project = sub.add_parser("project", help="project one instance point")
    p_project.add_argument("--instance", required=True, help="instance JSON file")
    p_project.add_argument("--point", type=int, default=0, help="point index")
    p_project.add_argument(
        "--method",
        default="closed_form",
        choices=["closed_form", "oracle", "dykstra"],
    )
    p_project.set_defaults(func=cmd_project)

    p_exp = sub.add_parser("experiment", help="run verification sweeps")
    p_exp.add_argument("--config", required=True, help="experiment config JSON")
    p_exp.add_argument("--out", default=None, help="output directory")
    p_exp.set_defaults(func=cmd_experiment)

    p_gen = sub.add_parser("generate", help="generate a deterministic instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=["pair_halfspace", "hyperplane_halfspace", "hyperplane_system"],
    )
    p_gen.add_argument("--out", default=None, help="output file (stdout if omitted)")
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmptySet as exc:
        print(str(exc) or "empty intersection", file=sys.stderr)
        return 2
    except TooManyConstraints as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PolyprojError, ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
