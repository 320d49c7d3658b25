"""Command-line front end: single projections, experiments, generation.

Exit codes: 0 on success, 2 when the requested intersection is empty,
1 on malformed input or configuration.  Diagnostics go to stderr, data
to stdout or the requested output files.  The environment variable
``POLYPROJ_TOL`` overrides the KKT tolerance that ``project`` certifies
results with (the ``tol`` of the oracle and of ``certify``); it is the
only tolerance override.  ``experiment`` judges its rows by fixed
thresholds: ``iterate.RATE_SLACK``, ``EXACTNESS_TOL``,
``sets.MEMBERSHIP_TOL`` (through ``contains``) and ``DYKSTRA_MATCH_TOL``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .closed_form import certify, project, project_halfspace_pair, project_hyperplane_halfspace
from .errors import EmptySet, PolyprojError
from .instances import (
    generate_instance,
    halfspace_pair,
    hyperplane_halfspace,
    pair_of_normals,
    random_offset,
    random_point,
)
from .iterate import RATE_SLACK, BehaviorTag, dykstra, rate_gamma, write_csv
from .oracle import KKT_TOL, KktCertificate, oracle_project
from .sets import Halfspace, Membership, contains, instance_to_dict, load_instance
from .atomic import project_onto


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
    if args.method == "closed_form":
        bd = project(inst.sets, x)
        region_or_case = bd.case if bd.region is None else bd.region.value
        result = _result_dict(bd.point, bd.coefficients, region_or_case, certify(bd, x, tol))
    elif args.method == "oracle":
        point, cert = oracle_project(inst.sets, x, tol)
        result = _result_dict(point, [*cert.lam, *cert.beta], None, cert)
    elif args.method == "dykstra":
        result = _result_dict(dykstra(inst.sets, x).final, None, None, None)
    else:
        raise ValueError(f"unknown method: {args.method!r}")
    print(canonical_json(result))
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
    if "tolerances" in raw:
        raise ValueError("config key 'tolerances' is not supported; experiment thresholds are fixed")
    return ExperimentConfig(
        seed=int(raw.get("seed", 0)),
        dim=int(raw.get("dim", 2)),
        trials=int(raw.get("trials", 100)),
        case_filter=raw.get("case_filter"),
        k_max=int(raw.get("k_max", 50)),
    )


def _tally(counts, family, ok) -> None:
    total_ok = counts.setdefault(family, [0, 0])
    total_ok[0] += 1
    total_ok[1] += 1 if ok else 0


def _experiment_rates(rng, config, rows, counts):
    dim = config.dim
    k_max = config.k_max
    for trial in range(config.trials):
        x = random_point(rng, dim)
        if trial % 2 == 0:
            family = "halfspace_pair_rate"
            first, second = halfspace_pair(rng, dim, "negative")
            reference = project_halfspace_pair(first, second, x).point
        else:
            family = "plane_halfspace_rate"
            flavor = "negative" if rng.uniform() < 0.5 else "positive"
            first, second = hyperplane_halfspace(rng, dim, flavor)
            reference = project_hyperplane_halfspace(first, second, x).point
        gamma = rate_gamma(first.u, second.u)
        base = float(np.linalg.norm(x - reference))
        current = x
        all_ok = True
        for k in range(1, k_max + 1):
            current = project_onto(second, project_onto(first, current))
            observed = float(np.linalg.norm(current - reference))
            bound = gamma**k * base
            ok = observed <= bound + RATE_SLACK
            all_ok = all_ok and ok
            rows.append([trial, gamma, k, observed, bound, ok])
        _tally(counts, family, all_ok)


def _one_exactness_row(first, second, x, reference):
    composed = project_onto(second, project_onto(first, x))
    return float(np.linalg.norm(composed - reference))


def _experiment_exactness(rng, config, rows, counts, include_exact, include_feasible):
    dim = config.dim
    for trial in range(config.trials):
        x = random_point(rng, dim)
        subrows = []
        if include_exact:
            dependent = "dependent_positive" if rng.uniform() < 0.5 else "dependent_negative"
            for flavor, label in (
                (dependent, "dependent_halfspace_pair"),
                ("orthogonal", "orthogonal_halfspace_pair"),
            ):
                w1, w2 = halfspace_pair(rng, dim, flavor)
                ref = project_halfspace_pair(w1, w2, x).point
                dev = _one_exactness_row(w1, w2, x, ref)
                subrows.append((label, dev, dev <= EXACTNESS_TOL))

            for flavor, label in (
                ("dependent_positive", "dependent_plane_halfspace"),
                ("orthogonal", "orthogonal_plane_halfspace"),
            ):
                h1, w2 = hyperplane_halfspace(rng, dim, flavor)
                ref = project_hyperplane_halfspace(h1, w2, x).point
                dev_f = _one_exactness_row(h1, w2, x, ref)
                dev_r = _one_exactness_row(w2, h1, x, ref)
                subrows.append((label + "_fwd", dev_f, dev_f <= EXACTNESS_TOL))
                subrows.append((label + "_rev", dev_r, dev_r <= EXACTNESS_TOL))
        if include_feasible:
            w1, w2 = halfspace_pair(rng, dim, "positive")
            composed = project_onto(w2, project_onto(w1, x))
            violation = max(
                float(np.dot(composed, w1.u)) - w1.eta,
                float(np.dot(composed, w2.u)) - w2.eta,
                0.0,
            )
            ok = (
                contains(w1, composed) is not Membership.OUTSIDE
                and contains(w2, composed) is not Membership.OUTSIDE
            )
            subrows.append(("one_step_feasible", violation, ok))
        for family, dev, ok in subrows:
            rows.append([trial, family, dev, ok])
            _tally(counts, family, ok)


def _experiment_dykstra(rng, config, rows, counts):
    dim = config.dim
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
        x = random_point(rng, dim)
        reference = project_halfspace_pair(w1, w2, x).point
        trace = dykstra([w1, w2], x, max_sweeps=10_000, tol=1e-12)
        deviation = float(np.linalg.norm(trace.final - reference))
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
    except (PolyprojError, ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
