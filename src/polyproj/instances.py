"""Deterministic random instance generation.

Normals are drawn uniformly on the unit sphere and offsets uniformly in
[-2, 2].  Pair generators stratify the geometric cases with a fixed,
documented mix:

* 10% dependent pairs, produced by scaling one normal (exact
  dependence in floating point);
* 15% orthogonal pairs, produced by explicit orthogonalization;
* the remaining 75% split evenly between negative and positive cosine.

Query points are drawn uniformly in a cube large enough to land on both
sides of typical constraints.  Independent pairs whose cosine is within
1e-3 of 1 are resampled: their vanishing 2x2 determinant amplifies
multipliers beyond what fixed certificate tolerances can absorb, the
projectors flag them as ill-conditioned, and dedicated tests exercise
that regime directly.
"""

from __future__ import annotations

import numpy as np

from .sets import Halfspace, Hyperplane, Instance

FRACTION_DEPENDENT = 0.10

FRACTION_ORTHOGONAL = 0.15

_NEAR_DEPENDENT_GAP = 1e-3

_POINT_SCALE = 3.0


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.normal(size=dim)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return v / n


def random_point(rng: np.random.Generator, dim: int, scale: float = _POINT_SCALE) -> np.ndarray:
    return rng.uniform(-scale, scale, size=dim)


def random_offset(rng: np.random.Generator) -> float:
    return float(rng.uniform(-2.0, 2.0))


def pair_of_normals(
    rng: np.random.Generator, dim: int, flavor: str
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (u1, u2) with the requested relation.

    ``flavor`` is one of "dependent_positive", "dependent_negative",
    "orthogonal", "negative", "positive".
    """
    u1 = unit_vector(rng, dim)
    if flavor == "dependent_positive":
        return u1, float(rng.uniform(0.5, 2.0)) * u1
    if flavor == "dependent_negative":
        return u1, -float(rng.uniform(0.5, 2.0)) * u1
    if flavor == "orthogonal":
        while True:
            v = unit_vector(rng, dim)
            w = v - float(np.dot(v, u1)) * u1
            n = float(np.linalg.norm(w))
            if n > 1e-6:
                return u1, w / n
    if flavor in ("negative", "positive"):
        want = -1.0 if flavor == "negative" else 1.0
        while True:
            u2 = unit_vector(rng, dim)
            ip = float(np.dot(u1, u2))
            if ip * want < 0.0:
                u2, ip = -u2, -ip
            if abs(ip) < 1e-12 or 1.0 - abs(ip) <= _NEAR_DEPENDENT_GAP:
                continue
            return u1, u2
    raise ValueError(f"unknown flavor: {flavor!r}")


def _mixed_flavor(rng: np.random.Generator) -> str:
    r = float(rng.uniform())
    if r < FRACTION_DEPENDENT:
        return "dependent_positive" if rng.uniform() < 0.5 else "dependent_negative"
    if r < FRACTION_DEPENDENT + FRACTION_ORTHOGONAL:
        return "orthogonal"
    return "negative" if rng.uniform() < 0.5 else "positive"


def _nonempty_offsets(rng: np.random.Generator, u1, u2, flavor: str, plane_first: bool):
    """Draw (eta1, eta2), redrawing both while the pair's intersection is empty.

    Only dependent normals can give an empty pair, exactly when
    sign * eta1 * |u2| > eta2 * |u1| with sign the sign of <u1, u2>.
    For opposed normals that reads eta1 * |u2| + eta2 * |u1| < 0; aligned
    normals are empty only when the first set is a hyperplane.
    """
    eta1 = random_offset(rng)
    eta2 = random_offset(rng)
    if flavor == "dependent_negative" or (plane_first and flavor == "dependent_positive"):
        n1 = float(np.linalg.norm(u1))
        n2 = float(np.linalg.norm(u2))
        sign = 1.0 if flavor == "dependent_positive" else -1.0
        while sign * eta1 * n2 > eta2 * n1:
            eta1 = random_offset(rng)
            eta2 = random_offset(rng)
    return eta1, eta2


def halfspace_pair(rng: np.random.Generator, dim: int, flavor: str) -> tuple[Halfspace, Halfspace]:
    """A halfspace pair whose normals have the given flavor, never empty."""
    u1, u2 = pair_of_normals(rng, dim, flavor)
    eta1, eta2 = _nonempty_offsets(rng, u1, u2, flavor, plane_first=False)
    return Halfspace(u1, eta1), Halfspace(u2, eta2)


def hyperplane_halfspace(
    rng: np.random.Generator, dim: int, flavor: str
) -> tuple[Hyperplane, Halfspace]:
    """A hyperplane and halfspace whose normals have the given flavor, never empty."""
    u1, u2 = pair_of_normals(rng, dim, flavor)
    eta1, eta2 = _nonempty_offsets(rng, u1, u2, flavor, plane_first=True)
    return Hyperplane(u1, eta1), Halfspace(u2, eta2)


def random_halfspace_pair(rng: np.random.Generator, dim: int) -> tuple[Halfspace, Halfspace]:
    """A halfspace pair from the documented case mix, never empty."""
    return halfspace_pair(rng, dim, _mixed_flavor(rng))


def random_hyperplane_halfspace(
    rng: np.random.Generator, dim: int
) -> tuple[Hyperplane, Halfspace]:
    """A hyperplane and halfspace from the documented case mix, never empty."""
    return hyperplane_halfspace(rng, dim, _mixed_flavor(rng))


def random_hyperplane_system(
    rng: np.random.Generator, dim: int, num_planes: int = 3
) -> list[Hyperplane]:
    """Hyperplanes with independent normals plus one redundant member.

    The final plane is a combination of the earlier ones with the
    matching combined offset, so reduction must prune it and stay
    feasible.
    """
    if num_planes < 2:
        raise ValueError("need at least two planes to build a redundancy")
    base = min(num_planes - 1, dim)
    planes = []
    normals = []
    for _ in range(base):
        u = unit_vector(rng, dim)
        planes.append(Hyperplane(u, random_offset(rng)))
        normals.append(u)
    coeffs = rng.uniform(-1.5, 1.5, size=base)
    redundant_u = sum(c * u for c, u in zip(coeffs, normals))
    redundant_eta = float(sum(c * p.eta for c, p in zip(coeffs, planes)))
    planes.append(Hyperplane(redundant_u, redundant_eta))
    return planes


def generate_instance(seed: int, dim: int, kind: str) -> Instance:
    """Deterministic instance with three query points for the CLI: same seed, same bytes."""
    rng = np.random.default_rng(seed)
    if kind == "pair_halfspace":
        sets = random_halfspace_pair(rng, dim)
    elif kind == "hyperplane_halfspace":
        sets = random_hyperplane_halfspace(rng, dim)
    elif kind == "hyperplane_system":
        sets = tuple(random_hyperplane_system(rng, dim))
    else:
        raise ValueError(f"unknown instance kind: {kind!r}")
    points = tuple(random_point(rng, dim) for _ in range(3))
    return Instance(dim, tuple(sets), points)
