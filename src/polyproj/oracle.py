"""Independent ground truth for projections onto polyhedra.

:func:`oracle_project` minimizes ``|y - x|`` over an intersection of
hyperplanes and halfspaces by brute force: for every subset of at most
d - rank(E) inequality constraints (E the hyperplanes) it solves the
equality-constrained problem (all hyperplanes plus the chosen
boundaries), then keeps the candidates that are primal feasible with
nonnegative multipliers on the chosen boundaries.  Since the
constraints are affine, the true projection is always among the
candidates, so the minimum-distance candidate is the projection.  A
larger subset adds no candidate: the boundaries it keeps after
reduction are a visited subset, reduced to the same rows.  The
enumeration is exponential by design; it exists to check the
closed-form projectors, not to replace them.

:func:`kkt_check` evaluates the first-order optimality residuals of a
proposed projection: stationarity of the quadratic objective, primal
feasibility, dual nonnegativity, and complementary slackness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySet, SingularGram, TooManyConstraints
from .linalg import DEPENDENCE_TOL, as_vector, max_independent_subset, solve_gram
from .sets import (
    Feasibility,
    Halfspace,
    Hyperplane,
    LinearSet,
    checked_point,
    is_empty,
    reduce_hyperplane_system,
)

MAX_INEQUALITIES = 20

KKT_TOL = 1e-9


@dataclass(frozen=True)
class KktCertificate:
    """First-order optimality residuals for a candidate projection.

    ``lam`` holds the inequality multipliers (input order of the
    halfspaces), ``beta`` the equality multipliers (input order of the
    hyperplanes).  The certificate is valid when every residual is at
    most ``tol`` and no inequality multiplier is below ``-tol``.
    """

    lam: np.ndarray
    beta: np.ndarray
    stationarity_residual: float
    feasibility_residual: float
    complementarity_residual: float
    tol: float
    valid: bool


def _split(sets: Sequence[LinearSet]):
    eq = [(i, s) for i, s in enumerate(sets) if isinstance(s, Hyperplane)]
    ineq = [(i, s) for i, s in enumerate(sets) if isinstance(s, Halfspace)]
    if len(eq) + len(ineq) != len(sets):
        raise TypeError("sets must be Hyperplane or Halfspace instances")
    return eq, ineq


def kkt_check(
    sets: Sequence[LinearSet],
    x,
    p,
    lam: Sequence[float],
    beta: Sequence[float],
    tol: float = KKT_TOL,
) -> KktCertificate:
    """Evaluate the KKT residuals of a proposed projection ``p`` of ``x``.

    Stationarity: |p - x + sum lam_i u_i + sum beta_j u_j|.
    Feasibility: worst constraint violation at p.
    Complementarity: max_i |lam_i * (<p,u_i> - eta_i)| over halfspaces.
    """
    eq, ineq = _split(sets)
    xv = checked_point(sets, x)
    pv = as_vector(p)
    if xv.shape != pv.shape:
        raise DimensionMismatch("x and p must share one dimension")
    lam_arr = np.asarray(lam, dtype=float)
    beta_arr = np.asarray(beta, dtype=float)
    if lam_arr.shape != (len(ineq),):
        raise DimensionMismatch(
            f"expected {len(ineq)} inequality multipliers, got {lam_arr.shape}"
        )
    if beta_arr.shape != (len(eq),):
        raise DimensionMismatch(
            f"expected {len(eq)} equality multipliers, got {beta_arr.shape}"
        )

    grad = pv - xv
    for mult, (_, s) in zip(lam_arr, ineq):
        grad = grad + mult * s.u
    for mult, (_, s) in zip(beta_arr, eq):
        grad = grad + mult * s.u
    stationarity = float(np.linalg.norm(grad))

    feasibility = 0.0
    for _, s in eq:
        feasibility = max(feasibility, abs(float(np.dot(pv, s.u)) - s.eta))
    for _, s in ineq:
        feasibility = max(feasibility, float(np.dot(pv, s.u)) - s.eta)
    feasibility = max(feasibility, 0.0)

    complementarity = 0.0
    for mult, (_, s) in zip(lam_arr, ineq):
        complementarity = max(
            complementarity, abs(mult * (float(np.dot(pv, s.u)) - s.eta))
        )

    valid = (
        stationarity <= tol
        and feasibility <= tol
        and complementarity <= tol
        and bool(np.all(lam_arr >= -tol))
    )
    return KktCertificate(
        lam=lam_arr,
        beta=beta_arr,
        stationarity_residual=stationarity,
        feasibility_residual=feasibility,
        complementarity_residual=complementarity,
        tol=tol,
        valid=valid,
    )


class OracleResult(NamedTuple):
    point: np.ndarray
    certificate: KktCertificate


def oracle_project(
    sets: Sequence[LinearSet],
    x,
    tol: float = KKT_TOL,
    dependence_tol: float = DEPENDENCE_TOL,
) -> OracleResult:
    """Brute-force projection onto an intersection of linear sets.

    Enumerates the subsets of at most ``d - rank(E)`` inequalities as
    candidate active sets (a larger one reduces to a visited subset with
    the same candidate); keeps candidates that are feasible for every
    constraint and whose active multipliers are nonnegative (within
    ``tol``); returns the minimum-distance candidate, breaking distance
    ties toward the lexicographically smallest active set.  Raises
    EmptySet when no subset yields a feasible point, which for affine
    constraints certifies an empty intersection.
    """
    xv = checked_point(sets, x)
    if any(is_empty(s) for s in sets):
        raise EmptySet("empty intersection")
    eq, ineq = _split(sets)
    m = len(ineq)
    if m > MAX_INEQUALITIES:
        raise TooManyConstraints(
            f"{m} inequality constraints exceed the enumeration limit of {MAX_INEQUALITIES}"
        )

    ne = len(eq)
    rows = [s for _, s in eq] + [s.boundary() for _, s in ineq]
    offsets = np.array([s.eta for s in rows])
    slack_base = 1.0 + np.abs(offsets)
    normal_norms = np.array([float(np.linalg.norm(s.u)) for s in rows])
    rank_e = len(max_independent_subset([s.u for _, s in eq], dependence_tol).indices) if eq else 0

    best: tuple[float, tuple[int, ...], np.ndarray, np.ndarray, np.ndarray] | None = None

    for k in range(min(m, xv.shape[0] - rank_e) + 1):
        for active in combinations(range(m), k):
            planes = rows[:ne] + [rows[ne + i] for i in active]
            multipliers = np.zeros(len(planes))
            point = xv.copy()
            if planes:
                reduced = reduce_hyperplane_system(planes, dependence_tol)
                if reduced.status is Feasibility.INFEASIBLE:
                    continue
                if reduced.retained:
                    rhs = [float(np.dot(xv, pl.u)) - pl.eta for pl in reduced.retained]
                    try:
                        beta = solve_gram([pl.u for pl in reduced.retained], rhs)
                    except SingularGram:
                        continue
                    for b, pl in zip(beta, reduced.retained):
                        point -= b * pl.u
                    multipliers[list(reduced.retained_indices)] = beta

            lam_active = multipliers[ne:]
            if np.any(lam_active < -tol):
                continue

            # membership_bound's arithmetic for all rows at once; per-row
            # np.dot, since a matrix product rounds differently
            gaps = np.array([np.dot(point, s.u) for s in rows]) - offsets
            gaps[:ne] = np.abs(gaps[:ne])
            bounds = tol * (slack_base + normal_norms * float(np.linalg.norm(point)))
            if np.any(gaps > bounds):
                continue

            lam_full = np.zeros(m)
            lam_full[list(active)] = np.maximum(lam_active, 0.0)
            dist = float(np.linalg.norm(point - xv))
            if best is None or (dist, active) < best[:2]:
                best = (dist, active, point, lam_full, multipliers[:ne])

    if best is None:
        raise EmptySet("empty intersection")

    _, _, point, lam_full, beta_full = best
    certificate = kkt_check(sets, xv, point, lam_full, beta_full, tol)
    return OracleResult(point, certificate)
