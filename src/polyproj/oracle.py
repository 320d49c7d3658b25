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

The hyperplanes are scanned once by ``linalg._scan_rows``.  When x
projected onto the kept rows is x itself (distance 0) and feasible, it
is the projection and nothing more is visited; otherwise the subsets
are walked one level at a time, in groups of at most ``GRAM_STACK``.
Each active set carries the state of its kept rows down the walk: their
orthonormal basis, the rows W with W Aᵀ = I, the displacement and the
multipliers.  A group's children, one boundary larger, extend their
parents' bases in one stacked Gram-Schmidt step
(``linalg._extend_bases``); those that grew take one stacked bordered
step (``linalg._border``) for their multipliers, and their candidates
are checked before they are walked.  A boundary dependent on its
parent's kept rows ends its branch, whatever its offset: a superset
S + {b} + T scans to the kept rows of S + T, in the same order, so it
rebuilds a candidate the walk visits (KKT multipliers always reduce to
ones on independent normals).  Every step is elementwise, a per-row dot
or a per-item ``gemv``, so the results are bit for bit those of
scanning each subset's rows on their own.  Every row is a prescaled set.

:func:`kkt_check` evaluates the first-order optimality residuals of a
proposed projection: stationarity of the quadratic objective, primal
feasibility, dual nonnegativity, and complementary slackness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySet, TooManyConstraints
from .linalg import _border, _extend_bases, _ldexp, _norm, _row_norms, _scan_rows
from .linalg import as_vector, row_dots
from .sets import Halfspace, Hyperplane, LinearSet, checked_point, is_empty, membership_bound

MAX_INEQUALITIES = 20

# most active sets stepped in one stacked call; bounds the stack's memory
GRAM_STACK = 256

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
    eq = [s for s in sets if isinstance(s, Hyperplane)]
    ineq = [s for s in sets if isinstance(s, Halfspace)]
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
    xv = checked_point(sets, x)
    eq, ineq = _split(sets)
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

    # on Python floats; the order (halfspaces first) and max's rule (the
    # first argument wins on a tie and on NaN) fix every residual's bits
    grad = pv - xv
    feasibility = 0.0
    complementarity = 0.0
    lams = lam_arr.tolist()
    for mult, s in zip(lams, ineq):
        grad = grad + mult * s.u
        gap = float(pv.dot(s.u)) - s.eta
        feasibility = max(feasibility, gap)
        complementarity = max(complementarity, abs(mult * gap))
    for mult, s in zip(beta_arr.tolist(), eq):
        grad = grad + mult * s.u
        feasibility = max(feasibility, abs(float(pv.dot(s.u)) - s.eta))
    stationarity = _norm(grad)

    valid = (
        stationarity <= tol
        and feasibility <= tol
        and complementarity <= tol
        and all(mult >= -tol for mult in lams)
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


def oracle_project(sets: Sequence[LinearSet], x, tol: float = KKT_TOL) -> OracleResult:
    """Brute-force projection onto an intersection of linear sets.

    Enumerates the subsets of at most ``d - rank(E)`` inequalities with
    independent boundaries as candidate active sets (any other reduces to
    a visited subset with the same candidate); keeps candidates that are
    feasible for every constraint and whose active multipliers are
    nonnegative (within ``tol``); returns the minimum-distance candidate,
    breaking distance ties toward the lexicographically smallest active
    set.  Raises EmptySet when no subset yields a feasible point, which
    for affine constraints certifies an empty intersection.
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
    rows = eq + ineq  # a halfspace row stands for its boundary
    normals = np.array([s._u for s in rows]).reshape(len(rows), xv.shape[0])
    offsets = np.array([s._eta for s in rows])
    normal_norms = np.array([s._norm for s in rows])
    rhs = row_dots(normals, xv) - offsets

    best: tuple[float, tuple[int, ...], np.ndarray, np.ndarray, np.ndarray] | None = None

    def consider(actives: list, kept: np.ndarray, beta: np.ndarray) -> None:
        # candidate i is x - sum_j beta[i, j] u_kept[i, j]; each step is
        # elementwise or a per-row dot, so it gets the bits it gets alone
        nonlocal best
        points = np.repeat(xv[None], len(kept), axis=0)
        for j in range(kept.shape[1]):
            points -= beta[:, j, None] * normals[kept[:, j]]
        gaps = row_dots(points[:, None, :], normals) - offsets
        gaps[:, :ne] = np.abs(gaps[:, :ne])
        bounds = membership_bound(offsets, normal_norms, _row_norms(points)[:, None], tol)
        feasible = np.flatnonzero(~(gaps > bounds).any(axis=1))
        if not len(feasible):
            return
        dists = _row_norms(points[feasible] - xv).tolist()
        dist, active, i = min(zip(dists, [actives[i] for i in feasible], feasible))
        if best is None or (dist, active) < best[:2]:
            best = (dist, active, points[i].copy(), kept[i], beta[i])

    def walk(actives: list, lasts: np.ndarray, kept: np.ndarray, state: tuple, depth: int):
        # children of a group of active sets that keep the same rows count:
        # pair c adds boundary child[c] > the last of actives[parent[c]]
        counts = m - 1 - lasts
        parent = np.repeat(np.arange(len(actives)), counts)
        child = np.repeat(lasts + 1 - np.cumsum(counts) + counts, counts) + np.arange(len(parent))
        for start in range(0, len(parent), GRAM_STACK):
            par, i = parent[start : start + GRAM_STACK], child[start : start + GRAM_STACK]
            q, v = state[0][par], normals[ne + i]
            dependent, units = _extend_bases(q, v)
            if dependent.any():  # a dependent boundary ends its branch
                grew = ~dependent
                par, i, q, v = par[grew], i[grew], q[grew], v[grew]
                if not len(par):
                    continue
            grown = [actives[a] + (b,) for a, b in zip(par.tolist(), i.tolist())]
            grown_kept = np.concatenate([kept[par], ne + i[:, None]], axis=1)
            w, p, beta = _border(state[1][par], state[2][par], state[3][par], units, v, rhs[ne + i])
            signs = np.flatnonzero(~((beta < -tol) & (grown_kept >= ne)).any(axis=1))
            if len(signs):
                consider([grown[j] for j in signs], grown_kept[signs], beta[signs])
            if depth > 1:
                grown_q = np.concatenate([q, units[:, None]], axis=1)
                walk(grown, i, grown_kept, (grown_q, w, p, beta), depth - 1)

    kept_eq, state, consistent = _scan_rows(normals[:ne], offsets[:ne], rhs[:ne])
    if not consistent:
        raise EmptySet("empty intersection")
    root_kept = np.array([kept_eq], dtype=np.intp)
    consider([()], root_kept, state[3][None])
    # a feasible root at distance 0 has the smallest key and distance, so no
    # active set can replace it; at a positive distance a candidate on a
    # boundary through the root's point can round nearer
    depth = min(m, xv.shape[0] - len(kept_eq))
    if (best is None or best[0] > 0.0) and depth > 0:
        walk([()], np.array([-1]), root_kept, tuple(a[None] for a in state), depth)

    if best is None:
        raise EmptySet("empty intersection")

    _, _, point, kept, beta = best
    beta = np.array([_ldexp(b, rows[j]._k) for j, b in zip(kept.tolist(), beta.tolist())])
    is_eq = kept < ne
    lam_full, beta_full = np.zeros(m), np.zeros(ne)
    lam_full[kept[~is_eq] - ne] = np.maximum(beta[~is_eq], 0.0)
    beta_full[kept[is_eq]] = beta[is_eq]
    certificate = kkt_check(sets, xv, point, lam_full, beta_full, tol)
    return OracleResult(point, certificate)
