"""Iterative schemes built from the atomic projectors.

Two engines live here: plain composition of projectors (whose iterates
either reach the intersection projection exactly, converge linearly
with the cosine of the normal angle as the factor, or land at a
feasible point in one step, depending on the geometry), and Dykstra's
algorithm with its correction buffer, which converges to the
intersection projection for any finite family of closed convex sets.

:func:`verify_bam` machine-checks the best-approximation-mapping
contract for a candidate composition: the fixed-set projection must be
invariant along the orbit and the distance to it must contract at the
supplied geometric rate.  :func:`predict_behavior` is the lookup table
from pair classification to expected behavior.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptySet, ZeroNormal
from .linalg import PairClass, PairTag, _norm, as_vector, classify_pair
from .sets import Halfspace, Hyperplane, LinearSet, checked_point, is_empty
from .atomic import step

STEP_TOL = 1e-12

RATE_SLACK = 1e-9

FIXPOINT_TOL = 1e-8


class StopReason(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"


@dataclass
class IterationTrace:
    """Sequence of iterates; ``iterates[0]`` is the starting point."""

    iterates: list[np.ndarray]
    stop_reason: StopReason

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def compose_iterate(
    projectors: Sequence[Callable[[np.ndarray], np.ndarray]],
    x,
    max_k: int,
) -> IterationTrace:
    """Iterate the composition of the given projectors.

    One trace entry per application of the full composition (first
    projector applied first).  Stops early once a full step moves less
    than ``STEP_TOL * (1 + |x0|)``.
    """
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    if len(projectors) == 0:
        raise ValueError("need at least one projector")
    x0 = as_vector(x)
    threshold = STEP_TOL * (1.0 + _norm(x0))
    iterates = [x0.copy()]
    stop = StopReason.MAX_ITERATIONS
    current = x0
    for _ in range(max_k):
        nxt = current
        for proj in projectors:
            nxt = proj(nxt)
        iterates.append(nxt)
        displacement = _norm(nxt - current)
        current = nxt
        if displacement <= threshold:
            stop = StopReason.CONVERGED
            break
    return IterationTrace(iterates, stop)


def dykstra(
    sets: Sequence[LinearSet],
    x,
    max_sweeps: int = 10_000,
    tol: float = 1e-10,
) -> IterationTrace:
    """Dykstra's algorithm over a finite family of linear sets.

    Corrections start at zero and are retained for hyperplanes as well
    as halfspaces.  The trace records one entry per full sweep and the
    run stops when consecutive sweep iterates differ by at most ``tol``
    (per-step displacement can vanish spuriously mid-cycle).
    """
    if len(sets) == 0:
        raise ValueError("need at least one set")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    x0 = checked_point(sets, x)
    for s in sets:
        if is_empty(s):
            raise EmptySet("a constraint set is empty")
    current = x0.copy()
    corrections = [np.zeros_like(x0) for _ in sets]
    iterates = [x0.copy()]
    stop = StopReason.MAX_ITERATIONS
    for _ in range(max_sweeps):
        previous = current
        # one full cycle: re-add each set's correction, project, update it
        for i, s in enumerate(sets):
            shifted = current + corrections[i]
            current = step(s, shifted)[0]
            corrections[i] = shifted - current
        iterates.append(current.copy())
        if _norm(current - previous) <= tol:
            stop = StopReason.CONVERGED
            break
    return IterationTrace(iterates, stop)


def rate_gamma(u1, u2) -> float:
    """Cosine of the angle between two nonzero normals.

    This is the linear convergence factor of the composed projections;
    it is below 1 exactly when the normals are independent.
    """
    pc = classify_pair(u1, u2)
    if pc.tag in (PairTag.BOTH_ZERO, PairTag.FIRST_ZERO, PairTag.SECOND_ZERO):
        raise ZeroNormal("rate constant requires nonzero normals")
    return pc.gamma


@dataclass(frozen=True)
class BamSampleResult:
    fixpoint_identity_holds: bool
    rate_bound_holds: bool


@dataclass(frozen=True)
class BamReport:
    """Per-sample outcome of the best-approximation-mapping checks."""

    results: tuple[BamSampleResult, ...]
    gamma: float
    k_max: int

    @property
    def all_hold(self) -> bool:
        return all(
            r.fixpoint_identity_holds and r.rate_bound_holds for r in self.results
        )


def verify_bam(
    composition: Callable[[np.ndarray], np.ndarray],
    fix_projector: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    samples: Sequence,
    k_max: int,
) -> BamReport:
    """Check the best-approximation-mapping contract on sample points.

    For every sample x and every k from 1 to k_max, the projection of
    the k-th iterate onto the fixed set must equal the projection of x
    (within ``FIXPOINT_TOL``), and the distance of the k-th iterate to
    that projection must be at most ``gamma**k`` times the starting
    distance plus ``RATE_SLACK``.  Failures are reported, not raised.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    results = []
    for sample in samples:
        x0 = as_vector(sample)
        target = fix_projector(x0)
        base = _norm(x0 - target)
        fix_ok = True
        rate_ok = True
        current = x0
        for k in range(1, k_max + 1):
            current = composition(current)
            if _norm(fix_projector(current) - target) > FIXPOINT_TOL:
                fix_ok = False
            err = _norm(current - target)
            if err > gamma**k * base + RATE_SLACK:
                rate_ok = False
        results.append(BamSampleResult(fix_ok, rate_ok))
    return BamReport(tuple(results), gamma, k_max)


class BehaviorTag(enum.Enum):
    EXACT_COMPOSITION = "ExactComposition"
    LINEAR_RATE_BAM = "LinearRateBAM"
    ONE_STEP_FEASIBLE = "OneStepFeasible"
    EXACT_BOTH_ORDERS = "ExactBothOrders"


@dataclass(frozen=True)
class BehaviorCase:
    """Predicted behavior of a composed pair of projectors."""

    tag: BehaviorTag
    gamma: float | None = None


def _kind_of(marker) -> type:
    kind = marker if isinstance(marker, type) else type(marker)
    if kind not in (Hyperplane, Halfspace):
        raise TypeError("markers must be Hyperplane or Halfspace (types or instances)")
    return kind


def predict_behavior(kind1, kind2, pair_class: PairClass) -> BehaviorCase:
    """Expected behavior of the composition, from set kinds and pair class.

    Two halfspaces: dependent or orthogonal normals make the composition
    equal the intersection projection; a negative cosine gives a linear
    rate; a positive cosine reaches a feasible point in one step.  Any
    pair involving a hyperplane: dependent or orthogonal normals make
    both composition orders exact, anything else converges linearly.
    """
    k1 = _kind_of(kind1)
    k2 = _kind_of(kind2)
    dependent = pair_class.linearly_dependent
    orthogonal = pair_class.tag is PairTag.INDEPENDENT_ORTHOGONAL
    gamma = pair_class.gamma
    if k1 is Halfspace and k2 is Halfspace:
        if dependent or orthogonal:
            return BehaviorCase(BehaviorTag.EXACT_COMPOSITION)
        if pair_class.tag is PairTag.INDEPENDENT_NEGATIVE:
            return BehaviorCase(BehaviorTag.LINEAR_RATE_BAM, gamma)
        return BehaviorCase(BehaviorTag.ONE_STEP_FEASIBLE)
    if dependent or orthogonal:
        return BehaviorCase(BehaviorTag.EXACT_BOTH_ORDERS)
    return BehaviorCase(BehaviorTag.LINEAR_RATE_BAM, gamma)
