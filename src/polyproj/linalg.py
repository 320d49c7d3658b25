"""Inner-product primitives with explicit dependence tolerances.

Vectors are one-dimensional numpy arrays of finite floats.  Linear
dependence of a pair is decided relative to the Cauchy-Schwarz gap:
``u1`` and ``u2`` count as dependent when

    |u1| |u2| - |<u1, u2>|  <=  tol * |u1| |u2|

which is scale invariant and reduces to the exact criterion as
``tol -> 0``.  The default ``DEPENDENCE_TOL`` is deliberately exposed:
the kernels here, the hyperplane-system reduction and projection, and
the oracle accept an override; the pair projectors use the default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, SingularGram

DEPENDENCE_TOL = 1e-10

SOLVE_RESIDUAL_TOL = 1e-10


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float array, rejecting NaN/Inf and empty input."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty one-dimensional coordinate array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


def check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise DimensionMismatch(
            f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}"
        )


def _as_block(vectors: Sequence) -> np.ndarray:
    """Stack vectors as the rows of a 2-D float array, checked as :func:`as_vector` checks one."""
    try:
        block = np.array(vectors, dtype=float)
    except ValueError:
        if len({np.shape(v) for v in vectors}) > 1:
            raise DimensionMismatch("vectors must share one dimension") from None
        raise
    if block.ndim != 2 or block.size == 0 or not np.isfinite(block).all():
        raise ValueError("expected a nonempty list of nonempty finite coordinate arrays")
    return block


def inner(x, y) -> float:
    """Euclidean inner product of two vectors of equal length."""
    xv = as_vector(x)
    yv = as_vector(y)
    check_same_dim(xv, yv)
    return float(np.dot(xv, yv))


class PairTag(enum.Enum):
    """How a pair of vectors relates: zero members, dependence, or the
    sign of their inner product when independent."""

    BOTH_ZERO = "BothZero"
    FIRST_ZERO = "FirstZero"
    SECOND_ZERO = "SecondZero"
    DEPENDENT_POSITIVE = "DependentPositive"
    DEPENDENT_NEGATIVE = "DependentNegative"
    INDEPENDENT_ORTHOGONAL = "IndependentOrthogonal"
    INDEPENDENT_POSITIVE = "IndependentPositive"
    INDEPENDENT_NEGATIVE = "IndependentNegative"


@dataclass(frozen=True)
class PairClass:
    """Classification of a vector pair plus the cosine of their angle.

    ``gamma`` is |<u1,u2>| / (|u1| |u2|), defined as 0 when either
    vector is zero and reported as exactly 1 for pairs classified
    dependent (the ratio itself can land a few ulps off 1).  It doubles
    as the linear convergence factor of the composed projections built
    on the pair.
    """

    tag: PairTag
    gamma: float

    @property
    def linearly_dependent(self) -> bool:
        """True for dependent pairs, including pairs with a zero member."""
        return self.tag in (
            PairTag.BOTH_ZERO,
            PairTag.FIRST_ZERO,
            PairTag.SECOND_ZERO,
            PairTag.DEPENDENT_POSITIVE,
            PairTag.DEPENDENT_NEGATIVE,
        )


def classify_pair(u1, u2, tol: float = DEPENDENCE_TOL) -> PairClass:
    """Classify a pair of vectors by dependence and inner-product sign.

    A vector is "zero" only when all coordinates are exactly zero; the
    relative tolerance governs the dependent/independent boundary only.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v1 = as_vector(u1)
    v2 = as_vector(u2)
    check_same_dim(v1, v2)
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 == 0.0 and n2 == 0.0:
        return PairClass(PairTag.BOTH_ZERO, 0.0)
    if n1 == 0.0:
        return PairClass(PairTag.FIRST_ZERO, 0.0)
    if n2 == 0.0:
        return PairClass(PairTag.SECOND_ZERO, 0.0)
    ip = float(np.dot(v1, v2))
    scale = n1 * n2
    gamma = min(abs(ip) / scale, 1.0)
    if scale - abs(ip) <= tol * scale:
        # dependent within tolerance: report the exact-arithmetic cosine
        tag = PairTag.DEPENDENT_POSITIVE if ip > 0 else PairTag.DEPENDENT_NEGATIVE
        return PairClass(tag, 1.0)
    if abs(ip) <= tol * scale:
        return PairClass(PairTag.INDEPENDENT_ORTHOGONAL, gamma)
    tag = PairTag.INDEPENDENT_POSITIVE if ip > 0 else PairTag.INDEPENDENT_NEGATIVE
    return PairClass(tag, gamma)


def gram_matrix(vectors: Sequence) -> np.ndarray:
    """Matrix of pairwise inner products <a_i, a_j>.

    Symmetric positive semidefinite; positive definite exactly when the
    generators are linearly independent (testable via Cholesky).
    """
    if len(vectors) == 0:
        return np.zeros((0, 0))
    a = _as_block(vectors)
    g = a @ a.T
    return 0.5 * (g + g.T)


def solve_gram(generators: Sequence, rhs) -> np.ndarray:
    """Solve G(a_1..a_m) beta = rhs for linearly independent generators.

    Uses a Cholesky factorization; failure to factor, or a residual
    above ``SOLVE_RESIDUAL_TOL * (1 + |rhs|)``, signals dependence and
    raises SingularGram.
    """
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 1 or b.shape[0] != len(generators):
        raise DimensionMismatch(
            f"rhs length {b.shape} does not match {len(generators)} generators"
        )
    if len(generators) == 0:
        return np.zeros(0)
    g = gram_matrix(generators)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("Gram matrix is not positive definite") from exc
    y = np.linalg.solve(chol, b)
    beta = np.linalg.solve(chol.T, y)
    residual = float(np.linalg.norm(g @ beta - b))
    if residual > SOLVE_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(b))):
        raise SingularGram(
            f"Gram solve residual {residual:.3e} exceeds tolerance; "
            "generators are numerically dependent"
        )
    return beta


@dataclass(frozen=True)
class IndependentSubset:
    """Greedy maximal independent subfamily of a vector list.

    ``indices`` are positions of the retained vectors, in input order.
    ``coefficients`` maps each excluded position to its expansion over
    the retained vectors (aligned with ``indices``); zero vectors get
    all-zero coefficients.
    """

    indices: tuple[int, ...]
    coefficients: dict[int, np.ndarray] = field(default_factory=dict)


def max_independent_subset(vectors: Sequence, tol: float = DEPENDENCE_TOL) -> IndependentSubset:
    """Greedily select a maximal linearly independent subfamily.

    Scans in input order (first vector wins ties).  A candidate is
    excluded when its residual against the span of the retained vectors
    is at most ``tol`` times its own norm.
    """
    vecs = _as_block(vectors)

    indices: list[int] = []
    ortho: list[np.ndarray] = []
    excluded: list[int] = []

    for i, v in enumerate(vecs):
        nv = float(np.linalg.norm(v))
        resid = v.copy()
        for q in ortho:
            resid -= np.dot(resid, q) * q
        # second orthogonalization pass for numerical safety
        for q in ortho:
            resid -= np.dot(resid, q) * q
        rnorm = float(np.linalg.norm(resid))
        if rnorm <= tol * nv:
            excluded.append(i)
        else:
            indices.append(i)
            ortho.append(resid / rnorm)

    # expansion coefficients refer to the full retained family; entries on
    # vectors retained after an exclusion are zero up to rounding
    coefficients: dict[int, np.ndarray] = {}
    if indices and excluded:
        basis = np.stack([vecs[j] for j in indices], axis=1)
        for i in excluded:
            coeff, *_ = np.linalg.lstsq(basis, vecs[i], rcond=None)
            coefficients[i] = coeff
    else:
        for i in excluded:
            coefficients[i] = np.zeros(0)

    return IndependentSubset(tuple(indices), coefficients)
