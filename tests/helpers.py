"""Case-targeted instance builders shared by the test modules.

The names of the dependent-pair cases follow the geometry of the
intersection: whole space, one active set, empty, a merged halfspace
(aligned normals), or a slab (opposed normals).
"""

import numpy as np

from polyproj import Halfspace, Hyperplane, Region, classify_region_halfspace_pair
from polyproj.instances import pair_of_normals, random_offset, random_point, unit_vector

LD_PAIR_CASES = (
    "whole_space",
    "empty_both_zero",
    "first_only",
    "first_only_empty",
    "second_only",
    "second_only_empty",
    "merged_halfspace",
    "slab_empty",
    "slab",
)

EMPTY_LD_PAIR_CASES = {"empty_both_zero", "first_only_empty", "second_only_empty", "slab_empty"}

# two halfspaces in d = 6 and a point with |x| ~ 5e3 whose closed-form and
# oracle certificates fail on complementarity alone (1.78e-9 > 1e-9); the
# other two residuals are below 1e-12
COMPLEMENTARITY_INSTANCE = {
    "dim": 6,
    "sets": [
        {
            "kind": "halfspace",
            "u": [-0.14592016961740930, 0.11105147750655045, -0.13032764256830331,
                  0.11772276795500956, -0.11636941221714930, 0.96020262904778240],
            "eta": 0.69267610329184,
        },
        {
            "kind": "halfspace",
            "u": [0.27505292120830010, 0.02704131153316326, 0.19204925258083128,
                  0.06863714844098574, 0.85442599572093500, -0.38984215046435106],
            "eta": 1.6958568241395255,
        },
    ],
    "points": [[-172.23325799709954, 1124.915101414972, 1525.4217190232584,
                -2782.0069155525507, 2526.1262422405002, -2988.266655093874]],
}


def ld_pair_case(rng, dim, case):
    """A halfspace pair realizing one dependent-normal geometry."""
    zero = np.zeros(dim)
    if case == "whole_space":
        return Halfspace(zero, abs(random_offset(rng))), Halfspace(zero, abs(random_offset(rng)))
    if case == "empty_both_zero":
        return Halfspace(zero, random_offset(rng)), Halfspace(zero, -abs(random_offset(rng)) - 0.1)
    if case == "first_only":
        return Halfspace(unit_vector(rng, dim), random_offset(rng)), Halfspace(zero, abs(random_offset(rng)))
    if case == "first_only_empty":
        return Halfspace(unit_vector(rng, dim), random_offset(rng)), Halfspace(zero, -abs(random_offset(rng)) - 0.1)
    if case == "second_only":
        return Halfspace(zero, abs(random_offset(rng))), Halfspace(unit_vector(rng, dim), random_offset(rng))
    if case == "second_only_empty":
        return Halfspace(zero, -abs(random_offset(rng)) - 0.1), Halfspace(unit_vector(rng, dim), random_offset(rng))
    if case == "merged_halfspace":
        u1, u2 = pair_of_normals(rng, dim, "dependent_positive")
        return Halfspace(u1, random_offset(rng)), Halfspace(u2, random_offset(rng))
    if case in ("slab", "slab_empty"):
        u1, u2 = pair_of_normals(rng, dim, "dependent_negative")
        n1, n2 = np.linalg.norm(u1), np.linalg.norm(u2)
        while True:
            eta1, eta2 = random_offset(rng), random_offset(rng)
            total = eta1 * n2 + eta2 * n1
            if case == "slab" and total >= 0.0:
                return Halfspace(u1, eta1), Halfspace(u2, eta2)
            if case == "slab_empty" and total < -0.05:
                return Halfspace(u1, eta1), Halfspace(u2, eta2)
    raise ValueError(case)


def li_halfspace_pair(rng, dim, flavor):
    """An independent-normal halfspace pair ("orthogonal"/"negative"/"positive")."""
    u1, u2 = pair_of_normals(rng, dim, flavor)
    return Halfspace(u1, random_offset(rng)), Halfspace(u2, random_offset(rng))


def pair_with_cosine(rng, dim, cosine):
    """Unit normals with an exact prescribed cosine (sign included)."""
    u1 = unit_vector(rng, dim)
    while True:
        v = unit_vector(rng, dim)
        w = v - float(np.dot(v, u1)) * u1
        n = float(np.linalg.norm(w))
        if n > 1e-6:
            w /= n
            break
    u2 = cosine * u1 + np.sqrt(1.0 - cosine * cosine) * w
    return u1, u2


def point_in_region(rng, w1, w2, region, max_tries=2000, scale=4.0):
    """Rejection-sample a point classified into the requested region."""
    for _ in range(max_tries):
        x = random_point(rng, w1.dim, scale)
        if classify_region_halfspace_pair(w1, w2, x) is region:
            return x
    return None


def plane_halfspace_ld(rng, dim, contained=True, whole_plane=False):
    """A dependent hyperplane+halfspace pair, contained or contradictory."""
    if whole_plane:
        h = Hyperplane(np.zeros(dim), 0.0)
        return h, Halfspace(unit_vector(rng, dim), random_offset(rng))
    flavor = "dependent_positive" if rng.uniform() < 0.5 else "dependent_negative"
    u1, u2 = pair_of_normals(rng, dim, flavor)
    n1, n2 = np.linalg.norm(u1), np.linalg.norm(u2)
    sign = 1.0 if float(np.dot(u1, u2)) > 0 else -1.0
    while True:
        eta1, eta2 = random_offset(rng), random_offset(rng)
        inside = sign * eta1 * n2 <= eta2 * n1
        if contained and inside:
            return Hyperplane(u1, eta1), Halfspace(u2, eta2)
        if not contained and sign * eta1 * n2 > eta2 * n1 + 0.05:
            return Hyperplane(u1, eta1), Halfspace(u2, eta2)


def plane_halfspace_li(rng, dim, flavor):
    u1, u2 = pair_of_normals(rng, dim, flavor)
    return Hyperplane(u1, random_offset(rng)), Halfspace(u2, random_offset(rng))


def feasible_point(rng, sets, max_tries=500, scale=3.0):
    """Sample a point satisfying every set, independently of the projectors.

    Hyperplanes are satisfied by construction (least-squares anchor plus
    a draw from the SVD nullspace of the stacked normals); halfspaces by
    rejection.  Returns None when sampling fails.
    """
    dim = sets[0].dim
    planes = [s for s in sets if isinstance(s, Hyperplane) and np.any(s.u)]
    halves = [s for s in sets if isinstance(s, Halfspace)]
    if planes:
        a = np.stack([p.u for p in planes])
        b = np.array([p.eta for p in planes])
        anchor, *_ = np.linalg.lstsq(a, b, rcond=None)
        if np.linalg.norm(a @ anchor - b) > 1e-8:
            return None
        _, svals, vt = np.linalg.svd(a)
        rank = int(np.sum(svals > 1e-12 * max(1.0, svals[0])))
        nullspace = vt[rank:]
    else:
        anchor = np.zeros(dim)
        nullspace = np.eye(dim)
    for _ in range(max_tries):
        z = anchor + nullspace.T @ rng.uniform(-scale, scale, size=nullspace.shape[0])
        if all(float(np.dot(z, h.u)) - h.eta <= 0.0 for h in halves):
            return z
    return None


def reconstruction(bd, x):
    """x minus each recorded multiplier times its set's normal: ``bd.point`` to machine precision."""
    p = np.array(x, dtype=float)
    for c, s in zip(bd.coefficients, bd.sets):
        p -= c * s.u
    return p


def region_counter():
    return {r: 0 for r in (Region.INSIDE_BOTH, Region.C1, Region.C2, Region.C3)}
