from fractions import Fraction

import numpy as np
import pytest

import polyproj.linalg
import polyproj.oracle
import polyproj.sets
from polyproj import (
    DimensionMismatch,
    EmptySet,
    Halfspace,
    Hyperplane,
    TooManyConstraints,
    kkt_check,
    oracle_project,
    project_halfspace_pair,
    project_hyperplane_halfspace,
    project_hyperplanes,
    reduce_hyperplane_system,
    solve_gram,
)
from polyproj.oracle import KKT_TOL
from polyproj.sets import Feasibility, Membership, contains, membership_bound
from polyproj.instances import random_point, unit_vector

from exact import exact_project
from helpers import (
    EMPTY_LD_PAIR_CASES,
    LD_PAIR_CASES,
    ld_pair_case,
    li_halfspace_pair,
    plane_halfspace_li,
)


class TestOracleProject:
    def test_orthant_corner(self):
        point, cert = oracle_project([Halfspace([1, 0], 0.0), Halfspace([0, 1], 0.0)], [2, 3])
        np.testing.assert_allclose(point, [0, 0])
        np.testing.assert_allclose(cert.lam, [2, 3])
        assert cert.valid

    def test_mixed_equality_inequality(self):
        point, cert = oracle_project([Hyperplane([1, 0], 1.0), Halfspace([0, 1], 0.0)], [3, 2])
        np.testing.assert_allclose(point, [1, 0])
        np.testing.assert_allclose(cert.beta, [2])
        np.testing.assert_allclose(cert.lam, [2])
        assert cert.valid

    def test_interior_point_inactive(self):
        point, cert = oracle_project([Halfspace([1, 0], 5.0)], [1, 1])
        np.testing.assert_allclose(point, [1, 1])
        np.testing.assert_allclose(cert.lam, [0])
        assert cert.valid

    def test_halfspace_rows_need_no_boundary_copies(self, monkeypatch):
        # the halfspaces hold u, eta and |u| already; their boundary planes are not built
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            z, normals = rng.normal(size=dim), rng.normal(size=(4, dim))
            # every set holds z, so the intersection is not empty
            sets = [Hyperplane(normals[0], float(normals[0] @ z))]
            sets += [Halfspace(u, float(u @ z) + rng.uniform(0, 1)) for u in normals[1:]]
            x = random_point(rng, dim, 4.0)
            point, cert = oracle_project(sets, x)
            cases.append((sets, x, point, cert))

        def boundary(self):
            raise AssertionError("oracle_project built a boundary plane")

        monkeypatch.setattr(Halfspace, "boundary", boundary)
        for sets, x, point, cert in cases:
            again, again_cert = oracle_project(sets, x)
            assert again.tobytes() == point.tobytes()
            assert again_cert.lam.tobytes() == cert.lam.tobytes()
            assert again_cert.beta.tobytes() == cert.beta.tobytes()

    def test_too_many_inequalities(self):
        sets = [Halfspace(np.eye(25)[i], 1.0) for i in range(21)]
        with pytest.raises(TooManyConstraints):
            oracle_project(sets, np.zeros(25))

    def test_individually_empty_set(self):
        with pytest.raises(EmptySet):
            oracle_project([Halfspace([0, 0], -1.0)], [0, 0])

    def test_empty_slab(self):
        with pytest.raises(EmptySet):
            oracle_project([Halfspace([1, 0], -2.0), Halfspace([-1, 0], -2.0)], [0, 0])

    def test_inconsistent_planes(self):
        with pytest.raises(EmptySet):
            oracle_project([Hyperplane([1, 0], 1.0), Hyperplane([2, 0], 5.0)], [0, 0])

    def test_redundant_active_constraints(self):
        # duplicated halfspace: degenerate active sets must not break the sweep
        point, cert = oracle_project(
            [Halfspace([1, 0], 0.0), Halfspace([2, 0], 0.0)], [3, 1]
        )
        np.testing.assert_allclose(point, [0, 1])
        assert cert.valid

    def test_candidate_uniqueness_across_active_sets(self):
        # replicate the enumeration: every feasible candidate with
        # nonnegative multipliers must be the same point
        rng = np.random.default_rng(41)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
            w1, w2 = li_halfspace_pair(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            candidates = []
            for active in [(), (0,), (1,), (0, 1)]:
                planes = [[w1, w2][i].boundary() for i in active]
                if planes:
                    red = reduce_hyperplane_system(planes)
                    if red.status is Feasibility.INFEASIBLE or not red.retained:
                        continue
                    rhs = [np.dot(x, p.u) - p.eta for p in red.retained]
                    beta = solve_gram([p.u for p in red.retained], rhs)
                    point = x - sum(b * p.u for b, p in zip(beta, red.retained))
                    if min(beta, default=0.0) < -1e-9:
                        continue
                else:
                    point = np.asarray(x, dtype=float)
                if np.dot(point, w1.u) - w1.eta > 1e-9 or np.dot(point, w2.u) - w2.eta > 1e-9:
                    continue
                candidates.append(point)
            assert candidates
            for c in candidates[1:]:
                assert np.linalg.norm(c - candidates[0]) <= 1e-8

    def test_agrees_with_plane_system_projector(self):
        rng = np.random.default_rng(42)
        from polyproj.instances import random_hyperplane_system

        for _ in range(100):
            dim = int(rng.integers(2, 5))
            planes = random_hyperplane_system(rng, dim)
            x = random_point(rng, dim)
            point, cert = oracle_project(planes, x)
            bd = project_hyperplanes(planes, x)
            # both paths take the one row scan and the one stacked Gram solve
            assert point.tobytes() == bd.point.tobytes()
            assert cert.beta.tobytes() == bd.coefficients.tobytes()
            assert cert.valid


def full_enumeration(sets, x, tol=1e-9):
    """Reference oracle: every one of the 2^m active sets, from public primitives."""
    x = np.asarray(x, dtype=float)
    eq = [s for s in sets if isinstance(s, Hyperplane)]
    ineq = [s for s in sets if isinstance(s, Halfspace)]
    m = len(ineq)
    best = None
    for mask in range(1 << m):
        active = tuple(i for i in range(m) if mask & (1 << i))
        planes = eq + [ineq[i].boundary() for i in active]
        point = x.copy()
        multipliers = np.zeros(len(planes))
        if planes:
            red = reduce_hyperplane_system(planes)
            if red.status is Feasibility.INFEASIBLE:
                continue
            if red.retained:
                rhs = [float(np.dot(x, p.u)) - p.eta for p in red.retained]
                beta = solve_gram([p.u for p in red.retained], rhs)
                for b, p in zip(beta, red.retained):
                    point -= b * p.u
                for b, idx in zip(beta, red.retained_indices):
                    multipliers[idx] = b
        lam_active = multipliers[len(eq):]
        if np.any(lam_active < -tol):
            continue
        pnorm = polyproj.linalg._norm(point)
        if any(abs(float(np.dot(point, s.u)) - s.eta) > membership_bound(s.eta, s.norm, pnorm, tol) for s in eq):
            continue
        if any(float(np.dot(point, s.u)) - s.eta > membership_bound(s.eta, s.norm, pnorm, tol) for s in ineq):
            continue
        lam = np.zeros(m)
        for pos, i in enumerate(active):
            lam[i] = max(lam_active[pos], 0.0)
        dist = float(np.linalg.norm(point - x))
        if best is None or (dist, active) < best[:2]:
            best = (dist, active, point, lam, multipliers[: len(eq)])
    if best is None:
        raise EmptySet("empty intersection")
    return best[2:]


def degenerate_instance(rng, dim, m):
    """Planes and halfspaces around an anchor, with the degeneracies the
    active-set pruning must survive: duplicated, scaled and opposed
    halfspaces, zero normals, and a duplicated hyperplane."""
    anchor = random_point(rng, dim, 1.0)
    sets = []
    for _ in range(int(rng.integers(0, 3))):
        u = unit_vector(rng, dim)
        sets.append(Hyperplane(u, float(np.dot(u, anchor))))
    if sets and rng.uniform() < 0.4:
        sets.append(Hyperplane(2.0 * sets[0].u, 2.0 * sets[0].eta))
    if rng.uniform() < 0.2:
        sets.append(Hyperplane(np.zeros(dim), 0.0))
    halfspaces = []
    for _ in range(m):
        r = rng.uniform()
        if r < 0.1:
            halfspaces.append(Halfspace(np.zeros(dim), float(rng.choice([0.0, 0.5]))))
        elif r < 0.35 and halfspaces:
            h = halfspaces[int(rng.integers(len(halfspaces)))]
            c = float(rng.choice([1.0, 3.0, -1.0]))
            shift = float(rng.choice([0.0, 0.3, -0.5]))
            halfspaces.append(Halfspace(c * h.u, c * h.eta + shift))
        else:
            u = unit_vector(rng, dim)
            halfspaces.append(Halfspace(u, float(np.dot(u, anchor)) + float(rng.uniform(-0.2, 1.0))))
    sets += halfspaces
    order = rng.permutation(len(sets))
    return [sets[i] for i in order], anchor + random_point(rng, dim)


class TestActiveSetPruning:
    def test_pruning_matches_full_enumeration_bit_for_bit(self):
        rng = np.random.default_rng(46)
        outcomes = {"point": 0, "empty": 0, "m_above_d": 0}
        for trial in range(120):
            dim = 2 + trial % 4
            m = int(rng.integers(0, 9))
            sets, x = degenerate_instance(rng, dim, m)
            outcomes["m_above_d"] += m > dim
            try:
                expected = full_enumeration(sets, x)
            except EmptySet:
                outcomes["empty"] += 1
                with pytest.raises(EmptySet):
                    oracle_project(sets, x)
                continue
            outcomes["point"] += 1
            point, cert = oracle_project(sets, x)
            for got, want in zip((point, cert.lam, cert.beta), expected):
                assert np.array_equal(got, want)
        assert min(outcomes.values()) > 0, outcomes

    def test_enumeration_capped_by_equality_rank(self, monkeypatch):
        # d = 5, one plane, 8 halfspaces: sum_{k<=4} C(8,k) = 163 active sets,
        # each built by one bordered step: the root's by the hyperplane scan,
        # the other 162 by the walk; duplicating the plane leaves rank(E) = 1,
        # so the count must not move
        scanned, walked = [], []
        step = polyproj.linalg._border

        def counting(steps):
            def counting_step(w, p, beta, q, v, rhs):
                steps.append(1 if v.ndim == 1 else len(v))
                return step(w, p, beta, q, v, rhs)

            return counting_step

        monkeypatch.setattr(polyproj.linalg, "_border", counting(scanned))
        monkeypatch.setattr(polyproj.oracle, "_border", counting(walked))
        rng = np.random.default_rng(47)
        anchor = random_point(rng, 5, 1.0)
        u = unit_vector(rng, 5)
        plane = Hyperplane(u, float(np.dot(u, anchor)))
        halfspaces = []
        for _ in range(8):
            u = unit_vector(rng, 5)
            halfspaces.append(Halfspace(u, float(np.dot(u, anchor)) + float(rng.uniform(0.0, 1.0))))
        x = anchor + random_point(rng, 5)
        for planes in ([plane], [plane, plane]):
            scanned.clear()
            walked.clear()
            oracle_project(planes + halfspaces, x)
            assert scanned == [1]
            assert sum(scanned) + sum(walked) == 163
        # a parallel plane with another offset empties the set before the walk
        walked.clear()
        with pytest.raises(EmptySet):
            oracle_project([plane, Hyperplane(2.0 * plane.u, 2.0 * plane.eta + 1.0)] + halfspaces, x)
        assert walked == []

    def test_more_subsets_than_one_stack(self, monkeypatch):
        # d = 5, 11 halfspaces: C(11,5) = 462 active sets keep 5 rows, so that
        # level takes its bordered steps in more than one stack of at most GRAM_STACK
        solved = []
        step = polyproj.oracle._border

        def counting_step(w, p, beta, q, v, rhs):
            solved.append(len(v))
            return step(w, p, beta, q, v, rhs)

        monkeypatch.setattr(polyproj.oracle, "_border", counting_step)
        rng = np.random.default_rng(48)
        anchor = random_point(rng, 5, 1.0)
        sets = []
        for _ in range(11):
            u = unit_vector(rng, 5)
            sets.append(Halfspace(u, float(np.dot(u, anchor)) + float(rng.uniform(-0.2, 1.0))))
        x = anchor + random_point(rng, 5, 4.0)
        point, cert = oracle_project(sets, x)
        assert max(solved) == polyproj.oracle.GRAM_STACK
        assert sum(solved) > 2 * polyproj.oracle.GRAM_STACK
        for got, want in zip((point, cert.lam, cert.beta), full_enumeration(sets, x)):
            assert np.array_equal(got, want)

    @staticmethod
    def wide_instance(rng, degenerate):
        # 12 inequalities in R^13: every subset is visited, and the widest
        # level, C(12, 6) = 924 active sets, spans several stacks
        dim = 13
        anchor = random_point(rng, dim, 1.0)
        sets = []
        for _ in range(10 if degenerate else 12):
            u = unit_vector(rng, dim)
            sets.append(Halfspace(u, float(np.dot(u, anchor)) + float(rng.uniform(-0.2, 1.0))))
        if degenerate:
            # a plane, a scaled copy and an opposed, shifted copy: dependent rows
            u = unit_vector(rng, dim)
            sets.insert(3, Hyperplane(u, float(np.dot(u, anchor))))
            sets.append(Halfspace(2.0 * sets[0].u, 2.0 * sets[0].eta))
            sets.insert(6, Halfspace(-sets[1].u, 0.3 - sets[1].eta))
        return sets, anchor + random_point(rng, dim, 4.0)

    def test_wide_levels_match_full_enumeration_bit_for_bit(self):
        rng = np.random.default_rng(51)
        for degenerate in (False, True):
            sets, x = self.wide_instance(rng, degenerate)
            point, cert = oracle_project(sets, x)
            for got, want in zip((point, cert.lam, cert.beta), full_enumeration(sets, x)):
                assert np.array_equal(got, want)

    def test_basis_steps_stay_within_one_stack(self, monkeypatch):
        # each of the 2^12 - 1 nonempty active sets takes one basis step, in
        # stacked calls of at most GRAM_STACK rows
        rows = []
        extend = polyproj.oracle._extend_bases

        def counting_extend(q, v):
            rows.append(len(v))
            return extend(q, v)

        monkeypatch.setattr(polyproj.oracle, "_extend_bases", counting_extend)
        sets, x = self.wide_instance(np.random.default_rng(52), degenerate=False)
        oracle_project(sets, x)
        assert sum(rows) == 2**12 - 1
        assert max(rows) == polyproj.oracle.GRAM_STACK

    def test_feasible_root_ends_the_walk(self, monkeypatch):
        # x inside every halfspace is its own projection, at distance 0 and
        # with the smallest key, so no basis step runs
        calls = []
        extend = polyproj.oracle._extend_bases

        def counting_extend(q, v):
            calls.append(len(v))
            return extend(q, v)

        monkeypatch.setattr(polyproj.oracle, "_extend_bases", counting_extend)
        rng = np.random.default_rng(53)
        x = random_point(rng, 5, 1.0)
        inside = []
        for _ in range(14):
            u = unit_vector(rng, 5)
            inside.append(Halfspace(u, float(np.dot(u, x)) + float(rng.uniform(0.1, 1.0))))
        point, cert = oracle_project(inside, x)
        assert calls == []
        assert point.tobytes() == x.tobytes()
        assert not cert.lam.any() and cert.valid

    def test_feasible_root_off_x_is_still_walked(self):
        # a plane moves x, and boundaries through the root's point hold
        # candidates that can round nearer to x than the root: the walk
        # must still find the one the full enumeration keeps
        rng = np.random.default_rng(54)
        for _ in range(20):
            x = random_point(rng, 5, 2.0)
            u = unit_vector(rng, 5)
            plane = Hyperplane(u, float(np.dot(u, x)) + float(rng.uniform(-1.0, 1.0)))
            root = project_hyperplanes([plane], x).point
            sets = [plane]
            for _ in range(6):
                v = unit_vector(rng, 5)
                sets.append(Halfspace(v, float(np.dot(v, root)) + float(rng.choice([0.0, 0.3]))))
            point, cert = oracle_project(sets, x)
            for got, want in zip((point, cert.lam, cert.beta), full_enumeration(sets, x)):
                assert np.array_equal(got, want)


def referee_instance(rng, dim, m, grid):
    """Planes and halfspaces around an anchor, for the exact referee.

    On the grid, normals have entries in {-1, -1/2, 0, 1/2, 1} and the
    anchor in quarters, so exact degeneracies (dependent triples, zero
    normals, touching constraints) are common; off it, normals are random
    unit vectors.  Copies are scaled by 1, 2, -1 or -1/2, which floats
    represent exactly, so duplicated and opposed halfspaces are exactly
    parallel.
    """

    def normal():
        return rng.integers(-2, 3, size=dim) / 2.0 if grid else unit_vector(rng, dim)

    anchor = rng.integers(-4, 5, size=dim) / 4.0 if grid else random_point(rng, dim, 1.0)
    sets = []
    for _ in range(int(rng.integers(0, 3))):
        u = normal()
        sets.append(Hyperplane(u, float(np.dot(u, anchor))))
    if sets and rng.uniform() < 0.3:
        sets.append(Hyperplane(2.0 * sets[0].u, 2.0 * sets[0].eta))
    halfspaces = []
    for _ in range(m):
        if halfspaces and rng.uniform() < 0.35:
            h = halfspaces[int(rng.integers(len(halfspaces)))]
            c = float(rng.choice([1.0, 2.0, -1.0, -0.5]))
            halfspaces.append(Halfspace(c * h.u, c * h.eta + float(rng.choice([0.0, 0.25, -0.5]))))
        else:
            u = normal()
            halfspaces.append(Halfspace(u, float(np.dot(u, anchor)) + float(rng.choice([-0.25, 0.0, 0.5]))))
    sets += halfspaces
    order = rng.permutation(len(sets))
    x = anchor + (rng.integers(-8, 9, size=dim) / 4.0 if grid else random_point(rng, dim, 2.0))
    return [sets[i] for i in order], x


class TestExactReferee:
    def test_oracle_matches_exact_projection(self):
        # Bound, fixed before the first run: the oracle's point lies within
        # 1e-8 * (1 + |x|) of the exact projection.  The oracle accepts
        # candidates whose gaps and multiplier signs are within KKT_TOL = 1e-9
        # of exact; on these unit-scale instances that slack, times the
        # conditioning of a few unit normals, stays below ten times KKT_TOL,
        # and float rounding adds about 1e-15.  An exactly empty intersection
        # raises EmptySet, unless it is empty by less than the membership
        # tolerance: constraints that touch at the anchor can miss each other
        # by a rounding error, and then the oracle's point must violate no
        # constraint, in exact arithmetic, by more than membership_bound.
        rng = np.random.default_rng(49)
        outcomes = {"point": 0, "empty": 0, "grid": 0}
        for trial in range(80):
            grid = trial % 2 == 0
            dim = 1 + trial % 4 if grid else 2 + trial % 3
            sets, x = referee_instance(rng, dim, int(rng.integers(0, 7)), grid)
            exact = exact_project(sets, x)
            outcomes["grid"] += grid
            if exact is None:
                outcomes["empty"] += 1
                try:
                    point, _ = oracle_project(sets, x)
                except EmptySet:
                    continue
                for s in sets:
                    gap = sum(Fraction(float(p)) * Fraction(float(c)) for p, c in zip(point, s.u)) - Fraction(s.eta)
                    gap = abs(gap) if s.kind == "hyperplane" else gap
                    assert gap <= Fraction(membership_bound(s.eta, s.norm, polyproj.linalg._norm(point), KKT_TOL))
                continue
            outcomes["point"] += 1
            point, cert = oracle_project(sets, x)
            assert cert.valid
            err_sq = sum((Fraction(float(p)) - e) ** 2 for p, e in zip(point, exact))
            assert err_sq <= Fraction(1e-8 * (1.0 + float(np.linalg.norm(x)))) ** 2
        assert min(outcomes.values()) > 0, outcomes


def near_dependent_triple(rng, theta):
    """Three hyperplanes through an anchor in R^4: u1 and u2 random unit
    normals, and u3 a unit normal at angle ``theta`` to their span."""
    u1, u2 = unit_vector(rng, 4), unit_vector(rng, 4)
    basis = np.linalg.qr(np.column_stack([u1, u2, rng.normal(size=(4, 2))]))[0].T
    m = unit_vector(rng, 2) @ basis[:2]
    u3 = np.cos(theta) * m + np.sin(theta) * basis[2]
    anchor = random_point(rng, 4, 1.0)
    planes = [Hyperplane(u, float(np.dot(u, anchor))) for u in (u1, u2, u3)]
    return planes, anchor + random_point(rng, 4, 2.0)


class TestNearDependentAccuracy:
    @pytest.mark.parametrize("theta", [1e-2, 1e-4, 1e-6])
    def test_hyperplane_triples_match_exact_projection(self, theta):
        # Bound, fixed before the first run: the point lies within
        # 1e3 * eps * (1 + |x|) / theta of the exact projection of the float
        # inputs, eps = 2.2e-16.  The rows have condition number about
        # 1 / theta, and a method that never squares it moves the point by
        # rounding times that condition number, times a modest constant.
        # Solving the normal equations squares it, an error near
        # eps * |x| / theta^2.  Both project_hyperplanes and the oracle,
        # which share the row scan, are held to the bound.
        eps = float(np.finfo(float).eps)
        rng = np.random.default_rng(55)
        for _ in range(200):
            planes, x = near_dependent_triple(rng, theta)
            exact = exact_project(planes, x)
            bound = Fraction(1e3 * eps * (1.0 + float(np.linalg.norm(x))) / theta)
            for point in (project_hyperplanes(planes, x).point, oracle_project(planes, x).point):
                err_sq = sum((Fraction(float(p)) - e) ** 2 for p, e in zip(point, exact))
                assert err_sq <= bound**2


class TestHyperplaneRowMembership:
    def test_plane_dropped_as_dependent_still_binds(self, monkeypatch):
        # at a dependence tolerance of 1e-3 the second plane, tilted by 1e-5,
        # counts as a copy of the first and is dropped by the row scan; the planes
        # still meet only on the x3 axis, so any point returned must lie on
        # both.  The tolerance is raised at every binding the row step reads.
        for module in (polyproj.linalg,):
            monkeypatch.setattr(module, "DEPENDENCE_TOL", 1e-3)
        tilt = 1e-5
        planes = [Hyperplane([1, 0, 0], 0.0), Hyperplane([np.cos(tilt), np.sin(tilt), 0], 0.0)]
        sets = planes + [Halfspace([0, 0, 1], 5.0)]
        try:
            point, _ = oracle_project(sets, [3, 5, 1])
        except EmptySet:
            return
        for plane in planes:
            assert contains(plane, point) is Membership.ON_PLANE


class TestKktCheck:
    def test_plugin_arithmetic_valid(self):
        sets = [Hyperplane([1, 0], 1.0), Halfspace([0, 1], 0.0)]
        cert = kkt_check(sets, [3, 2], [1, 0], lam=[2.0], beta=[2.0])
        assert cert.stationarity_residual <= 1e-12
        assert cert.feasibility_residual <= 1e-12
        assert cert.complementarity_residual <= 1e-12
        assert cert.valid

    def test_dropped_multiplier_breaks_stationarity(self):
        # |(1,0) - (3,2) + 2*(1,0)| = |(0,-2)| = 2
        sets = [Hyperplane([1, 0], 1.0), Halfspace([0, 1], 0.0)]
        cert = kkt_check(sets, [3, 2], [1, 0], lam=[0.0], beta=[2.0])
        assert cert.stationarity_residual == pytest.approx(2.0)
        assert not cert.valid

    def test_interior_point_zero_multipliers(self):
        cert = kkt_check([Halfspace([1, 0], 5.0)], [1, 1], [1, 1], lam=[0.0], beta=[])
        assert cert.valid

    def test_negative_multiplier_invalid(self):
        cert = kkt_check([Halfspace([1, 0], 0.0)], [1, 0], [0, 0], lam=[-1.0], beta=[])
        assert not cert.valid

    def test_multiplier_count_checked(self):
        with pytest.raises(DimensionMismatch):
            kkt_check([Halfspace([1, 0], 0.0)], [1, 0], [0, 0], lam=[], beta=[])

    def test_infeasible_point_detected(self):
        cert = kkt_check([Halfspace([1, 0], 0.0)], [2, 0], [2, 0], lam=[0.0], beta=[])
        assert cert.feasibility_residual == pytest.approx(2.0)
        assert not cert.valid


class TestCertificateSoundness:
    def test_halfspace_pair_multipliers(self):
        rng = np.random.default_rng(43)
        for _ in range(400):
            dim = int(rng.integers(2, 6))
            if rng.uniform() < 0.3:
                case = LD_PAIR_CASES[int(rng.integers(len(LD_PAIR_CASES)))]
                if case in EMPTY_LD_PAIR_CASES:
                    continue
                w1, w2 = ld_pair_case(rng, dim, case)
            else:
                flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
                w1, w2 = li_halfspace_pair(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            out = project_halfspace_pair(w1, w2, x)
            if out.case == "merged_halfspace":
                merged_eta = min(
                    w1.eta * np.linalg.norm(w2.u), w2.eta * np.linalg.norm(w1.u)
                )
                sets = [Halfspace(out.normals[0], merged_eta)]
            else:
                sets = [w1, w2]
            cert = kkt_check(sets, x, out.point, out.coefficients, [])
            assert cert.valid

    def test_plane_halfspace_multipliers(self):
        rng = np.random.default_rng(44)
        for _ in range(400):
            dim = int(rng.integers(2, 6))
            flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
            h1, w2 = plane_halfspace_li(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            out = project_hyperplane_halfspace(h1, w2, x)
            cert = kkt_check(
                [h1, w2], x, out.point, [out.coefficients[1]], [out.coefficients[0]]
            )
            assert cert.valid

    def test_plane_system_multipliers(self):
        rng = np.random.default_rng(45)
        from polyproj.instances import random_hyperplane_system

        for _ in range(200):
            dim = int(rng.integers(2, 6))
            planes = random_hyperplane_system(rng, dim, num_planes=int(rng.integers(2, 5)))
            x = random_point(rng, dim)
            out = project_hyperplanes(planes, x)
            cert = kkt_check(planes, x, out.point, [], out.coefficients)
            assert cert.valid
