import math

import numpy as np
import pytest

from polyproj import (
    DependentNormals,
    EmptySet,
    Halfspace,
    Hyperplane,
    Region,
    certify,
    classify_region_halfspace_pair,
    is_empty,
    kkt_check,
    oracle_project,
    project,
    project_halfspace_pair,
    project_hyperplane_halfspace,
    project_hyperplanes,
)
from polyproj.atomic import SetBlock, project_halfspace
from polyproj.closed_form import project_pair_rows
from polyproj.errors import DimensionMismatch
from polyproj.instances import (
    pair_of_normals,
    random_hyperplane_system,
    random_offset,
    random_point,
    unit_vector,
)
from polyproj.linalg import _norm, _scan_rows
from polyproj.sets import membership_bound

from helpers import (
    EMPTY_LD_PAIR_CASES,
    LD_PAIR_CASES,
    feasible_point,
    ld_pair_case,
    li_halfspace_pair,
    plane_halfspace_ld,
    plane_halfspace_li,
    point_in_region,
    reconstruction,
    region_counter,
)


class TestProjectHyperplanes:
    def test_orthonormal_normals_set_coordinates(self):
        planes = [Hyperplane([1, 0, 0], 1.0), Hyperplane([0, 1, 0], 2.0)]
        out = project_hyperplanes(planes, [0, 0, 5])
        np.testing.assert_allclose(out.point, [1, 2, 5])

    def test_two_lines_meet_in_a_point(self):
        # the intersection point solves the 2x2 system directly
        expected = np.linalg.solve([[1.0, 0.0], [1.0, 1.0]], [1.0, 3.0])
        np.testing.assert_allclose(expected, [1.0, 2.0])
        planes = [Hyperplane([1, 0], 1.0), Hyperplane([1, 1], 3.0)]
        out = project_hyperplanes(planes, [0, 0])
        np.testing.assert_allclose(out.point, [1, 2], atol=1e-12)

    def test_redundant_pair_reduces(self):
        planes = [Hyperplane([1, 0], 1.0), Hyperplane([2, 0], 2.0)]
        out = project_hyperplanes(planes, [4, 4])
        np.testing.assert_allclose(out.point, [1, 4])
        assert out.coefficients[1] == 0.0

    def test_inconsistent_system_raises(self):
        with pytest.raises(EmptySet):
            project_hyperplanes([Hyperplane([1, 0], 1.0), Hyperplane([2, 0], 5.0)], [0, 0])

    def test_all_zero_normals_whole_space(self):
        out = project_hyperplanes([Hyperplane([0, 0], 0.0)], [3, 4])
        np.testing.assert_allclose(out.point, [3, 4])

    def test_originals_satisfied_and_reconstruction(self):
        rng = np.random.default_rng(31)
        from polyproj.instances import random_hyperplane_system

        for _ in range(200):
            dim = int(rng.integers(2, 7))
            planes = random_hyperplane_system(rng, dim, num_planes=int(rng.integers(2, 5)))
            x = random_point(rng, dim)
            out = project_hyperplanes(planes, x)
            for p in planes:
                assert abs(np.dot(out.point, p.u) - p.eta) <= 1e-8
            np.testing.assert_allclose(
                reconstruction(out, x), out.point, atol=1e-12
            )

    def test_bits_of_the_per_plane_right_hand_sides(self):
        # the right-hand sides come from one row_dots on the stacked,
        # prescaled normals; the reference takes each plane's
        # float(np.dot(x, u)) on its own, and maps each multiplier back
        rng = np.random.default_rng(24)
        checked = 0
        for trial in range(600):
            dim = int(rng.integers(1, 7))
            if dim == 1:
                planes = [Hyperplane(rng.normal(size=1), rng.normal()) for _ in range(2)]
                planes.append(Hyperplane(2.0 * planes[0].u, 2.0 * planes[0].eta))
            else:
                planes = random_hyperplane_system(rng, dim, num_planes=int(rng.integers(2, 6)))
            if trial % 2:
                planes = [Hyperplane(c * p.u, c * p.eta) for p, c in
                          zip(planes, 10.0 ** rng.uniform(-150, 150, size=len(planes)))]
            x = random_point(rng, dim, 10.0 ** rng.uniform(-3, 3))
            offsets = np.array([p._eta for p in planes])
            rhs = np.array([float(np.dot(x, p._u)) for p in planes]) - offsets
            kept, (_, _, _, beta), consistent = _scan_rows(np.array([p._u for p in planes]), offsets, rhs)
            if not consistent:
                with pytest.raises(EmptySet):
                    project_hyperplanes(planes, x)
                continue
            point, coefficients = x.copy(), np.zeros(len(planes))
            for b, idx in zip(beta, kept):
                point -= b * planes[idx]._u
                coefficients[idx] = math.ldexp(b, planes[idx]._k)
            out = project_hyperplanes(planes, x)
            assert out.point.tobytes() == point.tobytes()
            assert out.coefficients.tobytes() == coefficients.tobytes()
            checked += 1
        assert checked > 500


class TestClassifyRegion:
    def test_inside_both(self):
        w1, w2 = Halfspace([1, 0], 0.0), Halfspace([0, 1], 0.0)
        assert classify_region_halfspace_pair(w1, w2, [-1, -1]) is Region.INSIDE_BOTH

    def test_c2_example(self):
        # check the branch inequality by hand: |u2|^2 (a1) = 2 <= q * a2 = 4
        w1, w2 = Halfspace([1, 0], 1.0), Halfspace([1, 1], 0.0)
        a1 = np.dot([2, 2], [1, 0]) - 1.0
        a2 = np.dot([2, 2], [1, 1]) - 0.0
        assert np.dot([1, 1], [1, 1]) * a1 <= np.dot([1, 0], [1, 1]) * a2
        assert classify_region_halfspace_pair(w1, w2, [2, 2]) is Region.C2

    def test_c3_for_orthogonal_outside_both(self):
        w1, w2 = Halfspace([1, 0], 0.0), Halfspace([0, 1], 0.0)
        assert classify_region_halfspace_pair(w1, w2, [1, 1]) is Region.C3

    def test_dependent_normals_rejected(self):
        with pytest.raises(DependentNormals):
            classify_region_halfspace_pair(
                Halfspace([1, 0], 0.0), Halfspace([2, 0], 1.0), [1, 1]
            )

    @pytest.mark.parametrize(
        "pair",
        [
            (Hyperplane([1, 0], 0.0), Halfspace([0, 1], 0.0)),
            (Halfspace([0, 1], 0.0), Hyperplane([1, 0], 0.0)),
            (Hyperplane([1, 0], 0.0), Hyperplane([0, 1], 0.0)),
        ],
    )
    def test_a_hyperplane_is_rejected(self, pair):
        # (-1, -5) is inside both halfspaces' sides but off the plane x1 = 0
        with pytest.raises(ValueError):
            classify_region_halfspace_pair(*pair, [-1, -5])

    def test_partition_exactly_one_raw_predicate(self):
        rng = np.random.default_rng(32)
        counts = region_counter()
        for _ in range(2000):
            dim = int(rng.integers(2, 6))
            flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
            w1, w2 = li_halfspace_pair(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            a1 = float(np.dot(x, w1.u)) - w1.eta
            a2 = float(np.dot(x, w2.u)) - w2.eta
            q = float(np.dot(w1.u, w2.u))
            s1 = float(np.dot(w1.u, w1.u))
            s2 = float(np.dot(w2.u, w2.u))
            preds = {
                Region.INSIDE_BOTH: a1 <= 0 and a2 <= 0,
                Region.C1: a1 > 0 and s1 * a2 <= q * a1,
                Region.C2: a2 > 0 and s2 * a1 <= q * a2,
                Region.C3: s1 * a2 > q * a1 and s2 * a1 > q * a2,
            }
            assert sum(preds.values()) == 1
            tag = classify_region_halfspace_pair(w1, w2, x)
            assert preds[tag]
            counts[tag] += 1
        assert all(c > 0 for c in counts.values())


def _assert_empty_exactly_when_a_member_is(projector, first_kind):
    """EmptySet exactly when a member is empty, over zero-normal pairs and signed offsets."""
    zero, u = np.zeros(2), np.array([0.6, 0.8])
    offsets = (-1.0, -0.0, 0.0, 1.0)
    points = [np.array([2.0, -1.0]), np.array([-3.0, 0.5]), np.zeros(2)]
    for n1, n2 in ((zero, u), (u, zero), (zero, zero)):
        for e1 in offsets:
            for e2 in offsets:
                s1, s2 = first_kind(n1, e1), Halfspace(n2, e2)
                for x in points:
                    if is_empty(s1) or is_empty(s2):
                        with pytest.raises(EmptySet):
                            projector(s1, s2, x)
                    else:
                        assert certify(projector(s1, s2, x), x).valid


class TestProjectHalfspacePair:
    def test_orthant_clamp(self):
        out = project_halfspace_pair(Halfspace([1, 0], 0.0), Halfspace([0, 1], 0.0), [2, 3])
        np.testing.assert_allclose(out.point, [0, 0])
        np.testing.assert_allclose(out.coefficients, [2, 3])
        assert out.region is Region.C3

    def test_c2_projects_to_second_boundary(self):
        # brute-force check over the polyhedron confirms (0,0)
        w1, w2 = Halfspace([1, 0], 1.0), Halfspace([1, 1], 0.0)
        x = np.array([2.0, 2.0])
        grid = [
            np.array([a, b])
            for a in np.linspace(-2, 2, 161)
            for b in np.linspace(-2, 2, 161)
        ]
        feasible = [g for g in grid if np.dot(g, w1.u) <= w1.eta and np.dot(g, w2.u) <= w2.eta]
        brute = min(feasible, key=lambda g: np.linalg.norm(g - x))
        np.testing.assert_allclose(brute, [0, 0], atol=1e-12)
        out = project_halfspace_pair(w1, w2, x)
        np.testing.assert_allclose(out.point, [0, 0], atol=1e-12)
        assert out.region is Region.C2
        np.testing.assert_allclose(out.coefficients, [0.0, 2.0])

    def test_slab_clamp(self):
        # opposed normals make the slab -0.5 <= x1 <= 1
        w1, w2 = Halfspace([1, 0], 1.0), Halfspace([-2, 0], 1.0)
        out = project_halfspace_pair(w1, w2, [-3, 0])
        np.testing.assert_allclose(out.point, [-0.5, 0])
        assert out.case == "slab"
        assert min(out.coefficients) >= 0.0
        np.testing.assert_allclose(
            out.point, np.array([-3.0, 0.0]) - out.coefficients[1] * w2.u
        )

    def test_empty_slab_raises(self):
        with pytest.raises(EmptySet, match="empty intersection"):
            project_halfspace_pair(Halfspace([1, 0], -2.0), Halfspace([-1, 0], -2.0), [0, 0])

    def test_zero_normal_member_empty_exactly_when_a_member_is(self):
        _assert_empty_exactly_when_a_member_is(project_halfspace_pair, Halfspace)

    def test_all_dependent_cases(self):
        rng = np.random.default_rng(33)
        for case in LD_PAIR_CASES:
            for _ in range(40):
                dim = int(rng.integers(2, 5))
                w1, w2 = ld_pair_case(rng, dim, case)
                x = random_point(rng, dim)
                if case in EMPTY_LD_PAIR_CASES:
                    with pytest.raises(EmptySet):
                        project_halfspace_pair(w1, w2, x)
                    continue
                out = project_halfspace_pair(w1, w2, x)
                assert out.case is not None
                assert min(out.coefficients, default=0.0) >= 0.0
                np.testing.assert_allclose(
                    reconstruction(out, x), out.point, atol=1e-12
                )

    def test_multiplier_signs_and_c3_on_both_boundaries(self):
        rng = np.random.default_rng(34)
        seen_c3 = 0
        for _ in range(1500):
            dim = int(rng.integers(2, 6))
            flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
            w1, w2 = li_halfspace_pair(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            out = project_halfspace_pair(w1, w2, x)
            assert out.coefficients.min() >= 0.0
            if out.region is Region.C3:
                seen_c3 += 1
                assert out.coefficients.min() > 0.0
                assert abs(np.dot(out.point, w1.u) - w1.eta) <= 1e-10
                assert abs(np.dot(out.point, w2.u) - w2.eta) <= 1e-10
        assert seen_c3 > 50

    def test_variational_inequality(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
            w1, w2 = li_halfspace_pair(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            p = project_halfspace_pair(w1, w2, x).point
            for _ in range(100):
                z = feasible_point(rng, [w1, w2])
                if z is None:
                    break
                assert np.dot(x - p, z - p) <= 1e-9

    def test_invariant_under_positive_rescaling(self):
        # {<x,u> <= eta} is unchanged by (u, eta) -> (c u, c eta), c > 0
        rng = np.random.default_rng(47)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
            w1, w2 = li_halfspace_pair(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            base = project_halfspace_pair(w1, w2, x)
            c1, c2 = rng.uniform(0.1, 1e3, size=2)
            scaled = project_halfspace_pair(
                Halfspace(c1 * w1.u, c1 * w1.eta),
                Halfspace(c2 * w2.u, c2 * w2.eta),
                x,
            )
            assert np.linalg.norm(base.point - scaled.point) <= 1e-9 * (
                1 + np.linalg.norm(base.point)
            )
            assert base.region is scaled.region

    def test_ill_conditioned_flag(self):
        # normals an angle of 1e-4 apart: independent but nearly dependent
        theta = 1e-4
        u1 = np.array([1.0, 0.0])
        u2 = np.array([np.cos(theta), np.sin(theta)])
        out = project_halfspace_pair(Halfspace(u1, 1.0), Halfspace(u2, -1.0), [3.0, 3.0])
        assert out.ill_conditioned
        healthy = project_halfspace_pair(Halfspace(u1, 1.0), Halfspace([0.0, 1.0], 1.0), [3, 3])
        assert not healthy.ill_conditioned

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(36)
        for _ in range(500):
            dim = int(rng.integers(2, 6))
            if rng.uniform() < 0.3:
                case = LD_PAIR_CASES[int(rng.integers(len(LD_PAIR_CASES)))]
                w1, w2 = ld_pair_case(rng, dim, case)
            else:
                flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
                w1, w2 = li_halfspace_pair(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            try:
                expected, _ = oracle_project([w1, w2], x)
            except EmptySet:
                with pytest.raises(EmptySet):
                    project_halfspace_pair(w1, w2, x)
                continue
            out = project_halfspace_pair(w1, w2, x)
            assert np.linalg.norm(out.point - expected) <= 1e-9


def _stepping_branches(rng, dim):
    """(case, projector, sets, active halfspace) for each dependent branch that steps."""
    zero = np.zeros(dim)
    u = unit_vector(rng, dim)
    w = Halfspace(u, 0.7)
    aligned = Halfspace(1.5 * u, 2.0)
    n1, n2 = float(np.linalg.norm(w.u)), float(np.linalg.norm(aligned.u))
    merged = Halfspace(n2 * w.u, min(w.eta * n2, aligned.eta * n1))
    return [
        ("first_set_only", project_halfspace_pair, (w, Halfspace(zero, 1.0)), w),
        ("second_set_only", project_halfspace_pair, (Halfspace(zero, 0.5), w), w),
        ("merged_halfspace", project_halfspace_pair, (w, aligned), merged),
        ("plane_is_whole_space", project_hyperplane_halfspace, (Hyperplane(zero, 0.0), w), w),
    ]


class TestDependentStepsMatchAtomic:
    def test_point_equals_single_halfspace_projection_bit_for_bit(self):
        rng = np.random.default_rng(71)
        for dim in (2, 3, 5):
            for case, project, sets, active in _stepping_branches(rng, dim):
                on_boundary = active.eta / float(np.dot(active.u, active.u)) * active.u
                just_outside = on_boundary + (1e-14 / float(np.dot(active.u, active.u))) * active.u
                value = float(np.dot(just_outside, active.u)) - active.eta
                assert 0.0 < value <= membership_bound(active.eta, active.norm, _norm(just_outside), 1e-12)
                points = [just_outside, on_boundary + active.u] + [
                    random_point(rng, dim) for _ in range(20)
                ]
                for x in points:
                    out = project(*sets, x)
                    assert out.case == case
                    assert out.point.tobytes() == project_halfspace(active, x).tobytes()

    def test_slab_point_equals_violated_halfspace_projection_bit_for_bit(self):
        u = np.array([0.6, 0.8, 0.0])
        w1, w2 = Halfspace(u, 0.7), Halfspace(-1.5 * u, 2.0)
        rng = np.random.default_rng(72)
        # 1e-14 outside the first boundary, then 1e-14 outside the second
        points = [(0.7 + 1e-14) * u, (-2.0 / 1.5 - 1e-14) * u] + [
            random_point(rng, 3, 4.0) for _ in range(40)
        ]
        for x in points:
            active = w2 if float(np.dot(x, w2.u)) > w2.eta else w1
            out = project_halfspace_pair(w1, w2, x)
            assert out.case == "slab"
            assert out.point.tobytes() == project_halfspace(active, x).tobytes()
        for x in points[:2]:
            assert project_halfspace_pair(w1, w2, x).coefficients.tolist() == [0.0, 0.0]


class TestProjectHyperplaneHalfspace:
    def test_two_multiplier_branch(self):
        # nearest point of the ray {x1 = 1, x2 <= 0} to (3, 2) is the corner
        h1, w2 = Hyperplane([1, 0], 1.0), Halfspace([0, 1], 0.0)
        out = project_hyperplane_halfspace(h1, w2, [3, 2])
        np.testing.assert_allclose(out.point, [1, 0])
        np.testing.assert_allclose(out.coefficients, [2, 2])
        assert out.region is Region.IN_C

    def test_plane_projection_already_feasible(self):
        h1, w2 = Hyperplane([1, 0], 1.0), Halfspace([0, 1], 0.0)
        out = project_hyperplane_halfspace(h1, w2, [3, -5])
        np.testing.assert_allclose(out.point, [1, -5])
        np.testing.assert_allclose(out.coefficients, [2, 0])
        assert out.region is Region.NOT_IN_C

    def test_two_halfspaces_project_as_a_halfspace_pair(self):
        # one body for both names: two halfspaces get the halfspace pair's
        # projection, (0, -5), and not a plane projection onto x2 = 0
        w1, w2, x = Halfspace([0, 1], 0.0), Halfspace([1, 0], 0.0), [1.0, -5.0]
        out = project_hyperplane_halfspace(w1, w2, x)
        ref = project_halfspace_pair(w1, w2, x)
        assert out.point.tobytes() == ref.point.tobytes()
        assert out.coefficients.tobytes() == ref.coefficients.tobytes()
        assert out.region is Region.C2
        np.testing.assert_allclose(out.point, oracle_project([w1, w2], x).point, atol=1e-12)
        np.testing.assert_allclose(out.point, [0.0, -5.0])

    def test_dependent_plane_inside_halfspace(self):
        h1, w2 = Hyperplane([1, 0], 1.0), Halfspace([2, 0], 4.0)
        out = project_hyperplane_halfspace(h1, w2, [9, 9])
        np.testing.assert_allclose(out.point, [1, 9])
        assert out.case == "plane_inside_halfspace"

    def test_dependent_contradiction_raises(self):
        with pytest.raises(EmptySet):
            project_hyperplane_halfspace(Hyperplane([1, 0], 1.0), Halfspace([2, 0], -4.0), [0, 0])

    def test_whole_space_plane_delegates(self):
        h1 = Hyperplane([0, 0], 0.0)
        w2 = Halfspace([1, 0], 1.0)
        out = project_hyperplane_halfspace(h1, w2, [3, 0])
        np.testing.assert_allclose(out.point, [1, 0])
        assert out.case == "plane_is_whole_space"
        with pytest.raises(EmptySet):
            project_hyperplane_halfspace(Hyperplane([0, 0], 2.0), w2, [3, 0])
        # both normals zero
        with pytest.raises(EmptySet):
            project_hyperplane_halfspace(h1, Halfspace([0, 0], -1.0), [3, 0])
        out = project_hyperplane_halfspace(h1, Halfspace([0, 0], 0.0), [3, -4])
        assert out.case == "plane_is_whole_space"
        assert out.point.tolist() == [3.0, -4.0]
        assert out.coefficients.tolist() == [0.0, 0.0]

    def test_whole_space_halfspace_delegates(self):
        h1 = Hyperplane([1, 0], 1.0)
        out = project_hyperplane_halfspace(h1, Halfspace([0, 0], 2.0), [3, 4])
        np.testing.assert_allclose(out.point, [1, 4])
        assert out.case == "halfspace_is_whole_space"
        with pytest.raises(EmptySet):
            project_hyperplane_halfspace(h1, Halfspace([0, 0], -2.0), [3, 4])

    def test_zero_normal_member_empty_exactly_when_a_member_is(self):
        _assert_empty_exactly_when_a_member_is(project_hyperplane_halfspace, Hyperplane)

    def test_result_on_plane_and_in_halfspace(self):
        rng = np.random.default_rng(37)
        seen = {Region.IN_C: 0, Region.NOT_IN_C: 0}
        for _ in range(1000):
            dim = int(rng.integers(2, 6))
            flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
            h1, w2 = plane_halfspace_li(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            out = project_hyperplane_halfspace(h1, w2, x)
            assert abs(np.dot(out.point, h1.u) - h1.eta) <= 1e-10
            assert np.dot(out.point, w2.u) - w2.eta <= 1e-9
            assert out.coefficients[1] >= 0.0
            np.testing.assert_allclose(reconstruction(out, x), out.point, atol=1e-12)
            seen[out.region] += 1
            if out.region is Region.IN_C:
                assert out.coefficients[1] > 0.0
                # the two-multiplier output also sits on the halfspace boundary
                assert abs(np.dot(out.point, w2.u) - w2.eta) <= 1e-10
        assert all(v > 100 for v in seen.values())

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(38)
        for _ in range(400):
            dim = int(rng.integers(2, 6))
            roll = rng.uniform()
            if roll < 0.2:
                h1, w2 = plane_halfspace_ld(rng, dim, contained=True)
            elif roll < 0.3:
                h1, w2 = plane_halfspace_ld(rng, dim, whole_plane=True)
            else:
                flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
                h1, w2 = plane_halfspace_li(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            expected, _ = oracle_project([h1, w2], x)
            out = project_hyperplane_halfspace(h1, w2, x)
            assert np.linalg.norm(out.point - expected) <= 1e-9

    def test_multipliers_pass_kkt(self):
        rng = np.random.default_rng(39)
        for _ in range(300):
            dim = int(rng.integers(2, 5))
            flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
            h1, w2 = plane_halfspace_li(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            out = project_hyperplane_halfspace(h1, w2, x)
            cert = kkt_check(
                [h1, w2], x, out.point, [out.coefficients[1]], [out.coefficients[0]]
            )
            assert cert.valid

    def test_variational_inequality(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
            h1, w2 = plane_halfspace_li(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            p = project_hyperplane_halfspace(h1, w2, x).point
            for _ in range(100):
                z = feasible_point(rng, [h1, w2])
                if z is None:
                    break
                assert np.dot(x - p, z - p) <= 1e-9


class TestHyperplaneSystemVariational:
    def test_variational_equality_on_planes(self):
        rng = np.random.default_rng(46)
        from polyproj.instances import random_hyperplane_system

        for _ in range(50):
            dim = int(rng.integers(2, 6))
            planes = random_hyperplane_system(rng, dim)
            x = random_point(rng, dim)
            p = project_hyperplanes(planes, x).point
            for _ in range(100):
                z = feasible_point(rng, planes)
                if z is None:
                    break
                assert abs(np.dot(x - p, z - p)) <= 1e-9


def _per_family_certificate(sets, x):
    """Reference: each family's projector and its certificate glued by hand."""
    halfspaces = [s for s in sets if isinstance(s, Halfspace)]
    hyperplanes = [s for s in sets if isinstance(s, Hyperplane)]
    if not halfspaces:
        out = project_hyperplanes(hyperplanes, x)
        return kkt_check(hyperplanes, x, out.point, [], out.coefficients)
    if len(halfspaces) == 2:
        w1, w2 = halfspaces
        out = project_halfspace_pair(w1, w2, x)
        if out.case == "merged_halfspace":
            merged_eta = min(
                w1.eta * float(np.linalg.norm(w2.u)), w2.eta * float(np.linalg.norm(w1.u))
            )
            merged = [Halfspace(out.normals[0], merged_eta)]
            return kkt_check(merged, x, out.point, out.coefficients, [])
        return kkt_check([w1, w2], x, out.point, out.coefficients, [])
    h1, w2 = hyperplanes[0], halfspaces[0]
    out = project_hyperplane_halfspace(h1, w2, x)
    return kkt_check([h1, w2], x, out.point, [out.coefficients[1]], [out.coefficients[0]])


def _family_instances(rng):
    """(sets, x) covering every closed-form family, branch and file order."""
    flavors = ("orthogonal", "negative", "positive")
    for case in LD_PAIR_CASES:
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            yield list(ld_pair_case(rng, dim, case)), random_point(rng, dim, 4.0)
    for flavor in flavors:
        for region in (Region.INSIDE_BOTH, Region.C1, Region.C2, Region.C3):
            for _ in range(5):
                dim = int(rng.integers(2, 6))
                w1, w2 = li_halfspace_pair(rng, dim, flavor)
                x = point_in_region(rng, w1, w2, region)
                if x is not None:
                    yield [w1, w2], x
    for _ in range(60):
        dim = int(rng.integers(2, 6))
        h1, w2 = plane_halfspace_li(rng, dim, flavors[int(rng.integers(3))])
        x = random_point(rng, dim, 4.0)
        yield [h1, w2], x
        yield [w2, h1], x
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        x = random_point(rng, dim, 4.0)
        yield list(plane_halfspace_ld(rng, dim, contained=True)), x
        yield list(plane_halfspace_ld(rng, dim, whole_plane=True)), x
        plane = Hyperplane(unit_vector(rng, dim), random_offset(rng))
        yield [plane, Halfspace(np.zeros(dim), 1.0)], x
    for _ in range(30):
        dim = int(rng.integers(3, 7))
        yield random_hyperplane_system(rng, dim, num_planes=4), random_point(rng, dim, 4.0)


class TestProjectAndCertify:
    def test_certificate_equals_per_family_glue(self):
        rng = np.random.default_rng(81)
        seen = set()
        for sets, x in _family_instances(rng):
            try:
                ref = _per_family_certificate(sets, x)
            except EmptySet:
                with pytest.raises(EmptySet):
                    project(sets, x)
                continue
            out = project(sets, x)
            seen.add(out.case if out.region is None else out.region)
            cert = certify(out, x)
            assert cert.lam.tobytes() == ref.lam.tobytes()
            assert cert.beta.tobytes() == ref.beta.tobytes()
            for name in (
                "stationarity_residual",
                "feasibility_residual",
                "complementarity_residual",
                "tol",
                "valid",
            ):
                assert getattr(cert, name) == getattr(ref, name)
            assert cert.valid
        assert seen == {
            None,
            "whole_space",
            "first_set_only",
            "second_set_only",
            "merged_halfspace",
            "slab",
            "plane_inside_halfspace",
            "plane_is_whole_space",
            "halfspace_is_whole_space",
            *Region,
        }

    def test_near_dependent_merge_is_checked_against_the_input_sets(self):
        # 1 - cos(1e-5) is within the dependence tolerance, so the pair
        # merges into x0 <= 0; the merged point (0, 100) violates the
        # second input set by 100 sin(1e-5) ~ 1e-3
        theta = 1e-5
        w1, w2 = Halfspace([1.0, 0.0], 0.0), Halfspace([np.cos(theta), np.sin(theta)], 0.0)
        x = [5.0, 100.0]
        out = project([w1, w2], x)
        assert out.case == "merged_halfspace"
        assert out.inputs == (w1, w2)
        assert len(out.sets) == 1 and len(out.coefficients) == 1
        cert = certify(out, x)
        assert cert.valid is False
        assert cert.feasibility_residual == pytest.approx(100 * np.sin(theta))
        # the merged halfspace alone certifies the point
        merged = kkt_check(out.sets, x, out.point, out.coefficients, [])
        assert merged.valid and merged.feasibility_residual == 0.0

    def test_inputs_default_to_the_certified_sets(self):
        rng = np.random.default_rng(82)
        for sets, x in _family_instances(rng):
            try:
                out = project(sets, x)
            except EmptySet:
                continue
            if out.case != "merged_halfspace":
                assert out.inputs is out.sets

    def test_one_halfspace_is_one_step(self):
        rng = np.random.default_rng(83)
        for dim in (1, 2, 3, 5):
            for _ in range(40):
                w = Halfspace(unit_vector(rng, dim) * rng.uniform(0.1, 10.0), random_offset(rng))
                x = random_point(rng, dim)
                out = project([w], x)
                assert out.point.tobytes() == project_halfspace(w, x).tobytes()
                assert out.sets == (w,) and out.inputs == (w,)
                assert out.region is None and out.case is None
                cert = certify(out, x)
                assert cert.valid
                assert cert.lam.tobytes() == out.coefficients.tobytes()
                point, ref = oracle_project([w], x)
                np.testing.assert_allclose(out.point, point, rtol=0, atol=1e-12)
                np.testing.assert_allclose(cert.lam, ref.lam, rtol=1e-9, atol=1e-12)

    def test_one_empty_halfspace_raises(self):
        with pytest.raises(EmptySet, match="empty intersection"):
            project([Halfspace([0.0, 0.0], -1.0)], [1.0, 2.0])
        out = project([Halfspace([0.0, 0.0], 1.0)], [1.0, 2.0])
        assert out.point.tolist() == [1.0, 2.0] and out.coefficients.tolist() == [0.0]

    def test_unsupported_families_raise(self):
        w = [Halfspace(u, 1.0) for u in np.eye(3)]
        h = [Hyperplane([1.0, 1.0, 0.0], 0.0), Hyperplane([0.0, 1.0, 1.0], 0.0)]
        for sets in (w, h + [w[0]]):
            with pytest.raises(ValueError, match="closed_form supports"):
                project(sets, [1.0, 2.0, 3.0])


_PAIR_FLAVORS = (
    "dependent_positive", "dependent_negative", "orthogonal", "negative", "positive",
    "first_zero", "second_zero", "both_zero",
)

_ALL_PAIR_TAGS = {
    "InsideBoth", "C1", "C2", "C3", "whole_space", "first_set_only", "second_set_only",
    "merged_halfspace", "slab", "InC", "NotInC", "plane_is_whole_space",
    "halfspace_is_whole_space", "plane_inside_halfspace",
}


def _random_pair_row(rng, dim):
    """(first, second, x) for a nonempty pair: every family, zero normals, scaled normals."""
    while True:
        flavor = str(rng.choice(_PAIR_FLAVORS[:2] + _PAIR_FLAVORS[5:] if dim == 1 else _PAIR_FLAVORS))
        if flavor.endswith("zero"):
            u1, u2 = pair_of_normals(rng, dim, "dependent_positive")
            u1 = np.zeros(dim) if flavor in ("first_zero", "both_zero") else u1
            u2 = np.zeros(dim) if flavor in ("second_zero", "both_zero") else u2
        else:
            u1, u2 = pair_of_normals(rng, dim, flavor)
        u1, u2 = u1 * rng.choice([0.3, 1.0, 4.0]), u2 * rng.choice([0.5, 1.0, 7.0])
        plane = rng.uniform() < 0.5
        eta1, eta2 = (0.0 if rng.uniform() < 0.2 else random_offset(rng) for _ in range(2))
        if not u1.any():
            eta1 = 0.0 if plane else abs(eta1)
        if not u2.any():
            eta2 = abs(eta2)
        first = (Hyperplane if plane else Halfspace)(u1, eta1)
        second = Halfspace(u2, eta2)
        x = random_point(rng, dim)
        if rng.uniform() < 0.2:
            x[rng.integers(dim)] = -0.0
        try:
            project_halfspace_pair(first, second, x)
        except EmptySet:
            continue
        return first, second, x


class TestProjectPairRows:
    """The pair-block kernel against the per-point pair projectors, bit for bit."""

    @staticmethod
    def _check(rows):
        firsts, seconds, points = zip(*rows)
        x = np.array(points)
        before = x.copy()
        out = project_pair_rows(SetBlock(firsts), SetBlock(seconds), x)
        assert x.tobytes() == before.tobytes()
        tags = []
        for row, (first, second, point) in zip(out, rows):
            bd = project_halfspace_pair(first, second, point)
            assert row.tobytes() == bd.point.tobytes()
            tags.append(bd.case if bd.region is None else bd.region.value)
        return tags

    @pytest.mark.parametrize("dim", [1, 2, 5, 9])
    @pytest.mark.parametrize("n", [1, 25])
    def test_rows_match_the_scalar_projectors(self, dim, n):
        rng = np.random.default_rng(1000 * dim + n)
        seen = set()
        for _ in range(400 // n):
            seen.update(self._check([_random_pair_row(rng, dim) for _ in range(n)]))
        # one dimension has no independent pairs
        expected = _ALL_PAIR_TAGS - {"InsideBoth", "C1", "C2", "C3", "InC", "NotInC"} if dim == 1 else _ALL_PAIR_TAGS
        assert seen == expected

    def test_normals_whose_squares_leave_the_float_range(self):
        # the rows above with the sets scaled by 2^531 (|u| ~ 1e160, so |u|^2
        # overflows) or 2^-531 (|u|^2 underflows); every row is drawn before
        # any is projected.  Both sets at 2^531 are left out: there the
        # merged halfspace in the caller's scale, n2 u1, overflows, and the
        # scalar projector raises ValueError where the row kernel projects
        rng = np.random.default_rng(160)
        rows = []
        for i in range(1200):
            first, second, x = _random_pair_row(rng, 2 + i // 25 % 4)  # one dim per block
            j1, j2 = ((531, -531), (-531, 531), (-531, -531))[i % 3]
            first = type(first)(np.ldexp(first.u, j1), math.ldexp(first.eta, j1))
            second = Halfspace(np.ldexp(second.u, j2), math.ldexp(second.eta, j2))
            rows.append((first, second, x))
        seen = set()
        for start in range(0, len(rows), 25):
            seen.update(self._check(rows[start : start + 25]))
        assert seen == _ALL_PAIR_TAGS

    def test_region_ties_fall_to_the_earlier_branch(self):
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        rows = [
            # C1 on its tie n1sq * a2 == q * a1: a1 = 1, a2 = -1, q = -1
            (Halfspace(u, 0.0), Halfspace([-1.0, 1.0], 0.0), np.array([1.0, 0.0]), "C1"),
            # C2 on its tie n2sq * a1 == q * a2: a1 = -1, a2 = 1, q = -1
            (Halfspace([-1.0, 1.0], 0.0), Halfspace(u, 0.0), np.array([1.0, 0.0]), "C2"),
            # a1 = 0 with a2 < 0 is inside both; x - 0.0 * u1 turns -0.0 into +0.0
            (Halfspace(-u, 0.0), Halfspace(v, 0.0), np.array([-0.0, -1.0]), "InsideBoth"),
            # where the C3 formula would move it, since q > 0
            (Halfspace(u, 0.0), Halfspace([0.6, 0.8], 0.0), np.array([0.0, -1.0]), "InsideBoth"),
            # a1 = 0 with a2 > 0: C2 when q >= 0, C3 when q < 0
            (Halfspace(u, -0.0), Halfspace(v, 0.0), np.array([-0.0, 1.0]), "C2"),
            (Halfspace(u, -0.0), Halfspace([-0.6, 0.8], 0.0), np.array([-0.0, 1.0]), "C3"),
            # the plane pair's tie a2 * n1sq == a1 * q is not in C
            (Hyperplane(u, 0.0), Halfspace([-1.0, 1.0], 0.0), np.array([1.0, 0.0]), "NotInC"),
            # not in C, x - g1 * u1 keeps the -0.0 that "- 0.0 * u2" would drop
            (Hyperplane(u, 0.0), Halfspace([0.6, -0.8], 5.0), np.array([2.0, -0.0]), "NotInC"),
        ]
        assert self._check([row[:3] for row in rows]) == [row[3] for row in rows]
        # normals of disjoint support, so q = 0 exactly, and a2 = 0 or a1 = 0:
        # on these ties the next branch's formula gives other bits
        e, f, x = np.array([0.7, 0.0, 0.0]), np.array([0.0, 0.9, 0.9]), np.array([0.1, 0.0, 0.0])
        rows = [
            (Halfspace(e, 0.0), Halfspace(f, 0.0), x, "C1"),
            (Halfspace(f, 0.0), Halfspace(e, 0.0), x, "C2"),
            (Hyperplane(e, 0.0), Halfspace(f, 0.0), x, "NotInC"),
        ]
        assert self._check([row[:3] for row in rows]) == [row[3] for row in rows]

    def test_signed_zeros_in_one_dimension(self):
        # a one-element dot of -0.0 keeps its sign, so a1 = -0.0 - 0.0 is -0.0
        rows = [
            (Hyperplane([1.0], 0.0), Halfspace([2.0], 5.0), np.array([-0.0])),
            (Hyperplane([1.0], -0.0), Halfspace([0.0], 1.0), np.array([-0.0])),
            (Halfspace([1.0], 0.0), Halfspace([3.0], 0.0), np.array([-0.0])),
            (Halfspace([-1.0], 0.0), Halfspace([2.0], 1.0), np.array([-0.0])),
        ]
        assert self._check(rows) == [
            "plane_inside_halfspace", "halfspace_is_whole_space", "merged_halfspace", "slab"
        ]

    def test_contradictory_dependent_pairs_are_empty(self):
        u = np.array([0.6, 0.8])
        good = (Halfspace(u, 1.0), Halfspace([0.0, 1.0], 0.0), np.array([2.0, 2.0]))
        # the touching slab: eta1 n2 + eta2 n1 is 0 exactly, so it is the line <x, u> = -1
        touching = (Halfspace(u, -1.0), Halfspace(-2.0 * u, 2.0))
        assert self._check([(*touching, good[2]), (*touching, -good[2])]) == ["slab", "slab"]
        for first, second in [
            (Halfspace(u, -1.0), Halfspace(-2.0 * u, -1.0)),  # slab: eta1 n2 + eta2 n1 < 0
            (Hyperplane(u, 2.0), Halfspace(0.5 * u, 0.25)),  # aligned plane beyond the halfspace
            (Hyperplane(u, -2.0), Halfspace(-u, 1.0)),  # opposed: -eta1 n2 > eta2 n1
            # the touching slab with eta1 one ulp lower
            (Halfspace(u, np.nextafter(-1.0, -np.inf)), Halfspace(-2.0 * u, 2.0)),
        ]:
            with pytest.raises(EmptySet):
                project_halfspace_pair(first, second, good[2])
            with pytest.raises(EmptySet):
                project_pair_rows(
                    SetBlock([good[0], first]), SetBlock([good[1], second]), np.ones((2, 2))
                )

    def test_underflowing_merged_normal_projects(self):
        # |u|^2 of each normal is a normal float; |n2 u1|^2 underflows, but
        # the merged halfspace x_1 <= 1 is prescaled like any set
        w1, w2 = Halfspace([2e-154, 0.0], 2e-154), Halfspace([3e-154, 0.0], 6e-154)
        x = np.array([3.0, 1.0])
        bd = project_halfspace_pair(w1, w2, x)
        assert bd.case == "merged_halfspace" and certify(bd, x).valid
        np.testing.assert_allclose(bd.point, [1.0, 1.0], rtol=0, atol=1e-15)
        assert self._check([(w1, w2, x)]) == ["merged_halfspace"]

    def test_underflowing_determinant_projects(self):
        # |u|^2 = 1e-200 is a normal float, but |u1|^2 |u2|^2 - <u1,u2>^2
        # underflows to 0 in the caller's scale, not on the prescaled sets;
        # x lies in region C3 of the halfspace pair and in region IN_C of
        # the plane-halfspace pair, both projecting to the origin
        u1, w2 = [1e-100, 0.0], Halfspace([-0.6e-100, 0.8e-100], 0.0)
        x = np.array([3.0, 2.0])
        for first, region in ((Halfspace(u1, 0.0), "C3"), (Hyperplane(u1, 0.0), "InC")):
            bd = project_halfspace_pair(first, w2, x)
            assert bd.region.value == region and certify(bd, x).valid
            np.testing.assert_allclose(bd.point, [0.0, 0.0], rtol=0, atol=1e-14)
            assert self._check([(first, w2, x)]) == [region]

    @pytest.mark.parametrize(
        "first, second",
        [
            (Halfspace([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.0)),
            (Hyperplane([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.0)),
        ],
    )
    def test_other_pairings_rejected_before_any_arithmetic(self, first, second):
        ok = Halfspace([1.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="pair"):
            project_pair_rows(SetBlock([ok, first]), SetBlock([ok, second]), None)
        with pytest.raises(ValueError, match="pair"):
            project_halfspace_pair(first, second, None)

    def test_shapes_checked(self):
        w2, w3 = Halfspace([1.0, 0.0], 0.0), Halfspace([1.0, 0.0, 0.0], 0.0)
        with pytest.raises(DimensionMismatch):
            project_pair_rows(SetBlock([w2]), SetBlock([w3]), np.ones((1, 2)))
        with pytest.raises(DimensionMismatch):
            project_pair_rows(SetBlock([w2]), SetBlock([w2, w2]), np.ones((1, 2)))
        with pytest.raises(DimensionMismatch):
            project_pair_rows(SetBlock([w2]), SetBlock([w2]), np.ones((2, 2)))
        with pytest.raises(ValueError):
            project_pair_rows(SetBlock([w2]), SetBlock([w2]), [[np.nan, 0.0]])
