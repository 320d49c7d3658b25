import dataclasses

import numpy as np
import pytest

from polyproj import (
    DimensionMismatch,
    Feasibility,
    Halfspace,
    Hyperplane,
    Membership,
    certify,
    classify_region_halfspace_pair,
    contains,
    dykstra,
    instance_from_dict,
    instance_to_dict,
    is_empty,
    kkt_check,
    oracle_project,
    project,
    project_halfspace,
    project_halfspace_pair,
    project_hyperplane,
    project_hyperplane_halfspace,
    project_hyperplanes,
    reduce_hyperplane_system,
)
from polyproj.atomic import SetBlock, project_onto
from polyproj.instances import random_hyperplane_system
from polyproj.sets import checked_point


class TestContains:
    def test_halfspace_inside(self):
        assert contains(Halfspace([1, 0], 1.0), [0, 0]) is Membership.INSIDE

    def test_halfspace_boundary(self):
        assert contains(Halfspace([1, 0], 1.0), [1, 5]) is Membership.BOUNDARY

    def test_halfspace_outside(self):
        assert contains(Halfspace([1, 0], 1.0), [2, 0]) is Membership.OUTSIDE

    def test_hyperplane_on_plane(self):
        assert contains(Hyperplane([1, 1], 0.0), [1, -1]) is Membership.ON_PLANE

    def test_hyperplane_off(self):
        assert contains(Hyperplane([1, 1], 0.0), [1, 1]) is Membership.OFF

    def test_relative_tolerance_scales(self):
        # a violation of 1e-7 at scale 1e6 sits inside the boundary band
        s = Halfspace([1e6, 0], 1e6)
        assert contains(s, [1.0 + 1e-13, 0.0]) is Membership.BOUNDARY

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(Halfspace([1, 0], 1.0), [1, 2, 3])


_H, _W = Hyperplane([1, 0], 1.0), Halfspace([0, 1], 0.0)
_W_OTHER, _W3 = Halfspace([1, 0], 2.0), Halfspace([0, 0, 1], 0.0)
_X2, _X3 = [1.0, 2.0], [1.0, 2.0, 3.0]

# every public entry that takes (sets, x), fed a point or a set of another dimension
_WRONG_DIMENSION_CALLS = {
    "project_hyperplane": lambda: project_hyperplane(_H, _X3),
    "project_halfspace": lambda: project_halfspace(_W, _X3),
    "project_halfspace_pair-point": lambda: project_halfspace_pair(_W, _W_OTHER, _X3),
    "project_halfspace_pair-normals": lambda: project_halfspace_pair(_W, _W3, _X2),
    "classify_region_halfspace_pair": lambda: classify_region_halfspace_pair(_W, _W_OTHER, _X3),
    "project_hyperplane_halfspace": lambda: project_hyperplane_halfspace(_H, _W, _X3),
    "project_hyperplane_halfspace-normals": lambda: project_hyperplane_halfspace(_H, _W3, _X2),
    "project_hyperplanes": lambda: project_hyperplanes([_H, Hyperplane([0, 1], 0.0)], _X3),
    "project": lambda: project([_H, _W], _X3),
    "kkt_check-set": lambda: kkt_check([_H, _W3], _X2, _X2, [0.0], [0.0]),
    "kkt_check-p": lambda: kkt_check([_H, _W], _X2, _X3, [0.0], [0.0]),
    "kkt_check-p-no-sets": lambda: kkt_check([], _X2, _X3, [], []),
    "oracle_project": lambda: oracle_project([_H, _W], _X3),
    "oracle_project-set": lambda: oracle_project([_H, _W3], _X2),
    "dykstra": lambda: dykstra([_H, _W], _X3),
    "dykstra-set": lambda: dykstra([_H, _W3], _X2),
    "project-one-set": lambda: project([_W], _X3),
}

# every public entry that takes a family of sets, fed a member that is not a set
_NON_SET_CALLS = {
    "oracle_project": lambda: oracle_project(["plane", _W], _X2),
    "project_hyperplanes": lambda: project_hyperplanes(["plane", _H], _X2),
    "reduce_hyperplane_system": lambda: reduce_hyperplane_system(["plane", _H]),
    "reduce_hyperplane_system-second": lambda: reduce_hyperplane_system([_H, "plane"]),
    "dykstra": lambda: dykstra(["plane", _W], _X2),
    "project": lambda: project([_H, "plane"], _X2),
    "project-pair": lambda: project(["plane", _W], _X2),
    "kkt_check": lambda: kkt_check([_H, "plane"], _X2, _X2, [], [0.0]),
    "project_onto": lambda: project_onto("plane", _X2),
    "SetBlock": lambda: SetBlock(["plane", _W]),
    "SetBlock-second": lambda: SetBlock([_W, "plane"]),
}


class TestPointDimension:
    def test_checked_point_returns_coordinates(self):
        xv = checked_point([Hyperplane([1, 0], 1.0), Halfspace([0, 1], 0.0)], [1, 2])
        assert xv.dtype == float
        assert xv.tolist() == [1.0, 2.0]
        assert checked_point([], [1, 2, 3]).tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            checked_point([], [1.0, float("nan")])

    @pytest.mark.parametrize("name", sorted(_WRONG_DIMENSION_CALLS))
    def test_every_sets_and_point_entry_rejects_another_dimension(self, name):
        with pytest.raises(DimensionMismatch):
            _WRONG_DIMENSION_CALLS[name]()

    @pytest.mark.parametrize("name", sorted(_NON_SET_CALLS))
    def test_every_family_entry_rejects_non_sets_first(self, name):
        with pytest.raises(TypeError, match="cannot project onto str"):
            _NON_SET_CALLS[name]()


class TestDegenerateClassification:
    def test_hyperplane_zero_normal(self):
        assert is_empty(Hyperplane([0, 0], 2.0))
        assert not is_empty(Hyperplane([1, 0], 2.0))

    def test_halfspace_zero_normal(self):
        assert is_empty(Halfspace([0, 0], -0.5))

    def test_tiny_normals_are_legal(self):
        # (1e-200)^2 underflows to 0, (1e-155)^2 to a subnormal, and 5e-324
        # is the smallest subnormal: each set is prescaled by a power of
        # two, so it projects; only an exact zero normal is a zero normal
        for tiny in (1e-200, 1e-155, 5e-324):
            for kind in (Halfspace, Hyperplane):
                s = kind([tiny, 0.0], -tiny)
                assert not s.has_zero_normal and 0.5 <= s._u[0] < 1.0 and s._eta == -s._u[0]
            w = Halfspace([tiny, 0], -tiny)  # x_1 <= -1
            np.testing.assert_allclose(project_halfspace(w, [0, 1]), [-1.0, 1.0], rtol=0, atol=1e-15)
            bd = project_halfspace_pair(w, Halfspace([0, 1], 0), [0, 1])
            np.testing.assert_allclose(bd.point, [-1.0, 0.0], rtol=0, atol=1e-15)
            assert bd.region.value == "C3"
        for kind in (Halfspace, Hyperplane):
            assert kind([0.0, 0.0], 0.0).has_zero_normal
            assert not kind([1e-150, 0.0], -1.0).has_zero_normal

    def test_sets_are_immutable(self):
        s = Halfspace([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            s.u[0] = 5.0


class TestCachedInvariants:
    NORMALS = (
        [3, -4],
        [1, 2, 2],
        np.array([0.1, -0.7, 2.5e-3]),
        np.array([1e150, 3e149]),
        [-0.0, 0.0],
        [1e-150, 0.0],
        [0, 0],
    )

    def _assert_cached(self, s):
        u = s.u
        assert type(s.norm_sq) is float and type(s.norm) is float
        assert s.norm_sq.hex() == float(u @ u).hex()
        assert s.norm.hex() == float(np.linalg.norm(u)).hex()
        assert s.has_zero_normal is (not u.any())

    def test_match_the_recomputed_values_bit_for_bit(self):
        rng = np.random.default_rng(91)
        normals = list(self.NORMALS) + [
            rng.normal(size=d) * 10.0 ** rng.uniform(-5, 5) for d in (2, 3, 5, 7) for _ in range(25)
        ]
        for kind in (Halfspace, Hyperplane):
            for u in normals:
                self._assert_cached(kind(u, 0.5))

    def test_cannot_go_stale(self):
        for kind in (Halfspace, Hyperplane):
            s = kind([3.0, 4.0], 1.0)
            for name in ("norm", "norm_sq", "has_zero_normal", "u"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(s, name, 0.0)
            with pytest.raises(ValueError):
                s.u[0] = 0.0
            moved = dataclasses.replace(s, u=[0.0, 0.0])
            assert type(moved) is kind and moved.eta == 1.0
            self._assert_cached(moved)
            assert moved.has_zero_normal and moved.norm == 0.0
            self._assert_cached(dataclasses.replace(moved, u=[1e-150, 2.0, -2.0]))
            tiny = dataclasses.replace(s, u=[1e-200, 0.0])
            assert not tiny.has_zero_normal and tiny.norm == 1e-200 and 0.5 <= tiny._norm < 1.0
            assert (s.norm_sq, s.norm, s.has_zero_normal) == (25.0, 5.0, False)


class TestReduceHyperplaneSystem:
    def test_duplicate_constraint(self):
        red = reduce_hyperplane_system([Hyperplane([1, 0], 1.0), Hyperplane([2, 0], 2.0)])
        assert red.status is Feasibility.FEASIBLE
        assert red.retained_indices == (0,)
        np.testing.assert_allclose(red.retained[0].u, [1, 0])

    def test_parallel_mismatched_offsets(self):
        red = reduce_hyperplane_system([Hyperplane([1, 0], 1.0), Hyperplane([2, 0], 5.0)])
        assert red.status is Feasibility.INFEASIBLE

    def test_redundant_combination(self):
        # the third offset satisfies 3 = 1*1 + 1*2 for the normal sum
        planes = [
            Hyperplane([1, 0], 1.0),
            Hyperplane([0, 1], 2.0),
            Hyperplane([1, 1], 3.0),
        ]
        red = reduce_hyperplane_system(planes)
        assert red.status is Feasibility.FEASIBLE
        assert red.retained_indices == (0, 1)

    def test_zero_normal_nonzero_offset_infeasible(self):
        red = reduce_hyperplane_system([Hyperplane([1, 0], 1.0), Hyperplane([0, 0], 0.5)])
        assert red.status is Feasibility.INFEASIBLE

    def test_zero_normal_zero_offset_feasible(self):
        red = reduce_hyperplane_system([Hyperplane([1, 0], 1.0), Hyperplane([0, 0], 0.0)])
        assert red.status is Feasibility.FEASIBLE
        assert red.retained_indices == (0,)

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            planes = random_hyperplane_system(rng, int(rng.integers(2, 5)))
            red = reduce_hyperplane_system(planes)
            again = reduce_hyperplane_system(red.retained)
            assert again.status is Feasibility.FEASIBLE
            assert len(again.retained) == len(red.retained)
            for a, b in zip(again.retained, red.retained):
                np.testing.assert_array_equal(a.u, b.u)
                assert a.eta == b.eta

    def test_feasible_witness_satisfies_originals(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            planes = random_hyperplane_system(rng, dim, num_planes=int(rng.integers(2, 5)))
            red = reduce_hyperplane_system(planes)
            assert red.status is Feasibility.FEASIBLE
            witness = project_hyperplanes(list(red.retained), rng.normal(size=dim)).point
            for p in planes:
                assert abs(np.dot(witness, p.u) - p.eta) <= 1e-8


def overflowing_planes(*normals):
    # building a plane whose |u|^2 overflows warns in its norm_sq, a
    # separate defect; the calls under test must not warn
    with np.errstate(over="ignore"):
        return [Hyperplane(u, 0.0) for u in normals]


class TestOverflowingNormals:
    def test_reduce_keeps_a_plane_whose_square_overflows(self):
        red = reduce_hyperplane_system(overflowing_planes([1, 0], [1e200, 1e200]))
        assert red.retained_indices == (0, 1)
        assert red.status is Feasibility.FEASIBLE

    def test_project_lands_on_both_planes(self):
        planes = overflowing_planes([1, 0], [1e200, 1e200])
        bd = project_hyperplanes(planes, [1, 2])
        np.testing.assert_allclose(bd.point, [0, 0], atol=1e-15)
        assert certify(bd, [1, 2]).valid

    def test_reduce_single_plane_whose_square_overflows(self):
        red = reduce_hyperplane_system(overflowing_planes([1e200, 0]))
        assert red.retained_indices == (0,)
        assert red.status is Feasibility.FEASIBLE


class TestInstanceSchema:
    def test_round_trip(self):
        data = {
            "dim": 2,
            "sets": [
                {"kind": "hyperplane", "u": [1.0, 0.0], "eta": 1.0},
                {"kind": "halfspace", "u": [0.0, 1.0], "eta": 0.0},
            ],
            "points": [[3.0, 2.0]],
        }
        inst = instance_from_dict(data)
        assert isinstance(inst.sets[0], Hyperplane)
        assert isinstance(inst.sets[1], Halfspace)
        assert instance_to_dict(inst) == data

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.pop("dim"),
            lambda d: d.pop("sets"),
            lambda d: d.pop("points"),
            lambda d: d["sets"][0].pop("kind"),
            lambda d: d["sets"][0].update(kind="ball"),
            lambda d: d["sets"][0].update(u=[1.0]),
            lambda d: d["points"].append([1.0, 2.0, 3.0]),
            lambda d: d.update(dim=2.7),
            lambda d: d.update(dim=True),
            lambda d: d.update(dim="2"),
        ],
    )
    def test_malformed_rejected(self, mutation):
        data = {
            "dim": 2,
            "sets": [{"kind": "halfspace", "u": [1.0, 0.0], "eta": 1.0}],
            "points": [[0.0, 0.0]],
        }
        mutation(data)
        with pytest.raises(ValueError):
            instance_from_dict(data)
