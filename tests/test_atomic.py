import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyproj import (
    DimensionMismatch,
    EmptySet,
    Halfspace,
    Hyperplane,
    oracle_project,
    project_halfspace,
    project_hyperplane,
    project_onto,
)
from polyproj.atomic import BOUNDARY_TOL, SetBlock, project_rows, step
from polyproj.linalg import _norm
from polyproj.sets import Membership, contains, membership_bound

coords = st.lists(
    st.floats(min_value=-50.0, max_value=50.0), min_size=2, max_size=5
).map(np.array)


class TestProjectHyperplane:
    def test_coordinate_clamp(self):
        np.testing.assert_allclose(
            project_hyperplane(Hyperplane([1, 0], 1.0), [3, 2]), [1, 2]
        )

    def test_diagonal_plane(self):
        # nearest point of the line x2 = -x1 to (1,1); one-dimensional
        # calculus on t -> |(t,-t)-(1,1)|^2 gives t = 0
        np.testing.assert_allclose(
            project_hyperplane(Hyperplane([1, 1], 0.0), [1, 1]), [0, 0], atol=1e-15
        )

    def test_fixed_point_on_plane(self):
        np.testing.assert_allclose(
            project_hyperplane(Hyperplane([2, 0], 2.0), [1, 7]), [1, 7]
        )

    def test_zero_normal(self):
        np.testing.assert_allclose(
            project_hyperplane(Hyperplane([0, 0], 0.0), [4, 5]), [4, 5]
        )
        with pytest.raises(EmptySet):
            project_hyperplane(Hyperplane([0, 0], 1.0), [4, 5])

    def test_result_on_plane_and_step_parallel_to_normal(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            h = Hyperplane(rng.normal(size=dim), rng.uniform(-2, 2))
            x = rng.uniform(-3, 3, size=dim)
            p = project_hyperplane(h, x)
            scale = np.linalg.norm(h.u) * max(1.0, np.linalg.norm(p))
            assert abs(np.dot(p, h.u) - h.eta) <= 1e-12 * max(1.0, scale)
            step = p - x
            cross = step - (np.dot(step, h.u) / np.dot(h.u, h.u)) * h.u
            assert np.linalg.norm(cross) <= 1e-12


class TestStep:
    def test_bits_of_both_step_forms(self):
        # the hyperplane form x + (eta - <x,u>)/|u|^2 u, and the halfspace
        # form x - (<x,u> - eta)/|u|^2 u with multiplier (<x,u> - eta)/|u|^2
        rng = np.random.default_rng(4)
        for _ in range(500):
            dim = int(rng.integers(1, 6))
            u = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
            eta, x = rng.uniform(-2, 2), rng.uniform(-3, 3, size=dim)
            plane, half = Hyperplane(u, eta), Halfspace(u, eta)
            point, xi = step(plane, x)
            gap = (eta - float(np.dot(x, u))) / plane.norm_sq
            assert point.tobytes() == (x + gap * u).tobytes()
            assert xi == -gap
            point, lam = step(half, x)
            value = float(np.dot(x, u)) - eta
            if value <= membership_bound(half.eta, half.norm, _norm(x), BOUNDARY_TOL):
                assert point.tobytes() == x.tobytes() and lam == 0.0
            else:
                t = value / half.norm_sq
                assert point.tobytes() == (x - t * u).tobytes()
                assert lam == t > 0.0


class TestProjectHalfspace:
    def test_interior_fixed(self):
        np.testing.assert_allclose(
            project_halfspace(Halfspace([1, 0], 1.0), [0, 0]), [0, 0]
        )

    def test_outside_projects_to_boundary(self):
        # nearest point confirmed by a grid search over the feasible side
        w = Halfspace([1, 0], 1.0)
        x = np.array([2.0, 0.0])
        grid = [
            np.array([a, b])
            for a in np.linspace(-1, 1, 81)
            for b in np.linspace(-1, 1, 81)
        ]
        feasible = [g for g in grid if np.dot(g, w.u) <= w.eta]
        brute = min(feasible, key=lambda g: np.linalg.norm(g - x))
        np.testing.assert_allclose(brute, [1, 0], atol=1e-12)
        np.testing.assert_allclose(project_halfspace(w, x), [1, 0])

    def test_zero_normal_whole_space(self):
        np.testing.assert_allclose(
            project_halfspace(Halfspace([0, 0], 3.0), [5, 5]), [5, 5]
        )
        with pytest.raises(EmptySet):
            project_halfspace(Halfspace([0, 0], -3.0), [5, 5])

    def test_boundary_band_returns_input(self):
        w = Halfspace([1.0, 0.0], 1.0)
        x = np.array([1.0 + 1e-15, 2.0])
        np.testing.assert_array_equal(project_halfspace(w, x), x)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_point_whose_square_overflows(self):
        # |x|^2 overflows, but |x| is rescaled, so the bound stays finite
        # and the point, 1e155 outside, is moved onto the boundary
        w, x = Halfspace([1.0, 0.0], 0.0), [1e155, 0.0]
        assert project_halfspace(w, x).tolist() == [0.0, 0.0]
        assert contains(w, x) is Membership.OUTSIDE

    def test_one_body_for_every_kind(self):
        # the three names are one function: each projects onto whatever
        # linear set it is given, and rejects anything else
        assert project_halfspace is project_onto and project_hyperplane is project_onto
        h, x = Hyperplane([1.0, 0.0], 1.0), [3.0, 2.0]
        assert project_halfspace(h, x).tolist() == [1.0, 2.0]
        with pytest.raises(TypeError):
            project_onto("plane", x)


class TestProjectorProperties:
    @given(coords)
    @settings(max_examples=100)
    def test_idempotent(self, x):
        h = Hyperplane([1.0, -2.0] + [0.5] * (len(x) - 2), 0.7)
        w = Halfspace([0.3, 1.0] + [-1.0] * (len(x) - 2), -0.2)
        ph = project_hyperplane(h, x)
        pw = project_halfspace(w, x)
        assert np.linalg.norm(project_hyperplane(h, ph) - ph) <= 1e-12 * (1 + np.linalg.norm(ph))
        assert np.linalg.norm(project_halfspace(w, pw) - pw) <= 1e-12 * (1 + np.linalg.norm(pw))

    def test_firmly_nonexpansive_spot_check(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            sets = [
                Hyperplane(rng.normal(size=dim), rng.uniform(-2, 2)),
                Halfspace(rng.normal(size=dim), rng.uniform(-2, 2)),
            ]
            x = rng.uniform(-3, 3, size=dim)
            y = rng.uniform(-3, 3, size=dim)
            for s in sets:
                px = project_onto(s, x)
                py = project_onto(s, y)
                assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_variational_characterization(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            u = rng.normal(size=dim)
            eta = rng.uniform(-2, 2)
            x = rng.uniform(-3, 3, size=dim)

            w = Halfspace(u, eta)
            pw = project_halfspace(w, x)
            z = rng.uniform(-3, 3, size=dim)
            step = max(0.0, (np.dot(z, u) - eta) / np.dot(u, u))
            z_feasible = z - step * u
            assert np.dot(x - pw, z_feasible - pw) <= 1e-9

            h = Hyperplane(u, eta)
            ph = project_hyperplane(h, x)
            z_on_plane = z + ((eta - np.dot(z, u)) / np.dot(u, u)) * u
            assert abs(np.dot(x - ph, z_on_plane - ph)) <= 1e-9

    def test_oracle_agreement_single_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            dim = int(rng.integers(2, 6))
            u = rng.normal(size=dim)
            eta = rng.uniform(-2, 2)
            x = rng.uniform(-3, 3, size=dim)
            s = Hyperplane(u, eta) if rng.uniform() < 0.5 else Halfspace(u, eta)
            point, cert = oracle_project([s], x)
            assert np.linalg.norm(project_onto(s, x) - point) <= 1e-9
            assert cert.valid


def _mixed_block(rng, dim, n):
    """Sets and points covering every path of a row projection.

    Random normals at scales from 1e-3 to 1e3, zero-normal whole-space
    hyperplanes and halfspaces, points inside, outside, within the
    boundary tolerance of a halfspace, and exactly on a hyperplane.
    """
    sets, points = [], []
    for _ in range(n):
        x = rng.uniform(-3, 3, size=dim)
        u = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
        case = int(rng.integers(7))
        if case == 0:
            sets.append(Hyperplane(np.zeros(dim), 0.0))
        elif case == 1:
            sets.append(Halfspace(np.zeros(dim), abs(rng.uniform(-2, 2))))
        elif case == 2:
            # within the boundary tolerance: outside by half the snapping bound
            eta = float(x @ u) - 0.5 * BOUNDARY_TOL * float(np.linalg.norm(u) * np.linalg.norm(x))
            sets.append(Halfspace(u, eta))
        elif case == 3:
            sets.append(Hyperplane(u, float(x @ u)))
        else:
            kind = Hyperplane if case == 4 else Halfspace
            sets.append(kind(u, rng.uniform(-2, 2)))
        points.append(x)
    return sets, np.array(points)


class TestProjectRows:
    @pytest.mark.parametrize("dim", [1, 2, 5, 9])
    @pytest.mark.parametrize("n", [1, 25])
    def test_rows_match_project_onto_bit_for_bit(self, dim, n):
        rng = np.random.default_rng(100 * dim + n)
        for _ in range(40):
            sets, x = _mixed_block(rng, dim, n)
            before = x.copy()
            out = project_rows(SetBlock(sets), x)
            expected = np.array([project_onto(s, row) for s, row in zip(sets, x)])
            assert out.tobytes() == expected.tobytes()
            assert x.tobytes() == before.tobytes()

    def test_signed_zeros_match(self):
        # A point on a hyperplane takes a step of +0.0, which turns a -0.0
        # coordinate into +0.0 in the per-point projector; rows that stay
        # keep their -0.0.
        sets = [
            Hyperplane([1.0, 1.0], 1.0),
            Halfspace([1.0, 1.0], 5.0),
            Hyperplane([0.0, 0.0], 0.0),
            Halfspace([0.0, 0.0], 1.0),
        ]
        x = np.array([[-0.0, 1.0]] * 4)
        out = project_rows(SetBlock(sets), x)
        expected = np.array([project_onto(s, row) for s, row in zip(sets, x)])
        assert out.tobytes() == expected.tobytes()
        assert np.signbit(out[:, 0]).tolist() == [False, True, True, True]

    def test_signed_zero_dot_in_one_dimension(self):
        # <x,u> = -0.0 * 1.0 is -0.0, so the step (-0.0 - -0.0) / 1 is +0.0
        # and the per-point projector returns +0.0
        sets = [Hyperplane([1.0], -0.0), Hyperplane([-1.0], 0.0)]
        x = np.array([[-0.0], [-0.0]])
        out = project_rows(SetBlock(sets), x)
        expected = np.array([project_onto(s, row) for s, row in zip(sets, x)])
        assert out.tobytes() == expected.tobytes()

    def test_violation_equal_to_the_bound_stays(self):
        # value == BOUNDARY_TOL * (1 + |eta| + |u| |x|) exactly: the
        # per-point projector snaps (value <= bound), so the row stays too
        a = 1e-12
        for _ in range(5):
            a = BOUNDARY_TOL * (1.0 + a)
        w = Halfspace([1.0], 0.0)
        assert a == BOUNDARY_TOL * (1.0 + 0.0 + 1.0 * a)
        x = np.array([[a]])
        assert project_rows(SetBlock([w]), x).tobytes() == x.tobytes()
        assert project_onto(w, x[0]).tobytes() == x[0].tobytes()

    @pytest.mark.parametrize(
        "empty", [Hyperplane([0.0, 0.0], 1.0), Halfspace([0.0, 0.0], -1.0)]
    )
    def test_empty_set_rejected_when_built(self, empty):
        with pytest.raises(EmptySet):
            SetBlock([Halfspace([1.0, 0.0], 0.0), empty])

    def test_mixed_dimensions_rejected_when_built(self):
        with pytest.raises(DimensionMismatch):
            SetBlock([Halfspace([1.0, 0.0], 0.0), Hyperplane([1.0, 0.0, 0.0], 0.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        block = SetBlock([Halfspace([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.0)])
        with pytest.raises(ValueError):
            project_rows(block, [[1.0, 2.0], [bad, 0.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2), (2,), (2, 2, 1)])
    def test_shape_mismatch_rejected(self, shape):
        block = SetBlock([Halfspace([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.0)])
        with pytest.raises(DimensionMismatch):
            project_rows(block, np.ones(shape))
