"""Sets at any scale: the one power-of-two prescaling of every set.

Scaling one set of an instance by 2^j leaves every projector's point the
same, bit for bit, and divides that set's multiplier by exactly 2^j
(a merged pair's one multiplier refers to a halfspace that scales with
either set).  The powers reach past the float range of |u|^2.
"""

import math

import numpy as np
import pytest

from polyproj import Halfspace, Hyperplane, Membership, contains, dykstra, kkt_check, oracle_project
from polyproj.atomic import SetBlock
from polyproj.closed_form import ProjectionBreakdown, certify, project, project_pair_rows
from polyproj.instances import generate_instance

POWERS = (-600, -300, -64, -1, 1, 64, 300, 600)


def _scaled(s, j):
    return type(s)(np.ldexp(s.u, j), math.ldexp(s.eta, j))


def _outcomes(sets, x):
    """(closed form, oracle, pair rows, dykstra) as (point, multipliers) bytes."""
    bd = project(sets, x)
    oracle = oracle_project(sets, x)
    halves = iter(oracle.certificate.lam)
    planes = iter(oracle.certificate.beta)
    # the oracle's multipliers in set order
    in_order = [next(halves if isinstance(s, Halfspace) else planes) for s in sets]
    rows = None
    if len(sets) == 2:
        rows = project_pair_rows(SetBlock(sets[:1]), SetBlock(sets[1:]), x[None])[0]
    return bd, (bd.point, oracle.point, rows, dykstra(sets, x, max_sweeps=50).final), np.array(in_order)


@pytest.mark.parametrize("kind", ["pair_halfspace", "hyperplane_halfspace", "hyperplane_system"])
def test_a_set_scaled_by_a_power_of_two_keeps_every_point(kind):
    checked = 0
    for seed in range(4):
        for dim in (2, 3, 5):
            inst = generate_instance(seed, dim, kind)
            for x in inst.points:
                base, points, oracle_mults = _outcomes(inst.sets, x)
                for i in range(len(inst.sets)):
                    for j in POWERS:
                        sets = list(inst.sets)
                        sets[i] = _scaled(sets[i], j)
                        bd, got, got_oracle = _outcomes(sets, x)
                        for want, have in zip(points, got):
                            assert (want is None and have is None) or want.tobytes() == have.tobytes()
                        assert (bd.case, bd.region) == (base.case, base.region)
                        coefficients = base.coefficients.copy()
                        k = 0 if base.case == "merged_halfspace" else i
                        coefficients[k] = math.ldexp(coefficients[k], -j)
                        assert bd.coefficients.tobytes() == coefficients.tobytes()
                        mults = oracle_mults.copy()
                        mults[i] = math.ldexp(mults[i], -j)
                        assert got_oracle.tobytes() == mults.tobytes()
                        checked += 1
    assert checked >= 4 * 3 * 3 * 2 * len(POWERS)


def test_squares_outside_the_float_range():
    # |u|^2 = 2e400 overflows: the halfspace still binds, alone and beside
    # a plane, in the scalar and the row kernels
    x = np.array([1.0, 2.0])
    big = Halfspace([1e200, 1e200], 0.0)
    bd = project([big], x)
    np.testing.assert_allclose(bd.point, [-0.5, 0.5], rtol=0, atol=1e-12)
    assert certify(bd, x).valid
    pair = [Hyperplane([1.0, 0.0], 0.0), big]
    bd = project(pair, x)
    assert bd.point.tolist() == [0.0, 0.0] and certify(bd, x).valid
    rows = project_pair_rows(SetBlock(pair[:1]), SetBlock(pair[1:]), x[None])
    assert rows[0].tobytes() == bd.point.tobytes()
    # |u| = 1e-20: the bound tol (1 + |eta| + |u| |x|) is read on the prescaled
    # set, so x_1 = 1000 is far outside x_1 <= 0
    tiny = Halfspace([1e-20, 0.0], 0.0)
    x = np.array([1000.0, 1.0])
    assert contains(tiny, x) is Membership.OUTSIDE
    # kkt_check reads the raw gap 1e-17 against tol; certify reads the
    # prescaled bound as contains does
    bd = ProjectionBreakdown(x.copy(), np.array([0.0]), (tiny,))
    assert kkt_check([tiny], x, bd.point, [0.0], []).valid
    assert not certify(bd, x).valid
