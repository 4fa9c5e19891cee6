import numpy as np
import pytest

from aimpart import lebedev, moments


@pytest.mark.parametrize("order", lebedev.available_orders())
def test_point_count_and_weight_sum(order):
    points, weights = lebedev.lebedev_grid(order)
    assert points.shape == (order, 3)
    assert abs(weights.sum() - 1.0) < 1e-13
    assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("order", lebedev.available_orders())
def test_harmonic_orthogonality_to_declared_degree(order):
    points, weights = lebedev.lebedev_grid(order)
    degree = lebedev.LEBEDEV_DEGREE[order]
    for l in range(1, degree + 1):
        for m in range(-l, l + 1):
            mean = float(moments.real_solid_harmonic((l, m), points) @ weights)
            assert abs(mean) < 1e-12, (l, m)


def test_unsupported_order_raises():
    with pytest.raises(ValueError, match="unsupported Lebedev order"):
        lebedev.lebedev_grid(100)


@pytest.mark.parametrize("code, a, b, size", [
    (0, 0.0, 0.0, 6), (1, 0.0, 0.0, 12), (2, 0.0, 0.0, 8),
    (3, 0.3, 0.0, 24), (4, 0.4, 0.0, 24), (5, 0.2, 0.5, 48),
])
def test_orbit_is_every_signed_permutation_once_in_sorted_order(code, a, b, size):
    points, weights = lebedev._gen_oh(code, 0.25, a, b)
    rows = [tuple(p) for p in points.tolist()]
    assert len(rows) == size and rows == sorted(set(rows))
    assert not np.signbit(points[points == 0.0]).any()     # no -0.0 duplicates
    assert np.all(weights == 0.25)
    # closed under the octahedral group: signed permutations of any member
    for perm in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
        for signs in ((-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)):
            moved = points[:, perm] * signs + 0.0
            assert sorted(map(tuple, moved.tolist())) == rows


def test_unknown_orbit_code_raises():
    with pytest.raises(ValueError, match="unknown orbit code 6"):
        lebedev._gen_oh(6, 0.1)
