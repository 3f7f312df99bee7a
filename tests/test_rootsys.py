import math

import numpy as np
import pytest

from dunkl.errors import DomainError
from dunkl.rootsys import (RootSystemA, ensure_chamber, pairing, positive_roots,
                           reflect, reflected_distance_sq, rootsystem, weight)
from dunkl.spherical import spherical_log


def test_positive_roots_counts():
    assert positive_roots(rootsystem(1, 1.0)) == [(1, 2)]
    assert positive_roots(rootsystem(2, 1.0)) == [(1, 2), (1, 3), (2, 3)]
    assert len(positive_roots(rootsystem(3, 1.0))) == 6


def test_gamma_and_weyl_order():
    rs = rootsystem(3, 0.5)
    assert rs.num_positive_roots == 6
    assert rs.gamma == 3.0
    assert rs.weyl_order == 24


def test_pairing_values():
    rs = rootsystem(1, 1.0)
    assert pairing(rs, (1, 2), (3.0, 1.0)) == 2.0
    rs2 = rootsystem(2, 1.0)
    assert pairing(rs2, (1, 3), (2.0, 0.0, -2.0)) == 4.0
    assert pairing(rs2, (1, 2), (1.0, 1.0, 0.0)) == 0.0


def test_pairing_nonnegative_on_chamber():
    rs = rootsystem(2, 1.0)
    X = ensure_chamber(rs, (2.0, 0.5, -1.0))
    assert all(pairing(rs, r, X) >= 0 for r in positive_roots(rs))


def test_reflect_swaps_and_is_involution():
    assert np.allclose(reflect((1, 2), (5.0, 3.0)), (3.0, 5.0))
    Y = np.array([2.0, 2.0, 1.0])
    assert np.allclose(reflect((1, 2), Y), Y)
    Z = np.array([0.3, -1.2, 2.5])
    assert np.allclose(reflect((1, 3), reflect((1, 3), Z)), Z)


def test_weight_values_and_wall():
    assert weight(rootsystem(1, 0.5), (1.0, 0.0)) == 1.0
    assert abs(weight(rootsystem(2, 1.0), (2.0, 0.0, -2.0)) - 256.0) < 1e-10
    assert weight(rootsystem(2, 1.0), (1.0, 1.0, 0.0)) == 0.0


def test_weight_permutation_invariance():
    rs = rootsystem(2, 0.7)
    rng = np.random.default_rng(7)
    X = rng.normal(size=3)
    w0 = weight(rs, X)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        assert abs(weight(rs, X[perm]) - w0) < 1e-12 * max(1.0, w0)


def test_vandermonde():
    # the weight at k = 1/2 is |pi(X)|, pi(X) = prod_{i<j} (x_i - x_j)
    assert weight(rootsystem(1, 0.5), (1.0, 0.0)) == 1.0
    assert weight(rootsystem(2, 0.5), (2.0, 1.0, 0.0)) == 2.0
    assert weight(rootsystem(2, 0.5), (1.0, 1.0, 0.0)) == 0.0
    assert weight(rootsystem(2, 0.5), (0.0, 1.0, 2.0)) == 2.0


def test_reflected_distance_identity_examples():
    rs = rootsystem(1, 1.0)
    assert reflected_distance_sq(rs, (1, 2), (1.0, 1.0), (1.0, 1.0)) == 0.0
    v = reflected_distance_sq(rs, (1, 2), (1.0, 0.0), (2.0, 0.0))
    assert abs(v - 5.0) < 1e-14


def test_reflected_distance_identity_random():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3):
        rs = rootsystem(n, 1.3)
        for _ in range(20):
            X = np.sort(rng.normal(size=n + 1))[::-1]
            Y = np.sort(rng.normal(size=n + 1))[::-1]
            for root in positive_roots(rs):
                direct = float(np.sum((X - reflect(root, Y)) ** 2))
                viaid = reflected_distance_sq(rs, root, X, Y)
                assert abs(direct - viaid) < 1e-12 * max(1.0, direct)


def test_chamber_validation():
    rs = rootsystem(2, 1.0)
    ensure_chamber(rs, (1.0, 1.0, 0.0))  # boundary is legal
    with pytest.raises(DomainError):
        ensure_chamber(rs, (0.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        ensure_chamber(rs, (1.0, 1.0, 0.0), strict=True)
    ensure_chamber(rs, (2.0, 1.0, 0.0), strict=True)  # interior


def test_active_coords_embedding():
    rs = rootsystem(1, 1.0, d=3)
    assert rs.active_coords == (1, 2)
    X = np.array([2.0, 0.5, -7.0])
    assert pairing(rs, (1, 2), X) == 1.5
    # the inactive coordinate never enters the weight
    assert weight(rs, X) == weight(rs, np.array([2.0, 0.5, 100.0]))


def test_trace_zero_realization():
    rs = rootsystem(2, 1.0, trace_zero=True)
    assert rs.d == 2 and rs.coord_len == 3
    rs.check_vector((1.0, 0.0, -1.0))
    with pytest.raises(DomainError):
        rs.check_vector((1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        RootSystemA(n=2, d=1, k=1.0)


def test_invalid_systems():
    for k in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            rootsystem(1, k)
    with pytest.raises(DomainError):
        rootsystem(0, 1.0)
    with pytest.raises(DomainError):
        RootSystemA(n=2, d=2, k=1.0)


def test_sort_into_chamber():
    # spherical_log sorts lambda into the chamber: every order gives its bits
    rs = rootsystem(2, 1.0)
    X = (1.0, 0.2, -0.6)
    assert spherical_log(rs, (0.0, 2.0, 1.0), X) == spherical_log(rs, (2.0, 1.0, 0.0), X)
