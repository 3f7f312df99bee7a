import math

import numpy as np
import pytest

from dunkl.errors import DivergentTailError, DomainError, SingularityError
from dunkl.newton import (certify_newton_ratio,
                          homogeneity_residual, log_newton_envelope,
                          log_newton_envelope_d2_a2, newton_envelope_d2_a1,
                          newton_envelope_d3, newton_exact, newton_log,
                          newton_sweep_grid)
from dunkl.heatkernel import heat_log_for_times
from dunkl.rootsys import reflected_distance_sq, rootsystem


def test_envelope_d3_arithmetic():
    rs = rootsystem(1, 1.0, d=3)
    X = np.array([1.0, 0.0, 0.0])
    Y = np.array([2.0, 0.0, 0.0])
    assert abs(newton_envelope_d3(rs, X, Y) - 0.2) < 1e-14


def test_envelope_d3_zero_pairings_power():
    rs = rootsystem(1, 0.7, d=3)
    X = np.array([0.5, 0.5, 0.3])   # alpha(X) = 0
    Y = np.array([0.2, 0.2, -0.1])
    R2 = float((X - Y) @ (X - Y))
    ref = R2 ** (0.5 * (2.0 - rs.d) - rs.k)
    assert abs(newton_envelope_d3(rs, X, Y) - ref) < 1e-12


def test_envelope_homogeneity_degree():
    rs = rootsystem(2, 1.2, d=3)
    X = np.array([1.1, 0.2, -0.4])
    Y = np.array([0.8, 0.1, -0.2])
    c = 2.9
    lr = (log_newton_envelope(rs, c * X, c * Y) - log_newton_envelope(rs, X, Y))
    assert abs(lr - (2.0 - rs.d - 2.0 * rs.gamma) * math.log(c)) < 1e-10


def test_singular_diagonal_raises():
    rs = rootsystem(1, 1.0, d=3)
    X = np.array([1.0, 0.0, 0.5])
    with pytest.raises(SingularityError):
        newton_exact(rs, X, X)
    with pytest.raises(SingularityError):
        newton_envelope_d3(rs, X, X)


def test_d2_a1_envelope():
    rs = rootsystem(1, 0.9, d=2)
    X = np.array([1.0, 0.0])
    Y = np.array([0.7, 0.7])  # alpha(Y) = 0 -> reflected distance = distance
    R2 = float((X - Y) @ (X - Y))
    assert abs(newton_envelope_d2_a1(rs, X, Y)
               - math.log(2.0) / R2 ** rs.k) < 1e-12
    # numerator >= ln 2 always
    rng = np.random.default_rng(5)
    for _ in range(25):
        Xr = np.sort(rng.normal(size=2))[::-1]
        Yr = np.sort(rng.normal(size=2))[::-1]
        if np.allclose(Xr, Yr):
            continue
        refl = reflected_distance_sq(rs, (1, 2), Xr, Yr)
        r2 = float((Xr - Yr) @ (Xr - Yr))
        assert math.log1p(refl / r2) >= math.log(2.0) - 1e-12


def test_d2_a1_log_asymptotics():
    rs = rootsystem(1, 1.0, d=2)
    X = np.array([30.0, -30.0])
    Y = np.array([29.0, -29.0])
    refl = reflected_distance_sq(rs, (1, 2), X, Y)
    R2 = float((X - Y) @ (X - Y))
    v = newton_envelope_d2_a1(rs, X, Y)
    assert abs(v - math.log(refl / R2) / refl ** rs.k) / v < 0.01


def test_d2_a2_envelope_zero_pairings():
    rs = rootsystem(2, 0.8, trace_zero=True)
    X = np.array([0.4, 0.0, -0.4])
    Y = np.array([0.0, 0.0, 0.0])  # all pairings vanish
    R2 = float((X - Y) @ (X - Y))
    assert abs(math.exp(log_newton_envelope_d2_a2(rs, X, Y))
               - math.log(2.0) * R2 ** (-3.0 * rs.k)) < 1e-12


def test_d2_a2_tie_is_value_irrelevant():
    rs = rootsystem(2, 1.0, trace_zero=True)
    # symmetric configuration: |X - s_12 Y| == |X - s_23 Y|
    X = np.array([0.8, 0.0, -0.8])
    Y = np.array([0.5, 0.0, -0.5])
    d12 = reflected_distance_sq(rs, (1, 2), X, Y)
    d23 = reflected_distance_sq(rs, (2, 3), X, Y)
    assert abs(d12 - d23) < 1e-14
    v = math.exp(log_newton_envelope_d2_a2(rs, X, Y))
    assert math.isfinite(v) and v > 0


def test_newton_exact_scaling():
    rs = rootsystem(1, 1.0, d=3)
    X = np.array([1.4, 0.2, 0.3])
    Y = np.array([1.0, 0.0, 0.1])
    for c in (0.1, 10.0):
        assert homogeneity_residual(rs, X, Y, c) < 1e-6


def test_newton_exact_scaling_a2():
    rs = rootsystem(2, 0.6, d=3)
    X = np.array([1.2, 0.3, -0.5])
    Y = np.array([0.9, 0.2, -0.3])
    for c in (0.1, 1.0, 10.0):
        assert homogeneity_residual(rs, X, Y, c) < 1e-5


def test_newton_error_indicator():
    rs = rootsystem(1, 1.0, d=3)
    kv = newton_exact(rs, np.array([1.4, 0.2, 0.3]), np.array([1.0, 0.0, 0.1]))
    assert kv.rel_err < 1e-3
    assert kv.value > 0


def test_divergent_tail_guard():
    # trace-zero A_1 would live in d=1; with k <= 1/2 the time tail diverges
    rs = rootsystem(1, 0.4, trace_zero=True)
    with pytest.raises(DivergentTailError):
        newton_log(rs, np.array([0.5, -0.5]), np.array([0.2, -0.2]))


def test_certify_single_point():
    rs = rootsystem(1, 1.0, d=3)
    pts = [(np.array([1.4, 0.2, 0.3]), np.array([1.0, 0.0, 0.1]))]
    rep = certify_newton_ratio(rs, points=pts)
    assert rep.count == 1 and abs(rep.spread - 1.0) < 1e-12


def test_sweep_grid_covers_four_decades():
    rs = rootsystem(1, 1.0, d=3)
    pts = newton_sweep_grid(rs)
    quots = []
    from dunkl.rootsys import pairing, positive_roots
    for X, Y in pts:
        R2 = float((X - Y) @ (X - Y))
        quots.append(max(pairing(rs, r, X) * pairing(rs, r, Y)
                         for r in positive_roots(rs)) / R2)
    assert max(quots) / min(quots) > 1e4


def test_certify_d3_bounded():
    rs = rootsystem(1, 1.0, d=3)
    rep = certify_newton_ratio(rs, num=7)
    assert rep.passes(1e2)


def test_certify_d2_bounded():
    rep1 = certify_newton_ratio(rootsystem(1, 0.8, d=2), num=7)
    assert rep1.passes(1e2)
    rep2 = certify_newton_ratio(rootsystem(2, 0.8, trace_zero=True), num=7)
    assert rep2.passes(1e2)


@pytest.mark.parametrize("k", [0.5, 2.5])
def test_newton_is_the_time_integral_of_heat_rows(k):
    # trapezoid in log t over 18 decades: N = int p_t t d(log t)
    rs = rootsystem(1, k, d=3)
    X, Y = np.array([1.2, 0.1, 0.3]), np.array([0.7, -0.2, 0.0])
    log_t = np.linspace(math.log(1e-8), math.log(1e10), 3001)
    vals = np.exp(heat_log_for_times(rs, np.exp(log_t), X, Y) + log_t)
    ref = math.log(np.trapezoid(vals, log_t))
    assert abs(newton_log(rs, X, Y) - ref) < 1e-8
