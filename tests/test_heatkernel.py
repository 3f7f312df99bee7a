import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, ive

from dunkl import heatkernel as hk
from dunkl import quad
from dunkl.errors import DomainError
from dunkl.heatkernel import (certify_heat_ratio,
                              chamber_heat_integral, chapman_kolmogorov_check,
                              generator_check, heat_envelope, heat_exact,
                              heat_log, heat_log_for_times, heat_mass,
                              heat_sweep_grid, log_heat_envelope,
                              log_mehta_selberg, parabolic_rescale_residual)
from dunkl.rootsys import rootsystem


@pytest.mark.parametrize("n", [1, 2, 3])
def test_log_mehta_selberg_at_k1(n):
    # at k = 1 each factor Gamma(1+j)/Gamma(2) is j!
    ref = (0.5 * (n + 1) * math.log(2 * math.pi)
           + sum(math.log(math.factorial(j)) for j in range(1, n + 2)))
    assert abs(log_mehta_selberg(rootsystem(n, 1.0)) - ref) <= 1e-15 * ref


def test_mass_at_origin_against_the_closed_form_constant():
    # psi_0 = 1, so the mass at X = 0 is the chamber rule's integral of the
    # Gaussian weight against the exact constant
    for n, tz in ((1, False), (2, False), (2, True)):
        for k in (0.5, 1.0, 2.0):
            rs = rootsystem(n, k, trace_zero=tz)
            assert abs(heat_mass(rs, 1.0, np.zeros(rs.coord_len)) - 1.0) < 1e-5


def test_heat_a3_matches_k1_oracle_route():
    from dunkl.spherical import spherical_oracle_k1
    rs = rootsystem(3, 1.0)
    t = 0.8
    X, Y = np.array([1.5, 0.8, 0.1, -0.7]), np.array([1.0, 0.2, -0.3, -0.9])
    ref = (math.log(spherical_oracle_k1(rs, X, Y / (2 * t))) - log_mehta_selberg(rs)
           - (rs.gamma + 2.0) * math.log(2.0 * t) - (X @ X + Y @ Y) / (4 * t))
    assert abs(heat_log(rs, t, X, Y) - ref) <= 1e-12 * abs(ref)


def test_heat_at_origin_prefactor():
    rs = rootsystem(1, 1.0)
    t = 0.8
    lv = heat_log(rs, t, np.zeros(2), np.zeros(2))
    expected = (-log_mehta_selberg(rs) - (rs.gamma + 1.0) * math.log(2.0)
                - (1.0 + rs.gamma) * math.log(t))
    assert abs(lv - expected) < 1e-9


def test_heat_positive_t_required():
    rs = rootsystem(1, 1.0)
    with pytest.raises(DomainError):
        heat_log(rs, 0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(DomainError):
        heat_exact(rs, -1.0, np.zeros(2), np.zeros(2))


def test_mass_identity_grid_a1():
    rs_k = {k: rootsystem(1, k) for k in (0.5, 1.0, 2.0)}
    for k, rs in rs_k.items():
        for t in (0.5, 1.0, 2.0):
            assert abs(heat_mass(rs, t, (0.7, -0.3)) - 1.0) < 1e-3


def test_mass_identity_a2_spot():
    rs = rootsystem(2, 1.0)
    assert abs(heat_mass(rs, 1.0, (1.1, 0.2, -0.5)) - 1.0) < 1e-3


def test_symmetry_in_x_y():
    rs = rootsystem(2, 0.7)
    X = np.array([1.2, 0.1, -0.6])
    Y = np.array([0.9, 0.3, -0.2])
    assert abs(heat_log(rs, 0.6, X, Y) - heat_log(rs, 0.6, Y, X)) < 1e-8


def test_heat_exact_vs_k1_oracle_route():
    # at k=1 the kernel through the determinant closed form
    from dunkl.spherical import spherical_oracle_k1
    rs = rootsystem(1, 1.0)
    t, X, Y = 0.7, np.array([1.1, 0.0]), np.array([0.8, -0.4])
    lv = heat_log(rs, t, X, Y)
    psi = spherical_oracle_k1(rs, X, Y / (2 * t))
    expected = (math.log(psi) - log_mehta_selberg(rs)
                - (rs.gamma + 1.0) * math.log(2.0)
                - (1.0 + rs.gamma) * math.log(t)
                - (X @ X + Y @ Y) / (4 * t))
    assert abs(lv - expected) < 1e-9


def test_heat_envelope_values_and_scaling():
    rs = rootsystem(1, 1.0)
    assert abs(heat_envelope(rs, 1.0, (1.0, -1.0), (1.0, -1.0)) - 0.2) < 1e-12
    # alpha-pairing zero
    v = heat_envelope(rs, 0.5, (1.0, 1.0), (2.0, 0.5))
    ref = 0.5 ** (-1.0) * math.exp(-(1.0 + 0.25) / 2.0) / 0.5 ** rs.k
    assert abs(v - ref) < 1e-12
    # homogeneity: envelope(c^2 t, cX, cY) = c^{-d-2 gamma} envelope(t,X,Y)
    X = np.array([1.3, 0.1])
    Y = np.array([0.8, -0.2])
    c = 3.7
    r = (log_heat_envelope(rs, c * c * 0.9, c * X, c * Y)
         - log_heat_envelope(rs, 0.9, X, Y))
    assert abs(r + (rs.d + 2 * rs.gamma) * math.log(c)) < 1e-10


def test_chapman_kolmogorov():
    rs = rootsystem(1, 1.0)
    res = chapman_kolmogorov_check(rs, 0.5, 0.5, (0.8, -0.2), (0.8, -0.2))
    assert res < 1e-4
    res2 = chapman_kolmogorov_check(rs, 0.5, 0.5, (0.8, -0.2), (1.4, 0.1))
    res2s = chapman_kolmogorov_check(rs, 0.5, 0.5, (1.4, 0.1), (0.8, -0.2))
    assert res2 < 1e-4
    assert abs(res2 - res2s) < 1e-6


def test_chapman_kolmogorov_a2():
    rs = rootsystem(2, 0.5)
    res = chapman_kolmogorov_check(rs, 0.6, 0.9, (1.0, 0.2, -0.6),
                                   (0.8, 0.0, -0.4))
    assert res < 1e-4


def test_generator_residual_and_fd_order():
    rs = rootsystem(1, 1.0)
    res = generator_check(rs, 1.0, (0.9, -0.4), (0.5, 0.0), h=1e-4)
    assert res < 1e-3
    r1 = generator_check(rs, 1.0, (0.9, -0.4), (0.5, 0.0), h=2e-3)
    r2 = generator_check(rs, 1.0, (0.9, -0.4), (0.5, 0.0), h=1e-3)
    assert r2 < r1 / 2.5  # ~4x for a second-order stencil


def test_generator_at_equal_points():
    rs = rootsystem(1, 1.0)
    res = generator_check(rs, 1.0, (0.9, -0.4), (0.9, -0.4), h=1e-4)
    assert res < 1e-3


def test_generator_rejects_wall_and_rank():
    rs = rootsystem(1, 1.0)
    with pytest.raises(DomainError):
        generator_check(rs, 1.0, (0.5, 0.4999999), (0.5, 0.0))
    with pytest.raises(DomainError):
        generator_check(rootsystem(2, 1.0), 1.0, (1.0, 0.0, -1.0),
                        (1.0, 0.0, -1.0))


def test_heat_ratio_constant_in_t_when_pairings_vanish():
    rs = rootsystem(1, 1.0)
    X = np.array([1.2, 0.3])
    Y = np.array([0.4, 0.4])  # alpha(Y) = 0
    vals = [heat_log(rs, t, X, Y) - log_heat_envelope(rs, t, X, Y)
            for t in (0.05, 0.5, 5.0, 50.0)]
    # flat up to the 1e-8 wall-collapse perturbation of Y
    assert max(vals) - min(vals) < 1e-5


def test_certify_heat_single_point():
    rs = rootsystem(1, 1.0)
    rep = certify_heat_ratio(rs, points=[(1.0, np.array([1.0, 0.0]),
                                          np.array([0.5, 0.1]))])
    assert rep.count == 1 and abs(rep.spread - 1.0) < 1e-12


def test_certify_heat_sweep_covers_both_regimes():
    rs = rootsystem(1, 0.5)
    rep = certify_heat_ratio(rs)
    regimes = {r["regime"] for r in rep.rows}
    assert regimes == {"t>=aa", "t<aa"}
    assert rep.passes(1e2)


def test_parabolic_rescale_invariance():
    rs = rootsystem(1, 1.0)
    for c in (0.1, 10.0):
        assert parabolic_rescale_residual(rs, 0.7, (1.2, 0.0), (0.9, 0.1), c) < 1e-6


def test_chamber_integral_requires_standard_realization():
    rs = rootsystem(1, 1.0, d=3)
    with pytest.raises(DomainError):
        chamber_heat_integral(rs, [(1.0, np.array([1.0, 0.0, 0.0]))])


def test_chamber_integrals_raise_on_overflowing_arguments():
    # a typed error before numpy overflows in the mean-direction Gaussian or
    # the gap basis products
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            heat_mass(rootsystem(1, 1.0), 1.0, (1e200, 0.0))
        with pytest.raises(DomainError, match="overflows"):
            chapman_kolmogorov_check(rootsystem(2, 1.0), 1.0, 0.5,
                                     (1e200, 0.0, -1e200), (0.5, 0.0, -0.5))
        # a tiny factor time: |A|^2/t, then A/t, overflow
        with pytest.raises(DomainError, match="overflows"):
            heat_mass(rootsystem(1, 1.0), 1e-300, (1e5, 0.0))
        with pytest.raises(DomainError, match="overflows"):
            heat_mass(rootsystem(1, 1.0), 1e-300, (1.0, 0.0))


def test_heat_log_for_times_batch_matches_scalar():
    rs = rootsystem(1, 0.8)
    X = np.array([1.0, -0.1])
    Y = np.array([0.6, 0.0])
    times = np.array([0.3, 1.7, 12.0])
    batch = heat_log_for_times(rs, times, X, Y)
    for u, lv in zip(times, batch):
        assert lv == heat_log(rs, float(u), X, Y)
    out = heat_log_for_times(rs, [], X, Y)
    assert out.shape == (0,) and out.dtype == float


def test_heat_ratio_constant_in_t_at_origin():
    rs = rootsystem(2, 0.8)
    Z = np.zeros(3)
    vals = [heat_log(rs, t, Z, Z) - log_heat_envelope(rs, t, Z, Z)
            for t in (1e-2, 1e-1, 1.0, 10.0, 100.0)]
    assert max(vals) - min(vals) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gap_basis_has_the_gaps_as_simple_roots(n):
    s = np.array([0.3, 1.1, 0.7][:n])
    Y0 = hk._gap_basis(n) @ s
    assert np.allclose(Y0[:-1] - Y0[1:], s, rtol=0, atol=1e-15)
    assert abs(Y0.sum()) < 1e-15


def _log_psi_a1_bessel(k, lam, x):
    """log psi_lam(e^x) on A_1: (l1+l2)(x1+x2)/2 + G_k(u), u = |l1-l2|(x1-x2),
    G_k(u) = log Gamma(k+1/2) + (1/2-k) log(u/4) + log I_{k-1/2}(u/2)."""
    u = abs(lam[0] - lam[1]) * (x[0] - x[1])
    g = (gammaln(k + 0.5) + (0.5 - k) * math.log(u / 4.0)
         + math.log(ive(k - 0.5, u / 2.0)) + u / 2.0)
    return (lam[0] + lam[1]) * (x[0] + x[1]) / 2.0 + g


@pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.5])
def test_a1_heat_kernel_bessel_oracle(k):
    # c = 2 pi Gamma(1+2k)/Gamma(1+k), written out independently of the library
    rs = rootsystem(1, k)
    log_c = ((rs.gamma + 1.0) * math.log(2.0) + math.log(2 * math.pi)
             + gammaln(1.0 + 2.0 * k) - gammaln(1.0 + k))
    pairs = [((1.1, 0.0), (0.8, -0.4)), ((0.7, -0.3), (0.5, 0.45)),
             ((2.0, -1.0), (1.5, -1.2)), ((0.3, 0.1), (-0.2, -0.9))]
    for X, Y in pairs:
        X, Y = np.array(X), np.array(Y)
        for t in (1e-2, 0.3, 1.0, 10.0):
            ref = (-log_c - (1.0 + rs.gamma) * math.log(t) - (X @ X + Y @ Y) / (4 * t)
                   + _log_psi_a1_bessel(k, X, Y / (2 * t)))
            assert abs(math.expm1(heat_log(rs, t, X, Y) - ref)) <= 1e-11


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("trace_zero", [False, True])
def test_concentrated_a2_mass(k, trace_zero, monkeypatch):
    # t << gap^2 puts the peak s* of the gap integrand far from the walls
    # (s*'Ms* ~ 64 at t = 0.005): the shifted Gauss-Hermite regime
    rules = []

    def hermite(nodes):
        rules.append(nodes)
        return quad._ref_hermite(nodes)

    monkeypatch.setattr(hk, "_ref_hermite", hermite)
    rs = rootsystem(2, k, trace_zero=trace_zero)
    X = np.array([1.1, 0.2, -0.5])
    if trace_zero:
        X -= X.mean()
    for t in (0.002, 0.005):
        assert abs(heat_mass(rs, t, X) - 1.0) <= 1e-6
    assert rules == [48, 48]
