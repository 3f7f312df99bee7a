import math

import numpy as np
import pytest

from dunkl.errors import AccuracyError, DomainError, EvaluationError
from dunkl.heatkernel import heat_log
from dunkl.quad import log_panel_integral
from dunkl.rootsys import rootsystem
from dunkl.stable import (certify_stable_ratio,
                          euclid_forms_max_ratio, euclid_stable_envelope,
                          euclid_stable_min_form, log_stable_envelope,
                          log_stable_envelope_reflected, stable_exact,
                          stable_forms_max_log_ratio, stable_log, stable_mass,
                          stable_scaling_residual, stable_sweep_grid,
                          subordinator_bounds_check, subordinator_bounds_sweep,
                          subordinator_density, subordinator_inversion,
                          subordinator_log_density)


def eta_integral(s, t, hi_decades=None):
    beta = 0.5 * s
    u_star = t ** (2.0 / s)
    if hi_decades is None:
        hi_decades = max(10.0, 7.0 / beta)
    lv = log_panel_integral(
        lambda u: subordinator_log_density(s, t, u),
        u_star * 1e-8, u_star * 10.0 ** hi_decades,
        panels_per_decade=4, nodes=16)
    return math.exp(lv)


def test_s1_closed_form_value():
    v = subordinator_density(1.0, 1.0, 1.0)
    assert abs(v - math.exp(-0.25) / (2.0 * math.sqrt(math.pi))) < 1e-15
    assert abs(v - 0.219695) < 1e-6


def test_kanter_matches_closed_form_across_decades():
    t = 1.3
    us = np.geomspace(1e-4, 1e4, 17) * t * t
    lk = subordinator_log_density(1.0, t, us, method="kanter")
    lc = subordinator_log_density(1.0, t, us, method="closed")
    assert np.max(np.abs(np.expm1(lk - lc))) < 1e-6


def test_normalization():
    for s in (0.5, 1.0, 1.5):
        for t in (0.5, 1.0, 2.0):
            assert abs(eta_integral(s, t) - 1.0) < 1e-6


def test_laplace_identity():
    for s in (0.5, 1.0, 1.5):
        for t in (0.5, 1.0, 2.0):
            for z in (0.5, 1.0, 2.0):
                u_star = t ** (2.0 / s)
                lv = log_panel_integral(
                    lambda u: subordinator_log_density(s, t, u) - z * u,
                    u_star * 1e-9, max(200.0 / z, 100.0 * u_star),
                    panels_per_decade=4, nodes=16)
                assert abs(math.exp(lv) - math.exp(-t * z ** (0.5 * s))) < 1e-6


def test_inversion_matches_closed_form_s1():
    for t in (0.5, 1.0, 2.0):
        for u in np.geomspace(1e-1, 1e4, 9) * t * t:
            a = subordinator_inversion(1.0, t, float(u))
            b = subordinator_density(1.0, t, float(u))
            assert abs(a / b - 1.0) < 1e-6


def test_inversion_matches_kanter_other_s():
    for s, u in ((0.5, 2.0), (0.5, 50.0), (1.5, 2.0), (1.5, 30.0)):
        a = subordinator_inversion(s, 1.0, u)
        b = subordinator_density(s, 1.0, u, method="kanter")
        assert abs(a / b - 1.0) < 1e-5


def test_inversion_accuracy_error_in_cancellation_regime():
    with pytest.raises(AccuracyError):
        subordinator_inversion(1.5, 1.0, 1e-4)
    with pytest.raises(AccuracyError):
        subordinator_inversion(1.0, 2.0, 1e-4)


def test_domain_errors():
    with pytest.raises(DomainError):
        subordinator_density(2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        subordinator_density(1.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        subordinator_density(1.0, 0.0, 1.0)


def test_bounds_check_s1_closed_form():
    # ratio to the global upper bound stays bounded over 8 decades
    t = 1.0
    ratios = []
    for u in np.geomspace(1e-4, 1e4, 33):
        b = subordinator_bounds_check(1.0, t, float(u))
        assert b.upper_ok
        ratios.append(b.upper_ratio)
    assert max(ratios) < 10.0


def test_bounds_sweep_records_constants():
    for s in (0.5, 1.0, 1.5):
        rec = subordinator_bounds_sweep(s, 1.0)
        assert math.isfinite(rec["upper_C"]) and rec["upper_C"] > 0
        lo, hi = rec["asymp_bracket"]
        assert 0 < lo <= hi < math.inf


def test_bounds_crossover_point_in_regime():
    b = subordinator_bounds_check(1.0, 1.3, 1.3 ** 2)
    assert b.in_asymp_regime
    assert b.asymp_ratio is not None


def test_euclid_envelope_crossover_and_limits():
    d, s, t = 2, 1.0, 0.7
    X = np.array([1.0, 0.0])
    assert abs(euclid_stable_envelope(d, s, t, X, X) - t ** (-d / s)) < 1e-12
    assert abs(euclid_stable_min_form(d, s, t, X, X) - t ** (-d / s)) < 1e-14
    # crossover: the two min-form branches are equal at t^{2/s} = |X-Y|^2
    Y = X + np.array([0.0, -t ** (1.0 / s)])
    r2 = float((X - Y) @ (X - Y))
    assert abs(r2 - t ** (2.0 / s)) < 1e-12
    assert abs(t ** (-d / s) - t * r2 ** (-0.5 * (d + s))) < 1e-12
    # large separation
    Yfar = X + np.array([0.0, -40.0])
    v = euclid_stable_envelope(d, s, t, X, Yfar)
    assert abs(v / (t * 1600.0 ** (-0.5 * (d + s))) - 1.0) < 1e-3


def test_euclid_forms_within_constant():
    d, s = 3, 1.5
    bound = euclid_forms_max_ratio(d, s)
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = float(rng.uniform(0.05, 20.0))
        X = rng.normal(size=d)
        Y = rng.normal(size=d)
        a = euclid_stable_envelope(d, s, t, X, Y)
        b = euclid_stable_min_form(d, s, t, X, Y)
        assert a <= b * 1.0000001
        assert b <= a * bound * 1.0000001


def test_stable_envelope_values():
    rs = rootsystem(1, 1.0)
    s, t = 1.0, 0.9
    # zero pairings: euclid envelope x (t^{2/s}+R^2)^{-k m}
    X = np.array([0.5, 0.5])
    Y = np.array([0.1, 0.1])
    r2 = float((X - Y) @ (X - Y))
    ref = (euclid_stable_envelope(rs.d, s, t, X, Y)
           / (t ** (2.0 / s) + r2) ** rs.k)
    assert abs(math.exp(log_stable_envelope(rs, s, t, X, Y)) - ref) < 1e-12
    # X = Y = 0 -> t^{-d/s - 2 gamma/s}
    v0 = math.exp(log_stable_envelope(rs, s, t, np.zeros(2), np.zeros(2)))
    assert abs(v0 - t ** (-rs.d / s - 2.0 * rs.gamma / s)) < 1e-12


def test_stable_envelope_forms_within_factor():
    rs = rootsystem(2, 0.7)
    s, t = 1.2, 0.6
    X = np.array([1.1, 0.2, -0.5])
    Y = np.array([0.9, 0.0, -0.3])
    a = log_stable_envelope(rs, s, t, X, Y)
    b = log_stable_envelope_reflected(rs, s, t, X, Y)
    assert b <= a + 1e-12
    assert a - b <= stable_forms_max_log_ratio(rs) + 1e-12


def test_stable_mass():
    rs = rootsystem(1, 1.0)
    for s in (0.5, 1.0, 1.5):
        assert abs(stable_mass(rs, s, 1.0, (0.8, -0.2)) - 1.0) < 1e-3


def test_stable_scaling():
    rs = rootsystem(1, 1.0)
    for s in (0.5, 1.5):
        res = stable_scaling_residual(rs, s, 0.9, (1.1, 0.0), (0.4, -0.2), 3.0)
        assert res < 1e-4


def test_dual_path_consistency_s1():
    # closed-form subordinator vs Kanter inside the full subordination
    rs = rootsystem(1, 1.0)
    t, X, Y = 0.8, np.array([1.0, 0.0]), np.array([0.5, 0.1])
    base = stable_log(rs, 1.0, t, X, Y)

    import dunkl.stable as st
    orig = st.subordinator_log_density

    def kanter_only(s, tt, u, method="auto"):
        return orig(s, tt, u, method="kanter")

    st.subordinator_log_density = kanter_only
    try:
        alt = stable_log(rs, 1.0, t, X, Y)
    finally:
        st.subordinator_log_density = orig
    assert abs(math.expm1(base - alt)) < 1e-6


def test_s_close_to_2_approaches_heat():
    rs = rootsystem(1, 1.0)
    t, X, Y = 0.8, np.array([1.0, 0.0]), np.array([0.6, 0.1])
    lv = stable_log(rs, 1.9, t, X, Y)
    lp = heat_log(rs, t, X, Y)
    assert abs(lv - lp) < 1.0  # finite, same order; ratio grows but slowly


def test_small_k_close_to_euclidean():
    rs = rootsystem(1, 1e-3)
    s, t = 1.0, 0.9
    pts = stable_sweep_grid(rs, s, num=7)
    ratios = []
    for tt, X, Y in pts:
        lv = stable_log(rs, s, tt, X, Y)
        le = math.log(euclid_stable_envelope(rs.d, s, tt, X, Y))
        ratios.append(lv - le)
    assert max(ratios) - min(ratios) < math.log(50.0)


def test_certify_single_point_and_regimes():
    rs = rootsystem(1, 1.0)
    pts = [(0.9, np.array([1.0, 0.0]), np.array([0.5, 0.1]))]
    rep = certify_stable_ratio(rs, 1.0, points=pts)
    assert rep.count == 1 and abs(rep.spread - 1.0) < 1e-12
    rep2 = certify_stable_ratio(rs, 1.0, num=9)
    assert {r["regime"] for r in rep2.rows} == {"t^(2/s)>=R2", "t^(2/s)<R2"}
    assert rep2.passes(1e2)


def test_params_validation():
    rs = rootsystem(1, 1.0)
    with pytest.raises(DomainError):
        stable_exact(rs, 2.5, 1.0, np.zeros(2), np.zeros(2))
    with pytest.raises(DomainError):
        stable_exact(rootsystem(3, 1.0), 1.0, 1.0, np.zeros(4), np.zeros(4))
    kv = stable_exact(rs, 1.0, 1.0, np.array([1.0, 0.0]), np.array([0.5, 0.1]),
                      with_error=True)
    assert kv.rel_err < 1e-6


@pytest.mark.parametrize("s", [1.95, 1.99])
def test_stable_log_raises_where_kanter_overflows(s):
    # the Kanter subordinator path overflows as s -> 2: inf at 1.95, nan at 1.99
    rs = rootsystem(1, 1.0)
    with np.errstate(all="ignore"), pytest.raises(EvaluationError, match="non-finite"):
        stable_log(rs, s, 1.0, np.array([1.0, 0.0]), np.array([0.5, 0.1]))
