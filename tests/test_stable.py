import math
import warnings

import numpy as np
import pytest

from dunkl.errors import AccuracyError, DomainError, EvaluationError
from dunkl.heatkernel import heat_log, heat_log_for_times
from dunkl.quad import log_panel_integral, logsumexp
from dunkl.rootsys import positive_roots, reflected_distance_sq, rootsystem
from dunkl.stable import (KANTER_BLOCK, SPAN_DECADES, _kanter_logpdf, _phi_nodes,
                          _scale_free_rule, _u_rule, certify_stable_ratio,
                          log_stable_envelope, stable_exact, stable_log,
                          stable_mass, stable_scaling_residual, stable_sweep_grid,
                          subordinator_bounds_check, subordinator_density,
                          subordinator_inversion, subordinator_log_density)
from stable_reference import subordinator_bounds_sweep


def kanter_log_density(s, t, u):
    """log eta_t(u) by Kanter's form at every s, the closed form's check at s = 1."""
    theta = t ** (2.0 / s)
    return _kanter_logpdf(0.5 * s, np.asarray(u, float) / theta) - math.log(theta)


def euclid_stable_envelope(d, s, t, X, Y):
    """t / (t^{2/s} + |X-Y|^2)^{(d+s)/2}."""
    diff = np.asarray(X, float) - np.asarray(Y, float)
    return float(t / (t ** (2.0 / s) + diff @ diff) ** (0.5 * (d + s)))


def euclid_stable_min_form(d, s, t, X, Y):
    """min{ t^{-d/s}, t |X-Y|^{-(d+s)} }; crossover at t^{2/s} = |X-Y|^2."""
    diff = np.asarray(X, float) - np.asarray(Y, float)
    r2 = float(diff @ diff)
    if r2 == 0.0:
        return t ** (-d / s)
    return min(t ** (-d / s), t * r2 ** (-0.5 * (d + s)))


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
    lk = kanter_log_density(1.0, t, us)
    lc = subordinator_log_density(1.0, t, us)
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
        b = subordinator_density(s, 1.0, u)
        assert abs(a / b - 1.0) < 1e-5


def test_inversion_accuracy_error_in_cancellation_regime():
    with pytest.raises(AccuracyError):
        subordinator_inversion(1.5, 1.0, 1e-4)
    with pytest.raises(AccuracyError):
        subordinator_inversion(1.0, 2.0, 1e-4)


@pytest.mark.parametrize("u", [math.inf, math.nan])
def test_inversion_refuses_non_finite_u(u):
    # u = inf reached numpy's untyped geomspace error
    with pytest.raises(DomainError, match="needs finite u > 0"):
        subordinator_inversion(1.5, 1.0, u)


def test_domain_errors():
    with pytest.raises(DomainError):
        subordinator_density(2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        subordinator_density(1.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        subordinator_density(1.0, 0.0, 1.0)


@pytest.mark.parametrize("s, t, u, message", [
    (1.5, math.inf, [1.0], "t must be finite"),
    (1.5, math.nan, [1.0], "t must be finite"),
    (1.5, 1e308, [1.0], "stable time scale overflows"),
    (0.01, 1e10, [1.0], "stable time scale overflows"),
    (1.5, 1.0, [math.nan], "needs finite u > 0"),
    (1.0, 1.0, [0.5, math.inf], "needs finite u > 0"),
])
def test_density_refuses_non_finite_arguments(s, t, u, message):
    with pytest.raises(DomainError, match=message):
        subordinator_log_density(s, t, u)


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
    bound = 2.0 ** (0.5 * (d + s))  # the two displayed forms differ by at most this
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
    # the |X - sigma_a Y|^2 display, within 2^{k |Sigma+|} of the other one
    r2 = float((X - Y) @ (X - Y))
    b = (math.log(t) - 0.5 * (rs.d + s) * math.log(t ** (2.0 / s) + r2)
         - sum(rs.k * math.log(t ** (2.0 / s) + reflected_distance_sq(rs, root, X, Y))
               for root in positive_roots(rs)))
    assert b <= a + 1e-12
    assert a - b <= rs.k * rs.num_positive_roots * math.log(2.0) + 1e-12


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
    methods = []

    def kanter_only(s, tt, u):
        methods.append("kanter")
        return kanter_log_density(s, tt, u)

    # the cached rule would otherwise answer without calling the density
    st._scale_free_rule.cache_clear()
    st.subordinator_log_density = kanter_only
    try:
        alt = stable_log(rs, 1.0, t, X, Y)
    finally:
        st.subordinator_log_density = orig
        st._scale_free_rule.cache_clear()
    assert methods == ["kanter"]
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
    # A_3 is no longer refused for its cost (the pruned heat rows)
    assert math.isfinite(stable_exact(rootsystem(3, 1.0), 1.0, 1.0, np.zeros(4),
                                      np.zeros(4)).log_value)
    kv = stable_exact(rs, 1.0, 1.0, np.array([1.0, 0.0]), np.array([0.5, 0.1]))
    assert kv.rel_err < 1e-6


@pytest.mark.parametrize("s", [1.95, 1.99])
def test_stable_log_raises_where_kanter_overflows(s):
    # the Kanter subordinator path overflows as s -> 2: nan at 1.95 and 1.99
    rs = rootsystem(1, 1.0)
    with np.errstate(all="ignore"), pytest.raises(EvaluationError, match="non-finite"):
        stable_log(rs, s, 1.0, np.array([1.0, 0.0]), np.array([0.5, 0.1]))


@pytest.mark.parametrize("s", [1.95, 1.99])
def test_density_users_raise_where_kanter_is_not_finite(s, monkeypatch):
    import dunkl.heatkernel

    def no_chamber_integral(*args, **kwargs):
        raise AssertionError("a chamber integral ran on a non-finite u-rule")

    monkeypatch.setattr(dunkl.heatkernel, "chamber_heat_integral", no_chamber_integral)
    rs = rootsystem(1, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite subordinator density"):
            subordinator_density(s, 1.0, 0.5)
        with pytest.raises(EvaluationError, match="non-finite subordinator density"):
            subordinator_bounds_check(s, 1.0, 0.5)
        with pytest.raises(EvaluationError, match="non-finite subordinator density"):
            stable_mass(rs, s, 1.0, (1.0, 0.0))
        # the log density stays raw: heat_log_sum keeps every row on it
        assert not np.isfinite(subordinator_log_density(s, 1.0, 0.5)[0])


@pytest.mark.parametrize("n, k", [(1, 1.0), (2, 0.5)])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 1.9])
def test_stable_log_equals_direct_sum(n, k, s):
    # the cached scale-free rule against the subordinator evaluated at u = u* v
    rs = rootsystem(n, k)
    v, log_w, _ = _scale_free_rule(s, SPAN_DECADES, SPAN_DECADES, 3, 12)
    X = np.array([1.0, 0.0, -1.0][:n + 1]) * 0.7 + 0.4
    Y = np.array([0.5, 0.1, -0.3][:n + 1])
    for t in (1e-3, 1.0, 1e3):
        u_star = t ** (2.0 / s)
        u = u_star * v
        direct = float(logsumexp(log_w + math.log(u_star)
                                 + heat_log_for_times(rs, u, X, Y)
                                 + subordinator_log_density(s, t, u)))
        assert abs(stable_log(rs, s, t, X, Y) - direct) <= 1e-13


def test_scale_free_rule_cold_equals_warm_and_is_read_only():
    rs = rootsystem(1, 1.0)
    X, Y = np.array([1.0, 0.0]), np.array([0.5, 0.1])
    _scale_free_rule.cache_clear()
    cold = stable_log(rs, 1.5, 0.7, X, Y)
    warm = stable_log(rs, 1.5, 0.7, X, Y)
    assert cold == warm
    assert _scale_free_rule.cache_info().hits >= 1
    for a in _scale_free_rule(1.5, SPAN_DECADES, SPAN_DECADES, 3, 12):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_kanter_blocks_equal_elementwise_calls():
    x = np.geomspace(1e-3, 1e4, 3 * KANTER_BLOCK + 17)
    for beta in (0.25, 0.75):
        whole = _kanter_logpdf(beta, x)
        single = np.array([_kanter_logpdf(beta, x[i:i + 1])[0] for i in range(x.size)])
        assert np.array_equal(whole, single)


def test_kanter_exponentials_stay_normal(monkeypatch):
    # an exponent below log DBL_MIN would make exp, the product and the row
    # sum run on subnormal numbers
    log_tiny = math.log(np.finfo(float).tiny)
    exp = np.exp
    low = []

    def checked_exp(x, *args, **kwargs):
        a = np.asarray(x)
        low.append(int(np.count_nonzero(np.isfinite(a) & (a < log_tiny))))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", checked_exp)
    _scale_free_rule.cache_clear()
    _scale_free_rule(1.5, SPAN_DECADES, SPAN_DECADES, 3, 12)
    assert low and sum(low) == 0


def clamped_kanter_logpdf(beta, x):
    """``_kanter_logpdf`` as it was with exponents clamped at -745 (where
    exp gives the smallest subnormal) instead of summed as 0 below -708."""
    phi, w = _phi_nodes()
    r = beta / (1.0 - beta)
    with np.errstate(all="ignore"):
        A = np.exp(r * np.log(np.sin(beta * phi)) + np.log(np.sin((1.0 - beta) * phi))
                   - (1.0 + r) * np.log(np.sin(phi)))
        A0 = beta ** r * (1.0 - beta)
        dA = np.maximum(A - A0, 0.0)
        wA = w * A
        c = x ** (-r)
        inner = np.empty_like(c)
        buf = np.empty((min(c.size, KANTER_BLOCK), dA.size))
        for lo in range(0, c.size, KANTER_BLOCK):
            blk = buf[:c.size - lo]
            np.multiply(-c[lo:lo + KANTER_BLOCK, None], dA, out=blk)
            np.maximum(blk, -745.0, out=blk)
            np.exp(blk, out=blk)
            blk *= wA
            inner[lo:lo + KANTER_BLOCK] = blk.sum(axis=1)
        return (math.log(beta / (1.0 - beta)) - np.log(x) / (1.0 - beta)
                - c * A0 + np.log(np.maximum(inner, 1e-300)) - math.log(math.pi))


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 1.5, 1.9, 1.95, 1.99])
def test_kanter_keeps_the_bits_of_the_clamped_sum(s):
    # stable_log's rule, its refinement and stable_mass's span
    rules = [(SPAN_DECADES, 3, 12), (SPAN_DECADES, 4, 20),
             (max(SPAN_DECADES, 6.0 / (0.5 * s)), 3, 10)]
    for hi_decades, panels_per_decade, nodes in rules:
        v, _ = _u_rule(SPAN_DECADES, hi_decades, panels_per_decade, nodes)
        new = _kanter_logpdf(0.5 * s, v)
        old = clamped_kanter_logpdf(0.5 * s, v)
        finite = np.isfinite(new)
        assert np.array_equal(finite, np.isfinite(old))
        assert np.array_equal(new[finite], old[finite])
        assert finite.all() == (s < 1.92)


@pytest.mark.parametrize("nodes, panels_per_decade", [(12, 3), (20, 4)])
def test_v_rule_has_log_rows_nodes_and_a_breakpoint_at_one(nodes, panels_per_decade):
    v, log_w = _u_rule(SPAN_DECADES, SPAN_DECADES, panels_per_decade, nodes)
    assert v.size == log_w.size == panels_per_decade * 14 * nodes
    if (nodes, panels_per_decade) == (12, 3):
        assert v.size == 504
    assert np.all(np.isfinite(log_w))
    panels = v.reshape(-1, nodes)
    assert np.all(np.diff(panels[:, 0]) > 0)
    # u = u* is a breakpoint: the middle panel boundary sits at v = 1
    half = panels.shape[0] // 2
    assert panels[half - 1, -1] < 1.0 < panels[half, 0]
    assert abs(np.exp(log_w[:half * nodes]).sum() - (1.0 - 1e-7)) < 1e-14
