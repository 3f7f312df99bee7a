import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import betaln

from dunkl import quad
from dunkl.errors import DomainError, EvaluationError, InvalidExponentError
from dunkl.quad import (TILT_SWITCH, KernelValue, _ref_genlaguerre, budget_cap,
                        exp_weighted_log_integral, jacobi_rule,
                        level_nodes, log_panel_integral, logsumexp, panel_rule,
                        refined)


def gamma_lower_series(k, x, terms=200):
    """Independent oracle: gamma(k,x) = x^k e^-x sum_j x^j / (k (k+1) ... (k+j))."""
    acc = 0.0
    term = 1.0 / k
    for j in range(terms):
        acc += term
        term *= x / (k + j + 1.0)
        if term < 1e-18 * acc:
            break
    return x ** k * math.exp(-x) * acc


def jacobi_weight_sum(a_exp, b_exp, interval):
    """B(a+1, b+1) (hi - lo)^(a+b+1), the weight sum of a Jacobi rule."""
    lo, hi = interval
    return math.exp(betaln(a_exp + 1.0, b_exp + 1.0)
                    + (a_exp + b_exp + 1.0) * math.log(hi - lo))


def test_jacobi_weight_sum_beta_grid():
    for a in (-0.9, -0.5, 0.0, 0.5, 2.0):
        for b in (-0.9, -0.5, 0.0, 0.5, 2.0):
            _, w = jacobi_rule(32, a, b, (0.0, 1.0))
            assert abs(w.sum() - jacobi_weight_sum(a, b, (0.0, 1.0))) < 1e-12
    # and on a shifted interval
    _, w = jacobi_rule(24, 0.5, -0.5, (-1.0, 3.0))
    assert abs(w.sum() - jacobi_weight_sum(0.5, -0.5, (-1.0, 3.0))) < 1e-10


def test_jacobi_examples():
    _, w = jacobi_rule(16, 0.0, 0.0, (0.0, 1.0))
    assert abs(w.sum() - 1.0) < 1e-14
    _, w = jacobi_rule(16, -0.5, -0.5, (0.0, 1.0))
    assert abs(w.sum() - math.pi) < 1e-12
    _, w = jacobi_rule(16, 0.5, 0.0, (0.0, 1.0))
    assert abs(w.sum() - 2.0 / 3.0) < 1e-13


def test_jacobi_polynomial_exactness():
    pts, w = jacobi_rule(6, 0.7, -0.3, (0.0, 2.0))
    # degree 11 monomial exactly; reference by very fine rule
    pts2, w2 = jacobi_rule(60, 0.7, -0.3, (0.0, 2.0))
    ref = (w2 * pts2 ** 11).sum()
    assert abs((w * pts ** 11).sum() - ref) < 1e-12 * abs(ref)


def test_invalid_exponent():
    with pytest.raises(InvalidExponentError):
        jacobi_rule(8, -1.0, 0.0, (0.0, 1.0))


def test_jacobi_rule_incomplete_gamma():
    pts, w = jacobi_rule(32, -0.5, 0.0, (0.0, 1.0))
    oracle = gamma_lower_series(0.5, 1.0)
    assert abs(oracle - 1.49365) < 1e-5
    assert abs(float(np.exp(-pts) @ w) - oracle) < 1e-12


def test_genlaguerre_weights_sum_to_one():
    # weight u e^-u on (0, inf): the weights sum to Gamma(2) = 1
    _, w = _ref_genlaguerre(24, 1.0)
    assert abs(w.sum() - 1.0) < 1e-12


def test_refined_epilogue():
    kv = refined(math.log(2.0), math.log(2.0) + 1e-3, evals=7)
    assert kv.log_value == math.log(2.0) + 1e-3 and kv.evals == 7
    assert abs(kv.value - 2.0 * math.exp(1e-3)) < 1e-15
    assert abs(kv.err - abs(math.expm1(-1e-3)) * kv.value) < 1e-16
    # past exp's range the value is inf and the indicator stays relative
    kv = refined(800.0, 800.0 + 1e-6, evals=0)
    assert kv.value == math.inf and abs(kv.err - 1e-6) < 1e-12
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(EvaluationError):
            refined(0.0, bad, evals=0)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-5", "abc"])
def test_budget_cap_rejects_non_finite_or_non_positive(monkeypatch, raw):
    monkeypatch.setenv("DUNKL_BUDGET", raw)
    with pytest.raises(DomainError):
        budget_cap()


def test_budget_cap_default_and_override(monkeypatch):
    monkeypatch.delenv("DUNKL_BUDGET", raising=False)
    assert budget_cap() == 1e9
    monkeypatch.setenv("DUNKL_BUDGET", "2.5e3")
    assert budget_cap() == 2500.0


def test_exp_weighted_log_integral_gamma():
    kv = exp_weighted_log_integral(lambda u: np.zeros_like(u), 1.5, nodes=48)
    assert abs(kv.log_value - math.lgamma(2.5)) < 1e-12
    # with near-axis structure: int u^0.5 e^-u (1 + 1e4 u)^-1 du
    kv2 = exp_weighted_log_integral(lambda u: -np.log1p(1e4 * u), 0.5,
                                    nodes=48, scales=[1e-4])
    ref = log_panel_integral(
        lambda u: 0.5 * np.log(u) - u - np.log1p(1e4 * u), 1e-12, 80.0,
        panels_per_decade=6, nodes=20)
    assert abs(kv2.log_value - ref) < 1e-9


def test_kernel_value_rel_err():
    kv = KernelValue(value=2.0, err=1e-3, evals=10)
    assert abs(kv.rel_err - 5e-4) < 1e-18
    assert float(kv) == 2.0


@pytest.mark.parametrize("Q", [16, 24])
@pytest.mark.parametrize("k", [0.25, 1.0, 2.5])
@pytest.mark.parametrize("top_lo", [False, True])
@pytest.mark.parametrize("e", [1.0, -1.0])
def test_level_nodes_closed_form(Q, k, top_lo, e):
    # int_lo^hi e^{mu y} (y-lo)^a (hi-y)^b dy
    #   = e^{mu lo} L^{a+b+1} B(a+1, b+1) 1F1(a+1; a+b+2; mu L)
    # at the slopes mu = 7^e, on levels 7 times narrower or wider for one u
    a_exp, b_exp = (0.0 if top_lo else k - 1.0), k - 1.0
    mu = 7.0 ** e
    u = np.geomspace(0.1, 500.0, 40)
    lo = np.linspace(-1.0, 1.0, u.size)
    hi = lo + u / mu
    y, logw = level_nodes(lo, hi, a_exp, b_exp, mu, Q)
    tilted = u > min(TILT_SWITCH, 2.0 * Q)
    drops = np.isneginf(logw).any(axis=1)
    assert (~tilted).any() and (tilted & drops).any() and (tilted & ~drops).any()
    got = logsumexp(logw + mu * y, axis=1)
    with mpmath.workdps(40):
        for r in range(u.size):
            L = mpmath.mpf(hi[r]) - mpmath.mpf(lo[r])
            ref = float(mu * mpmath.mpf(lo[r]) + (a_exp + b_exp + 1) * mpmath.log(L)
                        + mpmath.log(mpmath.beta(a_exp + 1, b_exp + 1))
                        + mpmath.log(mpmath.hyp1f1(a_exp + 1, a_exp + b_exp + 2, mu * L)))
            assert abs(got[r] - ref) <= 1e-11 * max(1.0, abs(ref)), (r, u[r])


def test_level_nodes_rejects_a_negative_slope():
    # the recursion sorts lambda, so every level slope is >= 0 and a tilted
    # rule sits at the upper end; a negative slope is refused, not mis-ruled
    lo, hi = np.array([0.0, 0.0]), np.array([0.1, 10.0])
    with pytest.raises(DomainError, match="slope"):
        level_nodes(lo, hi, 0.5, 0.5, -7.0, 16)
    y, logw = level_nodes(lo, hi, 0.5, 0.5, 0.0, 16)  # slope 0 is a Jacobi rule
    assert np.all(np.isfinite(logw)) and np.all((lo[:, None] < y) & (y < hi[:, None]))


@pytest.mark.parametrize("breakpoints, nodes", [
    (np.geomspace(1e-3, 50.0, 9), 16),
    ([0.0] + [math.pi * 2.0 ** -j for j in range(42, 1, -1)]
     + [math.pi - math.pi * 2.0 ** -j for j in range(2, 43)] + [math.pi], 12),
])
def test_panel_rule_is_exact_per_panel(breakpoints, nodes):
    bps = np.asarray(breakpoints, dtype=float)
    x, w = panel_rule(bps, nodes)
    assert x.shape == w.shape == ((bps.size - 1) * nodes,)
    assert abs(w.sum() - (bps[-1] - bps[0])) <= 1e-14 * (bps[-1] - bps[0])
    # every monomial of degree <= 2 nodes - 1, against the exact rational value
    for j, (lo, hi) in enumerate(zip(bps[:-1], bps[1:])):
        xs, ws = x[j * nodes:(j + 1) * nodes], w[j * nodes:(j + 1) * nodes]
        assert np.all((lo < xs) & (xs < hi))
        for p in range(2 * nodes):
            exact = float((Fraction(hi) ** (p + 1) - Fraction(lo) ** (p + 1)) / (p + 1))
            assert abs(ws @ xs ** p - exact) <= 1e-13 * exact, (j, p)


# the reference rules against scipy's, at the sizes and exponents the package
# builds: Jacobi (k-1, k-1) at every level, (0, k-1) at the top level and
# (alpha, 0) on the head panel of the lemma integrals; Laguerre k-1 (tilted
# levels) and k-1/2 (heat gap rule), Hermite 48 (heat peak rule).  The 1e-10
# on the weights is scipy's own error next to x = +-1 (against mpmath)
RULE_SIZES = (6, 12, 16, 20, 24, 32, 48, 64, 96, 128)
RULE_KS = (0.25, 0.5, 0.75, 1.0, 1.3, 2.5)


def assert_rule_matches(got, ref, mass):
    (x, w), (xr, wr) = got, ref
    assert np.all(np.abs(x - xr) <= 1e-14 * np.maximum(1.0, np.abs(xr)))
    assert np.all(np.abs(w - wr) <= 1e-10 * wr)
    assert abs(w.sum() / float(mass) - 1.0) < 1e-14


def test_jacobi_rules_match_scipy():
    from scipy.special import roots_jacobi  # roots_jacobi(n, al, be) weighs (1-x)^al (1+x)^be
    for n in RULE_SIZES:
        for k in RULE_KS:
            for a_exp, b_exp in ((k - 1.0, k - 1.0), (0.0, k - 1.0)):
                mass = 2 ** mpmath.mpf(a_exp + b_exp + 1) * mpmath.beta(a_exp + 1, b_exp + 1)
                assert_rule_matches(quad._ref_jacobi(n, a_exp, b_exp),
                                    roots_jacobi(n, b_exp, a_exp), mass)
    for n in (16, 32):
        for alpha in (-0.5, 0.5, 1.2, 2.5, 6.0):
            assert_rule_matches(quad._ref_jacobi(n, alpha, 0.0), roots_jacobi(n, 0.0, alpha),
                                2 ** mpmath.mpf(alpha + 1) / (alpha + 1))


def test_laguerre_hermite_legendre_rules_match_scipy():
    from scipy.special import roots_genlaguerre, roots_hermite, roots_legendre
    for n in RULE_SIZES:
        for alpha in sorted({e for k in RULE_KS for e in (k - 1.0, k - 0.5)}):
            assert_rule_matches(_ref_genlaguerre(n, alpha), roots_genlaguerre(n, alpha),
                                mpmath.gamma(alpha + 1))
        assert_rule_matches(quad._ref_jacobi(n, 0.0, 0.0), roots_legendre(n), 2.0)
    for n in (5, 48, 49):
        assert_rule_matches(quad._ref_hermite(n), roots_hermite(n), mpmath.sqrt(mpmath.pi))
