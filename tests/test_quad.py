import math

import numpy as np
import pytest

from dunkl.errors import (BudgetExceededError, DomainError, EvaluationError,
                          InvalidExponentError)
from dunkl.quad import (KernelValue, NestedDomain, QuadratureSpec,
                        budget_cap, exp_weighted_log_integral, integrate_1d,
                        integrate_nested, jacobi_rule, jacobi_weight_sum,
                        log_panel_integral)


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


def test_jacobi_pi_cross_checked_with_adaptive():
    # independent route: adaptive panels on (x(1-x))^{-1/2} with endpoint shaving
    spec = QuadratureSpec(family="adaptive_simpson")
    eps = 1e-9
    kv = integrate_1d(spec, lambda x: (x * (1.0 - x)) ** -0.5, (eps, 1.0 - eps))
    assert abs(kv.value - math.pi) < 1e-3  # shaved endpoints cost sqrt(eps)
    _, w = jacobi_rule(16, -0.5, -0.5, (0.0, 1.0))
    assert abs(w.sum() - math.pi) < 1e-12


def test_jacobi_polynomial_exactness():
    pts, w = jacobi_rule(6, 0.7, -0.3, (0.0, 2.0))
    # degree 11 monomial exactly; reference by very fine rule
    pts2, w2 = jacobi_rule(60, 0.7, -0.3, (0.0, 2.0))
    ref = (w2 * pts2 ** 11).sum()
    assert abs((w * pts ** 11).sum() - ref) < 1e-12 * abs(ref)


def test_invalid_exponent():
    with pytest.raises(InvalidExponentError):
        jacobi_rule(8, -1.0, 0.0, (0.0, 1.0))
    with pytest.raises(InvalidExponentError):
        QuadratureSpec(family="gauss_jacobi", left_exponent=-1.5)


def test_integrate_1d_incomplete_gamma():
    spec = QuadratureSpec(family="gauss_jacobi", nodes=32, left_exponent=-0.5)
    kv = integrate_1d(spec, lambda u: math.exp(-u), (0.0, 1.0))
    oracle = gamma_lower_series(0.5, 1.0)
    assert abs(oracle - 1.49365) < 1e-5
    assert abs(kv.value - oracle) < 1e-12
    assert kv.err < 1e-12


def test_integrate_1d_trivial_and_laguerre():
    kv = integrate_1d(QuadratureSpec(family="gauss_legendre", nodes=8),
                      lambda u: 1.0, (0.0, 1.0))
    assert abs(kv.value - 1.0) < 1e-14
    kv = integrate_1d(QuadratureSpec(family="gauss_laguerre", nodes=24,
                                     left_exponent=1.0),
                      lambda u: 1.0, (0.0, math.inf))
    assert abs(kv.value - 1.0) < 1e-12


def test_integrate_1d_interior_only_nodes():
    seen = []

    def f(x):
        seen.append(x)
        return x ** -0.25

    spec = QuadratureSpec(family="gauss_jacobi", nodes=16, left_exponent=-0.25)
    integrate_1d(spec, lambda x: 1.0, (0.0, 1.0))
    kv = integrate_1d(QuadratureSpec(family="gauss_legendre", nodes=16), f,
                      (0.0, 1.0))
    assert min(seen) > 0.0 and max(seen) < 1.0
    assert math.isfinite(kv.value)


def test_integrate_1d_nonfinite_reports_location():
    def f(x):
        return 1.0 / (x - 0.5) if abs(x - 0.5) > 0.3 else math.nan

    with pytest.raises(EvaluationError) as exc:
        integrate_1d(QuadratureSpec(family="gauss_legendre", nodes=16), f, (0.0, 1.0))
    assert exc.value.location is not None
    assert 0.0 < exc.value.location < 1.0


def test_error_indicator_refinement_behavior():
    # on a smooth integrand doubling nodes must not inflate the indicator > 2x
    f = lambda x: math.exp(math.sin(3 * x))
    errs = []
    for nodes in (8, 16, 32):
        kv = integrate_1d(QuadratureSpec(family="gauss_legendre", nodes=nodes),
                          f, (0.0, 2.0))
        errs.append(max(kv.err, 1e-17))
    assert errs[1] <= 2.0 * errs[0]
    assert errs[2] <= 2.0 * errs[1]


def test_nested_trivial_product_of_lengths():
    dom = NestedDomain.from_chamber((2.0, 1.0, 0.0), 0.0, 0.0)
    specs = [QuadratureSpec(nodes=8)] * 2
    kv = integrate_nested(dom, lambda Y: np.ones(Y.shape[0]), specs)
    assert abs(kv.value - 1.0) < 1e-13
    assert kv.evals > 0


def test_nested_beta_identity():
    # k = 0.5 absorbed endpoint factors, remaining f = 1 -> Beta(1/2,1/2) = pi
    dom = NestedDomain.from_chamber((1.0, 0.0), -0.5, -0.5)
    kv = integrate_nested(dom, lambda Y: np.ones(Y.shape[0]),
                          [QuadratureSpec(nodes=16, family="gauss_jacobi",
                                          left_exponent=-0.5, right_exponent=-0.5)])
    assert abs(kv.value - math.pi) < 1e-12


def test_nested_separable_matches_1d_product():
    dom = NestedDomain(levels=((0.0, 1.0), (-1.0, 0.0)),
                       exponents=((0.0, 0.0), (0.0, 0.0)))
    specs = [QuadratureSpec(nodes=12), QuadratureSpec(nodes=12)]
    kv = integrate_nested(dom, lambda Y: np.exp(Y[:, 0]) * np.cos(Y[:, 1]), specs)
    a = integrate_1d(QuadratureSpec(nodes=12), math.exp, (0.0, 1.0)).value
    b = integrate_1d(QuadratureSpec(nodes=12), math.cos, (-1.0, 0.0)).value
    assert abs(kv.value - a * b) < 1e-10


def test_nested_refinement_shrinks_error():
    dom = NestedDomain(levels=((0.0, 1.0),), exponents=((0.0, 0.0),))
    coarse = integrate_nested(dom, lambda Y: np.exp(3 * Y[:, 0]),
                              [QuadratureSpec(nodes=4)])
    fine = integrate_nested(dom, lambda Y: np.exp(3 * Y[:, 0]),
                            [QuadratureSpec(nodes=8)])
    assert fine.err < 0.5 * coarse.err


def test_nested_budget(monkeypatch):
    monkeypatch.setenv("DUNKL_BUDGET", "100")
    dom = NestedDomain.from_chamber((2.0, 1.0, 0.0), 0.0, 0.0)
    with pytest.raises(BudgetExceededError):
        integrate_nested(dom, lambda Y: np.ones(Y.shape[0]),
                         [QuadratureSpec(nodes=32)] * 2)


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


def test_nested_scalar_integrand_fallback():
    dom = NestedDomain(levels=((0.0, 1.0), (0.0, 1.0)),
                       exponents=((0.0, 0.0), (0.0, 0.0)))
    kv = integrate_nested(dom, lambda y: float(y[0] * y[1]),
                          [QuadratureSpec(nodes=6)] * 2)
    assert abs(kv.value - 0.25) < 1e-13


def test_degenerate_domain_rejected():
    with pytest.raises(DomainError):
        NestedDomain(levels=((1.0, 1.0),), exponents=((0.0, 0.0),))


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
