import math

import mpmath
import numpy as np
import pytest

from dunkl.asymlab import (AsympClaim, lemma_A_ratio, lemma_a1_ratio,
                           lemma_a2_ratio, lemma_ai_ratio, log_prop_In_target,
                           prop_In, prop_truncated_ratio, sweep_claim)
from dunkl.errors import DomainError
from dunkl.rootsys import rootsystem
from dunkl.spherical import default_node_plan

# E_1(1), the exponential integral at 1 (cross-checked below by its series)
E1_AT_1 = 0.21938393439552026256


def test_e1_constant_via_series():
    # E_1(1) = -gamma - sum_{j>=1} (-1)^j / (j j!)
    euler_gamma = 0.57721566490153286061
    acc = sum((-1.0) ** j / (j * math.factorial(j)) for j in range(1, 25))
    assert abs((-euler_gamma - acc) - E1_AT_1) < 1e-15


def test_lemma_A_incomplete_gamma_against_series():
    def series(k, x):
        acc, term = 0.0, 1.0 / k
        for j in range(400):
            acc += term
            term *= x / (k + j + 1.0)
            if term < 1e-18 * acc:
                break
        return x ** k * math.exp(-x) * acc

    for k in (0.25, 1.0, 2.5):
        for x in (1e-3, 0.5, 3.0, 25.0, 80.0):
            ref = series(k, x)
            gamma_kx = lemma_A_ratio(k, x) * (x / (1.0 + x)) ** k
            assert abs(gamma_kx / ref - 1.0) < 1e-10


def test_lemma_A_golden():
    r = lemma_A_ratio(1.0, 1.0)
    assert abs(r - (1.0 - math.exp(-1.0)) / 0.5) < 1e-10
    assert abs(r - 1.26424) < 1e-5


def test_lemma_A_endpoint_limits():
    # x -> 0+: ratio -> 1/k (Taylor); x -> inf: ratio -> Gamma(k)
    for k in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert abs(lemma_A_ratio(k, 0.0) - 1.0 / k) < 1e-14
        assert abs(lemma_A_ratio(k, 1e-7) - 1.0 / k) < 1e-5 / k
        assert abs(lemma_A_ratio(k, 1e6) / math.gamma(k) - 1.0) < 1e-4
        assert abs(lemma_A_ratio(k, math.inf) / math.gamma(k) - 1.0) < 1e-14
    assert abs(lemma_A_ratio(2.0, 1e-9) - 0.5) < 1e-8


@pytest.mark.parametrize("k, x", [(200.0, 1.0), (171.0, 50.0), (100.0, 1e-3),
                                  (50.0, 1e-2), (400.0, 0.5), (170.5, math.inf)])
def test_lemma_A_large_k_against_mpmath(k, x):
    # Gamma(k) overflows from k = 172 on and P(k, x) underflows for x << k,
    # while the ratio gamma(k, x) ((1+x)/x)^k stays finite
    if math.isinf(x):
        ref = mpmath.gamma(k)
    else:
        ref = mpmath.gammainc(k, 0, x) * mpmath.power((1 + mpmath.mpf(x)) / x, k)
    assert abs(lemma_A_ratio(k, x) / float(ref) - 1.0) < 1e-12


def test_gammainc_against_mpmath():
    # the regularized lower incomplete gamma behind lemma A, on both sides of
    # its switch from the series to the continued fraction at x = a + 1
    from dunkl.asymlab import _gammainc
    for a in (0.25, 0.5, 1.0, 2.5, 4.0, 30.0, 171.0, 300.0, 1e3):
        for x in (1e-6, 0.5, 1.0, 3.0, 25.0, 80.0, 0.9 * a, a + 1.0, 1.1 * a + 2.0,
                  1e4, 1e6):
            ref = mpmath.gammainc(a, 0, x, regularized=True)
            if ref > 1e-290:
                assert abs(_gammainc(a, x) / float(ref) - 1.0) < 1e-12, (a, x)
        assert _gammainc(a, math.inf) == 1.0
    assert _gammainc(400.0, 0.5) == 0.0  # below the float range


def test_lemma_A_overflow_is_a_domain_error():
    # the x = inf limit Gamma(300) ~ 1e612 has no float64 value
    for x in (299.0, math.inf):
        with pytest.raises(DomainError, match="overflows float64"):
            lemma_A_ratio(300.0, x)


def test_lemma_A_bracket():
    for k in (0.25, 0.5, 1.0, 2.0, 4.0):
        lo_lim, hi_lim = 1.0 / k, math.gamma(k)
        band = (min(lo_lim, hi_lim) / 2.0, 2.0 * max(lo_lim, hi_lim))
        for x in np.geomspace(1e-6, 1e6, 25):
            r = lemma_A_ratio(k, float(x))
            assert band[0] <= r <= band[1]


def test_lemma_ai_constant_denominator():
    # m=1, b=0: J = Gamma(N+1), ratio = Gamma(N+1)
    for N in (1.2, 3.0):
        assert abs(lemma_ai_ratio(1.0, N, 1.0, [0.0])
                   / math.gamma(N + 1.0) - 1.0) < 1e-10


def test_lemma_ai_a_zero_closed_form():
    # a=0: J = Gamma(N+1-km)/prod b^k, ratio = Gamma(N+1-km) prod((a+b)/b)^k
    assert abs(lemma_ai_ratio(1.0, 2.0, 0.0, [1.0]) - 1.0) < 1e-10
    v = lemma_ai_ratio(0.5, 2.0, 0.0, [4.0, 9.0])
    ref = math.gamma(2.0) * (4.0 / 4.0) ** 0.5 * (9.0 / 9.0) ** 0.5
    assert abs(v / ref - 1.0) < 1e-9


def test_lemma_ai_scale_invariance():
    base = lemma_ai_ratio(0.8, 2.5, 0.7, [0.2, 3.0, 40.0])
    for c in (1e-3, 1e3):
        v = lemma_ai_ratio(0.8, 2.5, c * 0.7, [c * 0.2, c * 3.0, c * 40.0])
        assert abs(v / base - 1.0) < 1e-6


def test_lemma_ai_divergence_guard():
    with pytest.raises(DomainError):
        lemma_ai_ratio(1.0, 0.5, 0.0, [1.0, 2.0])  # N <= km-1
    with pytest.raises(DomainError):
        lemma_ai_ratio(1.0, 3.0, 0.0, [0.0])  # a + b_i = 0


def test_lemma_a1_constant_denominator():
    for k in (0.5, 1.0, 2.0):
        assert abs(lemma_a1_ratio(k, 1.0, 0.0)
                   - math.gamma(k) / math.log(2.0)) < 1e-9


def test_lemma_a1_golden_value():
    # (k,a,b) = (1,1,1): J = e E_1(1); ratio = 2 e E_1(1) / ln 3
    ref = 2.0 * math.e * E1_AT_1 / math.log(3.0)
    assert abs(lemma_a1_ratio(1.0, 1.0, 1.0) - ref) < 1e-8 * ref
    assert abs(ref - 1.0856) < 1e-4


def test_lemma_a1_large_quotient_bracket():
    vals = [lemma_a1_ratio(1.0, 1.0, float(b)) for b in np.geomspace(1.0, 1e8, 17)]
    assert 0.3 < min(vals) and max(vals) < 3.0


def test_lemma_a1_domain():
    with pytest.raises(DomainError):
        lemma_a1_ratio(1.0, 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("where", ["a", "b"])
def test_lemma_ai_refuses_non_finite_arguments(bad, where):
    # a non-finite a or b_i is a DomainError before any log (under -W error a
    # RuntimeWarning from np.log escaped in its place)
    a, b = (bad, [1.0, 2.0]) if where == "a" else (1.0, [1.0, bad])
    with pytest.raises(DomainError, match="need finite"):
        lemma_ai_ratio(1.0, 3.0, a, b)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("where", ["a", "b"])
def test_lemma_a1_refuses_non_finite_arguments(bad, where):
    args = (bad, 1.0) if where == "a" else (1.0, bad)
    with pytest.raises(DomainError):
        lemma_a1_ratio(1.0, *args)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("where", ["a", "b3"])
def test_lemma_a2_refuses_non_finite_arguments(bad, where):
    args = (bad, 1.0, 2.0, 3.0) if where == "a" else (1.0, 1.0, 2.0, bad)
    with pytest.raises(DomainError):
        lemma_a2_ratio(1.0, *args)


def test_lemma_a2_trivial_cases():
    for k in (0.5, 1.0, 2.0):
        ref = math.gamma(3.0 * k) / math.log(2.0)
        v = lemma_a2_ratio(k, 1.0, 0.0, 0.0, 0.0)
        assert abs(v / ref - 1.0) < 1e-8
        # a >> b_i
        v2 = lemma_a2_ratio(k, 1.0, 1e-9, 2e-9, 3e-9)
        assert abs(v2 / ref - 1.0) < 1e-6


def test_lemma_a2_ordering_and_a_zero():
    with pytest.raises(DomainError):
        lemma_a2_ratio(1.0, 1.0, 3.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        lemma_a2_ratio(1.0, 0.0, 1.0, 2.0, 3.0)


def test_lemma_a2_straddle_bracket():
    vals = [lemma_a2_ratio(1.0, 1.0, float(b1), float(2 * b1), float(5 * b1))
            for b1 in np.geomspace(1e-3, 1e3, 13)]
    assert max(vals) / min(vals) < 20.0


def test_prop_in_dixon_anderson_identity():
    # lambda = 0: the box integral is the Dixon-Anderson integral,
    # I^(n) = Gamma(k)^{n+1}/Gamma((n+1)k) pi(X)^{2k-1}
    for n in (1, 2, 3):
        X = np.array([1.4, 0.2, -0.3, -1.5])[:n + 1]
        logpi = sum(math.log(X[i] - X[j])
                    for i in range(n + 1) for j in range(i + 1, n + 1))
        for k in (0.5, 1.3, 2.5):
            rs = rootsystem(n, k)
            kv = prop_In(rs, np.zeros(n + 1), X)
            ref = ((n + 1) * math.lgamma(k) - math.lgamma((n + 1) * k)
                   + (2 * k - 1.0) * logpi)
            assert abs(kv.log_value - ref) < 1e-12


def test_prop_in_counts_its_grid_nodes():
    # evals is the size of the two interlacing grids, Q^n and (2Q)^n nodes
    from dunkl.spherical import interlacing_grid
    X = np.array([1.4, 0.2, -0.3, -1.5])
    for n, plan in ((1, None), (2, None), (2, (10,)), (3, (6,))):
        rs = rootsystem(n, 0.7)
        Q = default_node_plan(n)[0] if plan is None else plan[0]
        sizes = [interlacing_grid(0.7, X[None, :n + 1], np.ones(n), q)[1].size
                 for q in (Q, 2 * Q)]
        assert sizes == [Q ** n, (2 * Q) ** n]
        assert prop_In(rs, np.zeros(n + 1), X[:n + 1], plan).evals == sum(sizes)


def test_prop_in_takes_lambda_out_of_order_within_the_chamber_tolerance():
    # the closed chamber admits lambda out of order by 1e-12 of its scale,
    # which would make a level slope negative; it gives lambda = 0's value
    X = np.array([1.4, 0.2, -0.3, -1.5])
    for n in (1, 3):
        rs = rootsystem(n, 0.7)
        lam = np.zeros(n + 1)
        lam[-1] = 5e-13
        ref = prop_In(rs, np.zeros(n + 1), X[:n + 1]).log_value
        assert abs(prop_In(rs, lam, X[:n + 1]).log_value - ref) < 1e-11


def test_prop_in_rank1_exact_constant_relation():
    # I^(1) = Gamma(k)^2/Gamma(2k) e^{-lambda(X)} pi(X)^{2k-1} psi (exact, n=1)
    from dunkl.spherical import spherical_log
    rs = rootsystem(1, 0.7)
    lam = np.array([2.0, 0.3])
    X = np.array([1.1, -0.2])
    kv = prop_In(rs, lam, X)
    lpsi = spherical_log(rs, lam, X)
    ref = (math.lgamma(0.7) * 2 - math.lgamma(1.4)
           - float(lam @ X) + (2 * 0.7 - 1.0) * math.log(1.3) + lpsi)
    assert abs(kv.log_value - ref) < 1e-9


def test_prop_in_bounded_against_target():
    rs = rootsystem(2, 0.8)
    lam = np.array([3.0, 1.2, 0.0])
    X = np.array([1.3, 0.4, -0.6])
    kv = prop_In(rs, lam, X)
    lt = log_prop_In_target(rs, lam, X)
    assert abs(kv.log_value - lt) < math.log(50.0)


def test_prop_truncated_symmetric_half():
    for k in (0.5, 1.0, 2.3):
        rs = rootsystem(1, k)
        r = prop_truncated_ratio(rs, (0.0, 0.0), (1.0, 0.0))
        assert abs(r - 0.5) < 1e-9


def test_prop_truncated_bracket_and_monotone_range():
    rs = rootsystem(1, 0.8)
    vals = []
    for c in np.geomspace(1e-2, 1e3, 9):
        r = prop_truncated_ratio(rs, (c, 0.0), (1.0, 0.0))
        assert 0.0 < r <= 1.0 + 1e-12
        vals.append(r)
    assert min(vals) > 0.25  # recorded c stays well away from 0


def test_prop_truncated_a2_and_precondition():
    rs = rootsystem(2, 1.0)
    r = prop_truncated_ratio(rs, (2.0, 1.0, 0.0), (1.0, 0.3, -1.0))
    assert 0.0 < r <= 1.0
    with pytest.raises(DomainError):
        prop_truncated_ratio(rs, (2.0, 1.0, 0.0), (2.0, 0.3, -0.1))


@pytest.mark.parametrize("plan", [(), (0,), (2.5,)])
def test_prop_plans_checked(plan):
    rs = rootsystem(1, 1.0)
    for fn in (prop_In, prop_truncated_ratio):
        with pytest.raises(DomainError, match="node plan entries must be integers >= 1"):
            fn(rs, (1.0, 0.0), (1.0, 0.0), plan=plan)


def test_asymp_claim_validation():
    with pytest.raises(DomainError):
        AsympClaim("x", "grid", (0.0, 1.0), 3)
    c = AsympClaim("x", "grid", (0.5, 2.0), 3)
    assert abs(c.spread - 4.0) < 1e-15


def test_sweep_claim_smoke():
    claim, ok, detail = sweep_claim("lemma_a1")
    assert ok and claim.count > 10
