import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, hyp1f1, ive

from dunkl import cli, quad
from dunkl import spherical as sph
from dunkl.errors import (BudgetExceededError, DegenerateArgumentError,
                          DomainError, EvaluationError)
from dunkl.rootsys import rootsystem
from dunkl.spherical import (certify_ratio, collapse_walls,
                             log_spherical_envelope, pairing_sweep_grid,
                             spherical_exact, spherical_log,
                             spherical_envelope, spherical_oracle_k1)


def rand_chamber(rng, m, lo=0.15, hi=1.0, base=(-0.5, 0.5)):
    gaps = rng.uniform(lo, hi, size=m - 1)
    x = np.concatenate([[0.0], np.cumsum(gaps)])[::-1]
    return x + rng.uniform(*base)


def test_psi_at_lambda_zero_is_one():
    for n, k in ((1, 0.25), (1, 1.0), (2, 0.5), (2, 2.5)):
        rs = rootsystem(n, k)
        X = np.linspace(1.0, -1.0, n + 1) * 1.3
        assert spherical_log(rs, np.zeros(n + 1), X) == 0.0


def test_a1_k1_closed_value():
    rs = rootsystem(1, 1.0)
    kv = spherical_exact(rs, (1.0, 0.0), (1.0, 0.0))
    assert abs(kv.value - (math.e - 1.0)) < 1e-9
    assert kv.err < 1e-9
    assert kv.evals > 0


def test_a2_k1_det_example():
    rs = rootsystem(2, 1.0)
    lam, X = (2.0, 1.0, 0.0), (1.0, 0.0, -1.0)
    ref = spherical_oracle_k1(rs, lam, X)
    # 2! 1! det(e^{lambda_i x_j}) / (pi(lambda) pi(X)) with prefactor 2
    M = np.exp(np.outer(lam, X))
    direct = 2.0 * np.linalg.det(M) / (2.0 * 2.0)
    assert abs(ref - direct) < 1e-12
    assert abs(math.exp(spherical_log(rs, lam, X)) / ref - 1.0) < 1e-8


def test_oracle_requires_k1_and_distinct():
    with pytest.raises(DomainError):
        spherical_oracle_k1(rootsystem(1, 2.0), (1.0, 0.0), (1.0, 0.0))
    with pytest.raises(DegenerateArgumentError):
        spherical_oracle_k1(rootsystem(1, 1.0), (1.0, 1.0), (1.0, 0.0))


def test_oracle_symmetric_in_argument_swap():
    rs = rootsystem(2, 1.0)
    lam = np.array([1.7, 0.6, -0.2])
    X = np.array([0.9, 0.1, -0.8])
    assert abs(spherical_oracle_k1(rs, lam, X)
               - spherical_oracle_k1(rs, X, lam)) < 1e-12


def test_oracle_lambda_to_zero_limit():
    rs = rootsystem(1, 1.0)
    v = spherical_oracle_k1(rs, (1e-5, 0.0), (0.7, -0.2))
    assert abs(v - 1.0) < 1e-4


def test_shift_covariance():
    rs = rootsystem(2, 0.75)
    lam = np.array([1.4, 0.5, 0.0])
    X = np.array([1.0, 0.2, -0.6])
    c = 0.37
    l1 = spherical_log(rs, lam, X)
    l2 = spherical_log(rs, lam, X + c)
    assert abs((l2 - l1) - c * lam.sum()) < 1e-8


def test_lambda_permutation_symmetry():
    rs = rootsystem(2, 0.6)
    X = np.array([1.2, 0.1, -0.8])
    lam = np.array([2.9, 1.7, 0.4])
    base = spherical_log(rs, lam, X)
    for perm in ([1, 0, 2], [2, 0, 1], [1, 2, 0]):
        assert abs(spherical_log(rs, lam[perm], X) - base) < 1e-8


def test_lambda_order_does_not_change_the_bits():
    # the recursion subtracts the last entry of lambda, and an order ending in
    # the largest read -122.0882523377 here, 2.4e-6 off the sorted order's
    # -122.0882547462 (the value at plan (128, 64)); lambda is sorted first
    rs = rootsystem(2, 2.5)
    lam = np.array([1564.47527483, 1553.47392767, 148.13595527])
    X = np.array([0.60472832, -0.61676748, -0.61735215])
    got = {spherical_log(rs, lam[list(p)], X) for p in itertools.permutations(range(3))}
    assert len(got) == 1
    ref = spherical_log(rs, lam, X, (128, 64))
    assert abs(got.pop() - ref) <= 1e-12 * abs(ref)
    # the recursion's levels take only slopes >= 0, so every order must give
    # the decreasing order's bits at every rank: an A_1 batch of Jacobi and
    # tilted rows, and all 24 orders of an A_3 pairing-grid point
    rs = rootsystem(1, 0.6)
    X = np.sort(np.random.default_rng(5).uniform(-1.0, 1.0, (200, 2)), axis=1)[:, ::-1]
    u = 31.0 * (X[:, 0] - X[:, 1])
    assert (u > 30.0).any() and (u < 30.0).any()
    down = spherical_log(rs, np.array([31.0, 0.0]), X)
    assert down.tobytes() == spherical_log(rs, np.array([0.0, 31.0]), X).tobytes()
    rs = rootsystem(3, 0.5)
    lam, X = pairing_sweep_grid(rs)[10]
    assert np.all(np.diff(lam) < 0)
    down = spherical_log(rs, lam, X)
    assert all(spherical_log(rs, lam[list(p)], X) == down
               for p in itertools.permutations(range(4)))


def a2_point(scale, shape, gaps, shift):
    """lambda = 10^scale (s0 + s1, s1, 0) and X = (g0 + g1, g1, 0) + shift."""
    lam = 10.0 ** scale * np.array([shape[0] + shape[1], shape[1], 0.0])
    return lam, np.array([gaps[0] + gaps[1], gaps[1], 0.0]) + shift


A2_POINTS = dict(k=st.floats(0.1, 4.0), scale=st.floats(-2.0, 3.0),
                 shape=st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)),
                 gaps=st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)),
                 shift=st.floats(-1.0, 1.0))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(perm=st.permutations(range(3)), **A2_POINTS)
def test_a2_lambda_permutation_property(perm, k, scale, shape, gaps, shift):
    # psi is symmetric in lambda, and every order takes the sorted order's
    # bits; lambda reaches about 3e3, where fully tilted rank-2 rows take the
    # higher rungs of the Bessel-tail ladder
    rs = rootsystem(2, k)
    lam, X = a2_point(scale, shape, gaps, shift)
    assert spherical_log(rs, lam[list(perm)], X) == spherical_log(rs, lam, X)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(c=st.floats(-2.0, 2.0), **A2_POINTS)
def test_a2_shift_covariance_property(c, k, scale, shape, gaps, shift):
    # psi_lambda(e^{X + c 1}) = e^{c sum lambda} psi_lambda(e^X); the shifted
    # nodes round differently, by at most 2.1e-15 relative over these examples
    rs = rootsystem(2, k)
    lam, X = a2_point(scale, shape, gaps, shift)
    a = spherical_log(rs, lam, X)
    b = spherical_log(rs, lam, X + c)
    assert abs(b - a - c * lam.sum()) <= 1e-12 * max(1.0, abs(a), abs(b)), (lam, X, c)


def test_k1_oracle_random_a1_a2():
    rng = np.random.default_rng(3)
    for n, tol in ((1, 1e-9), (2, 1e-7)):
        rs = rootsystem(n, 1.0)
        for _ in range(5):
            lam = rand_chamber(rng, n + 1)
            X = rand_chamber(rng, n + 1)
            v = spherical_log(rs, lam, X)
            ref = spherical_oracle_k1(rs, lam, X)
            assert abs(math.exp(v) / ref - 1.0) < tol


def log_kummer_a1(k, z):
    """log 1F1(k; 2k; z): hyp1f1 for |z| <= 30, the Bessel form above.

    e^{-z/2} 1F1(k; 2k; z) = Gamma(k+1/2) (|z|/4)^{1/2-k} I_{k-1/2}(|z|/2)
    is even in z (Kummer's transformation).
    """
    if abs(z) <= 30.0:
        return math.log(hyp1f1(k, 2.0 * k, z))
    a = abs(z)
    return (0.5 * z + gammaln(k + 0.5) + (0.5 - k) * math.log(a / 4.0)
            + math.log(ive(k - 0.5, a / 2.0)) + a / 2.0)


@pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.5])
def test_a1_kummer_oracle_over_pairings(k):
    # psi_lambda(e^X) = e^{l1 x2 + l2 x1} 1F1(k; 2k; (l1-l2)(x1-x2)) on A_1;
    # |z| > 30 rows take the Bessel closed form, the others the Jacobi rule
    rs = rootsystem(1, k)
    X = np.array([0.7, -0.3])
    for z in np.geomspace(1e-3, 1e4, 36):
        for lam in (np.array([z, 0.0]), np.array([0.0, z])):
            zz = (lam[0] - lam[1]) * (X[0] - X[1])
            ref = lam[0] * X[1] + lam[1] * X[0] + log_kummer_a1(k, zz)
            assert abs(spherical_log(rs, lam, X) - ref) < 1e-11, (k, zz)


def test_a1_kummer_oracle_mixed_batch():
    # one batch mixing Jacobi and tilted rows, larger than a rank-1 block
    k = 0.75
    rs = rootsystem(1, k)
    rng = np.random.default_rng(5)
    gaps = 10.0 ** rng.uniform(-3.0, 1.0, 5000)
    top = rng.uniform(-1.0, 1.0, gaps.size)
    X = np.stack([top, top - gaps], axis=1)
    lam = np.array([-2.0, 40.0])
    got = spherical_log(rs, lam, X)
    z = (lam[0] - lam[1]) * gaps
    assert (np.abs(z) > 30).any() and (np.abs(z) <= 30).any()
    ref = [lam[0] * x[1] + lam[1] * x[0] + log_kummer_a1(k, zi)
           for x, zi in zip(X, z)]
    assert np.max(np.abs(got - ref)) < 1e-12


def test_a2_argument_swap_at_k_not_one():
    # psi_lambda(e^X) = psi_X(e^lambda): the two sides run different
    # interlacing boxes and tilts, an independent check above rank 1
    rs = rootsystem(2, 0.8)
    rng = np.random.default_rng(11)
    pts = [(np.array([2.2, 0.9, 0.0]), np.array([1.1, 0.4, -0.7])),
           (np.array([400.0, 150.0, 0.0]), np.array([1.0, 0.2, -0.5]))]
    for _ in range(3):
        pts.append((np.sort(rng.uniform(-1.0, 2.0, 3))[::-1],
                    np.sort(rng.uniform(-1.0, 2.0, 3))[::-1]))
    for lam, X in pts:
        a = spherical_log(rs, lam, X)
        b = spherical_log(rs, X, lam)
        assert abs(math.expm1(a - b)) < 1e-9, (lam, X)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(k=st.floats(0.1, 4.0), scale=st.floats(-2.0, 4.0),
       shape=st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)),
       gaps=st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)), shift=st.floats(-1.0, 1.0))
def test_a2_argument_swap_property(k, scale, shape, gaps, shift):
    # psi_lambda(e^X) = psi_X(e^lambda) at random k; lambda scales from 1e-2
    # (every rank-2 pair Jacobi) through rows that mix Jacobi and tilted pairs
    # to 1e4 (every pair tilted).  X stays off the walls: within 1e-3 of one
    # the recursion loses accuracy at k < 1 on either side of the swap.
    rs = rootsystem(2, k)
    lam = 10.0 ** scale * np.array([shape[0] + shape[1], shape[1], 0.0])
    X = np.array([gaps[0] + gaps[1], gaps[1], 0.0]) + shift
    a = spherical_log(rs, lam, X)
    b = spherical_log(rs, X, lam)
    assert abs(math.expm1(a - b)) < 1e-9, (lam, X)


def log_psi_k1_mpmath(rs, lam, X, dps):
    """log of the k = 1 closed form (prod_{j<=n} j!) det(e^{lambda_i x_j}) /
    (pi(lambda) pi(X)) at ``dps`` digits."""
    lam_a, X_a = rs.active(lam), rs.active(X)
    m = len(lam_a)
    with mpmath.workdps(dps):
        lm = [mpmath.mpf(float(v)) for v in lam_a]
        xm = [mpmath.mpf(float(v)) for v in X_a]
        det = mpmath.det(mpmath.matrix([[mpmath.exp(li * xj) for xj in xm] for li in lm]))
        pil = mpmath.fprod(lm[i] - lm[j] for i in range(m) for j in range(i + 1, m))
        pix = mpmath.fprod(xm[i] - xm[j] for i in range(m) for j in range(i + 1, m))
        return mpmath.log(mpmath.fprod(mpmath.factorial(j) for j in range(1, m)) * det
                          / (pil * pix))


@pytest.mark.parametrize("n", [2, 3])
def test_k1_determinant_oracle_in_mpmath(n):
    # the determinant cancels to pi(lambda) pi(X) times its largest term, so
    # the digits grow with the largest exponent and with -log10 pi(lambda) pi(X);
    # twice the digits agree to far below the tolerance
    rs = rootsystem(n, 1.0)
    pts = pairing_sweep_grid(rs, span=(1e-3, 1e4), num=15)[:11]  # pairing <= 1e2
    for lam, X in pts:
        la, xa = rs.active(lam), rs.active(X)
        roots = np.prod([(la[i] - la[j]) * (xa[i] - xa[j])
                         for i in range(n + 1) for j in range(i + 1, n + 1)])
        dps = (30 + math.ceil(np.abs(np.outer(la, xa)).max() / math.log(10))
               + max(0, math.ceil(-math.log10(roots))))
        ref = log_psi_k1_mpmath(rs, lam, X, dps)
        assert abs(ref - log_psi_k1_mpmath(rs, lam, X, 2 * dps)) < 1e-25
        assert abs(math.expm1(spherical_log(rs, lam, X) - float(ref))) <= 1e-12, lam


@pytest.mark.parametrize("n,plan,rows", [
    (1, (48,), 9000),
    (2, (32, 24), 500),
    (3, (6, 6, 6), 2000),
    (2, (12, 16), 3000),
])
def test_counter_equals_predicted_evals(n, plan, rows, monkeypatch):
    # the recursion's terminal (m == 0) rows are the predicted evaluations
    # wherever no row's value is a closed form, also when a batch is chunked:
    # a rank-2 row whose pairs mix Jacobi and tilted ones still evaluates its
    # two factor grids.  The A_2 rank-2 levels drop tilted nodes, and
    # (12, 16) puts a rank-2 grid coarser than the rank-1 rule over them.  A
    # tilted A_1 row, and a rank-2 row whose pairs are all tilted, is a closed
    # form and evaluates nothing, so on A_1 only the Jacobi rows count, and a
    # lambda that tilts every pair counts 0
    rng = np.random.default_rng(n)
    gaps = rng.uniform(0.05, 1.0, size=(rows, n))
    X = np.concatenate([np.zeros((rows, 1)), np.cumsum(gaps, axis=1)], axis=1)[:, ::-1]
    assert rows * plan[0] ** n > sph._CHUNK
    terminal, mixed = [0], [0]
    log_psi, jacobi_rows = sph._log_psi, sph._jacobi_rows

    def counting(k, lam, X, plan):
        if len(lam) == 1:
            terminal[0] += X.shape[0]
        return log_psi(k, lam, X, plan)

    def spying(k, mu, Qi, y1, y2, c, la, lb, u0=None, shared=None):
        if u0 is not None:  # rows summed under a Jacobi-pair mask
            mixed[0] += y1.shape[0]
        return jacobi_rows(k, mu, Qi, y1, y2, c, la, lb, u0, shared)

    monkeypatch.setattr(sph, "_log_psi", counting)
    monkeypatch.setattr(sph, "_jacobi_rows", spying)

    def count(top):
        terminal[0] = 0
        assert np.all(np.isfinite(sph._log_psi(0.7, np.linspace(top, 0.0, n + 1), X, plan)))
        return terminal[0]

    predicted = sph._predicted_evals(n, plan, batch=rows)
    if n == 1:
        jacobi = 60.0 * gaps[:, 0] <= min(quad.TILT_SWITCH, 2.0 * plan[0])
        assert 0 < jacobi.sum() < rows
        assert count(60.0) == plan[0] * jacobi.sum() < predicted
    else:
        assert count(30.0 if n == 3 else 60.0) == predicted
        assert mixed[0] > 0  # rank-2 rows whose pairs mix
    assert count(1e4) == 0


def rank1_row_reference(k, lam, hi, lo, Q):
    """log psi_lam(e^{(hi, lo)}) on A_1: the per-row Jacobi rule (the
    weighted mean of e^{mu y} over its nodes, taken relative to its cold
    end), or the Bessel form of a tilted pair, e^{-u/2} 1F1(k; 2k; u) =
    Gamma(k+1/2) (u/4)^{1/2-k} I_{k-1/2}(u/2) with u = |mu| (hi - lo)."""
    mu = lam[0] - lam[1]
    u = abs(mu) * (hi - lo)
    if u <= min(quad.TILT_SWITCH, 2.0 * Q):
        x, w = quad._ref_jacobi(Q, k - 1.0, k - 1.0)
        t = mu * (0.5 * (hi + lo) + 0.5 * (hi - lo) * x)
        shift = t[0 if mu >= 0 else -1]
        val = shift + math.log1p((w / w.sum()) @ np.expm1(t - shift))
    else:
        # mu (hi + lo)/2 + u/2 = mu times the hot end
        val = (mu * (hi if mu > 0 else lo) + gammaln(k + 0.5)
               + (0.5 - k) * math.log(u / 4.0) + math.log(ive(k - 0.5, u / 2.0)))
    return lam[1] * (hi + lo) + val


@pytest.mark.parametrize("k", [0.25, 1.0, 2.5])
@pytest.mark.parametrize("mu", [-23.0, 17.0])
def test_rank1_grid_matches_per_row_rule(k, mu):
    # random A_1 rows that mix Jacobi and tilted ones, tilted rows just past
    # the switch among them; the reference takes lambda in the given order,
    # the rank-1 level the decreasing order that spherical_log passes it
    rng = np.random.default_rng(int(10 * k) + (mu > 0))
    Q = 16
    c = rng.uniform(-1.0, 1.0, 105)
    hi = c + rng.uniform(0.0, 2.5, c.size)
    lo = c - rng.uniform(0.0, 2.5, c.size)
    lam = np.array([mu + 0.4, 0.4])
    got = sph._rank1_grid(k, np.sort(lam)[::-1], hi, lo, Q)
    u = abs(mu) * (hi - lo)
    u0 = min(quad.TILT_SWITCH, 2.0 * Q)
    assert (u <= u0).any() and ((u > u0) & (u < 1.5 * u0)).any() and (u > 2.0 * u0).any()
    for r in range(c.size):
        ref = rank1_row_reference(k, lam, hi[r], lo[r], Q)
        assert abs(got[r] - ref) <= 1e-13 * max(1.0, abs(ref)), r


@pytest.mark.parametrize("Q", [6, 16, 48])
@pytest.mark.parametrize("k", [0.1, 0.25, 1.0, 2.5, 4.0, 30.0])
def test_rank1_grid_tilted_pairs_against_mpmath(k, Q):
    # tilted A_1 rows from just past the switch u0 to u = 1e6, against
    # log 1F1(k; 2k; u) at 30 digits: with mu = 1 the row (u, 0) is
    # log psi = log 1F1(k; 2k; u) = u + log 1F1(k; 2k; -u); k = 30 takes a fit
    # of twice the starting degree
    u0 = min(quad.TILT_SWITCH, 2.0 * Q)
    u = np.concatenate([[u0 * (1.0 + 1e-12), u0 * 1.01], np.geomspace(u0, 1e6, 40)[1:]])
    got = sph._rank1_grid(k, np.array([1.0, 0.0]), u, np.zeros_like(u), Q)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.log(mpmath.hyp1f1(k, 2 * k, mpmath.mpf(v))))
                        for v in u])
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13


def rank2_level_reference(k, lam, X, Q, Qi):
    """The rank-2 level the slow way: ``interlacing_grid``'s log-weights plus
    every node pair (y1_i, y2_j) evaluated as an A_1 row, then a log-sum-exp;
    ``lam`` (decreasing) is also the slopes of the two levels."""
    (y1, y2), logf = sph.interlacing_grid(k, X, lam, Q)
    B = X.shape[0]
    pairs = np.stack(np.broadcast_arrays(y1, y2), axis=-1).reshape(-1, 2)
    logf = logf + sph._log_psi(k, lam, pairs, (Qi,)).reshape(B, Q, Q)
    return quad.logsumexp(logf.reshape(B, -1), axis=1), y1.reshape(B, Q), y2.reshape(B, Q), logf


@pytest.mark.parametrize("k", [0.25, 0.5, 2.5])
@pytest.mark.parametrize("lam", [(30.0, 0.0), (45.0, 15.0), (50.0, 2.5)])
def test_rank2_level_matches_pairwise_a1_rows(k, lam):
    # rows whose pairs mix Jacobi and tilted ones (a dense block whose Jacobi
    # pairs are summed under a Jacobi-pair mask), rows with none and rows with
    # only Jacobi pairs, i's with no Jacobi partner, and level rules that drop
    # nodes, at small and large k; lambda = (l1 >= l2 >= 0), the level slopes,
    # with a flat second level (l2 = 0) and tilted ones
    lam = np.array(lam)
    Q, Qi = 12, 10
    rng = np.random.default_rng(3)
    gaps = np.concatenate([rng.uniform(0.02, 0.1, (3, 2)), rng.uniform(0.3, 2.0, (9, 2)),
                           rng.uniform(20.0, 60.0, (2, 2)), [[0.9, 1e-4], [1e-4, 0.9]]])
    X = np.concatenate([np.zeros((gaps.shape[0], 1)), np.cumsum(gaps, axis=1)], axis=1)[:, ::-1]
    X = X + rng.uniform(-1.0, 1.0, (X.shape[0], 1))
    got = sph._rank2_level(k, lam, X, Q, Qi)
    ref, y1, y2, logf = rank2_level_reference(k, lam, X, Q, Qi)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13
    # what the rows cover
    u = (lam[0] - lam[1]) * (y1[:, :, None] - y2[:, None, :])
    jacobi = u <= min(quad.TILT_SWITCH, 2.0 * Qi)
    assert jacobi.all(axis=(1, 2)).any() and (~jacobi).all(axis=(1, 2)).any()
    stair = jacobi.any(axis=(1, 2)) & ~jacobi.all(axis=(1, 2))
    assert stair.any() and (~jacobi[stair]).all(axis=2).any()  # an i with no partner
    assert np.isneginf(logf).any()  # dropped level nodes


@pytest.mark.parametrize("Qi", [6, 16, 48])
@pytest.mark.parametrize("k", [0.1, 0.25, 1.0, 2.5, 4.0, 30.0])
def test_rank2_tilted_pairs_against_mpmath(k, Qi):
    # one node a level makes a rank-2 row one pair (y1, y2): lambda = (1, 0)
    # and X = (1, 0, 1 - 2u) give two Jacobi levels (slopes 1 on a unit
    # level, and 0) with nodes 0.5 and 0.5 - u; the pairs run from just past
    # the switch u0 to u = 1e6, and their log psi_(1, 0) =
    # y2 + log 1F1(k; 2k; y1 - y2) is checked against 30 digits
    u0 = min(quad.TILT_SWITCH, 2.0 * Qi)
    u = np.concatenate([[u0 * (1.0 + 1e-12), u0 * 1.01], np.geomspace(u0, 1e6, 40)[1:]])
    lam = np.array([1.0, 0.0])
    X = np.stack([np.ones_like(u), np.zeros_like(u), 1.0 - 2.0 * u], axis=1)
    got = sph._rank2_level(k, lam, X, 1, Qi)
    _, y1, y2, logf = rank2_level_reference(k, lam, X, 1, Qi)
    assert np.all(np.abs(y1 - y2)[:, 0] / u - 1.0 < 1e-12)
    with mpmath.workdps(30):
        pair = np.array([float(mpmath.log(mpmath.hyp1f1(k, 2 * k, mpmath.mpf(a) - b)) + b)
                         for a, b in zip(y1[:, 0], y2[:, 0])])
    lw = logf[:, 0, 0] - sph._log_psi(k, lam, np.stack([y1[:, 0], y2[:, 0]], axis=1), (Qi,))
    ref = lw + pair
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13


def rank3_level_reference(k, lam, X, plan):
    """The rank-3 level the slow way: ``interlacing_grid``'s log-weights plus
    every node triple (y_a, y_b, y_c) evaluated as an A_2 row by ``_log_psi``,
    then a log-sum-exp; ``lam`` (decreasing) is also the slopes of the three
    levels.  Returns the log level, the A_2 rows and their log-weights."""
    ys, logf = sph.interlacing_grid(k, X, lam, plan[0])
    B = X.shape[0]
    rows = np.stack(np.broadcast_arrays(*ys), axis=-1).reshape(-1, 3)
    logf = logf + sph._log_psi(k, lam, rows, plan[1:]).reshape(logf.shape)
    return quad.logsumexp(logf.reshape(B, -1), axis=1), rows, logf


@pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("lam", [(45.0, 15.0, 0.0), (50.0, 2.5, 0.0)])
def test_rank3_level_matches_per_row_rank2_rows(k, lam):
    # the shared factor grids of the rank-3 level against each of its A_2 rows
    # on its own: rows whose rank-2 pairs are all Jacobi (matrix products of
    # shared grids), mixed and all tilted (dense blocks, the mixed ones'
    # Jacobi pairs under a mask over the shared grids), and level rules that
    # drop nodes, at small and large k
    lam = np.array(lam)
    plan = (8, 10, 10)
    rng = np.random.default_rng(3)
    gaps = np.concatenate([rng.uniform(0.02, 0.1, (3, 3)), rng.uniform(0.3, 2.0, (6, 3)),
                           rng.uniform(20.0, 60.0, (2, 3)),
                           [[0.9, 1e-4, 0.5], [1e-4, 0.9, 1e-4]]])
    X = np.concatenate([np.zeros((gaps.shape[0], 1)), np.cumsum(gaps, axis=1)], axis=1)[:, ::-1]
    X = X + rng.uniform(-1.0, 1.0, (X.shape[0], 1))
    got = sph._rank3_level(k, lam, X, plan)
    ref, rows, logf = rank3_level_reference(k, lam, X, plan)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14
    # what the A_2 rows cover
    (z1, z2), (lw1, lw2) = sph._level_rules(k, rows, lam[:2] - lam[2], plan[1])
    mu, u0 = lam[0] - lam[1], min(quad.TILT_SWITCH, 2.0 * plan[2])
    u_hi = mu * (z1.max(axis=1) - z2.min(axis=1))
    u_lo = mu * (z1.min(axis=1) - z2.max(axis=1))
    assert (u_hi <= u0).any() and ((u_lo <= u0) & (u_hi > u0)).any() and (u_lo > u0).any()
    assert np.isneginf(lw1).any() or np.isneginf(lw2).any()  # dropped rank-2 level nodes
    assert np.isneginf(logf).any() or lam[1] < 10.0  # and rank-3 ones where the middle slope is steep


def test_tilted_series_degree_grows_or_refuses():
    # the degree starts at 90/sqrt(u0) and doubles until the fit matches ive
    # to 1e-12; at k = 150, u0 = 2 ive underflows, so no fit passes the check
    assert len(sph._tilted_series(1.0, 30.0)) == 18
    assert len(sph._tilted_series(2.5, 12.0)) == 27
    assert len(sph._tilted_series(30.0, 30.0)) == 35
    with pytest.raises(EvaluationError, match="no Chebyshev fit"):
        sph._tilted_series(150.0, 2.0)


def test_log_ive_matches_scipy():
    # the numpy Bessel helper of the tilted fit against scipy's ive, on both
    # sides of its switch from the power series to the Hankel expansion at
    # x = max(60, 2 nu^2); NaN outside k in (0, _IVE_K_MAX] and where ive
    # would come within 1e3 of float64 underflow
    for k in (0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.3, 2.5, 4.0, 10.0, 30.0):
        nu = k - 0.5
        switch = max(60.0, 2.0 * nu * nu)
        x = np.concatenate([np.geomspace(1.0, 1e6, 300), switch * np.array([0.99, 1.0, 1.01])])
        got = sph._log_ive(nu, x)
        assert np.max(np.abs(got - np.log(ive(nu, x)))) <= 1e-13, k
    assert np.isnan(sph._log_ive(sph._IVE_K_MAX + 0.5, np.array([30.0]))).all()
    assert np.isnan(sph._log_ive(-0.5, np.array([30.0]))).all()
    x = np.array([1.0, 1.2])  # log ive(149.5, x) = -707.14 and -680.08
    assert np.isnan(sph._log_ive(149.5, x)[0])
    assert abs(sph._log_ive(149.5, x)[1] - np.log(ive(149.5, 1.2))) <= 1e-13 * 680


@pytest.mark.parametrize("u0", [12.0, 30.0])
@pytest.mark.parametrize("k", [0.1, 0.25, 1.0, 2.5, 4.0, 30.0])
def test_tilted_rungs_match_rung_zero(k, u0):
    # rung i of the Bessel-tail ladder covers u >= U_i = u0 4^i: on a dense
    # grid of [U_i, 1e8] it is rung 0 to 1e-14 max(1, |H_k|), at no higher
    # degree, and a short series from rung 2 on at the default u0 = 30
    base = sph._tilted_rung(k, u0, 0)
    for i in range(1, sph._TOP_RUNG + 1):
        U = u0 * sph._RUNG_RATIO ** i
        u = np.geomspace(U, 1e8, 2000)
        ref = sph._bessel_tail(k, u0, u, 0.0)
        got = sph._bessel_tail(k, u0, u, 0.0, i)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14, i
        degree = len(sph._tilted_rung(k, u0, i)) - 1
        assert degree <= len(base) - 1
        if u0 == 30.0 and k <= 4.0 and i >= 2:
            assert degree <= 6, (i, degree)


def clenshaw_three_arrays(coef, x):
    """The Clenshaw recurrence from b = 0 in three arrays, as it ran before
    it started from its scalar state"""
    x2 = x + x
    b1, b2, t = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for c in coef[:0:-1].tolist():
        np.multiply(x2, b1, t)
        np.subtract(t, b2, b2)
        b2 += c
        b1, b2 = b2, b1
    np.multiply(x, b1, t)
    t -= b2
    t += coef[0]
    return t


def test_clenshaw_keeps_its_bits(monkeypatch):
    # the recurrence starts from b_d = c_d, b_{d-1} = 2x c_d + c_{d-1} and
    # runs in place; it makes the roundings of the recurrence from b = 0, at
    # every degree, in float64 and in the extended precision of the rungs'
    # re-expansion, with scratch arrays (x then holds the sum) or without (x
    # is kept)
    rng = np.random.default_rng(5)
    x = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 997)])
    shrink = 1.0 / sph._RUNG_RATIO ** 3
    xl = (x.astype(np.longdouble) + 1) * shrink - 1
    for degree in range(21):
        coef = rng.standard_normal(degree + 1) * 2.0 ** -np.arange(degree + 1)
        for arg in (x, xl):
            ref = clenshaw_three_arrays(coef, arg)
            kept = arg.copy()
            assert np.array_equal(sph._clenshaw(coef, arg), ref), degree
            assert np.array_equal(arg, kept)
            got = sph._clenshaw(coef, kept, [np.empty_like(arg) for _ in range(3)])
            assert got is kept and np.array_equal(got, ref), degree
    # every tilted value goes through the rungs' cached coefficients, which
    # the rung-0 recurrence re-expands in extended precision
    for k in (0.25, 1.0, 2.5):
        for rung in (0, 2, 8):
            got = sph._tilted_rung(k, 30.0, rung)
            monkeypatch.setattr(sph, "_clenshaw", clenshaw_three_arrays)
            assert np.array_equal(sph._tilted_rung.__wrapped__(k, 30.0, rung), got), (k, rung)
            monkeypatch.undo()


def test_each_tilted_row_takes_the_rung_of_its_own_smallest_u(monkeypatch):
    # a rank-2 row with a tilted pair takes the highest rung U_i = u0 4^i at or
    # below its own smallest u (rung 0 if it has a Jacobi pair, whose u the
    # block sets to u0), whatever block or batch it sits in.  A rung changes a
    # row's H_k by ~1e-15, below the last bit of most log psi ~ 3e3: taking
    # each block's lowest rung changed 1 of these 700 rows' bits
    rs = rootsystem(2, 0.6)
    rng = np.random.default_rng(7)
    X = np.sort(rng.uniform(-1.0, 1.0, (700, 3)), axis=1)[:, ::-1]
    seen = []
    bessel_tail = sph._bessel_tail

    def spying(k, u0, u, power, rung=0, work=None):
        if u.ndim == 3:  # a dense block of rank-2 rows
            ladder = u0 * sph._RUNG_RATIO ** np.arange(1, sph._TOP_RUNG + 1)
            own = np.searchsorted(ladder, u.reshape(u.shape[0], -1).min(axis=1), side="right")
            assert np.all(own == rung), (own, rung)
            seen.append(own)
        return bessel_tail(k, u0, u, power, rung, work)

    monkeypatch.setattr(sph, "_bessel_tail", spying)
    spherical_log(rs, np.array([3000.0, 1000.0, 0.0]), X)
    assert np.unique(np.concatenate(seen)).size >= 3


def a2_row_paths(k, lam, X, plan):
    """Which A_2 rows have a tilted pair, which of those mix in Jacobi
    pairs, and the rung of each row's dense block"""
    (y1, y2), _ = sph._level_rules(k, X, lam[:2] - lam[2], plan[0])
    mu, u0 = lam[0] - lam[1], min(quad.TILT_SWITCH, 2.0 * plan[1])
    u_lo = mu * (y1.min(axis=1) - y2.max(axis=1))
    tilted = mu * (y1.max(axis=1) - y2.min(axis=1)) > u0
    return tilted, tilted & (u_lo <= u0), np.searchsorted(u0 * sph._LADDER, u_lo, side="right")


def test_tilted_rows_bits_do_not_depend_on_block_size(monkeypatch):
    # the dense blocks of _tilted_rows (and the Jacobi-pair masks of
    # _jacobi_rows) take whole rows, about _TILT_BLOCK pairs at a time, and
    # reduce each row along its own axis: one row a block, an odd block size
    # and the default give the same bits, for A_2 rows that mix tilted and
    # Jacobi pairs, A_2 rows whose pairs are all tilted on several rungs, and
    # the large-pairing A_3 point of the benchmark, all of whose rank-2 rows
    # are dense blocks of 16 x 16 pairs
    rng = np.random.default_rng(23)
    X = np.sort(rng.uniform(-1.0, 1.0, (300, 3)), axis=1)[:, ::-1]
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")
    with open(path) as fh:
        deep = [p for p in json.load(fh)["sph_a3_deep"] if p["k"] == 0.25]
    top = max(deep, key=lambda p: p["min_pairing"])
    cases = []
    for k, lam in ((0.5, (60.0, 20.0, 0.0)), (2.5, (60.0, 20.0, 0.0)),
                   (0.25, (3000.0, 1000.0, 0.0)), (1.0, (3000.0, 1000.0, 0.0))):
        tilted, mixed, rungs = a2_row_paths(k, np.array(lam), X, sph.DEFAULT_PLANS[2])
        if lam[0] < 100.0:
            assert mixed.sum() > 10 and not tilted.all()
        else:
            assert np.unique(rungs[tilted & ~mixed]).size >= 3
        cases.append((rootsystem(2, k), np.array(lam), X, 32 * 32))
    cases.append((rootsystem(3, 0.25), np.array(top["lam"]), np.array(top["X"]), 16 * 16))
    for rs, lam, rows, pairs in cases:
        ref = spherical_log(rs, lam, rows)
        for block in (pairs, 7 * pairs + 5):
            monkeypatch.setattr(sph, "_TILT_BLOCK", block)
            assert np.array_equal(spherical_log(rs, lam, rows), ref), (rs, lam[0], block)
        monkeypatch.undo()


@pytest.mark.parametrize("lam,bound", [((4.0, 1.5, 0.0), 1.85), ((300.0, 120.0, 0.0), 0.85),
                                       ((3000.0, 1200.0, 0.0), 0.8)],
                         ids=["jacobi", "tilted", "all_tilted"])
def test_rank2_level_peak_memory(lam, bound):
    # one chunk-sized A_2 call (B Q^2 = 390 * 32^2 nodes) holds at most
    # ``bound`` arrays of its node-pair size at once: its rank-2 level keeps
    # the two halves of a row's factor grids, 2 (I + J) Qi values, for a block
    # of rows (2 _TILT_BLOCK values a half), not I J values for every row;
    # a call with tilted pairs holds the dense closed-form blocks of
    # _TILT_BLOCK pairs, and, where a row's pairs mix, the factor grids,
    # Jacobi-pair mask and mask products of a block of _TILT_BLOCK pairs
    rng = np.random.default_rng(2)
    B, plan = 390, (32, 24)
    gaps = rng.uniform(0.2, 1.0, (B, 2))
    X = np.concatenate([np.zeros((B, 1)), np.cumsum(gaps, axis=1)], axis=1)[:, ::-1]
    lam = np.array(lam)
    assert B * plan[0] ** 2 <= sph._CHUNK
    sph._log_psi(0.7, lam, X, plan)  # the rules are built once, outside the trace
    tracemalloc.start()
    try:
        sph._log_psi(0.7, lam, X, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, y1, y2, _ = rank2_level_reference(0.7, lam[:2] - lam[2], X, plan[0], plan[1])
    tilted = (lam[0] - lam[1]) * (y1[:, :, None] - y2[:, None, :]) > min(quad.TILT_SWITCH,
                                                                         2.0 * plan[1])
    share = tilted.mean()
    assert share == 0.0 if lam[0] < 10 else share == 1.0 if lam[0] > 1e3 else 0.5 < share < 1.0
    assert peak <= bound * B * plan[0] ** 2 * 8, peak / (B * plan[0] ** 2 * 8)


@pytest.mark.parametrize("lam", [(4.0, 2.5, 1.0, 0.0), (40.0, 25.0, 10.0, 0.0)],
                         ids=["jacobi", "mixed"])
def test_rank3_level_peak_memory(lam, monkeypatch):
    # one chunk-sized A_3 call (B Q^3 = 50 * 20^3 node triples), its parts run
    # one at a time, holds at most 3.5 arrays of its node-triple size at once:
    # the rank-3 level takes its slabs (a row and a node y_b) a block at a
    # time, where all of a row's slabs at once would hold 2 Q^2 Q1 (Q + 2 Q2)
    # node weights and factor grids, 83 times its Q^3 node triples.  At
    # (40, 25, 10, 0) about 4% of the A_2 rows have a tilted pair
    monkeypatch.setattr(sph, "_cpus", lambda: 1)
    rng = np.random.default_rng(2)
    B, plan = 50, (20, 16, 16)
    gaps = rng.uniform(0.2, 1.0, (B, 3))
    X = np.concatenate([np.zeros((B, 1)), np.cumsum(gaps, axis=1)], axis=1)[:, ::-1]
    lam = np.array(lam)
    assert B * plan[0] ** 3 <= sph._CHUNK
    sph._log_psi(0.7, lam, X, plan)  # the rules are built once, outside the trace
    tracemalloc.start()
    try:
        sph._log_psi(0.7, lam, X, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * B * plan[0] ** 3 * 8, peak / (B * plan[0] ** 3 * 8)


def test_rank1_grid_overflowing_factors_raise_no_warning():
    # at pairing 1e4 the factor e^{mu (y1 - x2) p_q} of an A_2 row would
    # overflow; it belongs to an i with no Jacobi partner, which evaluates its
    # factors at offset 0 and adds nothing, also when the batch holds a row
    # whose pairs are all Jacobi (pairing 1)
    rs = rootsystem(2, 0.5)
    lam, X = pairing_sweep_grid(rs, span=(1e-3, 1e4), num=3)[-1]
    assert (lam[0] - lam[1]) * (X[0] - X[1]) > 2000.0
    rows = np.stack([X, 1e-4 * X])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        both = spherical_log(rs, lam, rows)
        alone = [spherical_log(rs, lam, x) for x in rows]
        swapped = spherical_log(rs, X, lam)
    assert np.all(np.isfinite(both)) and list(both) == alone
    assert abs(both[0] - swapped) < 1e-9 * abs(both[0])


@pytest.mark.parametrize("n,rows,lam,plan", [
    (1, 9000, (31.0, 0.0), None),
    (2, 700, (60.0, 20.0, 0.0), None),
    (2, 700, (150.0, 50.0, 0.0), None),
    (2, 700, (50.0, 150.0, 0.0), None),
    (2, 700, (3000.0, 1000.0, 0.0), None),
    (2, 700, (1000.0, 3000.0, 0.0), None),
    (3, 51, (60.0, 40.0, 20.0, 0.0), None),
    (3, 51, (10000.0, 6000.0, 2000.0, 0.0), None),
    (2, 3000, (30.0, 10.0, 0.0), (12, 1)),
    (2, 9000, (30.0, 10.0, 0.0), (7, 3)),
    (2, 700, (30.0, 10.0, 0.0), (32, 1)),
    (3, 2000, (15.0, 10.0, 5.0, 0.0), (6, 5, 1)),
], ids=["1-9000-lam0", "2-700-lam1", "2-700-lam2", "2-700-lam3", "2-700-lam4", "2-700-lam5",
        "3-51-lam6", "3-51-lam7", "2-3000-plan12_1", "2-9000-plan7_3", "2-700-plan32_1",
        "3-2000-plan6_5_1"])
def test_row_bits_do_not_depend_on_its_batch(n, rows, lam, plan, monkeypatch):
    # one row alone and inside a chunked batch of random rows gives the same
    # bits (no reduction order or matrix product depends on the block or chunk
    # a row sits in); the A_1 rows mix Jacobi and tilted ones, and the A_2
    # batches hold rows whose rank-2 pairs are all Jacobi (but at 3000), mixed
    # (summed under a Jacobi-pair mask) and (but for (60, 20, 0)) all tilted
    # in each chunk, with lambda in either order.  At 3000 each chunk's fully
    # tilted rows sit on two rungs or more of the Bessel-tail ladder, which a
    # row must pick from its own smallest u, not from its block's.  The A_3
    # batch runs its two chunks' slabs serially and a lone row's on the chunk
    # pool; the A_2 rows of its rank-3 levels with a tilted pair mix it with
    # Jacobi pairs at (60, 40, 20, 0), and most have only tilted ones at
    # (10000, 6000, 2000, 0).  The plans with a one- or three-node terminal
    # rule give the factor grids a q axis of extent 1 or 3 (at 1 numpy drops
    # the axis from its loops and the matrix products become dot products),
    # where a sum's order could follow the batch's extent
    rs = rootsystem(n, 0.6)
    rng = np.random.default_rng(7)
    X = np.sort(rng.uniform(-1.0, 1.0, (rows, n + 1)), axis=1)[:, ::-1]
    plan = sph.default_node_plan(n) if plan is None else plan
    assert rows * plan[0] ** n > sph._CHUNK
    lows, tilted_rows = [], sph._tilted_rows

    def spying(k, mu1, u0, Qi, y1, y2, c, la, lb, u_lo, shared=None):
        lows.append(u_lo / u0)
        return tilted_rows(k, mu1, u0, Qi, y1, y2, c, la, lb, u_lo, shared)

    monkeypatch.setattr(sph, "_tilted_rows", spying)
    batch = spherical_log(rs, np.array(lam), X, plan)
    if n == 3:
        # the share of mixed rows among the A_2 rows with a tilted pair
        mixed = np.mean(np.concatenate(lows) <= 1.0)
        assert mixed > 0.9 if lam[0] < 1e3 else 0.0 < mixed < 0.1
        classes = [np.arange(0, rows, 7)]
    elif n == 1:
        tilted = (lam[0] - lam[1]) * (X[:, 0] - X[:, 1]) > 30.0
        classes = [np.flatnonzero(tilted)[:60], np.flatnonzero(~tilted)[:4]]
    else:
        Q, Qi = plan
        lam0 = np.array(lam[:2]) - lam[2]
        (y1, y2), _ = sph._level_rules(rs.k, X, np.sort(lam0)[::-1], Q)
        amu, u0 = abs(lam0[0] - lam0[1]), min(quad.TILT_SWITCH, 2.0 * Qi)
        u_lo = amu * (y1.min(axis=1) - y2.max(axis=1))
        u_hi = amu * (y1.max(axis=1) - y2.min(axis=1))
        jacobi, tilted = u_hi <= u0, u_lo > u0
        rung = np.searchsorted(u0 * sph._RUNG_RATIO ** np.arange(1, sph._TOP_RUNG + 1), u_lo,
                               side="right")
        half = np.arange(rows) < rows // 2  # the two chunks
        steep = max(lam) == 3000.0
        for cls in (() if steep else (jacobi,)) + (~jacobi & ~tilted,) + (
                (tilted,) if lam[0] != 60.0 else ()):
            assert (cls & half).any() and (cls & ~half).any()
        if steep:
            assert all(np.unique(rung[tilted & part]).size >= 2 for part in (half, ~half))
        classes = [np.flatnonzero(cls)[::max(1, cls.sum() // 20)]
                   for cls in (jacobi, ~jacobi & ~tilted)
                   + tuple(tilted & (rung == r) for r in np.unique(rung[tilted]))]
    for r in np.concatenate(classes + [[rows // 3, rows - 1]]).astype(int):
        assert batch[r] == spherical_log(rs, np.array(lam), X[r], plan), r


def _a2_rows(rows, seed=7):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(-1.0, 1.0, (rows, 3)), axis=1)[:, ::-1]


def _a3_point():
    rs = rootsystem(3, 0.5)
    return lambda: spherical_log(rs, *pairing_sweep_grid(rs)[10])


def _a2_batch():
    rs, X = rootsystem(2, 0.6), _a2_rows(2304)
    return lambda: spherical_log(rs, np.array([60.0, 20.0, 0.0]), X)


def _heat_batch():
    from dunkl.heatkernel import heat_log_for_times

    rs, times = rootsystem(2, 0.5), np.geomspace(1e-2, 1e2, 516)
    return lambda: heat_log_for_times(rs, times, np.array([1.1, 0.2, -0.5]),
                                      np.array([0.7, 0.1, -0.3]))


@pytest.mark.parametrize("case", [_a3_point, _a2_batch, _heat_batch])
def test_pooled_chunks_give_the_serial_bits(case, monkeypatch):
    # the chunks of a call run three at a time on the chunk pool (whatever
    # the CPUs of the machine, and with the GIL handed over every 10 us) and
    # then as on one CPU, with the same bits: the A_3 point's rank-2 level,
    # the random A_2 batch and the 516 heat rows are all chunked
    widths = []
    chunk_width = sph._chunk_width

    def spying(chunks):
        widths.append(chunk_width(chunks))
        return widths[-1]

    evaluate = case()
    monkeypatch.setattr(sph, "_chunk_width", spying)
    monkeypatch.setattr(sph, "_cpus", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = np.atleast_1d(evaluate())
    finally:
        sys.setswitchinterval(interval)
    assert max(widths) > 1
    widths.clear()
    monkeypatch.setattr(sph, "_cpus", lambda: 1)
    serial = np.atleast_1d(evaluate())
    assert widths and max(widths) == 1
    assert pooled.tobytes() == serial.tobytes()


BLAS_SCRIPT = """
import sys
import numpy as np
from dunkl.rootsys import rootsystem
from dunkl.spherical import spherical_log
rs = rootsystem(3, 0.5)
rng = np.random.default_rng(5)
X = np.sort(rng.uniform(-1.0, 1.0, (3, 4)), axis=1)[:, ::-1]
sys.stdout.write(spherical_log(rs, np.array([60.0, 40.0, 15.0, 0.0]), X).tobytes().hex())
"""


def test_rank3_bits_do_not_depend_on_blas_threads():
    # the rank-3 level's matrix products give one A_3 batch (rows whose rank-2
    # pairs are all Jacobi, and mixed ones) the same bits with OpenBLAS on one
    # thread and on two, each in a process of its own
    src = os.path.dirname(os.path.dirname(sph.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, "-c", BLAS_SCRIPT], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=dict(env, OPENBLAS_NUM_THREADS=threads))
             for threads in ("1", "2")]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        outs.append(out)
    assert len(outs[0]) == 3 * 16 and outs[0] == outs[1]


@pytest.mark.parametrize("cpus", [3, 1])
def test_chunk_error_reaches_the_caller_once_every_chunk_ends(cpus, monkeypatch):
    # an error raised in the second of six chunks (and one in the fourth)
    # reaches spherical_log's caller as the same EvaluationError, the second
    # chunk's as in a serial loop, and only once no chunk is running
    rs, X = rootsystem(2, 0.6), _a2_rows(2304)
    parts = np.array_split(np.arange(len(X)), 6)
    assert len(X) * sph.default_node_plan(2)[0] ** 2 > 5 * sph._CHUNK
    log_psi, running = sph._log_psi, [0]

    def failing(k, lam, rows, plan):
        if len(lam) < 3 or len(rows) == len(X):
            return log_psi(k, lam, rows, plan)
        running[0] += 1
        try:
            for i in (1, 3):
                if rows[0, 0] == X[parts[i][0], 0]:
                    raise EvaluationError(f"chunk {i}")
            return log_psi(k, lam, rows, plan)
        finally:
            running[0] -= 1

    monkeypatch.setattr(sph, "_cpus", lambda: cpus)
    monkeypatch.setattr(sph, "_log_psi", failing)
    with pytest.raises(EvaluationError, match="chunk 1$"):
        spherical_log(rs, np.array([60.0, 20.0, 0.0]), X)
    assert running[0] == 0


def test_envelope_values():
    assert abs(spherical_envelope(rootsystem(1, 2.0), (3.0, 0.0), (2.0, 0.0))
               - math.exp(6.0) / 49.0) < 1e-10
    assert abs(spherical_envelope(rootsystem(2, 1.0), (1.0, 0.0, 0.0),
                                  (1.0, 0.0, 0.0)) - math.e / 4.0) < 1e-12
    assert spherical_envelope(rootsystem(2, 1.3), np.zeros(3),
                              (2.0, 0.0, -1.0)) == 1.0


def test_envelope_log_consistency():
    rs = rootsystem(2, 0.5)
    lam = np.array([3.0, 1.0, 0.0])
    X = np.array([2.0, 0.5, -1.0])
    assert abs(math.log(spherical_envelope(rs, lam, X))
               - log_spherical_envelope(rs, lam, X)) < 1e-12


def test_lambda_on_boundary_continuity():
    # repeated lambda entries are legal; value is the perturbed-lambda limit
    rs = rootsystem(2, 1.0)
    X = np.array([1.0, 0.1, -0.7])
    v0 = spherical_log(rs, np.array([1.3, 0.6, 0.6]), X)
    eps = 1e-6
    v_eps = spherical_log(rs, np.array([1.3, 0.6 + eps, 0.6 - eps]), X)
    assert abs(v0 - v_eps) < 1e-4


def test_wall_collapse_continuity():
    rs = rootsystem(2, 0.9)
    lam = np.array([1.5, 0.7, 0.0])
    X_wall = np.array([1.0, 0.3, 0.3])
    Xc, moved = collapse_walls(rs, X_wall)
    assert moved
    v_eps = spherical_log(rs, lam, np.array([1.0, 0.3 + 1e-6, 0.3 - 1e-6]))
    assert abs(spherical_log(rs, lam, Xc) - v_eps) < 1e-4


@pytest.mark.parametrize("lam, X", [
    ((1e2, 0.0), (1.0, 1.0)),
    ((1e4, 0.0), (1.0, 1.0)),
    ((1e6, 0.0), (1.0, 1.0)),
    ((1e4, 5e3, 0.0), (1.0, 1.0, 1.0)),
])
def test_wall_collapse_error_within_gradient_bound(lam, X):
    # at X = c(1, ..., 1) psi is e^{lambda.X} exactly; the collapse moves log psi
    # by at most max|lambda_i| ||X' - X||_1 (grad log psi lies in conv(W lambda))
    rs = rootsystem(len(X) - 1, 1.0)
    Xc, moved = collapse_walls(rs, X)
    assert moved
    bound = max(abs(v) for v in lam) * float(np.abs(Xc - np.asarray(X)).sum())
    err = spherical_log(rs, lam, Xc) - float(np.dot(lam, X))
    assert 0.0 < err <= bound


def test_chamber_validation_on_params():
    rs = rootsystem(1, 1.0)
    with pytest.raises(DomainError):
        spherical_exact(rs, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        spherical_log(rs, (1.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize("plan", [(), (0, 0), (2.5, 4), (8, -1), (True, True), (32, False),
                                  np.array([True, True]), np.array([32.0, 24.0]), 32, "32"])
def test_caller_plan_checked(plan):
    # a bool is an int to Python, but no node count: (True, True) reached
    # the level rules and raised a bare TypeError there
    rs = rootsystem(2, 0.5)
    with pytest.raises(DomainError, match="node plan entries must be integers >= 1"):
        spherical_log(rs, (3.0, 1.0, 0.0), (1.0, 0.5, 0.0), plan=plan)
    with pytest.raises(DomainError, match="node plan entries must be integers >= 1"):
        cli.SweepConfig(kernel="spherical", n=2, plan=plan)


def test_caller_plan_takes_numpy_integers():
    # numpy's integers are integers: the plan comes back as Python ints
    rs = rootsystem(2, 0.5)
    for plan in (np.array([32, 24]), (np.int64(32), np.uint8(24))):
        assert sph.check_plan(plan) == (32, 24)
        assert all(type(q) is int for q in sph.check_plan(plan))
        assert (spherical_log(rs, (3.0, 1.0, 0.0), (1.0, 0.5, 0.0), plan=plan)
                == spherical_log(rs, (3.0, 1.0, 0.0), (1.0, 0.5, 0.0), plan=(32, 24)))
        config = cli.SweepConfig(kernel="spherical", n=2, plan=plan, num=2)
        assert config.plan == (32, 24) and all(type(q) is int for q in config.plan)


def test_budget_refusal():
    # the plan's price, 2 Q^2 Q1 Q2 = 2.1e9 terminal evaluations, is over the
    # default 1e9 cap
    rs = rootsystem(3, 1.0)
    with pytest.raises(BudgetExceededError):
        spherical_log(rs, (3.0, 2.0, 1.0, 0.0), (3.0, 2.0, 1.0, 0.0),
                      plan=(256, 128, 128))


def test_embedded_inactive_coordinates():
    # A_1 on the first 2 of 3 coordinates: inactive coord contributes e^{l3 x3}
    rs3 = rootsystem(1, 1.0, d=3)
    rs2 = rootsystem(1, 1.0)
    lam3 = np.array([1.0, 0.0, 0.7])
    X3 = np.array([1.0, 0.0, 2.0])
    v3 = spherical_log(rs3, lam3, X3)
    v2 = spherical_log(rs2, lam3[:2], X3[:2])
    assert abs(v3 - (v2 + 0.7 * 2.0)) < 1e-12


def test_certify_single_point_spread_one():
    rs = rootsystem(1, 1.0)
    pts = [(np.array([1.0, 0.0]), np.array([1.0, 0.0]))]
    rep = certify_ratio(rs, points=pts)
    assert rep.count == 1
    assert abs(rep.spread - 1.0) < 1e-12
    assert rep.min_ratio > 0


def test_certify_wall_point_taken_at_collapsed_x():
    # a row at a wall X takes value, envelope and pairings at the one
    # collapsed X, so the drift fit sees a small positive pairing
    rs = rootsystem(2, 1.0)
    lam = np.array([3.0, 2.0, 0.0])
    wall = np.array([1.0, 1.0, 0.0])
    pts = [(lam, np.array([1.0, 0.5, 0.0])), (100.0 * lam, np.array([1.0, 0.5, 0.0])),
           (lam, wall)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = certify_ratio(rs, points=pts)
    row = rep.rows[2]
    Xc, moved = collapse_walls(rs, wall)
    assert moved and 0.0 < row["min_pairing"] < 1e-6
    assert row["log_exact"] == spherical_log(rs, lam, Xc)
    assert row["log_envelope"] == log_spherical_envelope(rs, lam, Xc)
    assert rep.count == 3 and rep.slope_full is not None


def test_certify_zero_pairing_row_stays_out_of_the_drift_fit():
    # a repeated lambda entry is a legal point whose minimum pairing is 0;
    # its row joins the bracket and the drift fits skip it (log10(0) warned,
    # then polyfit raised LinAlgError)
    rs = rootsystem(2, 0.5)
    pts = pairing_sweep_grid(rs, num=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = certify_ratio(rs, points=pts + [((3.0, 3.0, 0.0), pts[0][1])])
        ref = certify_ratio(rs, points=pts)
    assert rep.count == 5 and rep.rows[-1]["min_pairing"] == 0.0
    assert (rep.slope_full, rep.slope_tail) == (ref.slope_full, ref.slope_tail)
    logr = [r["log_ratio"] for r in rep.rows]
    assert (rep.log_min, rep.log_max) == (min(logr), max(logr))


def test_certify_a1_k1_bracket():
    rs = rootsystem(1, 1.0)
    rep = certify_ratio(rs, num=11)
    assert rep.passes(10.0)
    # bracket independent of the product magnitude: known A_1 k=1 max ~1.2984
    assert 1.0 - 1e-6 <= rep.min_ratio and rep.max_ratio < 1.31


def test_pairing_grid_spans_requested_range():
    rs = rootsystem(2, 1.0)
    pts = pairing_sweep_grid(rs, span=(1e-3, 1e4), num=9)
    mins = []
    for lam, X in pts:
        la, xa = rs.active(lam), rs.active(X)
        mins.append(min((la[i] - la[j]) * (xa[i] - xa[j])
                        for i in range(3) for j in range(i + 1, 3)))
    assert abs(mins[0] - 1e-3) < 1e-12
    assert abs(mins[-1] - 1e4) < 1e-8


def test_error_indicator_present():
    rs = rootsystem(2, 1.0)
    kv = spherical_exact(rs, (1.0, 0.3, 0.0), (0.8, 0.1, -0.5))
    assert kv.err >= 0.0
    assert kv.log_value is not None


def test_psi0_a3_light_plan():
    rs = rootsystem(3, 0.5)
    assert spherical_log(rs, np.zeros(4), np.array([1.5, 0.6, -0.2, -1.1]),
                         plan=(12, 10, 10)) == 0.0


def test_a4_batch_mode_with_raised_budget(monkeypatch):
    # rank 4 is batch-only: the default cap refuses it, a raised one allows it
    rs = rootsystem(4, 1.0)
    lam = np.array([1.0, 0.7, 0.3, 0.1, 0.0])
    X = np.array([0.9, 0.5, 0.1, -0.3, -0.8])
    monkeypatch.setenv("DUNKL_BUDGET", "2e9")
    lv = spherical_log(rs, lam, X, plan=(6, 6, 6, 6))
    ref = spherical_oracle_k1(rs, lam, X)
    assert abs(math.exp(lv) / ref - 1.0) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_empty_batch_is_an_empty_array(n):
    rs = rootsystem(n, 0.7)
    out = spherical_log(rs, np.arange(n + 1, 0, -1.0), np.empty((0, n + 1)))
    assert out.shape == (0,) and out.dtype == float
