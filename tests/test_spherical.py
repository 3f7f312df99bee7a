import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, hyp1f1, ive

from dunkl import quad
from dunkl import spherical as sph
from dunkl.errors import (BudgetExceededError, DegenerateArgumentError,
                          DomainError)
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
        kv = spherical_exact(rs, np.zeros(n + 1), X, with_error=False)
        assert kv.value == 1.0


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
    kv = spherical_exact(rs, lam, X, with_error=False)
    assert abs(kv.value / ref - 1.0) < 1e-8


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
    # |z| > 30 rows take the tilted Laguerre rule, the others the Jacobi rule
    rs = rootsystem(1, k)
    X = np.array([0.7, -0.3])
    for z in np.geomspace(1e-3, 1e4, 36):
        for lam in (np.array([z, 0.0]), np.array([0.0, z])):
            zz = (lam[0] - lam[1]) * (X[0] - X[1])
            ref = lam[0] * X[1] + lam[1] * X[0] + log_kummer_a1(k, zz)
            assert abs(spherical_log(rs, lam, X) - ref) < 1e-9, (k, zz)


def test_a1_kummer_oracle_mixed_batch():
    # one batch mixing Jacobi and tilted rows, larger than a rank-1 block
    k = 0.75
    rs = rootsystem(1, k)
    rng = np.random.default_rng(5)
    gaps = 10.0 ** rng.uniform(-3.0, 1.0, 5000)
    top = rng.uniform(-1.0, 1.0, gaps.size)
    X = np.stack([top, top - gaps], axis=1)
    lam = np.array([-2.0, 40.0])
    got = spherical_log(rs, lam, X, batch=True)
    z = (lam[0] - lam[1]) * gaps
    assert (np.abs(z) > 30).any() and (np.abs(z) <= 30).any()
    ref = [lam[0] * x[1] + lam[1] * x[0] + log_kummer_a1(k, zi)
           for x, zi in zip(X, z)]
    assert np.max(np.abs(got - ref)) < 1e-9


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


@pytest.mark.parametrize("n,plan,rows", [
    (1, (48,), 5000),
    (2, (32, 24), 500),
    (3, (6, 6, 6), 2000),
    (2, (12, 16), 3000),
])
def test_counter_equals_predicted_evals(n, plan, rows):
    # the counter the recursion fills is its terminal evaluations, also when
    # a batch is chunked or split into rank-1 blocks and when rows are tilted;
    # the A_2 rank-1 pairs mix Jacobi, tilted and node-dropping ones, and
    # (12, 16) puts a rank-2 grid coarser than the rank-1 rule over them
    rng = np.random.default_rng(n)
    gaps = rng.uniform(0.05, 1.0, size=(rows, n))
    X = np.concatenate([np.zeros((rows, 1)), np.cumsum(gaps, axis=1)], axis=1)[:, ::-1]
    lam = np.linspace(60.0, 0.0, n + 1)
    assert rows > sph._RANK1_BLOCK if n == 1 else rows * plan[0] ** n > sph._CHUNK
    counter = [0]
    out = sph._log_psi(0.7, lam, X, plan, counter)
    assert np.all(np.isfinite(out))
    assert counter[0] == sph._predicted_evals(n, plan, batch=rows)


def rank1_row_reference(k, lam, hi, lo, Q):
    """log psi_lam(e^{(hi, lo)}) on A_1 by the per-row level rule: the
    weighted mean of e^{mu y} over the Jacobi nodes, taken relative to its
    cold end, or the tilted Laguerre sum over the kept nodes."""
    mu = lam[0] - lam[1]
    u = abs(mu) * (hi - lo)
    if u <= min(quad.TILT_SWITCH, 2.0 * Q):
        x, w = quad._ref_jacobi(Q, k - 1.0, k - 1.0)
        t = mu * (0.5 * (hi + lo) + 0.5 * (hi - lo) * x)
        shift = t[0 if mu >= 0 else -1]
        val = shift + math.log1p((w / w.sum()) @ np.expm1(t - shift))
    else:
        s, w = quad._ref_genlaguerre(Q, k - 1.0)
        kept = s < quad.DROP_FRAC * u
        g = (1.0 - s[kept] / u) ** (k - 1.0)
        val = (gammaln(2 * k) - 2 * gammaln(k) + mu * (hi if mu > 0 else lo)
               - k * math.log(u) + math.log(w[kept] @ g))
    return lam[1] * (hi + lo) + val


@pytest.mark.parametrize("k", [0.25, 1.0, 2.5])
@pytest.mark.parametrize("mu", [-23.0, 17.0])
def test_rank1_grid_matches_per_row_rule(k, mu):
    # random rank-2 grids whose pairs mix Jacobi rows, tilted rows and tilted
    # rows that drop nodes
    rng = np.random.default_rng(int(10 * k) + (mu > 0))
    B, I, J, Q = 3, 7, 5, 16
    c = rng.uniform(-1.0, 1.0, B)
    hi = c[:, None] + rng.uniform(0.0, 2.5, (B, I))
    lo = c[:, None] - rng.uniform(0.0, 2.5, (B, J))
    lam = np.array([mu + 0.4, 0.4])
    got = sph._rank1_grid(k, lam, hi, lo, c, Q, [0])
    u = abs(mu) * (hi[:, :, None] - lo[:, None, :])
    tilted = u > min(quad.TILT_SWITCH, 2.0 * Q)
    drops = quad.DROP_FRAC * u <= quad._ref_genlaguerre(Q, k - 1.0)[0][-1]
    assert (~tilted).any() and (tilted & drops).any() and (tilted & ~drops).any()
    for b, i, j in np.ndindex(got.shape):
        ref = rank1_row_reference(k, lam, hi[b, i], lo[b, j], Q)
        assert abs(got[b, i, j] - ref) <= 1e-13 * max(1.0, abs(ref)), (b, i, j)


def test_rank1_grid_overflowing_factors_raise_no_warning():
    # at pairing 1e4 the factor e^{mu (y1 - x2) p_q} of an A_2 row overflows;
    # it feeds only tilted pairs, which the Laguerre sum overwrites, also when
    # the batch holds a row whose pairs take the product (pairing 1)
    rs = rootsystem(2, 0.5)
    lam, X = pairing_sweep_grid(rs, span=(1e-3, 1e4), num=3)[-1]
    assert (lam[0] - lam[1]) * (X[0] - X[1]) > 2000.0
    rows = np.stack([X, 1e-4 * X])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        both = spherical_log(rs, lam, rows, batch=True)
        alone = [spherical_log(rs, lam, x) for x in rows]
        swapped = spherical_log(rs, X, lam)
    assert np.all(np.isfinite(both)) and list(both) == alone
    assert abs(both[0] - swapped) < 1e-9 * abs(both[0])


@pytest.mark.parametrize("n,rows,lam", [
    (1, 9000, (31.0, 0.0)),
    (2, 700, (60.0, 20.0, 0.0)),
])
def test_row_bits_do_not_depend_on_its_batch(n, rows, lam):
    # one row alone and inside a chunked batch of random rows gives the same
    # bits (no reduction order depends on the block or chunk a row sits in);
    # the rank-1 pairs mix Jacobi and tilted ones
    rs = rootsystem(n, 0.6)
    rng = np.random.default_rng(7)
    X = np.sort(rng.uniform(-1.0, 1.0, (rows, n + 1)), axis=1)[:, ::-1]
    assert rows * sph.default_node_plan(n)[0] ** n > sph._CHUNK
    batch = spherical_log(rs, np.array(lam), X, batch=True)
    tilted = (lam[0] - lam[1]) * (X[:, 0] - X[:, 1]) > 30.0  # tilted rows on A_1
    picks = np.concatenate([np.flatnonzero(tilted)[:60], np.flatnonzero(~tilted)[:4],
                            [rows // 3, rows - 1]])
    for r in picks:
        assert batch[r] == spherical_log(rs, np.array(lam), X[r]), r


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
    kv = spherical_exact(rs, lam, X_wall, with_error=False)
    v_eps = spherical_log(rs, lam, np.array([1.0, 0.3 + 1e-6, 0.3 - 1e-6]))
    assert abs(kv.log_value - v_eps) < 1e-4


def test_chamber_validation_on_params():
    rs = rootsystem(1, 1.0)
    with pytest.raises(DomainError):
        spherical_exact(rs, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        spherical_log(rs, (1.0, 0.0), (0.0, 1.0))


def test_budget_refusal():
    rs = rootsystem(3, 1.0)
    with pytest.raises(BudgetExceededError):
        spherical_log(rs, (3.0, 2.0, 1.0, 0.0), (3.0, 2.0, 1.0, 0.0),
                      plan=(64, 64, 64))


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
    kv = spherical_exact(rs, np.zeros(4), np.array([1.5, 0.6, -0.2, -1.1]),
                         plan=(12, 10, 10), with_error=False)
    assert kv.value == 1.0


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
    out = spherical_log(rs, np.arange(n + 1, 0, -1.0), np.empty((0, n + 1)),
                        batch=True)
    assert out.shape == (0,) and out.dtype == float
