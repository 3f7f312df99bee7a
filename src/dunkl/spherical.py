"""W-invariant spherical functions of type A: exact recursion, sharp
envelope, and ratio certification.

``spherical_exact`` evaluates psi_lambda(e^X) through the iterated integral
that reduces rank n to rank n-1:

    psi_lambda(e^X) = Gamma(k(n+1))/Gamma(k)^{n+1} * e^{lambda_{n+1} sum x_r}
        * pi(X)^{1-2k}
        * int ... int psi_{lambda_0}(e^Y)
              [prod_i prod_{j<=i}(x_j-y_i) prod_{j>i}(y_i-x_j)]^{k-1}
              prod_{i<j}(y_i-y_j) dy

over the interlacing box x_{i+1} <= y_i <= x_i, with the shifted inner
argument lambda_0 = (lambda_r - lambda_{n+1})_r; the terminal case is a
single active coordinate where psi = e^{lambda x}.  Everything runs in log
space (values reach e^{1e4} on certification sweeps) and the per-level rules
absorb the adjacent (k-1)-power factors into Jacobi weights, switching the
levels of rank >= 2 to the exponential substitution rule (``level_nodes``,
which drops the nodes outside the interval) once the level's tilt is too
steep for a polynomial rule.

The two innermost levels are summed in closed forms of their own.  A rank-2
row (``_rank2_level``) sums its level rules' node pairs (y_1, y_2) without a
grid: every weight of a pair depends on one coordinate except the Vandermonde
factor y_1 - y_2, which splits into (y_1 - c) + (c - y_2), c the middle
coordinate of the row.  A pair whose rank-1 level is a Jacobi rule has psi equal
to the weighted mean of e^{mu y} over its nodes, and e^{mu y} splits into a
factor along y_1 and one along y_2, so a row's Jacobi pairs are sums over two
factor grids, which alone pass through the single-coordinate terminal case.
A tilted pair, and a tilted A_1 row (``_rank1_grid``), takes the rank-one
kernel in closed form, the Bessel function of DLMF 13.6.9, whose smooth
remainder is a cached Chebyshev series (``_tilted_series``), a block at a
time.  The remainder flattens as u grows, so it comes as a ladder of series
(``_tilted_rung``): rung i covers u >= u0 4^i, i = 0 ... 8, and is rung 0
re-expanded there and cut to 1e-14; from rung 2 on its degree is <= 4 where
rung 0's is 17 (u0 = 30, k <= 4).  A rank-2 row whose pairs are all tilted
takes the highest rung at or below its own smallest u, so its bits do not
depend on its batch; other rows take rung 0.  A rank-2 row takes one of two
paths by its largest tilt.  With no tilted pair, it is summed from its two
factor grids (2 Q_{n-2} Q_{n-1} terminal evaluations).  With one, its pairs
form a dense block of closed forms; its Jacobi pairs, if it has any, are left
out of the block and summed from the factor grids under the row's Jacobi-pair
mask, and a row whose pairs are all tilted evaluates nothing.
``_predicted_evals``, the price the budget guard checks, counts every rank-2
row as evaluating its factor grids and every A_1 row Q; it is exact when no
row is all tilted and no A_1 row tilted.  When all entries of lambda are equal, psi_lambda(e^X) =
e^{lambda_1 sum x} is returned exactly.

A batch whose rows put more than ``_CHUNK`` nodes on its level is split into
chunks of consecutive rows (``_chunked``), run on a thread pool as many at a
time as the process's affinity mask has CPUs.  numpy releases the GIL in its
ufuncs, and no row's bits depend on its batch, so neither the split nor the
width changes a value.  The chunks that a chunk reaches run serially; a
forked child builds a pool of its own, and the workers of a process pool
(the CLI's ``--workers``, through ``serial_chunks``) run theirs serially.

The k=1 determinant closed form is the independent oracle; the envelope is
the right-hand side of the sharp two-sided estimate

    psi_lambda(e^X) asymp e^{lambda(X)} / prod_{i<j} (1+(x_i-x_j)(lambda_i-lambda_j))^k.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Sequence

import numpy as np
from scipy.special import gammaln, ive

from . import quad
from .errors import (BudgetExceededError, DegenerateArgumentError, DomainError,
                     EvaluationError)
from .quad import KernelValue, level_nodes, logsumexp
from .report import Kernel, RatioReport
from .rootsys import RootSystemA, ensure_chamber

DEFAULT_PLANS = {1: (48,), 2: (32, 24), 3: (20, 16, 16)}

#: batch rows are chunked so the innermost tensors stay ~tens of MB; the
#: chunks of one call run on the chunk pool, as many at once as there are CPUs
_CHUNK = 400_000
#: tilted A_1 rows per block: numpy's per-call cost is spread over many rows,
#: and a block's 32 kB work arrays stay in cache
_RANK1_BLOCK = 4096
#: pairs of a rank-2 level per dense block of rows with a tilted pair (and per
#: Jacobi-pair mask block), whole rows at a time: a row's pairs are reduced
#: together, and larger blocks spread the Clenshaw recurrence's per-call cost
_TILT_BLOCK = 16384
#: rank-2 rows whose factor grids hold about this many values are summed
#: together, so that their arrays stay in cache; half of what one chunk at a
#: time could take, since two pooled chunks hold their blocks at once
_RANK2_BLOCK = 65536
#: the ladder of Bessel-tail series: rung i covers u >= u0 _RUNG_RATIO^i,
#: i = 0 ... _TOP_RUNG, and drops trailing coefficients that add at most
#: _RUNG_TOL max(1, max|H_k|); _LADDER holds U_i/u0 from rung 1 on
_RUNG_RATIO = 4.0
_TOP_RUNG = 8
_RUNG_TOL = 1e-14
_LADDER = _RUNG_RATIO ** np.arange(1, _TOP_RUNG + 1)


def default_node_plan(n: int) -> tuple[int, ...]:
    """Per-rank node counts, outermost rank first."""
    if n in DEFAULT_PLANS:
        return DEFAULT_PLANS[n]
    return (12,) * n


def _predicted_evals(m: int, plan: Sequence[int], batch: int = 1) -> float:
    """The plan's price: the terminal evaluations of ``batch`` rank-m rows
    when no row's value is a closed form, an upper bound on the work.

    Each level of rank >= 3 multiplies the rows by its grid, Q_d^(m-d); each
    rank-2 row then evaluates the two factor grids of its rank-1 level, one
    along each of its Q_{m-2}-node level rules, 2 Q_{m-2} Q_{m-1} terminal rows
    (also where some of its pairs are tilted), and an A_1 row one grid, Q.  A
    rank-2 row whose pairs are all tilted and a tilted A_1 row take closed
    forms and evaluate nothing, which the price does not subtract: the budget
    guard checks it before any level rule is built.
    """
    def q(depth):
        return plan[min(depth, len(plan) - 1)]

    total = float(batch)
    for depth in range(m - 2):
        total *= q(depth) ** (m - depth)
    return total * q(0) if m == 1 else total * 2 * q(m - 1) * q(m - 2)


def collapse_walls(rs: RootSystemA, X) -> tuple[np.ndarray, bool]:
    """Perturb X off chamber walls (gap < 1e-13*scale) to 1e-8 spacing.

    The recursion holds on the open chamber only; boundary values are taken
    by continuity at the perturbed point.  |X|^2 must be finite.
    """
    X = np.array(rs.check_vector(X), dtype=float)
    idx = np.array(rs.active_coords) - 1
    a = X[idx]
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.linalg.norm(X)))
    if not math.isfinite(scale):
        raise DomainError("chamber point overflows: |X|^2 must be finite")
    tau = 1e-13 * scale
    gaps = a[:-1] - a[1:]
    if np.all(gaps >= tau):
        return X, False
    eps = 1e-8 * scale
    b = a.copy()
    for i in range(len(b) - 2, -1, -1):
        if b[i] < b[i + 1] + eps:
            b[i] = b[i + 1] + eps
    if rs.trace_zero:
        b = b - (b.mean() - a.mean())
    X[idx] = b
    return X, True


# ---------------------------------------------------------------------------
# the recursion (batched, log space)
# ---------------------------------------------------------------------------

@functools.cache
def _tilted_series(k: float, u0: float) -> np.ndarray:
    """Chebyshev coefficients of H_k(u) = G_k(u) - u/2 + k log u on u >= u0,
    in x = 2 u0/u - 1 in (-1, 1].

    G_k(u) = log Gamma(k+1/2) + (1/2-k) log(u/4) + log I_{k-1/2}(u/2) is
    log psi_{(mu, 0)}(e^{(a, b)}) - mu (a+b)/2 at u = |mu| (a-b) (DLMF 13.6.9),
    so H_k = log Gamma(k+1/2) + (2k-1) log 2 + log u/2 + log ive(k-1/2, u/2)
    is bounded, with H_k(inf) = log Gamma(2k)/Gamma(k).  The e^{-u} part of
    I_{k-1/2} makes H_k smooth but not analytic at x = -1, so the degree
    starts at 90/sqrt(u0) (17 at u0 = 30); it doubles, up to 256 (for
    large k), until the fit matches ``ive`` on a grid 8 times as dense to
    1e-12 max(1, max|H_k|), and the fit raises EvaluationError if none does.
    """
    def h(x):
        u = 2.0 * u0 / (x + 1.0)
        return (gammaln(k + 0.5) + (2.0 * k - 1.0) * math.log(2.0)
                + 0.5 * np.log(u) + np.log(ive(k - 0.5, 0.5 * u)))

    degree = math.ceil(90.0 / math.sqrt(u0))
    with np.errstate(all="ignore"):  # ive underflows at k >> u0; the check fails then
        while degree <= 256:
            theta = np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)
            coef = np.cos(np.outer(np.arange(degree + 1), theta)) @ h(np.cos(theta))
            coef *= 2.0 / (degree + 1)
            coef[0] *= 0.5
            dense = 8 * (degree + 1)
            x = np.append(np.cos(np.pi * (np.arange(dense) + 0.5) / dense), 1.0)
            ref = h(x)
            if np.max(np.abs(_clenshaw(coef, x) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))):
                return coef
            degree *= 2
    raise EvaluationError(f"no Chebyshev fit of degree <= 256 reaches 1e-12 for the "
                          f"rank-1 Bessel kernel at k = {k}, u0 = {u0}")


def _clenshaw(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j coef_j T_j(x), by the Clenshaw recurrence in three arrays."""
    x2 = x + x
    b1, b2, t = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for c in coef[:0:-1].tolist():  # b_j = 2x b_{j+1} - b_{j+2} + c_j, into b_{j+2}
        np.multiply(x2, b1, t)
        np.subtract(t, b2, b2)
        b2 += c
        b1, b2 = b2, b1
    np.multiply(x, b1, t)
    t -= b2
    t += coef[0]
    return t


@functools.cache
def _tilted_rung(k: float, u0: float, rung: int) -> np.ndarray:
    """Chebyshev coefficients of H_k on u >= U = u0 _RUNG_RATIO^rung, in
    x = 2 U/u - 1 in (-1, 1]; rung 0 is ``_tilted_series(k, u0)``.

    A higher rung re-expands rung 0 on its sub-interval x0 = (x + 1) u0/U - 1
    in (-1, 2 u0/U - 1]: rung 0's values at the d+1 Chebyshev points of x give
    its degree-d polynomial exactly, up to rounding.  They are summed in
    extended precision: rung 0's float64 rounding near x0 = -1 (about 1e-14
    max|H_k| at k = 30, u0 = 12) leaves noise coefficients that the cut
    cannot drop.  Trailing coefficients go while their absolute sum stays
    <= _RUNG_TOL max(1, max|H_k|), so the rung is short where H_k is flat;
    evaluated in float64, it must match rung 0 to that bound on a grid 8
    times as dense, or it raises EvaluationError.
    """
    coef = _tilted_series(k, u0)
    if rung == 0:
        return coef
    shrink = 1.0 / _RUNG_RATIO ** rung

    def on_rung(x):
        return _clenshaw(coef, (x.astype(np.longdouble) + 1) * shrink - 1)

    size = len(coef)
    theta = np.pi * (np.arange(size, dtype=np.longdouble) + 0.5) / size
    vals = on_rung(np.cos(theta))
    series = np.cos(np.outer(np.arange(size), theta)) @ vals
    series *= 2.0 / size
    series[0] *= 0.5
    tol = _RUNG_TOL * max(1.0, float(np.max(np.abs(vals))))
    tail = np.cumsum(np.abs(series[::-1]))  # the sums of the last 1, 2, ... coefficients
    series = series[:max(1, size - np.count_nonzero(tail <= tol))].astype(float)
    dense = 8 * size
    x = np.concatenate([[1.0], np.cos(np.pi * (np.arange(dense) + 0.5) / dense), [-1.0]])
    if np.max(np.abs(_clenshaw(series, x) - on_rung(x))) > tol:
        raise EvaluationError(f"rung {rung} of the rank-1 Bessel kernel misses rung 0 "
                              f"by more than {tol:.3g} at k = {k}, u0 = {u0}")
    return series


def _bessel_tail(k: float, u0: float, u: np.ndarray, power: float,
                 rung: int = 0) -> np.ndarray:
    """H_k(2 U/u - 1) - power log u at tilted u >= U = u0 _RUNG_RATIO^rung,
    H_k the cached Chebyshev series of the rung (``_tilted_rung``; rung 0 is
    the fit of ``_tilted_series`` on u > u0): with power = k it is
    log psi_{(mu, 0)}(e^{(a, b)}) - mu hot, hot the end of [b, a] that
    e^{mu y} favours.  A higher rung is the same function to 1e-14 at a
    lower degree, since H_k flattens as u grows."""
    val = _clenshaw(_tilted_rung(k, u0, rung), 2.0 * (u0 * _RUNG_RATIO ** rung) / u - 1.0)
    val -= power * np.log(u)
    return val


def _rank1_grid(k: float, lam: np.ndarray, hi: np.ndarray, lo: np.ndarray,
                Q: int) -> np.ndarray:
    """log psi_lam(e^{(hi_b, lo_b)}) for a batch of A_1 rows, hi > lo of shape (B,).

    psi factors as e^{l2 (hi+lo)} psi_{(mu, 0)}, mu = l1 - l2.  A Jacobi row
    (u = |mu| (hi - lo) <= u0 = min(TILT_SWITCH, 2Q)) is the weighted mean of
    e^{mu (y_q - lo)} = e^{mu (hi - lo) p_q} over the nodes y_q = hi p_q +
    lo (1 - p_q) of the rule for int_lo^hi e^{mu y} ((hi-y)(y-lo))^{k-1} dy:
    Q terminal evaluations a row, whose exponents are at most u0.  A tilted row
    takes the Bessel closed form mu (hot - lo) + H_k(2 u0/u - 1) - k log u
    (``_bessel_tail``) instead, ``_RANK1_BLOCK`` rows at a time, and evaluates
    no terminal case; so does mu = 0, which gives exactly l2 (hi + lo).
    Tilted rows stay on rung 0 of the ladder: the Newton and stable batches
    of A_1 rows are small and span many rungs, and a rung costs one more
    Clenshaw call a batch; per-row rungs made the benchmark's ``sweep_small``
    median row 0.149 -> 0.175 ms (3 alternating pairs of 20 s runs).
    """
    mu = float(lam[0] - lam[1])
    if mu == 0.0:
        return lam[1] * (hi + lo)
    u0 = min(quad.TILT_SWITCH, 2.0 * Q)
    u = hi - lo
    u *= abs(mu)
    tilted = np.flatnonzero(u > u0)
    out = np.empty(u.shape[0])
    if tilted.size < u.size:
        jacobi = np.flatnonzero(u <= u0) if tilted.size else slice(None)  # no copies if all
        x, w = quad._ref_jacobi(Q, k - 1.0, k - 1.0)
        # the terminal case on the factor grid of the Jacobi rows, laid out (Q, b)
        f = _log_psi(k, np.array([mu]),
                     np.multiply.outer(0.5 * (1.0 + x), (hi - lo)[jacobi]).reshape(-1, 1),
                     (Q,)).reshape(Q, -1)
        np.exp(f, out=f)
        f *= (w / w.sum())[:, None]
        # cumsum adds the nodes in order, so no row's bits depend on its batch
        out[jacobi] = np.log(np.cumsum(f, axis=0, out=f)[-1])
    hot = hi if mu > 0 else lo
    for start in range(0, tilted.size, _RANK1_BLOCK):
        sel = tilted[start:start + _RANK1_BLOCK]
        out[sel] = _bessel_tail(k, u0, u[sel], k) + mu * (hot[sel] - lo[sel])
    out += lam[1] * hi + mu * lo
    out += lam[1] * lo
    return out


def _rank2_level(k: float, lam: np.ndarray, X: np.ndarray, mu: Sequence[float],
                 Q: int, Qi: int) -> np.ndarray:
    """log of the rank-2 level of each row X = (x0 > c > x2): the sum over the
    nodes (y1_i, y2_j) of its two level rules of
    e^{lw1_i + lw2_j} (y1_i - y2_j) psi_lam(e^{(y1_i, y2_j)}),
    lam the A_1 argument and Qi the nodes of its rule.

    Every factor depends on one coordinate except the Vandermonde factor, which
    splits into two separable non-negative terms, y1 - y2 = (y1 - c) + (c - y2).
    A pair is Jacobi when u = |mu| (y1_i - y2_j) <= u0 = min(TILT_SWITCH, 2 Qi),
    mu = l1 - l2; its psi is then the weighted mean over the Qi nodes of
    e^{l2 (y1+y2) + mu c} e^{mu (y1 - c) p_q} e^{mu (y2 - c)(1 - p_q)}, so the
    Jacobi pairs of a row sum to e^{mu c} times a sum over the nodes of two
    factor grids (``_jacobi_rows``): (I + J) Qi terminal evaluations a row.
    A tilted pair takes the Bessel closed form, whose -k log u absorbs the
    Vandermonde log as (1 - k) log u - log |mu|.

    A row takes one of two paths by its largest u.  A row with no tilted pair
    is summed from its factor grids alone; a row with one is a dense (I, J)
    block of closed forms (``_tilted_rows``), joined by the factor-grid sum of
    its Jacobi pairs if it has any.  A pair with a dropped node adds nothing.
    """
    (y1, y2), (lw1, lw2) = _level_rules(k, X, mu, Q)
    c = X[:, 1]
    mu1 = float(lam[0] - lam[1])
    amu = abs(mu1)
    u0 = min(quad.TILT_SWITCH, 2.0 * Qi)
    # node log-weights with e^{l2 y}, relative to their row's largest
    la = lw1 + lam[1] * y1
    lb = lw2 + lam[1] * y2
    ma = la.max(axis=1, keepdims=True)
    mb = lb.max(axis=1, keepdims=True)
    ma[~np.isfinite(ma)] = 0.0
    mb[~np.isfinite(mb)] = 0.0
    la -= ma
    lb -= mb
    # the bounds of each row's u, which a batch whose largest u is Jacobi does
    # not need (numpy reduces a short last axis slowly, hence the copies)
    tilted = np.empty(0, dtype=np.intp)
    if amu * (y1.max() - y2.min()) > u0:
        y1t, y2t = np.ascontiguousarray(y1.T), np.ascontiguousarray(y2.T)
        u_hi = amu * (y1t.max(axis=0) - y2t.min(axis=0))
        u_lo = amu * (y1t.min(axis=0) - y2t.max(axis=0))
        tilted = np.flatnonzero(u_hi > u0)
        del y1t, y2t
    out = np.empty(X.shape[0])
    if tilted.size < out.size:
        rows = np.flatnonzero(u_hi <= u0) if tilted.size else slice(None)  # no copies if all
        s = _jacobi_rows(k, mu1, Qi, y1[rows], y2[rows], c[rows], la[rows], lb[rows])
        with np.errstate(divide="ignore"):
            out[rows] = np.log(s)
    if tilted.size:
        rows = tilted if tilted.size < out.size else slice(None)  # no copies if all
        out[rows] = _tilted_rows(k, mu1, u0, Qi, y1[rows], y2[rows], c[rows],
                                 la[rows], lb[rows], u_lo[rows])
    return out + (ma + mb)[:, 0] + mu1 * c


def _tilted_rows(k: float, mu1: float, u0: float, Qi: int, y1: np.ndarray, y2: np.ndarray,
                 c: np.ndarray, la: np.ndarray, lb: np.ndarray, u_lo: np.ndarray) -> np.ndarray:
    """log of the sum over all pairs (i, j) of rank-2 rows that have a tilted pair.

    A tilted pair adds e^{H_k - (k - 1) log u + ta_i + tb_j}, u = |mu| (y1_i -
    y2_j), with the per-node terms ta = a + mu (hot - c) and tb = b - log |mu|:
    the node log-weights, e^{mu (hot - c)}, and the 1/|mu| of y1 - y2 = u/|mu|.
    H_k comes from the ladder of ``_bessel_tail``: a row whose pairs are all tilted takes
    the highest rung whose U = u0 _RUNG_RATIO^i is <= its own smallest u,
    ``u_lo`` (a short series where the row's u are large), and a row with a
    Jacobi pair (u_lo <= u0) takes rung 0.  Each rung's rows go in dense
    (b, I, J) blocks of about ``_TILT_BLOCK`` pairs, each row's pairs reduced
    along one contiguous axis, so that no row's bits depend on its batch; the
    blocks are views when one rung holds every row, and gather their rows
    otherwise.  A Jacobi pair takes u = u0 in the block and then weight 0;
    the Jacobi pairs of a row that has any are summed from its factor grids
    (``_jacobi_rows`` with the row's Jacobi-pair mask) and join the block's
    log-sum-exp.
    """
    B, I, J = y1.shape[0], y1.shape[1], y2.shape[1]
    amu = abs(mu1)
    ta = la + mu1 * (y1 - c[:, None]) if mu1 > 0 else la
    tb = lb - math.log(amu) + (0.0 if mu1 > 0 else mu1 * (y2 - c[:, None]))
    mixed = u_lo <= u0
    rung = np.searchsorted(u0 * _LADDER, u_lo, side="right")
    s = np.full(B, -np.inf)
    if mixed.any():
        with np.errstate(divide="ignore"):
            s[mixed] = np.log(_jacobi_rows(k, mu1, Qi, y1[mixed], y2[mixed], c[mixed],
                                           la[mixed], lb[mixed], u0))
    out = np.empty(B)
    step = max(1, _TILT_BLOCK // (I * J))
    for r in np.flatnonzero(np.bincount(rung)).tolist():
        group = np.flatnonzero(rung == r)
        whole = group.size == B  # one rung holds every row: blocks are views
        for g0 in range(0, group.size, step):
            rows = slice(g0, min(B, g0 + step)) if whole else group[g0:g0 + step]
            u = y1[rows, :, None] - y2[rows, None, :]
            u *= amu
            jacobi = u <= u0 if mixed[rows].any() else None
            if jacobi is not None:  # into the closed form's domain; weight 0 below
                np.maximum(u, u0, out=u)
            val = _bessel_tail(k, u0, u, k - 1.0, r)
            if jacobi is not None:
                val[jacobi] = -np.inf
            val += ta[rows, :, None]
            val += tb[rows, None, :]
            val = val.reshape(val.shape[0], -1)
            top = np.maximum(val.max(axis=1), s[rows])
            val -= top[:, None]
            # a pair below e^-700 of its row's largest is negligible; the clip
            # keeps exp off its slow subnormal path
            np.maximum(val, -700.0, out=val)
            tot = np.exp(val, out=val).sum(axis=1)
            tot += np.exp(s[rows] - top)
            out[rows] = top + np.log(tot)
    return out


def _jacobi_rows(k: float, mu: float, Qi: int, y1: np.ndarray, y2: np.ndarray,
                 c: np.ndarray, la: np.ndarray, lb: np.ndarray,
                 u0: float | None = None) -> np.ndarray:
    """Sum of the Jacobi pairs of each rank-2 row, from its two factor grids.

    ``y1`` (B, I) and ``y2`` (B, J) hold the nodes, ``c`` (B,) the middle
    coordinates, and ``la`` and ``lb`` the node log-weights a_i, b_j (<= 0).
    The Jacobi pairs are those with |mu| (y1_i - y2_j) <= ``u0``; None means
    all of them.  With the offsets d1 = y1 - c >= 0 and d2 = y2 - c <= 0,
    A_qi = e^{mu d1_i p_q} and B_qj = e^{mu d2_j (1 - p_q)}, a row's sum is

        sum_q w_q sum_i a_i A_qi [d1_i P_qi - R_qi],

    P_qi and R_qi the sums of b_j B_qj and b_j d2_j B_qj over the Jacobi
    partners j of i.  With no ``u0`` these are sums over all j, whose i-sums
    are taken first; with one, products with each row's (I, J) Jacobi-pair
    mask.  A node weight below e^-250 of its row's largest is taken as 0,
    which keeps every product off the slow subnormal range; what it drops is
    below 1e-80 of the row.  Rows go ``_RANK2_BLOCK`` values at a time (masks
    of ``_TILT_BLOCK`` pairs), one row a column, and every sum is added in an
    order that does not depend on a row's batch.
    """
    B, I, J = y1.shape[0], y1.shape[1], y2.shape[1]
    x, w = quad._ref_jacobi(Qi, k - 1.0, k - 1.0)
    p = 0.5 * (1.0 + x)
    term = np.array([mu])
    wa, wb = np.exp(la.T), np.exp(lb.T)
    wa[la.T < -250.0] = 0.0
    wb[lb.T < -250.0] = 0.0
    d1 = np.ascontiguousarray((y1 - c[:, None]).T)
    d2 = np.ascontiguousarray((y2 - c[:, None]).T)
    out = np.empty(B)
    step = max(1, _RANK2_BLOCK // (Qi * max(I, J)) if u0 is None else _TILT_BLOCK // (I * J))
    coords = np.empty(Qi * max(I, J) * min(B, step))
    for r0 in range(0, B, step):
        rows = slice(r0, min(B, r0 + step))
        e1, e2 = d1[:, rows], d2[:, rows]
        if u0 is not None:
            mask = y1[rows, :, None] - y2[rows, None, :]
            mask *= abs(mu)
            mask = mask <= u0
            # a factor exponent is at most u0 at an i (a j) that has (is) a
            # Jacobi partner; the others never reach a sum, and take offset 0
            e1 = np.where(mask.any(axis=2).T, e1, 0.0)
            e2 = np.where(mask.any(axis=1).T, e2, 0.0)
        # the terminal case on the factor grids, laid out (Qi, I, b) and (Qi, J, b)
        fa = _factor_grid(k, term, p, e1, coords)
        fb = _factor_grid(k, term, 1.0 - p, e2, coords)
        np.exp(fa, out=fa)
        np.exp(fb, out=fb)
        fa *= wa[:, rows]
        fb *= wb[:, rows]
        if u0 is None:
            a0 = _sum_axis1(fa)
            fa *= e1
            b0 = _sum_axis1(fb)
            fb *= e2
            s = _sum_axis1(fa) * b0 - a0 * _sum_axis1(fb)
        else:
            # P and R laid out (b, I, Qi), products of (I, J) and (J, Qi) matrices
            mask = mask.astype(float)
            fb = np.ascontiguousarray(fb.transpose(2, 1, 0))
            h = mask @ fb
            h *= e1.T[:, :, None]
            fb *= e2.T[:, :, None]
            h -= mask @ fb
            h *= fa.transpose(2, 1, 0)
            s = _sum_axis1(h).T
        s *= (w / w.sum())[:, None]
        out[rows] = np.ascontiguousarray(s.T).sum(axis=1)
    return out


def _factor_grid(k: float, term: np.ndarray, p: np.ndarray, offset: np.ndarray,
                 coords: np.ndarray) -> np.ndarray:
    """mu p_q offset on the (Qi,) + offset.shape grid, through the recursion's
    terminal case; ``coords`` is scratch space for the grid."""
    shape = p.shape + offset.shape
    grid = np.multiply.outer(p, offset, out=coords[:math.prod(shape)].reshape(shape))
    return _log_psi(k, term, grid.reshape(-1, 1), p.shape).reshape(shape)


def _sum_axis1(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) of a 3-d array, added in index order: numpy sums a middle
    axis so while the last extent is above 1, and pairwise at 1, which would
    make a lone row's bits differ from its bits in a batch."""
    return a.sum(axis=1) if a.shape[2] > 1 else np.cumsum(a, axis=1)[:, -1]


def _level_rules(k: float, X: np.ndarray, mu: Sequence[float], Q: int,
                 top_lo=None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The Q-node rules of the m levels x_{i+1} <= y_i <= x_i of the interlacing
    box, for (B, m+1) chamber rows ``X`` and slopes ``mu``: lists of (B, Q)
    nodes and log-weights, which carry the non-adjacent (k-1)-power factors.
    ``top_lo`` restricts the last level to [top_lo, x_m], where the factor
    (y_m - x_{m+1})^{k-1} leaves the weight and is multiplied in explicitly.
    """
    B, m = X.shape[0], X.shape[1] - 1
    ys, lws = [], []
    for lvl in range(m):
        top = top_lo is not None and lvl == m - 1
        lo = np.full(B, top_lo, dtype=float) if top else X[:, lvl + 1]
        y, lw = level_nodes(lo, X[:, lvl], 0.0 if top else k - 1.0, k - 1.0,
                            float(mu[lvl]), Q)
        # the non-adjacent (and, below top_lo, the lower adjacent) distance factors
        for j in range(0, lvl):
            lw = lw + (k - 1.0) * np.log(X[:, j][:, None] - y)
        for j in range(lvl + 2 - top, m + 1):
            lw = lw + (k - 1.0) * np.log(y - X[:, j][:, None])
        ys.append(y)
        lws.append(lw)
    return ys, lws


def interlacing_grid(k: float, X: np.ndarray, mu: Sequence[float], Q: int,
                     top_lo=None) -> tuple[list[np.ndarray], np.ndarray]:
    """Tensor grid of the interlacing box x_{i+1} <= y_i <= x_i, Q nodes a level.

    ``X`` holds (B, m+1) active chamber rows, ``mu`` the slope of e^{mu_i y_i}
    along each of the m levels.  Returns the level node grids, the i-th of
    shape (B,) + (1,)*i + (Q,) + (1,)*(m-1-i), and ``logf`` on (B,) + (Q,)*m:
    level log-weights, non-adjacent (k-1)-power factors, log prod_{i<j}(y_i-y_j).
    ``top_lo`` is as in ``_level_rules``.
    """
    B, m = X.shape[0], X.shape[1] - 1
    ys, lws = _level_rules(k, X, mu, Q, top_lo)

    def grid_shape(i):
        return (B,) + (1,) * i + (Q,) + (1,) * (m - 1 - i)

    logf = np.zeros((B,) + (Q,) * m)
    for i in range(m):
        logf = logf + lws[i].reshape(grid_shape(i))
    ygrids = [ys[i].reshape(grid_shape(i)) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            logf = logf + np.log(ygrids[i] - ygrids[j])
    return ygrids, logf


# ---------------------------------------------------------------------------
# the chunk pool
# ---------------------------------------------------------------------------

#: built on first use; a forked child drops its copy, whose threads it lacks
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
#: True where chunks run one at a time: inside a chunk, and in a worker of a
#: process pool
_serial = contextvars.ContextVar("dunkl_serial_chunks", default=False)


def serial_chunks() -> None:
    """Run the chunks of the calling thread one at a time: the initializer of
    a process pool whose workers each hold a CPU already."""
    _serial.set(True)


def _drop_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool)


def _cpus() -> int:
    """The CPUs of this process's affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _chunk_width(chunks: int) -> int:
    """How many of a call's chunks run at once: one a CPU, or one where
    ``_serial`` is set."""
    return 1 if _serial.get() else min(chunks, _cpus())


def _executor() -> ThreadPoolExecutor:
    """The chunk pool: a thread for each CPU but the caller's."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="dunkl-chunk")
        return _pool


def _chunked(k: float, lam: np.ndarray, X: np.ndarray, plan: Sequence[int],
             parts: list[np.ndarray]) -> np.ndarray:
    """``_log_psi`` of the rows of X, one part (an index array) at a time.

    ``_chunk_width`` runners take the next part in order until none is left:
    the calling thread and the pool's threads, each in a copy of the caller's
    context (numpy's errstate is context-local) with ``_serial`` set.  numpy
    releases the GIL in its ufuncs, and no row's bits depend on its batch, so
    the result does not depend on the width.  An error stops the runners
    taking parts; once every started part has finished, the first part's
    error in order is raised, the one a serial loop raises.
    """
    out = np.empty(X.shape[0])
    todo = iter(range(len(parts)))  # next() on a range iterator is atomic under the GIL
    errors: dict[int, BaseException] = {}

    def runner():
        _serial.set(True)
        for i in todo:
            if errors:
                return
            try:
                out[parts[i]] = _log_psi(k, lam, X[parts[i]], plan)
            except BaseException as exc:  # re-raised by the caller
                errors[i] = exc

    futures = [_executor().submit(contextvars.copy_context().run, runner)
               for _ in range(_chunk_width(len(parts)) - 1)]
    contextvars.copy_context().run(runner)
    for fut in futures:
        fut.result()
    if errors:
        raise errors[min(errors)]
    return out


def _log_psi(k: float, lam: np.ndarray, X: np.ndarray, plan: Sequence[int]) -> np.ndarray:
    """log psi_lambda(e^X) for a batch of chamber rows X (active coords only).

    ``lam`` need not be sorted (psi is symmetric in it); rows of X must be
    strictly decreasing.
    """
    m = lam.shape[0] - 1
    B = X.shape[0]
    if m == 0:
        return lam[0] * X[:, 0]
    Q = plan[0]
    P = Q ** m
    if B * P > _CHUNK and B > 1:
        nb = min(B, max(2, -(-B * P // _CHUNK)))
        return _chunked(k, lam, X, plan, np.array_split(np.arange(B), nb))
    if m == 1:
        return _rank1_grid(k, lam, X[:, 0], X[:, 1], Q)

    lam0 = lam[:m] - lam[m]
    mu = np.sort(lam0)[::-1]  # slope seen by y_i once Y is sorted decreasing
    logpref = float(gammaln(k * (m + 1)) - (m + 1) * gammaln(k))
    logpi = np.zeros(B)
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            logpi += np.log(X[:, i] - X[:, j])
    base_term = lam[m] * X.sum(axis=1) + (1 - 2 * k) * logpi

    inner_plan = plan[1:] if len(plan) > 1 else plan
    if m == 2:
        return logpref + base_term + _rank2_level(k, lam0, X, mu, Q, inner_plan[0])
    ygrids, logf = interlacing_grid(k, X, mu, Q)
    Y = np.empty((B,) + (Q,) * m + (m,))
    for i in range(m):
        Y[..., i] = np.broadcast_to(ygrids[i], (B,) + (Q,) * m)
    logf += _log_psi(k, lam0, Y.reshape(-1, m), inner_plan).reshape(logf.shape)
    return logpref + base_term + logsumexp(logf.reshape(B, -1), axis=1)


def spherical_log(rs: RootSystemA, lam, X, plan: Sequence[int] | None = None
                  ) -> np.ndarray | float:
    """log psi_lambda(e^X); lam in any order, X chamber rows (full vectors).

    psi is symmetric in lambda, but the recursion subtracts the last entry
    and is least accurate when that is the largest, so the active lambda is
    sorted in decreasing order first: every order gives the bits of the
    sorted one.  A 2-d ``X`` holds row vectors and gives an array of logs.
    Budget is checked against the predicted node product.  Raises
    DomainError if 4 len(x) max|lambda| max|x|, which bounds every exponent,
    overflows.
    """
    plan = tuple(plan) if plan is not None else default_node_plan(rs.n)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (rs.coord_len,):
        raise DomainError(f"lambda must have length {rs.coord_len}")
    X = np.asarray(X, dtype=float)
    rows = np.atleast_2d(X)
    idx = np.array(rs.active_coords) - 1
    lam_a = lam[idx]  # a copy
    lam_a.sort()
    lam_a = lam_a[::-1]
    rows_a = rows[:, idx]
    if np.any(rows_a[:, :-1] - rows_a[:, 1:] <= 0):
        raise DomainError("X rows must be strictly inside the open chamber "
                          "(apply collapse_walls first)")
    with np.errstate(over="ignore"):
        reach = 4.0 * rs.coord_len * np.abs(lam).max() * np.abs(rows).max(initial=0.0)
    if not np.isfinite(reach):
        raise DomainError("lambda and X overflow: 4 len(x) max|lambda| max|x| is not finite")
    predicted = _predicted_evals(rs.n, plan, batch=rows.shape[0])
    if predicted > quad.budget_cap():
        raise BudgetExceededError(
            f"recursion needs ~{predicted:.3g} evaluations, cap is "
            f"{quad.budget_cap():.3g} (set DUNKL_BUDGET to raise)")
    if np.all(lam_a == lam_a[0]) or not len(rows):
        out = rows @ lam  # e^{lambda_1 sum x} exactly; an empty batch stays empty
    else:
        out = _log_psi(rs.k, lam_a, rows_a, plan)
        # inactive coordinates contribute the plain pairing exponential
        if rs.coord_len > rs.n + 1:
            mask = np.ones(rs.coord_len, dtype=bool)
            mask[idx] = False
            out = out + rows[:, mask] @ lam[mask]
    if not np.all(np.isfinite(out)):
        bad = rows[int(np.where(~np.isfinite(out))[0][0])]
        raise EvaluationError("non-finite spherical value", location=tuple(bad))
    return out if X.ndim > 1 else float(out[0])


def refined_plan(n: int, plan: Sequence[int]) -> tuple[int, ...]:
    """The plan an error indicator compares ``plan`` with: every rank doubled
    for n <= 2, only the outermost rank for n >= 3 (inner refinement is
    priced out by the 2^(n(n+1)/2) blowup)."""
    if n <= 2:
        return tuple(2 * q for q in plan)
    return (2 * plan[0],) + tuple(plan[1:])


def spherical_exact(rs: RootSystemA, lam, X, plan: Sequence[int] | None = None,
                    *, with_error: bool = True) -> KernelValue:
    """psi_lambda(e^X) by the rank recursion, with a refinement error bar.

    lambda must lie in the closed chamber.  Wall points X are evaluated at the
    collapse-perturbed interior point; the error indicator compares with
    ``refined_plan``.  ``evals`` is the plans' price (``_predicted_evals``),
    an upper bound on the terminal evaluations made.
    """
    lam = ensure_chamber(rs, lam)
    plan = plan if plan is not None else default_node_plan(rs.n)
    X, _ = collapse_walls(rs, X)
    lv = spherical_log(rs, lam, X, plan)
    evals = int(_predicted_evals(rs.n, plan))
    if not with_error:
        return quad.refined(lv, lv, evals)
    plan2 = refined_plan(rs.n, plan)
    return quad.refined(lv, spherical_log(rs, lam, X, plan2),
                        evals + int(_predicted_evals(rs.n, plan2)))


# ---------------------------------------------------------------------------
# k = 1 determinant oracle
# ---------------------------------------------------------------------------

def spherical_oracle_k1(rs: RootSystemA, lam, X) -> float:
    """Closed form at k=1: (prod_{j<=n} j!) det(e^{lambda_i x_j}) / (pi(lambda) pi(X)).

    Needs strictly distinct entries in both arguments; normalized so that
    the lambda -> 0 limit is 1.
    """
    if abs(rs.k - 1.0) > 1e-14:
        raise DomainError("the determinant oracle requires k == 1")
    lam_a = rs.active(np.asarray(lam, dtype=float))
    X_a = rs.active(np.asarray(X, dtype=float))
    m = rs.n + 1
    pil = pix = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            pil *= lam_a[i] - lam_a[j]
            pix *= X_a[i] - X_a[j]
    if pil == 0.0 or pix == 0.0:
        raise DegenerateArgumentError(
            "repeated lambda or X entries; use spherical_exact instead")
    # scale the determinant rows/columns for overflow control
    E = np.outer(lam_a, X_a)
    shift = E.max(axis=1, keepdims=True)
    det = float(np.linalg.det(np.exp(E - shift)))
    logfact = sum(math.lgamma(j + 1) for j in range(1, m))
    sign = math.copysign(1.0, det * pil * pix)
    logval = (math.log(abs(det)) + float(shift.sum()) + logfact
              - math.log(abs(pil)) - math.log(abs(pix)))
    return sign * math.exp(logval)


# ---------------------------------------------------------------------------
# envelope and certification
# ---------------------------------------------------------------------------

def log_spherical_envelope(rs: RootSystemA, lam, X) -> float:
    """log of e^{lambda(X)} / prod_{i<j} (1 + (x_i-x_j)(lambda_i-lambda_j))^k."""
    lam = np.asarray(lam, dtype=float)
    X = np.asarray(X, dtype=float)
    lam_a = rs.active(lam)
    X_a = rs.active(X)
    out = float(lam @ X)
    for i in range(rs.n + 1):
        for j in range(i + 1, rs.n + 1):
            out -= rs.k * math.log1p((X_a[i] - X_a[j]) * (lam_a[i] - lam_a[j]))
    return out


def spherical_envelope(rs: RootSystemA, lam, X) -> float:
    return math.exp(log_spherical_envelope(rs, lam, X))


def pairing_sweep_grid(rs: RootSystemA, span: tuple[float, float] = (1e-3, 1e4),
                       num: int = 15) -> list[tuple[np.ndarray, np.ndarray]]:
    """(lambda, X) pairs whose minimum pairing product is log-spaced over span.

    A fixed chamber shape is used for X and for the lambda direction; lambda
    scales so the smallest (lambda_i-lambda_j)(x_i-x_j) hits each target, so
    the sweep tail has every root saturated.
    """
    m = rs.n + 1
    lam_hat = np.arange(m, 0, -1, dtype=float)
    X_hat = np.sort(np.array([1.5 * (m - i) - 0.7 * i for i in range(m)]))[::-1]
    if rs.trace_zero:
        lam_hat = lam_hat - lam_hat.mean()
        X_hat = X_hat - X_hat.mean()
    min_pair = min((lam_hat[i] - lam_hat[j]) * (X_hat[i] - X_hat[j])
                   for i in range(m) for j in range(i + 1, m))
    pts = []
    full = np.zeros(rs.coord_len)
    idx = np.array(rs.active_coords) - 1
    for target in np.geomspace(span[0], span[1], num):
        lam = full.copy()
        lam[idx] = (target / min_pair) * lam_hat
        X = full.copy()
        X[idx] = X_hat
        pts.append((lam, X))
    return pts


def _collapse(rs: RootSystemA, lam, X) -> tuple:
    """A row at a closed-chamber X is taken at the wall-collapsed X."""
    return lam, collapse_walls(rs, X)[0]


def _pairing_columns(rs: RootSystemA, lam, X) -> dict:
    lam_a, X_a = rs.active(lam), rs.active(X)
    pairs = [(lam_a[i] - lam_a[j]) * (X_a[i] - X_a[j])
             for i in range(rs.n + 1) for j in range(i + 1, rs.n + 1)]
    return {"min_pairing": min(pairs), "max_pairing": max(pairs)}


#: psi's certification: drift fitted against the minimum pairing product
#: over its saturated tail (pairing >= tail_cut)
KERNEL = Kernel(
    label="spherical n={rs.n} k={rs.k}", args=("lambda", "X"),
    grid=pairing_sweep_grid, grid_options={"span": "span", "num": "num"},
    exact=spherical_exact, log_value=spherical_log,
    log_envelope=log_spherical_envelope, columns=_pairing_columns,
    spread_bound=1e3, psi_rows=1, drift_key="min_pairing", canonical=_collapse)
spherical_row = KERNEL.row


def certify_ratio(rs: RootSystemA, points=None, *, tail_cut: float = 1e2, **kw) -> RatioReport:
    return replace(KERNEL, tail_cut=tail_cut).certify(rs, points, **kw)
