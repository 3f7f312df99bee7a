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
single active coordinate where psi = e^{lambda x}.  lambda is sorted
decreasing once, so every lambda_0 is too: level i tilts toward its upper
end, with slope lambda_{0,i} >= 0.  Everything runs in log space (values
reach e^{1e4} on certification sweeps) and the per-level rules absorb the
adjacent (k-1)-power factors into Jacobi weights, switching the levels of
rank >= 2 to the exponential substitution rule (``level_nodes``, which drops
the nodes outside the interval) once the level's tilt is too steep for a
polynomial rule.

The three innermost levels are summed in closed forms of their own.  A rank-2
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
mask, and a row whose pairs are all tilted evaluates nothing.  Every factor
grid has one layout (``_factor_grids``): e^{mu p_q e} over e^{mu p_q e} e, e
the offsets of a level's nodes from the row's middle coordinate, as the two
halves of one (2, ..., Q, I) array; every sum over them, of an A_2 row, a
masked row or a rank-3 slab, ends in one epilogue (``_pair_sums``).
A rank-3 row (``_rank3_level``) takes its rank-2 rows with the factor grids
shared across its outer grid: the rank-2 level z1 in [y_b, y_a] and its
grid depend on the outer node pair (a, b) only, and z2 in [y_c, y_b] and
its grid on (b, c), so the row evaluates 2 Q_0^2 Q_1 Q_2 terminal factors
where its Q_0^3 rank-2 rows on their own would evaluate Q_0 times as many,
and the factor-grid sums of its rank-2 rows with no tilted pair are matrix
products over the third node.  Its rank-2 rows with a tilted pair take the
dense blocks, with the shared grids.  Levels of rank >= 4 are tensor grids
(``interlacing_grid``) whose rows go to the rank below.
``_predicted_evals``, the price the budget guard checks, counts every rank-3
row as evaluating its shared factor grids, every A_2 row its two factor
grids and every A_1 row Q; it is exact when every block of rank-3 slabs
has a Jacobi pair, no A_2 row is all tilted and no A_1 row tilted.  When all
entries of lambda are equal, psi_lambda(e^X) = e^{lambda_1 sum x} is
returned exactly.

A batch whose rows put more than ``_CHUNK`` nodes on its level is split into
chunks of consecutive rows, and the rank-3 level into blocks of slabs, both
run by ``_chunked`` on a thread pool as many at a time as the process's
affinity mask has CPUs.  numpy drops the GIL only inside a ufunc's loop
and takes it back to set up each call, so the runners share one CPU wherever
their arrays are short: the parts work in large calls (the dense blocks of
``_TILT_BLOCK`` pairs, in scratch arrays allocated once a call).  No row's
bits depend on its batch, so neither the split nor the width changes a
value.  The chunks that a chunk reaches run serially; a
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
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from . import quad
from .errors import (BudgetExceededError, DegenerateArgumentError, DomainError,
                     EvaluationError)
from .quad import KernelValue, level_nodes, logsumexp
from .report import Kernel
from .rootsys import RootSystemA, ensure_chamber

DEFAULT_PLANS = {1: (48,), 2: (32, 24), 3: (20, 16, 16)}

#: batch rows are chunked so the innermost tensors stay ~tens of MB; the
#: chunks of one call run on the chunk pool, as many at once as there are CPUs
_CHUNK = 400_000
#: the size of every block of the rank-2 and rank-3 levels, whole rows (slabs)
#: at a time: a dense block of rows with a tilted pair holds this many pairs,
#: as does the Jacobi-pair mask of a block of masked rows; each half of a
#: factor grid of a block of rank-3 slabs holds this many values, and of a
#: block of all-Jacobi rank-2 rows twice as many (its grids are the only large
#: arrays it holds).  A block makes a few dozen numpy calls, each of which
#: takes the GIL to start, so pooled runners overlap only with blocks this
#: large; the peak-memory tests bound it from above (two runners hold their
#: blocks at once)
_TILT_BLOCK = 32768
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


def check_plan(plan: Sequence[int]) -> tuple[int, ...]:
    """A caller's node plan as a tuple of Python ints; raises DomainError
    unless it is non-empty and every entry is an integer >= 1: numpy's
    integers pass (``operator.index``), bools do not."""
    try:
        entries = tuple(plan)
        checked = tuple(operator.index(q) for q in entries)
    except TypeError:
        checked = ()
    if not (checked and min(checked) >= 1 and not any(isinstance(q, bool) for q in entries)):
        raise DomainError(f"node plan entries must be integers >= 1, got {plan!r}")
    return checked


def _predicted_evals(m: int, plan: Sequence[int], batch: int = 1) -> float:
    """The plan's price: the terminal evaluations of ``batch`` rank-m rows
    when no row's value is a closed form, an upper bound on the work.

    Each level of rank >= 4 multiplies the rows by its grid, Q_d^(m-d); each
    rank-3 row then evaluates the two factor grids of its rank-1 level once
    for each node pair of its outer levels that they depend on, (y_a, y_b)
    and (y_b, y_c), 2 Q_{m-3}^2 Q_{m-2} Q_{m-1} terminal rows (also where
    some of its pairs are tilted); an A_2 row evaluates its two factor grids,
    2 Q_0 Q_1, and an A_1 row one grid, Q.  An A_2 row whose pairs are all
    tilted, a rank-3 block of rows none of whose rank-1 pairs is Jacobi, and
    a tilted A_1 row take closed forms and evaluate nothing, which the price
    does not subtract: the budget guard checks it before any level rule is
    built.
    """
    def q(depth):
        return plan[min(depth, len(plan) - 1)]

    total = float(batch)
    for depth in range(m - 3):
        total *= q(depth) ** (m - depth)
    if m == 1:
        return total * q(0)
    if m == 2:
        return total * 2 * q(0) * q(1)
    return total * 2 * q(m - 3) ** 2 * q(m - 2) * q(m - 1)


def collapse_walls(rs: RootSystemA, X) -> tuple[np.ndarray, bool]:
    """Perturb X off chamber walls (gap < 1e-13*scale) to 1e-8 spacing.

    The recursion holds on the open chamber only; boundary values are taken
    by continuity at the perturbed point X'.  That moves log psi_lambda by at
    most max_i |lambda_i| ||X' - X||_1, since grad_X log psi_lambda(e^X) lies
    in the convex hull of W lambda (M. Roesler, Duke Math. J. 98 (1999)
    445-463).  |X|^2 must be finite.
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


def psi_log_bounds(rs: RootSystemA, lam, X) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= log psi_lambda(e^x) <= hi for the rows x of X, before
    any psi call.

    psi_lambda(e^x) is the mean of e^{<lambda, xi>} under a W-invariant
    probability measure on the convex hull of the orbit Wx (M. Roesler,
    Duke Math. J. 98 (1999) 445-463).  The measure's mean is W-fixed, so
    Jensen gives lo = (sum lambda)(sum x)/(n+1), and the orbit maximum gives
    hi = <lambda, x> with both sorted in decreasing order, over the active
    coordinates; the inactive ones add their plain pairing to both.
    """
    lam = np.asarray(lam, dtype=float)
    rows = np.atleast_2d(np.asarray(X, dtype=float))
    idx = np.array(rs.active_coords) - 1
    lam_a = np.sort(lam[idx])
    rows_a = np.sort(rows[:, idx], axis=1)  # both increasing: the same pairing
    lo = lam_a.sum() / (rs.n + 1) * rows_a.sum(axis=1)
    hi = rows_a @ lam_a
    if rs.coord_len > rs.n + 1:
        mask = np.ones(rs.coord_len, dtype=bool)
        mask[idx] = False
        rest = rows[:, mask] @ lam[mask]
        lo, hi = lo + rest, hi + rest
    return lo, hi


# ---------------------------------------------------------------------------
# the recursion (batched, log space)
# ---------------------------------------------------------------------------

#: ``_log_ive`` serves I_{k-1/2} at 0 < k <= _IVE_K_MAX where e^{-x} I is at
#: least 1e3 times float64's smallest normal number (its log >= _LOG_TINY):
#: the range of the float64 Bessel function (AMOS ive) that the fit was
#: first checked against, which flushes smaller values to 0.  The tilted fit
#: refuses outside it; the cap on k bounds the series' length
_IVE_K_MAX = 256.0
_LOG_TINY = math.log(1e3 * np.finfo(float).tiny)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
#: Stirling's series of lgamma(n+1) - (n+1/2) log n + n - log(2 pi)/2
#: (DLMF 5.11.1), to 1e-16 from n = 10 on
_STIRLING = (1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188,
             -691.0 / 360360, 1.0 / 156)


def _stirling(n: np.ndarray) -> np.ndarray:
    """lgamma(n+1) - (n+1/2) log n + n - log(2 pi)/2 at n >= 10 (DLMF 5.11.1)."""
    inv2 = 1.0 / (n * n)
    acc = np.zeros_like(n)
    for c in reversed(_STIRLING):
        acc = acc * inv2 + c
    return acc / n


def _log_poisson(n: np.ndarray, y: np.ndarray) -> np.ndarray:
    """n log y - y - log Gamma(n+1) at n >= 0, y > 0, to a few ulps of
    |y - n| + n |log(y/n)| rather than of n log y.  From n = 10 on it is
    -stirling - n (r - 1 - log r) - log(2 pi n)/2, r = y/n, with
    r - 1 - log r = d - log1p(d), d = r - 1, where |d| < 1/2; below,
    lgamma(n+1) is lgamma(n+11) less the log of the ten factors between."""
    big = np.maximum(n, 10.0)
    r = y / big
    d = r - 1.0
    near = np.abs(d) < 0.5
    gap = np.where(near, d - np.log1p(np.where(near, d, 0.0)), d - np.log(r))
    out = -_stirling(big) - big * gap - 0.5 * np.log(big) - _HALF_LOG_2PI
    small = n < 10.0
    if small.any():
        ns, ys = n[small], y[small]
        m = ns + 10.0
        lgam = (m + 0.5) * np.log(m) - m + _HALF_LOG_2PI + _stirling(m)
        lgam -= np.log(np.prod(ns[:, None] + np.arange(1.0, 11.0), axis=1))
        out[small] = ns * np.log(ys) - ys - lgam
    return out


def _log_ive(nu: float, x: np.ndarray) -> np.ndarray:
    """log(e^{-x} I_nu(x)) at x > 0 for nu = k - 1/2, 0 < k <= _IVE_K_MAX;
    NaN for other nu and where the value is below _LOG_TINY.

    Below x = max(60, 2 nu^2) it sums the positive power series
    sum_j (x/2)^{2j+nu}/(j! Gamma(j+nu+1)) (DLMF 10.25.2) outward from its
    largest term by term ratios, the log of that term being two
    ``_log_poisson`` values at x/2; above it, the Hankel expansion
    e^x/sqrt(2 pi x) sum_j (-1)^j a_j(nu)/x^j (DLMF 10.40.1), whose terms
    fall at least fourfold a step there.
    """
    x = np.asarray(x, dtype=float)
    if not 0.0 < nu + 0.5 <= _IVE_K_MAX:
        return np.full_like(x, np.nan)
    out = np.empty_like(x)
    hankel = x >= max(60.0, 2.0 * nu * nu)
    xs = x[hankel]
    term, acc = np.ones_like(xs), np.ones_like(xs)
    j = 0
    while term.size and np.max(np.abs(term)) > 1e-17 * np.min(np.abs(acc)):
        j += 1
        term *= -(4.0 * nu * nu - (2.0 * j - 1.0) ** 2) / (8.0 * j * xs)
        acc += term
    out[hankel] = np.log(acc) - 0.5 * np.log(2.0 * math.pi * xs)

    xs = x[~hankel]
    y = 0.5 * xs
    y2 = y * y
    peak = np.floor(0.5 * (np.sqrt(nu * nu + xs * xs) - nu))
    up, down, acc = np.ones_like(xs), np.ones_like(xs), np.ones_like(xs)
    i = 0
    while xs.size and np.max((up + down) / acc) > 1e-17:
        i += 1
        up *= y2 / ((peak + i) * (peak + i + nu))
        lo = np.maximum(peak - i + 1.0, 0.0)  # down stays 0 once j = 0 is passed
        down *= lo * (lo + nu) / y2
        acc += up + down
    out[~hankel] = (_log_poisson(peak, y) + _log_poisson(peak + nu, y) + np.log(acc))
    out[out < _LOG_TINY] = np.nan
    return out


@functools.cache
def _tilted_series(k: float, u0: float) -> np.ndarray:
    """Chebyshev coefficients of H_k(u) = G_k(u) - u/2 + k log u on u >= u0,
    in x = 2 u0/u - 1 in (-1, 1].

    G_k(u) = log Gamma(k+1/2) + (1/2-k) log(u/4) + log I_{k-1/2}(u/2) is
    log psi_{(mu, 0)}(e^{(a, b)}) - mu (a+b)/2 at u = mu (a-b) (DLMF 13.6.9),
    so H_k = log Gamma(k+1/2) + (2k-1) log 2 + log u/2 + log ive(k-1/2, u/2),
    ive(nu, x) = e^{-x} I_nu(x) (``_log_ive``), is bounded, with H_k(inf) = log Gamma(2k)/Gamma(k).  The e^{-u} part of
    I_{k-1/2} makes H_k smooth but not analytic at x = -1, so the degree
    starts at 90/sqrt(u0) (17 at u0 = 30); it doubles, up to 256 (for
    large k), until the fit matches ``_log_ive`` on a grid 8 times as dense to
    1e-12 max(1, max|H_k|), and the fit raises EvaluationError if none does.
    """
    def h(x):
        u = 2.0 * u0 / (x + 1.0)
        return (math.lgamma(k + 0.5) + (2.0 * k - 1.0) * math.log(2.0)
                + 0.5 * np.log(u) + _log_ive(k - 0.5, 0.5 * u))

    degree = math.ceil(90.0 / math.sqrt(u0))
    with np.errstate(all="ignore"):  # NaN where ive nears underflow (k >> u0): no fit passes
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


def _clenshaw(coef: np.ndarray, x: np.ndarray, work=None) -> np.ndarray:
    """sum_j coef_j T_j(x) at finite x, by the Clenshaw recurrence
    b_j = 2x b_{j+1} - b_{j+2} + c_j.

    It starts from its scalar state, b_d = c_d and b_{d-1} = 2x c_d +
    c_{d-1}, which are the values that a recurrence from b = 0 reaches in
    its first two steps, and makes the same roundings from there on.  With
    ``work``, three scratch arrays of x's shape and dtype, it runs in them
    and in x, which it overwrites with the sum (2x = x + x and its half are
    exact); without, it leaves x as it is and runs in fresh arrays.
    """
    if work is None:
        x = x.copy()
    c = coef.tolist()
    if len(c) == 1:
        x *= 0.0
    elif len(c) == 2:
        x *= c[1]
    else:
        b1, b2, t = work if work is not None else [np.empty_like(x) for _ in range(3)]
        x += x
        np.multiply(x, c[-1], out=b1)
        b1 += c[-2]
        prev = c[-1]  # b_{j+2}
        for cj in c[-3:0:-1]:  # b_j into the array that holds neither b_{j+1} nor b_{j+2}
            np.multiply(x, b1, out=t)
            t -= prev
            t += cj
            b1, b2, t = t, b1, b2
            prev = b2
        x *= 0.5
        x *= b1
        x -= prev
    x += c[0]
    return x


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
                 rung: int = 0, work=None) -> np.ndarray:
    """H_k(2 U/u - 1) - power log u at tilted u >= U = u0 _RUNG_RATIO^rung,
    H_k the cached Chebyshev series of the rung (``_tilted_rung``; rung 0 is
    the fit of ``_tilted_series`` on u > u0): with power = k it is
    log psi_{(mu, 0)}(e^{(a, b)}) - mu a, a the upper end of [b, a] and
    u = mu (a - b).  A higher rung is the same function to 1e-14 at a
    lower degree, since H_k flattens as u grows.  ``work``, four scratch
    arrays of u's shape, holds the value (in the first) and the recurrence,
    and u is then overwritten by power log u; without it, u is kept."""
    keep = work is None
    if keep:
        work = [np.empty_like(u) for _ in range(4)]
    x = np.divide(2.0 * (u0 * _RUNG_RATIO ** rung), u, out=work[0])
    x -= 1.0
    val = _clenshaw(_tilted_rung(k, u0, rung), x, work[1:])
    logu = np.log(u, out=None if keep else u)
    logu *= power
    val -= logu
    return val


def _rank1_grid(k: float, lam: np.ndarray, hi: np.ndarray, lo: np.ndarray,
                Q: int) -> np.ndarray:
    """log psi_lam(e^{(hi_b, lo_b)}) for a batch of A_1 rows, hi > lo of shape (B,).

    psi factors as e^{l2 (hi+lo)} psi_{(mu, 0)}, mu = l1 - l2 > 0.  A Jacobi row
    (u = mu (hi - lo) <= u0 = min(TILT_SWITCH, 2Q)) is the weighted mean of
    e^{mu (y_q - lo)} = e^{mu (hi - lo) p_q} over the nodes y_q = hi p_q +
    lo (1 - p_q) of the rule for int_lo^hi e^{mu y} ((hi-y)(y-lo))^{k-1} dy:
    Q terminal evaluations a row, whose exponents are at most u0.  The tilted
    rows take the Bessel closed form u + H_k(2 u0/u - 1) - k log u
    (``_bessel_tail``) instead, in one call, and evaluate no terminal case.
    Tilted rows stay on rung 0 of the ladder: the Newton and stable batches
    of A_1 rows are small and span many rungs, and a rung costs one more
    Clenshaw call a batch; per-row rungs made the benchmark's ``sweep_small``
    median row 0.149 -> 0.175 ms (3 alternating pairs of 20 s runs).
    """
    mu = float(lam[0] - lam[1])
    u0 = min(quad.TILT_SWITCH, 2.0 * Q)
    u = hi - lo
    u *= mu
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
    if tilted.size:
        out[tilted] = _bessel_tail(k, u0, u[tilted], k) + u[tilted]
    out += lam[1] * hi + mu * lo
    out += lam[1] * lo
    return out


def _rank2_level(k: float, lam: np.ndarray, X: np.ndarray, Q: int, Qi: int) -> np.ndarray:
    """log of the rank-2 level of each row X = (x0 > c > x2): the sum over the
    nodes (y1_i, y2_j) of its two level rules of
    e^{lw1_i + lw2_j} (y1_i - y2_j) psi_lam(e^{(y1_i, y2_j)}),
    lam = (l1 >= l2 >= 0) the A_1 argument and the two levels' slopes, and Qi
    the nodes of its rule.

    Every factor depends on one coordinate except the Vandermonde factor, which
    splits into two separable non-negative terms, y1 - y2 = (y1 - c) + (c - y2).
    A pair is Jacobi when u = mu (y1_i - y2_j) <= u0 = min(TILT_SWITCH, 2 Qi),
    mu = l1 - l2 >= 0; its psi is then the weighted mean over the Qi nodes of
    e^{l2 (y1+y2) + mu c} e^{mu (y1 - c) p_q} e^{mu (y2 - c)(1 - p_q)}, so the
    Jacobi pairs of a row sum to e^{mu c} times a sum over the nodes of two
    factor grids (``_jacobi_rows``): (I + J) Qi terminal evaluations a row.
    A tilted pair takes the Bessel closed form, whose -k log u absorbs the
    Vandermonde log as (1 - k) log u - log mu.

    A row takes one of two paths by its largest u.  A row with no tilted pair
    is summed from its factor grids alone; a row with one is a dense (I, J)
    block of closed forms (``_tilted_rows``), joined by the factor-grid sum of
    its Jacobi pairs if it has any.  A pair with a dropped node adds nothing.
    """
    (y1, y2), (lw1, lw2) = _level_rules(k, X, lam, Q)
    c = X[:, 1]
    mu1 = float(lam[0] - lam[1])
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
    if mu1 * (y1.max() - y2.min()) > u0:
        y1t, y2t = np.ascontiguousarray(y1.T), np.ascontiguousarray(y2.T)
        u_hi = mu1 * (y1t.max(axis=0) - y2t.min(axis=0))
        u_lo = mu1 * (y1t.min(axis=0) - y2t.max(axis=0))
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


def _rank3_level(k: float, lam: np.ndarray, X: np.ndarray, plan: Sequence[int]) -> np.ndarray:
    """log of the rank-3 level of each row X = (x0 > x1 > x2 > x3): the sum over
    the nodes (y_a, y_b, y_c) of its three Q-node level rules of
    e^{lwa_a + lwb_b + lwc_c} pi(y) psi_lam(e^y), lam (decreasing, >= 0) the
    A_2 argument and the slopes of the three levels, and plan = (Q, Q1, Q2)
    the nodes of the levels of rank 3, 2 and 1 (the last entry repeats).

    psi_lam(e^y) is the A_2 recursion, whose rank-2 level at (y_a, y_b, y_c) is
    that of ``_rank2_level``, but with its levels shared across the outer grid:
    the level z1 in [y_b, y_a], its rule and its factor grid e^{mu p_q (z1 -
    y_b)} depend on the pair (a, b) only, and z2 in [y_c, y_b] and its grid
    on (b, c); only the non-adjacent factors (z1 - y_c)^{k-1} and
    (y_a - z2)^{k-1} bring in the third node.  So the rows are taken a slab at
    a time, a slab being one row and one node y_b: its Q^2 rank-2 rows (a, c)
    share 2 Q Q1 Q2 terminal evaluations, and the sums a0, a1 (b0, b1) of
    ``_jacobi_rows`` over the rows with no tilted pair are products of the
    (2, Q2, i) factor grid (``_factor_grids``) of (a, b) (of (b, c)) with
    the (i, c) node-weight matrix (the (j, a) one) of each a (each c), which
    go to ``_pair_sums``.  The rows with a tilted pair go to
    ``_tilted_rows`` together, with the shared factor grids; the node weights
    and their scales are those of ``_rank2_level`` for the same row.  Slabs
    go in blocks whose factor grids hold about ``_TILT_BLOCK`` values a half,
    each block a part on the chunk pool (``_chunked``); no row's bits depend
    on its block.
    """
    Q, Q1, Q2 = (plan[min(d, len(plan) - 1)] for d in range(3))
    B = X.shape[0]
    (ya, yb, yc), (lwa, lwb, lwc) = _level_rules(k, X, lam, Q)
    s1, s2 = float(lam[0] - lam[2]), float(lam[1] - lam[2])  # the slopes of z1, z2
    mu = s1 - s2
    u0 = min(quad.TILT_SWITCH, 2.0 * Q2)
    x, w = quad._ref_jacobi(Q2, k - 1.0, k - 1.0)
    p, wn = 0.5 * (1.0 + x), w / w.sum()

    def slabs(part):
        """the rank-2 levels of the slabs ``part``, laid out (slab, a, c)"""
        n, owner = part.size, part // Q  # the row of each slab
        ta, tc, tb = ya[owner], yc[owner], yb.reshape(-1)[part]
        # the levels z1 of the pairs (a, b) and z2 of (b, c), (slab, a, i) and (slab, c, j)
        z1, lw1 = level_nodes(np.repeat(tb, Q), ta.reshape(-1), k - 1.0, k - 1.0, s1, Q1)
        z2, lw2 = level_nodes(tc.reshape(-1), np.repeat(tb, Q), k - 1.0, k - 1.0, s2, Q1)
        z1, lw1, z2, lw2 = (v.reshape(n, Q, Q1) for v in (z1, lw1, z2, lw2))
        # node log-weights with e^{s2 z}, relative to their row's largest, laid
        # out (slab, a, i, c) and (slab, c, j, a): a row's nodes on a middle axis
        la = np.subtract(z1[..., None], tc[:, None, None, :])
        lb = np.subtract(ta[:, None, None, :], z2[..., None])
        for lw, z, v in ((lw1, z1, la), (lw2, z2, lb)):
            np.log(v, out=v)
            v *= k - 1.0
            v += lw[..., None]
            v += (s2 * z)[..., None]
        ma, mb = la.max(axis=2), lb.max(axis=2)  # (slab, a, c) and (slab, c, a)
        ma[~np.isfinite(ma)] = 0.0
        mb[~np.isfinite(mb)] = 0.0
        la -= ma[:, :, None, :]
        lb -= mb[:, :, None, :]
        u_hi = mu * (z1.max(axis=2)[:, :, None] - z2.min(axis=2)[:, None, :])
        u_lo = mu * (z1.min(axis=2)[:, :, None] - z2.max(axis=2)[:, None, :])
        jacobi = u_hi <= u0
        out = np.empty((n, Q, Q))
        ga = gb = None  # no Jacobi pair, no factor grid
        if (u_lo <= u0).any():
            ga = _factor_grids(k, mu, z1 - tb[:, None, None], p, u0)  # (2, slab, a, Q2, i)
            gb = _factor_grids(k, mu, z2 - tb[:, None, None], 1.0 - p, u0)  # (2, slab, c, Q2, j)
        tilted = np.flatnonzero(~jacobi)
        if tilted.size:
            slab, a, c = np.unravel_index(tilted, (n, Q, Q))
            ab, bc = slab * Q + a, slab * Q + c
            shared = None if ga is None else (ga.reshape(2, n * Q, Q2, Q1), ab,
                                              gb.reshape(2, n * Q, Q2, Q1), bc)
            out.reshape(-1)[tilted] = _tilted_rows(
                k, mu, u0, Q2, z1.reshape(-1, Q1)[ab], z2.reshape(-1, Q1)[bc], tb[slab],
                la[slab, a, :, c], lb[slab, c, :, a], u_lo.reshape(-1)[tilted], shared)
        if tilted.size < out.size:
            for v in (la, lb):  # the node weights, in place
                cut = v < -250.0
                np.exp(v, out=v)
                v[cut] = 0.0
            # a0 over a1 (b0 over b1) of each row, laid out (2, slab, a, Q2, c)
            s = _pair_sums(ga @ la, np.swapaxes(gb @ lb, 2, 4), wn)
            with np.errstate(divide="ignore"):
                out[jacobi] = np.log(s[jacobi])
        out += ma
        out += mb.transpose(0, 2, 1)
        out += mu * tb[:, None, None]
        return out

    S = B * Q
    parts = np.array_split(np.arange(S), min(S, -(-S * Q * Q1 * Q2 // _TILT_BLOCK)))
    level = _chunked(slabs, np.empty((S, Q, Q)), parts).reshape(B, Q, Q, Q)  # (b, a, c)
    # each node triple's log-weight and its log psi_lam but the rank-2 level,
    # added a factor at a time: the node weights with psi_lam's e^{lam_2 y},
    # pi(y)^(2 - 2k) (the level's pi(y) and psi_lam's pi(y)^(1 - 2k)), and
    # psi_lam's Gamma(3k)/Gamma(k)^3
    ya, yb, yc = ya[:, None, :, None], yb[:, :, None, None], yc[:, None, None, :]
    for lw, y in ((lwa, ya), (lwb, yb), (lwc, yc)):
        level += lw.reshape(y.shape) + lam[2] * y
    for hi, lo in ((ya, yb), (ya, yc), (yb, yc)):
        level += (2.0 - 2.0 * k) * np.log(hi - lo)
    level += math.lgamma(3.0 * k) - 3.0 * math.lgamma(k)
    return logsumexp(level.reshape(B, -1), axis=1)


def _tilted_rows(k: float, mu1: float, u0: float, Qi: int, y1: np.ndarray, y2: np.ndarray,
                 c: np.ndarray, la: np.ndarray, lb: np.ndarray, u_lo: np.ndarray,
                 shared=None) -> np.ndarray:
    """log of the sum over all pairs (i, j) of rank-2 rows that have a tilted pair.

    A tilted pair adds e^{H_k - (k - 1) log u + ta_i + tb_j}, u = mu (y1_i -
    y2_j), with the per-node terms ta = a + mu (y1 - c) and tb = b - log mu:
    the node log-weights, e^{mu (y1 - c)} at the pair's upper end, and the
    1/mu of y1 - y2 = u/mu.
    H_k comes from the ladder of ``_bessel_tail``: a row whose pairs are all tilted takes
    the highest rung whose U = u0 _RUNG_RATIO^i is <= its own smallest u,
    ``u_lo`` (a short series where the row's u are large), and a row with a
    Jacobi pair (u_lo <= u0) takes rung 0.  Each rung's rows go in dense
    (b, I, J) blocks of about ``_TILT_BLOCK`` pairs, each row's pairs reduced
    along one contiguous axis, so that no row's bits depend on its batch; the
    blocks are views when one rung holds every row, and gather their rows
    otherwise.  A Jacobi pair takes u = u0 in the block and then weight 0;
    the Jacobi pairs of a row that has any are summed from its factor grids
    (``_jacobi_rows`` with the row's Jacobi-pair mask, and ``shared`` its
    factor grids if given) and join the block's log-sum-exp.
    """
    B, I, J = y1.shape[0], y1.shape[1], y2.shape[1]
    ta = la + mu1 * (y1 - c[:, None])
    tb = lb - math.log(mu1)
    mixed = u_lo <= u0
    rung = np.searchsorted(u0 * _LADDER, u_lo, side="right")
    s = np.full(B, -np.inf)
    if mixed.any():
        if shared is not None:
            ga, ab, gb, bc = shared
            shared = (ga, ab[mixed], gb, bc[mixed])
        with np.errstate(divide="ignore"):
            s[mixed] = np.log(_jacobi_rows(k, mu1, Qi, y1[mixed], y2[mixed], c[mixed],
                                           la[mixed], lb[mixed], u0, shared))
    out = np.empty(B)
    step = max(1, _TILT_BLOCK // (I * J))
    # a block's u and the scratch of _bessel_tail, which leaves the value in
    # the second array, and the Jacobi-pair mask: allocated once, for the
    # largest block
    size = min(B, step) * I * J
    scratch = [np.empty(size) for _ in range(5)]
    any_mixed = bool(mixed.any())
    mask = np.empty(size, dtype=bool) if any_mixed else None
    for r in np.flatnonzero(np.bincount(rung)).tolist():
        group = np.flatnonzero(rung == r)
        whole = group.size == B  # one rung holds every row: blocks are views
        for g0 in range(0, group.size, step):
            rows = slice(g0, min(B, g0 + step)) if whole else group[g0:g0 + step]
            n = min(step, group.size - g0)
            u, *work = (a[:n * I * J].reshape(n, I, J) for a in scratch)
            np.subtract(y1[rows, :, None], y2[rows, None, :], out=u)
            u *= mu1
            join = any_mixed and bool(mixed[rows].any())  # else every row's s is -inf
            if join:  # into the closed form's domain; weight 0 below
                jacobi = np.less_equal(u, u0, out=mask[:u.size].reshape(u.shape))
                np.maximum(u, u0, out=u)
            val = _bessel_tail(k, u0, u, k - 1.0, r, work)
            if join:
                val[jacobi] = -np.inf
            val += ta[rows, :, None]
            val += tb[rows, None, :]
            val = val.reshape(n, -1)
            top = val.max(axis=1)
            if join:
                np.maximum(top, s[rows], out=top)
            val -= top[:, None]
            # a pair below e^-700 of its row's largest is negligible; the clip
            # keeps exp off its slow subnormal path
            np.maximum(val, -700.0, out=val)
            tot = np.exp(val, out=val).sum(axis=1)
            if join:
                tot += np.exp(s[rows] - top)
            out[rows] = top + np.log(tot)
    return out


def _jacobi_rows(k: float, mu: float, Qi: int, y1: np.ndarray, y2: np.ndarray,
                 c: np.ndarray, la: np.ndarray, lb: np.ndarray,
                 u0: float | None = None, shared=None) -> np.ndarray:
    """Sum of the Jacobi pairs of each rank-2 row, from its two factor grids.

    ``y1`` (B, I) and ``y2`` (B, J) hold the nodes, ``c`` (B,) the middle
    coordinates, and ``la`` and ``lb`` the node log-weights a_i, b_j (<= 0).
    The Jacobi pairs are those with mu (y1_i - y2_j) <= ``u0``; None means
    all of them.  With the offsets d1 = y1 - c >= 0 and d2 = y2 - c <= 0,
    A_qi = e^{mu d1_i p_q} and B_qj = e^{mu d2_j (1 - p_q)}, a row's sum is

        sum_q w_q sum_i a_i A_qi [d1_i P_qi - R_qi],

    P_qi and R_qi the sums of b_j B_qj and b_j d2_j B_qj over the Jacobi
    partners j of i.  A block of rows takes its factor grids
    (``_factor_grids``): A over A d1 as a (2, b, Qi, I) array and B over B d2
    as a (2, b, Qi, J) one.  With no ``u0``, P and R do not depend on i, so
    the grids times the node weights are summed over i and j first, as
    stacked matrix products (b, Qi, I) @ (b, I, 1), and ``_pair_sums``
    takes sum_q w_q (a1 b0 - a0 b1).  With one, P and R are one product of
    b_j B over b_j B d2 with each row's (J, I) Jacobi-pair mask, and
    ``_pair_sums`` takes the same sum of a_i A d1 P - a_i A R before the
    i-sum.  An offset beyond 2 u0 has no Jacobi partner and enters its grid
    as 0 (``_offset_grid``), so that no factor overflows.  ``shared`` =
    (ga, ab, gb, bc) hands the masked sums their factor grids instead: those
    of row r are ga[:, ab[r]] and gb[:, bc[r]] (``_rank3_level``'s grids of
    node pairs).  A node weight below e^-250 of its row's largest is taken
    as 0, which keeps every product off the slow subnormal range; what it
    drops is below 1e-80 of the row.  Rows go in blocks sized from
    ``_TILT_BLOCK``, and every sum is added in an order that does not depend
    on a row's batch.
    """
    B, I, J = y1.shape[0], y1.shape[1], y2.shape[1]
    x, w = quad._ref_jacobi(Qi, k - 1.0, k - 1.0)
    p, wn = 0.5 * (1.0 + x), w / w.sum()
    wa, wb = np.exp(la), np.exp(lb)
    wa[la < -250.0] = 0.0
    wb[lb < -250.0] = 0.0
    cap = math.inf if u0 is None else u0  # no offset of an all-Jacobi row is beyond u0

    def block(rows):
        """the sums of the rows ``rows``, whose arrays go with the call"""
        if shared is None:
            ga = _factor_grids(k, mu, y1[rows] - c[rows, None], p, cap)
            gb = _factor_grids(k, mu, y2[rows] - c[rows, None], 1.0 - p, cap)
        else:
            ga, ab, gb, bc = shared
            ga, gb = ga[:, ab[rows]], gb[:, bc[rows]]
        if u0 is None:
            return _pair_sums(ga @ wa[rows, :, None], gb @ wb[rows, :, None], wn)[:, 0]
        mask = np.subtract(y1[rows, None, :], y2[rows, :, None])
        mask *= mu
        mask = (mask <= u0).astype(float)
        ga *= wa[rows, None, :]
        gb *= wb[rows, None, :]
        return _pair_sums(ga, gb @ mask, wn).sum(axis=1)

    step = max(1, 2 * _TILT_BLOCK // (Qi * max(I, J)) if u0 is None else _TILT_BLOCK // (I * J))
    out = np.empty(B)
    for r0 in range(0, B, step):
        out[r0:r0 + step] = block(slice(r0, r0 + step))
    return out


def _pair_sums(a: np.ndarray, b: np.ndarray, wn: np.ndarray) -> np.ndarray:
    """sum_q wn_q (a1 b0 - a0 b1) over the second-last axis q of the halves
    (a0, a1) = a and (b0, b1) = b, in b's array: the Jacobi pairs of a rank-2
    row from its sums over the factor grids (``_jacobi_rows``).  The q-sum is
    pairwise where the last extent is 1 and in q order otherwise, in either
    case the same for a row alone and in a batch."""
    s = np.multiply(a[1], b[0], out=b[0])
    b[1] *= a[0]
    s -= b[1]
    s *= wn[:, None]
    return s.sum(axis=-2)


def _offset_grid(mu: float, d: np.ndarray, u0: float) -> np.ndarray:
    """The offsets e of ``_factor_grids``: the node offsets d of a level from
    its row's middle coordinate, each set to 0 where mu |d| > 2 u0 (none at
    u0 = inf, which rows whose pairs are all Jacobi take): such a node has
    no Jacobi partner (a pair's u = mu (d1 - d2) is at least mu |d| of either
    node), so its factor e^{mu p_q d} reaches no sum, and the margin over u0
    keeps the nodes of a pair that rounding puts at u0 in place."""
    return np.where(np.abs(d) * mu > 2.0 * u0, 0.0, d)


def _factor_grids(k: float, mu: float, d: np.ndarray, frac: np.ndarray,
                  u0: float) -> np.ndarray:
    """The factor grids of a level's node offsets d (..., I), (2, ..., Qi, I):
    e^{mu frac_q e_i} over e^{mu frac_q e_i} e_i, e = ``_offset_grid(mu, d,
    u0)``; the first half is the recursion's terminal case."""
    e = _offset_grid(mu, d, u0)
    f = _log_psi(k, np.array([mu]), (e[..., None, :] * frac[:, None]).reshape(-1, 1),
                 frac.shape)
    g = np.empty((2,) + e.shape[:-1] + (frac.size, e.shape[-1]))
    np.exp(f.reshape(g.shape[1:]), out=g[0])
    np.multiply(g[0], e[..., None, :], out=g[1])
    return g


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
    """Tensor grid of the interlacing box x_{i+1} <= y_i <= x_i, Q nodes a level:
    the levels of rank >= 4 of ``_log_psi`` and ``asymlab._log_In``'s grid.

    ``X`` holds (B, m+1) active chamber rows, ``mu`` >= 0 the slope of
    e^{mu_i y_i} along each of the m levels.  Returns the level node grids,
    the i-th of shape (B,) + (1,)*i + (Q,) + (1,)*(m-1-i), and ``logf`` on
    (B,) + (Q,)*m: level log-weights, non-adjacent (k-1)-power factors, log prod_{i<j}(y_i-y_j).
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


def _chunked(fn, out: np.ndarray, parts: list[np.ndarray]) -> np.ndarray:
    """``out[part] = fn(part)`` for each part (an index array), returning ``out``.

    ``_chunk_width`` runners take the next part in order until none is left:
    the calling thread and the pool's threads, each in a copy of the caller's
    context (numpy's errstate is context-local) with ``_serial`` set.  numpy
    drops the GIL only inside a ufunc's loop, so ``fn`` should make few,
    large calls for the runners to overlap; no row's bits depend on its
    batch, so the result does not depend on the width.  An error stops the
    runners taking parts; once every started part has finished, the first
    part's error in order is raised, the one a serial loop raises.
    """
    todo = iter(range(len(parts)))  # next() on a range iterator is atomic under the GIL
    errors: dict[int, BaseException] = {}

    def runner():
        _serial.set(True)
        for i in todo:
            if errors:
                return
            try:
                out[parts[i]] = fn(parts[i])
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

    ``lam`` must be decreasing (``spherical_log`` sorts it), which makes
    every level slope lam_i - lam_m >= 0; rows of X must be strictly
    decreasing.  A rank-1 row is ``_rank1_grid``, rank 2 ``_rank2_level``
    and rank 3 ``_rank3_level``; a row of rank >= 4 sums its interlacing
    grid's rows of the rank below.
    """
    m = lam.shape[0] - 1
    B = X.shape[0]
    if m == 0:
        return lam[0] * X[:, 0]
    Q = plan[0]
    P = Q ** m
    if B * P > _CHUNK and B > 1:
        nb = min(B, max(2, -(-B * P // _CHUNK)))
        return _chunked(lambda rows: _log_psi(k, lam, X[rows], plan), np.empty(B),
                        np.array_split(np.arange(B), nb))
    if m == 1:
        return _rank1_grid(k, lam, X[:, 0], X[:, 1], Q)

    lam0 = lam[:m] - lam[m]  # decreasing, and the slope seen by y_i
    logpref = math.lgamma(k * (m + 1)) - (m + 1) * math.lgamma(k)
    logpi = np.zeros(B)
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            logpi += np.log(X[:, i] - X[:, j])
    base_term = lam[m] * X.sum(axis=1) + (1 - 2 * k) * logpi

    inner_plan = plan[1:] if len(plan) > 1 else plan
    if m == 2:
        return logpref + base_term + _rank2_level(k, lam0, X, Q, inner_plan[0])
    if m == 3:
        return logpref + base_term + _rank3_level(k, lam0, X, plan)
    ygrids, logf = interlacing_grid(k, X, lam0, Q)
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
    sorted one, and no level slope of the recursion is negative.  A 2-d
    ``X`` holds row vectors and gives an array of logs.  A caller's ``plan``
    passes ``check_plan``; budget is checked against the predicted node
    product.  Raises DomainError if
    4 len(x) max|lambda| max|x|, which bounds every exponent, overflows.
    """
    plan = default_node_plan(rs.n) if plan is None else check_plan(plan)
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


def spherical_exact(rs: RootSystemA, lam, X, plan: Sequence[int] | None = None
                    ) -> KernelValue:
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
    spread_bound=1e3, drift_key="min_pairing", canonical=_collapse)
spherical_row = KERNEL.row
certify_ratio = KERNEL.certify
