"""W-invariant Dunkl heat kernel for A_n: exact values, sharp envelope,
and the analytic identities (mass, semigroup, generator) that check the values.

The kernel is evaluated through the spherical function,

    p_t^W(X,Y) = (2^{gamma+d/2} c)^(-1) t^{-d/2-gamma}
                 e^{-(|X|^2+|Y|^2)/(4t)} psi_X(Y/(2t)),

where c = int e^{-|x|^2/2} omega_k(x) dx is the Macdonald-Mehta-Selberg
product (2 pi)^{d/2} prod_{j=1}^{n+1} Gamma(1+jk)/Gamma(1+k); the mass
identity |W| int_{a+} p_t^W(X,Y) omega_k(Y) dY = 1 checks the chamber rule.
``heat_log_for_times`` evaluates it at a batch of times, and ``heat_log`` is
its one-time case.

The Newton and s-stable kernels are positive sums of heat rows,
sum_j e^{w_j} p_{t_j}(X, Y), and ``heat_log_sum`` evaluates only the rows
that can matter.  psi_X(e^x) is the mean of e^{<X, xi>} under a W-invariant
probability measure on the convex hull of Wx (M. Roesler, Duke Math. J. 98
(1999) 445-463), so before any psi call

    (sum X)(sum x)/(n+1) <= log psi_X(e^x) <= <X, x>,

with X and x sorted in decreasing order on the right (``psi_log_bounds``).
The rows with the smallest upper bounds are left out while those bounds sum
to at most e^-PRUNE_MARGIN = e^-37 (~8.5e-17) times the sum of the lower
bounds, a lower bound of the whole sum; the rows left out thus carry less
than e^-37 of it, and log of the sum moves by less than 8.5e-17.  This keep
rule (``_kept``, with ``PRUNE_MARGIN``) lives in ``spherical``, whose
rank-3 level prunes its rank-2 rows by it, and is imported here.  A row is
never left out where a log-weight or bound is not finite, nor on A_1, where a
batch of psi rows costs about the same at any size (``PRUNE_FROM_RANK``).
The kept set depends only on the point and its rule, so a sweep's price
counts it without a psi call (``Kernel.psi_rows``).

Chamber integrals (mass, Chapman-Kolmogorov, subordination mass) split Y
into its mean direction (a Gaussian integrated in closed form) and Y0 = B s
over the simple-root gaps s_i > 0; the gap basis B holds the fundamental
coweights, and one tensor rule (``_gap_rule``) absorbs omega_k and the
Gaussian envelope into generalized Laguerre rules in w = q s^2.  On A_2 their
nodes are pruned by the same bounds, summed over the factors of the integrand.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import DomainError
from .quad import (KernelValue, _ref_genlaguerre, _ref_hermite, logsumexp,
                   refined)
from .report import Kernel
from .rootsys import RootSystemA, positive_roots, pairing
# PRUNE_MARGIN and _kept, the keep rule of the sums below, keep their names here
from .spherical import (PRUNE_MARGIN, _kept, _predicted_evals, collapse_walls,
                        default_node_plan, psi_log_bounds, refined_plan, spherical_log)


@functools.cache
def log_mehta_selberg(rs: RootSystemA) -> float:
    """log c = (d/2) log 2 pi + sum_{j=1}^{n+1} [log Gamma(1+jk) - log Gamma(1+k)]."""
    return (0.5 * rs.d * math.log(2 * math.pi)
            + sum(math.lgamma(1.0 + j * rs.k) - math.lgamma(1.0 + rs.k)
                  for j in range(1, rs.n + 2)))


def heat_log(rs: RootSystemA, t: float, X, Y,
             plan: Sequence[int] | None = None) -> float:
    """log p_t^W(X, Y): the one-time case of ``heat_log_for_times``."""
    return float(heat_log_for_times(rs, [t], X, Y, plan)[0])


def _heat_terms(rs: RootSystemA, times, X, Y
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(head, Y', rows) with log p_t^W(X, Y) = head + log psi_X(e^row) at
    each time t: Y' is Y taken off the walls by ``collapse_walls`` and
    row = Y'/(2t).

    Raises DomainError unless every t > 0 and |X|^2, |Y|^2,
    (|X|^2+|Y|^2)/(4t) and Y/(2t) are finite.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(times > 0):
        raise DomainError("times must be > 0")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Yc = collapse_walls(rs, Y)[0]
    # an overflow here leaves a non-finite value (collapse_walls raises on |Y|^2)
    with np.errstate(over="ignore", invalid="ignore"):
        gauss = (float(X @ X) + float(Y @ Y)) / (4.0 * times)
        rows = Yc[None, :] / (2.0 * times[:, None])
    if not (np.all(np.isfinite(gauss)) and np.all(np.isfinite(rows))):
        raise DomainError("heat kernel argument overflows: |X|^2, |Y|^2, "
                          "(|X|^2+|Y|^2)/(4t) and Y/(2t) must be finite")
    head = (-log_mehta_selberg(rs) - (rs.gamma + 0.5 * rs.d) * math.log(2.0)
            - (0.5 * rs.d + rs.gamma) * np.log(times) - gauss)
    return head, Yc, rows


def heat_log_for_times(rs: RootSystemA, times, X, Y,
                       plan: Sequence[int] | None = None) -> np.ndarray:
    """log p_t^W(X, Y) for an array of times t (one batched psi call).

    Raises DomainError unless every t > 0 and |X|^2, |Y|^2,
    (|X|^2+|Y|^2)/(4t) and Y/(2t) are finite.
    """
    head, _, rows = _heat_terms(rs, times, X, Y)
    return head + spherical_log(rs, X, rows, plan)


#: the lowest rank whose sums are pruned: a batch of A_1 psi rows costs about
#: the same at any size up to a few hundred rows (on a 2-vCPU Xeon, 90 us for
#: the 64 rows of an A_1 Newton point and for the 32 of them it keeps), so
#: there the bounds (about 40 us a sum) cost more than they save; pruning A_1
#: made the benchmark's A_1-heavy sweep_small point_p50_ms 9% slower
PRUNE_FROM_RANK = 2


def heat_sum_terms(rs: RootSystemA, log_ws: Sequence[np.ndarray], times, X, Y
                   ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The rows of sum_j e^{w_j} p_{t_j}(X, Y) that can matter, known
    before any psi call: ``_heat_terms``' (head, rows) and the parts of the
    log-weights w = sum(log_ws), at the rows that ``_kept`` keeps on the
    bounds of ``psi_log_bounds``."""
    head, Yc, rows = _heat_terms(rs, times, X, Y)
    if rs.n < PRUNE_FROM_RANK:
        return head, rows, list(log_ws)
    log_w = sum(log_ws) + head
    # the bounds are homogeneous in the row: those of Y' over 2t
    lo, hi = psi_log_bounds(rs, X, Yc)
    scale = 2.0 * np.asarray(times, dtype=float)
    keep = _kept(log_w + lo / scale, log_w + hi / scale)
    return head[keep], rows[keep], [w[keep] for w in log_ws]


def heat_log_sum(rs: RootSystemA, log_ws: Sequence[np.ndarray], times, X, Y,
                 plan: Sequence[int] | None = None) -> float:
    """log sum_j e^{w_j} p_{t_j}(X, Y) over the rows that can matter (the
    bounds and the keep rule are in the module docstring), in one batched
    psi call; the parts of w = sum(log_ws) are added to log p in turn, the
    order in which the Newton and stable rules write their terms."""
    head, rows, log_ws = heat_sum_terms(rs, log_ws, times, X, Y)
    terms = head + spherical_log(rs, X, rows, plan)
    for log_w in log_ws:
        terms = terms + log_w
    return float(logsumexp(terms))


def heat_exact(rs: RootSystemA, t: float, X, Y, plan: Sequence[int] | None = None
               ) -> KernelValue:
    """p_t^W(X,Y) with a node-refinement error indicator; ``evals`` counts
    the terminal evaluations of the psi row on both plans."""
    X = rs.check_vector(X)
    plan = plan if plan is not None else default_node_plan(rs.n)
    plan2 = refined_plan(rs.n, plan)
    return refined(heat_log(rs, t, X, Y, plan), heat_log(rs, t, X, Y, plan2),
                   int(_predicted_evals(rs.n, plan) + _predicted_evals(rs.n, plan2)))


def log_heat_envelope(rs: RootSystemA, t: float, X, Y) -> float:
    """log of t^{-d/2} e^{-|X-Y|^2/(4t)} / prod_{alpha>0} (t + alpha(X) alpha(Y))^k."""
    if not t > 0:
        raise DomainError("t must be > 0")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    diff = X - Y
    out = -0.5 * rs.d * math.log(t) - float(diff @ diff) / (4.0 * t)
    for root in positive_roots(rs):
        out -= rs.k * math.log(t + pairing(rs, root, X) * pairing(rs, root, Y))
    return out


def heat_envelope(rs: RootSystemA, t: float, X, Y) -> float:
    return math.exp(log_heat_envelope(rs, t, X, Y))


# ---------------------------------------------------------------------------
# chamber integrals: mass, Chapman-Kolmogorov
# ---------------------------------------------------------------------------

def _trace_split(rs: RootSystemA, A: np.ndarray) -> tuple[float, np.ndarray]:
    if rs.trace_zero:
        return 0.0, A
    abar = float(A.mean())
    return abar, A - abar


def _gap_basis(n: int) -> np.ndarray:
    """The (n+1, n) gap basis B: Y0 = B s is the trace-zero chamber vector
    with simple-root gaps s.  Column i is the fundamental coweight
    (1/m)(m-i, ..., m-i, -i, ..., -i), m = n+1, with i entries m-i."""
    m = n + 1
    i = np.arange(1, m)
    return np.where(np.arange(m)[:, None] < i, m - i, -i) / m


def _tensor_rule(x: np.ndarray, w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-fold tensor product of a 1-d rule: nodes (len(x)^n, n), log-weights."""
    idx = np.indices((len(x),) * n).reshape(n, -1).T
    return x[idx], np.log(w)[idx].sum(axis=1)


def _log_omega(rs: RootSystemA, s: np.ndarray, simple: bool = True) -> np.ndarray:
    """log omega_k(B s) = 2k sum_{alpha>0} log alpha(B s), where
    alpha_ij(B s) = s_i + ... + s_{j-1}; the simple roots only if ``simple``."""
    out = np.zeros(len(s))
    for i, j in positive_roots(rs):
        if simple or j > i + 1:
            out += 2.0 * rs.k * np.log(s[:, i - 1:j - 1].sum(axis=1))
    return out


def _gap_rule(rs: RootSystemA, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule over root gaps s > 0 for the weight e^{-s'Ms} omega_k(B s).

    Axis i is a generalized Laguerre rule in w = q s_i^2, q = M_ii, that
    absorbs s_i^{2k} e^{-q s_i^2}; M's cross terms and the non-simple roots
    are in the log-weights.  Returns the gaps (N, n) and log-weights (N,).
    """
    w, logw = _tensor_rule(*_ref_genlaguerre(48, rs.k - 0.5), rs.n)
    q = np.diag(M)
    s = np.sqrt(w / q)
    logw += float(np.sum(math.log(0.5) - (rs.k + 0.5) * np.log(q)))
    logw -= 2.0 * ((s @ np.triu(M, 1)) * s).sum(axis=1)
    return s, logw + _log_omega(rs, s, simple=False)


def chamber_heat_integral(rs: RootSystemA, factors: Sequence[tuple[float, np.ndarray]],
                          plan: Sequence[int] | None = None) -> float:
    """log of |W| int_{a+} prod_f p_{t_f}^W(A_f, Y) omega_k(Y) dY (n <= 2).

    Requires the standard realization d == n+1 (or trace-zero).  The mean
    direction of Y is integrated in closed form; the rest is Y0 = B s over
    the root gaps s (``_gap_basis``), where the Gaussians combine into
    exp(-s'Ms + lin.s), M = (sum_f 1/t_f) B'B/4, lin = sum_f B'A0_f/(2 t_f).
    While its peak s* stays within a few widths of the origin (every
    t_f ~ gap^2 case), ``_gap_rule`` absorbs the s^{2k} wall factors; once
    the peak escapes (t_f << gap^2, the kernel concentrates at Y ~ A), a
    shifted Gauss-Hermite rule centered at s* takes over, with omega_k in
    its log-weights.  Both rules have 48 nodes per gap; |A_f|^2, 1/t_f,
    A_f/t_f and |A_f|^2/t_f must be finite.  A node's log term is bracketed
    by its log-weight plus the sum over the factors of ``psi_log_bounds``,
    and ``_kept`` leaves out the nodes that carry less than e^-37 of the
    sum together, as ``heat_log_sum`` does with its rows (on A_2).
    """
    if rs.n > 2:
        raise DomainError("chamber integrals implemented for A_1 and A_2 only")
    if not rs.trace_zero and rs.d != rs.n + 1:
        raise DomainError("chamber integrals need d == n+1 (or trace_zero)")
    m = rs.n + 1
    ts = np.array([f[0] for f in factors], dtype=float)
    if np.any(ts <= 0):
        raise DomainError("factor times must be > 0")
    As = [rs.check_vector(np.asarray(f[1], dtype=float)) for f in factors]
    with np.errstate(over="ignore"):
        if not all(math.isfinite(float(A @ A)) for A in As):
            raise DomainError("chamber integral argument overflows: |A|^2 must be finite")
    B = _gap_basis(rs.n)
    A0s = [_trace_split(rs, A)[1] for A in As]
    lc = -log_mehta_selberg(rs) - (rs.gamma + 0.5 * rs.d) * math.log(2.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        const = 0.0
        if not rs.trace_zero:
            # closed-form Gaussian over the mean direction v
            vf = np.array([math.sqrt(m) * _trace_split(rs, A)[0] for A in As])
            Acoef = (1.0 / (4.0 * ts)).sum()
            Bcoef = (vf / (2.0 * ts)).sum()
            const += (0.5 * np.log(math.pi / Acoef) + Bcoef ** 2 / (4.0 * Acoef)
                      - (vf ** 2 / (4.0 * ts)).sum())
        for t_f, A0 in zip(ts, A0s):
            const += (lc - (0.5 * rs.d + rs.gamma) * math.log(t_f)
                      - float(A0 @ A0) / (4.0 * t_f))
        lin = sum(B.T @ A0 / (2.0 * t_f) for t_f, A0 in zip(ts, A0s))
        M = float((1.0 / ts).sum()) * (B.T @ B) / 4.0
    if not (np.isfinite(const) and np.all(np.isfinite(lin)) and np.all(np.isfinite(M))):
        raise DomainError("chamber integral argument overflows: 1/t, A/t and "
                          "|A|^2/t must be finite")
    s_star = np.linalg.solve(2.0 * M, lin)
    peak = float(s_star @ M @ s_star)
    if peak <= 16.0:
        s, logw = _gap_rule(rs, M)
    else:
        # -s'Ms + lin.s = peak - |h|^2 at s = s* + L'^{-1} h, M = L L'
        h, logw = _tensor_rule(*_ref_hermite(48), rs.n)
        s = s_star + np.linalg.solve(np.linalg.cholesky(M).T, h.T).T
        keep = np.all(s > 0.0, axis=1)
        s, logw = s[keep], logw[keep]
        logw += (peak - 0.5 * math.log(np.linalg.det(M)) - s @ lin
                 + _log_omega(rs, s))
    Y0 = s @ B.T
    rows = [Y0 / (2.0 * t_f) for t_f in ts]
    if rs.n >= PRUNE_FROM_RANK:
        lo, hi = logw, logw
        for A0, row in zip(A0s, rows):
            lo_f, hi_f = psi_log_bounds(rs, A0, row)
            lo, hi = lo + lo_f, hi + hi_f
        keep = _kept(lo, hi)
        logw, rows = logw[keep], [row[keep] for row in rows]
    for A0, row in zip(A0s, rows):
        logw = logw + spherical_log(rs, A0, row, plan)
    return (math.log(rs.weyl_order) - 0.5 * math.log(m) + const
            + float(logsumexp(logw)))


def heat_mass(rs: RootSystemA, t: float, X, plan: Sequence[int] | None = None) -> float:
    """|W| int_{a+} p_t^W(X, Y) omega_k(Y) dY; equals 1 for the true kernel."""
    return math.exp(chamber_heat_integral(rs, [(t, X)], plan=plan))


def chapman_kolmogorov_check(rs: RootSystemA, t: float, s: float, X, Z,
                             plan: Sequence[int] | None = None) -> float:
    """Relative residual of |W| int p_t(X,Y) p_s(Y,Z) omega dY = p_{t+s}(X,Z)."""
    log_conv = chamber_heat_integral(rs, [(t, X), (s, Z)], plan=plan)
    log_direct = heat_log(rs, t + s, X, Z, plan)
    return abs(math.expm1(log_conv - log_direct))


def generator_check(rs: RootSystemA, t: float, X, Y, h: float = 1e-4,
                    plan: Sequence[int] | None = None) -> float:
    """Relative residual of d/dt p = Delta p + 2 sum_a k alpha(grad p)/alpha(X).

    Central second-order stencils with step h; X must be strictly interior
    (the stencil may not cross a wall).  A_1 only (cost and conditioning).
    """
    if rs.n != 1:
        raise DomainError("generator check restricted to A_1")
    X = rs.check_vector(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)

    def p(Xv, tv):
        return math.exp(heat_log(rs, tv, Xv, Y, plan))

    p0 = p(X, t)
    dpdt = (p(X, t + h) - p(X, t - h)) / (2.0 * h)
    lap = 0.0
    grad = np.zeros(rs.coord_len)
    for c in range(rs.coord_len):
        e = np.zeros(rs.coord_len)
        e[c] = h
        pp, pm = p(X + e, t), p(X - e, t)
        lap += (pp - 2.0 * p0 + pm) / h ** 2
        grad[c] = (pp - pm) / (2.0 * h)
    gen = lap
    for root in positive_roots(rs):
        aX = pairing(rs, root, X)
        if abs(aX) < 10 * h:
            raise DomainError("X too close to a wall for the FD stencil")
        ci, cj = rs.active_coords[root[0] - 1] - 1, rs.active_coords[root[1] - 1] - 1
        gen += 2.0 * rs.k * (grad[ci] - grad[cj]) / aX
    scale = max(abs(dpdt), abs(gen), 1e-300)
    return abs(dpdt - gen) / scale


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def heat_sweep_grid(rs: RootSystemA, t_span=(1e-2, 1e2), t_num: int = 9
                    ) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(t, X, Y) grid covering the t span and both regimes t vs alpha(X)alpha(Y)."""
    m = rs.n + 1
    idx = np.array(rs.active_coords) - 1
    X = np.zeros(rs.coord_len)
    X[idx] = np.linspace(1.0, 0.0, m) * 1.2
    Y_generic = np.zeros(rs.coord_len)
    Y_generic[idx] = np.linspace(1.0, 0.0, m) * 0.8 + 0.1
    Y_wall = np.zeros(rs.coord_len)
    Y_wall[idx] = 0.35  # all pairings vanish
    pts = []
    for t in np.geomspace(t_span[0], t_span[1], t_num):
        for Y in (Y_generic, Y_wall):
            pts.append((float(t), X.copy(), Y.copy()))
    return pts


def _heat_columns(rs: RootSystemA, t: float, X, Y) -> dict:
    aa = max(pairing(rs, r, X) * pairing(rs, r, Y) for r in positive_roots(rs))
    return {"t": t, "max_pairing": aa, "regime": "t>=aa" if t >= aa else "t<aa"}


#: heat_exact/heat_envelope sweep, one psi row a point (a generic and a wall
#: Y per time); spread is reported modulo the single global constant per
#: (n,k), which cancels in max/min
KERNEL = Kernel(
    label="heat n={rs.n} k={rs.k}", args=("t", "X", "Y"),
    grid=heat_sweep_grid, grid_options={"t_span": "t_span", "t_num": "num"},
    exact=heat_exact, log_value=heat_log, log_envelope=log_heat_envelope,
    columns=_heat_columns, spread_bound=1e2)
heat_row = KERNEL.row
certify_heat_ratio = KERNEL.certify


def parabolic_rescale_residual(rs: RootSystemA, t: float, X, Y, c: float,
                               plan: Sequence[int] | None = None) -> float:
    """| log ratio(c^2 t, cX, cY) - log ratio(t, X, Y) |; 0 for exact scaling."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    r1 = heat_log(rs, t, X, Y, plan) - log_heat_envelope(rs, t, X, Y)
    r2 = (heat_log(rs, c * c * t, c * X, c * Y, plan)
          - log_heat_envelope(rs, c * c * t, c * X, c * Y))
    return abs(r1 - r2)
