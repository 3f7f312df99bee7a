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
absorb the adjacent (k-1)-power factors into Jacobi weights, switching to
the exponential substitution rule once the level's tilt is too steep for a
polynomial rule.

The rank-1 level, where almost all nodes live, is evaluated on the whole
grid of the rank-2 level above it (``_rank1_grid``), without per-node
log-weights or a log-sum-exp.  A Jacobi row is the weighted mean of e^{mu y}
over its nodes, and e^{mu y} splits into a factor along y_1 and one along
y_2, so the Jacobi rows of one rank-2 row are a small matrix product of two
factor grids; only these grids pass through the single-coordinate terminal
case, which makes the evaluation count 2 Q_{n-2} Q_{n-1} per rank-2 row
(``_predicted_evals``).  A tilted row cancels the Laguerre weight's e^{s}
against e^{mu y} analytically and sums w_j (1 - s_j/|u|)^{k-1} over the kept
nodes, a block of rows at a time.  When all entries of lambda are equal,
psi_lambda(e^X) = e^{lambda_1 sum x} is returned exactly.

The k=1 determinant closed form is the independent oracle; the envelope is
the right-hand side of the sharp two-sided estimate

    psi_lambda(e^X) asymp e^{lambda(X)} / prod_{i<j} (1+(x_i-x_j)(lambda_i-lambda_j))^k.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from . import quad
from .errors import (BudgetExceededError, DegenerateArgumentError, DomainError,
                     EvaluationError)
from .quad import KernelValue, level_nodes, logsumexp
from .report import Kernel, RatioReport
from .rootsys import RootSystemA, ensure_chamber

DEFAULT_PLANS = {1: (48,), 2: (32, 24), 3: (20, 16, 16)}

#: batch rows are chunked so the innermost tensors stay ~tens of MB
_CHUNK = 400_000
#: tilted rank-1 pairs per block: numpy's per-call cost is spread over many
#: nodes, and at 16 nodes a block's 0.5 MB work arrays stay in L2
_RANK1_BLOCK = 4096


def default_node_plan(n: int) -> tuple[int, ...]:
    """Per-rank node counts, outermost rank first."""
    if n in DEFAULT_PLANS:
        return DEFAULT_PLANS[n]
    return (12,) * n


def _predicted_evals(m: int, plan: Sequence[int], batch: int = 1) -> float:
    """Terminal evaluations the recursion makes for ``batch`` rank-m rows.

    Each level of rank >= 3 multiplies the rows by its grid, Q_d^(m-d); each
    rank-2 row then evaluates its rank-1 level on two factor grids,
    2 Q_{m-2} Q_{m-1} terminal rows, and an A_1 row on 2 Q.
    """
    def q(depth):
        return plan[min(depth, len(plan) - 1)]

    total = float(batch)
    for depth in range(m - 2):
        total *= q(depth) ** (m - depth)
    return total * 2 * q(m - 1) * (q(m - 2) if m >= 2 else 1)


def collapse_walls(rs: RootSystemA, X) -> tuple[np.ndarray, bool]:
    """Perturb X off chamber walls (gap < 1e-13*scale) to 1e-8 spacing.

    The recursion holds on the open chamber only; boundary values are taken
    by continuity at the perturbed point.
    """
    X = np.array(rs.check_vector(X), dtype=float)
    idx = np.array(rs.active_coords) - 1
    a = X[idx]
    scale = max(1.0, float(np.linalg.norm(X)))
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

def _rank1_grid(k: float, lam: np.ndarray, hi: np.ndarray, lo: np.ndarray,
                c: np.ndarray, Q: int, counter: list) -> np.ndarray:
    """log psi_lam(e^{(hi_i, lo_j)}) for A_1, at every pair of one rank-2 grid.

    ``hi`` (B, I) and ``lo`` (B, J) hold the coordinates of each row b, with
    lo[b] <= c[b] <= hi[b]; the result has shape (B, I, J).  psi factors as
    e^{l2 (hi+lo)} psi_{(mu, 0)}, mu = l1 - l2, and the second factor is
    the rule ``level_nodes`` builds for int_lo^hi e^{mu y} ((hi-y)(y-lo))^{k-1} dy.

    A Jacobi pair (|u| = |mu| (hi - lo) <= min(TILT_SWITCH, 2Q)) is the
    weighted mean of e^{mu y_q} over its nodes y_q = hi p_q + lo (1 - p_q),
    and e^{mu (y_q - c)} = e^{mu (hi - c) p_q} e^{mu (lo - c)(1 - p_q)}, so
    the pairs of row b are the (I, Q) diag(w) (Q, J) product of two factor
    grids: (I + J) Q terminal evaluations instead of I J Q.  Each factor's
    exponent is at most |u|, so one that over- or underflows feeds only
    tilted pairs.  A tilted pair cancels the Laguerre weight's e^{s} against
    e^{mu y} analytically:
    log Gamma(2k)/Gamma(k)^2 + mu hot - k log|u| + log sum_j w_j (1 - s_j/|u|)^{k-1}
    over the nodes ``level_nodes`` keeps (s_j < DROP_FRAC |u|), summed
    ``_RANK1_BLOCK`` pairs at a time.  Both kinds hold log psi_{(mu, 0)} - mu c
    until mu c + l2 (hi + lo) is added to every pair; mu = 0 gives exactly
    l2 (hi + lo).
    """
    B, I, J = hi.shape[0], hi.shape[1], lo.shape[1]
    mu = float(lam[0] - lam[1])
    x, w = quad._ref_jacobi(Q, k - 1.0, k - 1.0)
    p = 0.5 * (1.0 + x)
    # the terminal case on the factor grids, laid out (Q, B, I) and (Q, B, J)
    term = np.array([mu])
    fa = _log_psi(k, term, np.multiply.outer(p, hi - c[:, None]).reshape(-1, 1),
                  (Q,), counter).reshape(Q, B, I)
    fb = _log_psi(k, term, np.multiply.outer(1.0 - p, lo - c[:, None]).reshape(-1, 1),
                  (Q,), counter).reshape(Q, B, J)
    if mu == 0.0:
        return lam[1] * (hi[:, :, None] + lo[:, None, :])
    switch = min(quad.TILT_SWITCH, 2.0 * Q)
    tilted = None
    if abs(mu) * (hi.max() - lo.min()) > switch:  # else no pair is tilted
        u = hi[:, :, None] - lo[:, None, :]
        u *= abs(mu)
        tilted = u > switch
    if tilted is None or not tilted.all():
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            np.exp(fa, out=fa)
            fa *= (w / w.sum())[:, None, None]
            np.exp(fb, out=fb)
            out = np.matmul(fa.transpose(1, 2, 0), fb.transpose(1, 0, 2))
            np.log(out, out=out)
    else:
        out = np.empty((B, I, J))
    del fa, fb

    if tilted is not None:
        # log psi_{(mu, 0)} - mu c at the tilted pairs, blocks of _RANK1_BLOCK
        s, wl = quad._ref_genlaguerre(Q, k - 1.0)
        logpref = float(gammaln(2 * k) - 2 * gammaln(k))
        hot = (hi if mu > 0 else lo) - c[:, None]
        idx = np.flatnonzero(tilted)
        for start in range(0, idx.size, _RANK1_BLOCK):
            sel = idx[start:start + _RANK1_BLOCK]
            bi, j = np.divmod(sel, J)  # bi = b I + i
            ub = u.reshape(-1)[sel]
            g = np.multiply.outer(s, -1.0 / ub)
            g += 1.0
            drop = quad.DROP_FRAC * ub.min() <= s[-1]
            if drop:
                np.maximum(g, 1e-300, out=g)  # dropped nodes may reach <= 0
            np.log(g, out=g)
            g *= k - 1.0
            np.exp(g, out=g)
            g *= np.where(s[:, None] < quad.DROP_FRAC * ub, wl[:, None], 0.0) if drop \
                else wl[:, None]
            # numpy sums the columns of a block in node order but a lone column
            # pairwise; cumsum keeps node order, so no pair's bits depend on
            # the size of its block
            total = g.sum(axis=0) if sel.size > 1 else np.cumsum(g, axis=0)[-1]
            hot_c = hot.reshape(-1)[bi if mu > 0 else bi // I * J + j]
            np.put(out, sel, logpref + mu * hot_c - k * np.log(ub) + np.log(total))
    out += (lam[1] * hi + mu * c[:, None])[:, :, None]
    out += (lam[1] * lo)[:, None, :]
    return out


def interlacing_grid(k: float, X: np.ndarray, mu: Sequence[float], Q: int,
                     top_lo=None) -> tuple[list[np.ndarray], np.ndarray]:
    """Tensor grid of the interlacing box x_{i+1} <= y_i <= x_i, Q nodes a level.

    ``X`` holds (B, m+1) active chamber rows, ``mu`` the slope of e^{mu_i y_i}
    along each of the m levels.  Returns the level node grids, the i-th of
    shape (B,) + (1,)*i + (Q,) + (1,)*(m-1-i), and ``logf`` on (B,) + (Q,)*m:
    level log-weights, non-adjacent (k-1)-power factors, log prod_{i<j}(y_i-y_j).
    ``top_lo`` restricts the last level to [top_lo, x_m], where the factor
    (y_m - x_{m+1})^{k-1} leaves the weight and is multiplied in explicitly.
    """
    B, m = X.shape[0], X.shape[1] - 1
    ys, lws = [], []
    for lvl in range(m):
        top = top_lo is not None and lvl == m - 1
        lo = np.full(B, top_lo, dtype=float) if top else X[:, lvl + 1]
        y, lw = level_nodes(lo, X[:, lvl], 0.0 if top else k - 1.0, k - 1.0,
                            np.full(B, mu[lvl]), Q)
        # the non-adjacent (and, below top_lo, the lower adjacent) distance factors
        for j in range(0, lvl):
            lw = lw + (k - 1.0) * np.log(X[:, j][:, None] - y)
        for j in range(lvl + 2 - top, m + 1):
            lw = lw + (k - 1.0) * np.log(y - X[:, j][:, None])
        ys.append(y)
        lws.append(lw)

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


def _log_psi(k: float, lam: np.ndarray, X: np.ndarray, plan: Sequence[int],
             counter: list) -> np.ndarray:
    """log psi_lambda(e^X) for a batch of chamber rows X (active coords only).

    ``lam`` need not be sorted (psi is symmetric in it); rows of X must be
    strictly decreasing.  ``counter`` accumulates innermost evaluations.
    """
    m = lam.shape[0] - 1
    B = X.shape[0]
    if m == 0:
        counter[0] += B
        return lam[0] * X[:, 0]
    Q = plan[0]
    P = Q ** m
    if B * P > _CHUNK and B > 1:
        nb = min(B, max(2, -(-B * P // _CHUNK)))
        out = np.empty(B)
        for sl in np.array_split(np.arange(B), nb):
            if len(sl):
                out[sl] = _log_psi(k, lam, X[sl], plan, counter)
        return out
    if m == 1:  # A_1 rows: a 1 x 1 grid
        return _rank1_grid(k, lam, X[:, :1], X[:, 1:], X[:, 1], Q, counter).reshape(B)

    lam0 = lam[:m] - lam[m]
    mu = np.sort(lam0)[::-1]  # slope seen by y_i once Y is sorted decreasing
    logpref = float(gammaln(k * (m + 1)) - (m + 1) * gammaln(k))
    logpi = np.zeros(B)
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            logpi += np.log(X[:, i] - X[:, j])
    base_term = lam[m] * X.sum(axis=1) + (1 - 2 * k) * logpi

    ygrids, logf = interlacing_grid(k, X, mu, Q)
    inner_plan = plan[1:] if len(plan) > 1 else plan
    if m == 2:
        logf += _rank1_grid(k, lam0, ygrids[0].reshape(B, Q), ygrids[1].reshape(B, Q),
                            X[:, 1], inner_plan[0], counter)
    else:
        Y = np.empty((B,) + (Q,) * m + (m,))
        for i in range(m):
            Y[..., i] = np.broadcast_to(ygrids[i], (B,) + (Q,) * m)
        logf += _log_psi(k, lam0, Y.reshape(-1, m), inner_plan,
                         counter).reshape(logf.shape)
    return logpref + base_term + logsumexp(logf.reshape(B, -1), axis=1)


def spherical_log(rs: RootSystemA, lam, X, plan: Sequence[int] | None = None,
                  *, batch: bool = False) -> np.ndarray | float:
    """log psi_lambda(e^X); lam in any order, X chamber rows (full vectors).

    With ``batch=True``, ``X`` is an array of row vectors and an array of
    logs is returned.  Budget is checked against the predicted node product.
    """
    plan = tuple(plan) if plan is not None else default_node_plan(rs.n)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (rs.coord_len,):
        raise DomainError(f"lambda must have length {rs.coord_len}")
    X = np.asarray(X, dtype=float)
    rows = np.atleast_2d(X)
    idx = np.array(rs.active_coords) - 1
    lam_a = lam[idx]
    rows_a = rows[:, idx]
    if np.any(rows_a[:, :-1] - rows_a[:, 1:] <= 0):
        raise DomainError("X rows must be strictly inside the open chamber "
                          "(apply collapse_walls first)")
    predicted = _predicted_evals(rs.n, plan, batch=rows.shape[0])
    if predicted > quad.budget_cap():
        raise BudgetExceededError(
            f"recursion needs ~{predicted:.3g} evaluations, cap is "
            f"{quad.budget_cap():.3g} (set DUNKL_BUDGET to raise)")
    if np.all(lam_a == lam_a[0]) or not len(rows):
        out = rows @ lam  # e^{lambda_1 sum x} exactly; an empty batch stays empty
    else:
        out = _log_psi(rs.k, lam_a, rows_a, plan, [0])
        # inactive coordinates contribute the plain pairing exponential
        if rs.coord_len > rs.n + 1:
            mask = np.ones(rs.coord_len, dtype=bool)
            mask[idx] = False
            out = out + rows[:, mask] @ lam[mask]
    if not np.all(np.isfinite(out)):
        bad = rows[int(np.where(~np.isfinite(out))[0][0])]
        raise EvaluationError("non-finite spherical value", location=tuple(bad))
    if batch or X.ndim > 1:
        return out
    return float(out[0])


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
    ``refined_plan``.
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
