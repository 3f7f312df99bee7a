"""Quadrature engine: Gauss rules with algebraic endpoint singularities,
exponentially tilted level rules, and semi-infinite log-space integrals.

Every quadrature rule in the package starts here, from the reference Gauss
rules that ``_gauss`` builds with numpy from their three-term recurrences
(cached per size and exponent) or ``panel_rule``'s Gauss-Legendre panels.
Two regimes matter:

* endpoint-singular algebraic factors (x-lo)^a (hi-x)^b with a, b > -1 are
  absorbed into Gauss-Jacobi weights so the integrand handed to a rule is
  smooth;
* levels whose integrand carries a factor ~ e^{mu y}, mu >= 0, with
  mu*(hi-lo) beyond what a Jacobi rule of the given size can resolve switch
  to a generalized Gauss-Laguerre rule in s = mu*(hi - y) at the upper end,
  the same substitution the sharp-estimate proofs use.  Nodes falling
  outside the interval are dropped; their weight mass is O(e^{-0.95 u}).

Every kernel value and lemma integral ends the same way: it is evaluated in
log space on a rule and on a refined rule, and ``refined`` turns the pair
into a ``KernelValue`` whose error indicator is the relative difference.  A non-finite refined log value
raises instead of leaving the library.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, EvaluationError, InvalidExponentError

_NEG_INF = -math.inf

DEFAULT_BUDGET = 10 ** 9


def budget_cap() -> float:
    """Global evaluation cap; DUNKL_BUDGET overrides the 1e9 default.

    The override must be a finite positive number: ``predicted > nan`` is
    False, so a NaN cap would silently switch every guard off.
    """
    raw = os.environ.get("DUNKL_BUDGET")
    if raw is None:
        return float(DEFAULT_BUDGET)
    try:
        cap = float(raw)
    except ValueError as exc:
        raise DomainError(f"DUNKL_BUDGET={raw!r} is not a number") from exc
    if not (math.isfinite(cap) and cap > 0):
        raise DomainError(f"DUNKL_BUDGET={raw!r} must be a finite positive number")
    return cap


@dataclass(frozen=True)
class KernelValue:
    """A numeric value with an a-posteriori refinement error indicator.

    ``err`` is |I(coarse) - I(refined)| in the units of ``value``;
    ``log_value`` is carried for positive kernels evaluated in log space
    (``value`` may then over/underflow to inf/0 while log_value stays finite).
    """

    value: float
    err: float
    evals: int
    log_value: float | None = None

    @property
    def rel_err(self) -> float:
        if self.value != 0.0 and math.isfinite(self.value):
            return abs(self.err / self.value)
        if self.log_value is not None and self.value in (0.0, math.inf):
            # err was formed in log space; keep its relative meaning
            return abs(self.err) if math.isfinite(self.err) else math.inf
        return math.inf

    def __float__(self) -> float:
        return self.value


def refined(lv: float, lv_fine: float, evals: int) -> KernelValue:
    """The refine-and-compare epilogue of every kernel.

    ``lv`` and ``lv_fine`` are the log values on a rule and on its
    refinement; the result carries ``lv_fine``, with the relative difference
    |expm1(lv - lv_fine)| as its error indicator in the units of ``value``
    (``value`` is inf, and ``err`` stays relative, once lv_fine >= 700).
    Raises EvaluationError if ``lv_fine`` is not finite.
    """
    if not math.isfinite(lv_fine):
        raise EvaluationError(f"non-finite log value {lv_fine!r}")
    err_rel = abs(math.expm1(lv - lv_fine))
    value = math.exp(lv_fine) if lv_fine < 700 else math.inf
    return KernelValue(value=value, err=err_rel * value if math.isfinite(value) else err_rel,
                       evals=evals, log_value=lv_fine)


# ---------------------------------------------------------------------------
# cached reference rules
# ---------------------------------------------------------------------------

def _gauss(diag: np.ndarray, beta: np.ndarray, ratio: np.ndarray, end: float,
           mu0: float, even: bool = False):
    """Gauss rule of the monic orthogonal polynomials p_{j+1} = (x - diag[j])
    p_j - beta[j] p_{j-1}, j < n = len(diag), beta[0] = 0, whose weight has
    mass ``mu0``; ``ratio`` holds p_{j+1}(end)/p_j(end) at an end of the
    support, in closed form.

    The nodes are the eigenvalues of the Jacobi matrix (Golub and Welsch,
    Math. Comp. 23 (1969) 221-230), improved by one Newton step on the
    recurrence; the weights are the Christoffel numbers
    1/sum_{j<n} p_j(x)^2/||p_j||^2 at the nodes, normalized to ``mu0``: a
    sum of positive terms, which keeps the relative accuracy of the tiny
    Laguerre tail weights that eigenvectors would not, and which moves
    less with a node's rounding near an end than 1/(p_{n-1} p_n') does.
    The recurrence runs on q_j = p_j(x)/p_j(end) and its steps
    q_j - q_{j-1}, which carry the factor x - end explicitly (the form of
    scipy's Laguerre and Jacobi evaluations), so the nodes that crowd at that
    end keep their relative accuracy.  It rescales its state every eight
    steps and keeps the log of the scale.  An even weight (``even``,
    ``end`` = 1) gets its nodes and weights mirrored from the upper half.
    """
    n = len(diag)
    off = np.sqrt(beta[1:])
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    gain = 1.0 / ratio
    carry = beta * np.append(0.0, gain[:-1]) * gain
    # p_j(end)^2/||p_j||^2 up to a constant factor, ||p_j||^2 = mu0 beta_1 ... beta_j
    norm = np.exp(np.cumsum(np.append(0.0, 2.0 * np.log(np.abs(ratio[:-1]))
                                      - np.log(beta[1:]))))

    def recur(x):
        """q_n' and q_n at x and sum_{j<n} norm_j q_j^2, the first two divided
        by e^{logscale} and the sum by its square."""
        t = x - end
        q, dq = np.ones_like(x), np.zeros_like(x)
        step, dstep = np.zeros_like(x), np.zeros_like(x)
        christoffel = np.zeros_like(x)
        logscale = np.zeros_like(x)
        for j in range(n):
            christoffel += norm[j] * q * q
            gt = gain[j] * t
            dstep = carry[j] * dstep + gain[j] * q + gt * dq
            step = carry[j] * step + gt * q
            q, dq = q + step, dq + dstep
            if j % 8 == 7:  # eight steps grow the state by far less than 1e300
                scale = np.abs(q) + np.abs(step)
                q, dq, step, dstep = q / scale, dq / scale, step / scale, dstep / scale
                christoffel /= scale * scale
                logscale += np.log(scale)
        return dq, q, christoffel, logscale

    dq, q, _, _ = recur(x)
    x = x - q / dq
    _, _, christoffel, logscale = recur(x)
    logw = -np.log(christoffel) - 2.0 * logscale
    w = np.exp(logw - logw.max())
    if even:  # the upper half is the accurate one
        half = n // 2
        x[:half], w[:half] = -x[:n - half - 1:-1], w[:n - half - 1:-1]
        x[half:n - half] = 0.0
    return x, w * (mu0 / w.sum())


@functools.cache
def _ref_jacobi(nodes: int, a_exp: float, b_exp: float):
    """Reference rule on [-1,1] for weight (1+x)^a_exp (1-x)^b_exp."""
    if a_exp <= -1 or b_exp <= -1:
        raise InvalidExponentError(
            f"Jacobi exponents must be > -1, got ({a_exp}, {b_exp})")
    # the Jacobi polynomials P^(a, b), weight (1-x)^a (1+x)^b, at end x = 1
    a, b = b_exp, a_exp
    j = np.arange(nodes, dtype=float)
    s = 2.0 * j + a + b
    with np.errstate(divide="ignore", invalid="ignore"):  # j = 0 and 1 are set below
        diag = (b * b - a * a) / (s * (s + 2.0))
        beta = 4.0 * j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1.0) * (s - 1.0))
        ratio = 2.0 * (j + a + 1.0) * (j + a + b + 1.0) / ((s + 1.0) * (s + 2.0))
    diag[0], beta[0], ratio[0] = (b - a) / (a + b + 2.0), 0.0, 2.0 * (a + 1.0) / (a + b + 2.0)
    if nodes > 1:
        beta[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    mu0 = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                   + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    return _gauss(diag, beta, ratio, 1.0, mu0, a == b)


@functools.cache
def _ref_genlaguerre(nodes: int, alpha: float):
    if alpha <= -1:
        raise InvalidExponentError(f"Laguerre exponent must be > -1, got {alpha}")
    j = np.arange(nodes, dtype=float)
    mu0 = math.gamma(alpha + 1.0) if alpha < 170.0 else math.inf
    return _gauss(2.0 * j + alpha + 1.0, j * (j + alpha), -(j + alpha + 1.0), 0.0, mu0)


@functools.cache
def _ref_hermite(nodes: int):
    """Gauss-Hermite from Gauss-Laguerre in t = x^2: H_{2m}(x) and
    H_{2m+1}(x)/x are multiples of L_m^(-1/2)(x^2) and L_m^(1/2)(x^2)."""
    m, odd = divmod(nodes, 2)
    t, w = _ref_genlaguerre(m, odd - 0.5) if m else (np.zeros(0), np.zeros(0))
    x, w = np.sqrt(t), (w / (2.0 * t) if odd else 0.5 * w)
    mid = [math.sqrt(math.pi) - 2.0 * w.sum()] if odd else []
    return (np.concatenate([-x[::-1], [0.0] * odd, x]),
            np.concatenate([w[::-1], mid, w]))


def panel_rule(breakpoints, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, ``nodes`` on each panel between
    consecutive breakpoints, panel by panel in breakpoint order."""
    bps = np.asarray(breakpoints, dtype=float)
    xr, wr = _ref_jacobi(nodes, 0.0, 0.0)
    mid = 0.5 * (bps[:-1] + bps[1:])
    half = 0.5 * (bps[1:] - bps[:-1])
    return ((mid[:, None] + half[:, None] * xr[None, :]).ravel(),
            (half[:, None] * wr[None, :]).ravel())


def jacobi_rule(nodes: int, a_exp: float, b_exp: float,
                interval: tuple[float, float]):
    """Nodes/weights on [lo, hi] against the weight (x-lo)^a_exp (hi-x)^b_exp.

    The weight sum equals B(a_exp+1, b_exp+1) * (hi-lo)^(a_exp+b_exp+1).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise DomainError(f"degenerate interval ({lo}, {hi})")
    x, w = _ref_jacobi(nodes, a_exp, b_exp)
    half = 0.5 * (hi - lo)
    pts = 0.5 * (hi + lo) + half * x
    wts = w * half ** (a_exp + b_exp + 1.0)
    return pts, wts


# ---------------------------------------------------------------------------
# batched level rule (the levels of spherical._level_rules)
# ---------------------------------------------------------------------------

#: switch to the tilted Laguerre rule once mu*(hi-lo) exceeds min(30, 2*Q)
TILT_SWITCH = 30.0
#: drop Laguerre nodes with s >= DROP_FRAC * u; the lost mass is ~e^{-DROP_FRAC*u}
DROP_FRAC = 0.95


def level_nodes(lo: np.ndarray, hi: np.ndarray, a_exp: float, b_exp: float,
                mu: float, nodes: int):
    """Batched 1-d rule for int_lo^hi f(y) (y-lo)^a (hi-y)^b dy, f ~ e^{mu y}.

    ``lo``, ``hi`` have shape (B,); ``mu`` >= 0 is the exponential slope of f
    along this level, shared by every row (a negative one raises DomainError:
    the recursion sorts lambda so that none is).  Returns (y, logw) of shape
    (B, nodes): sum over j of exp(logw[b, j]) * f(y[b, j]) approximates the
    integral for row b.  A tilted row's Laguerre rule in s = mu (hi - y)
    absorbs b; dropped tilted nodes get logw = -inf and a midpoint
    coordinate so downstream logs stay finite.
    """
    if mu < 0:
        raise DomainError(f"level slope must be >= 0, got {mu}")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    u = mu * (hi - lo)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    y = np.empty((lo.shape[0], nodes))
    logw = np.empty_like(y)

    jmask = u <= min(TILT_SWITCH, 2.0 * nodes)
    jac, tilt = np.flatnonzero(jmask), np.flatnonzero(~jmask)
    if jac.size:
        x, w = _ref_jacobi(nodes, a_exp, b_exp)
        y[jac] = mid[jac][:, None] + half[jac][:, None] * x
        logw[jac] = np.log(w) + (a_exp + b_exp + 1.0) * np.log(half[jac])[:, None]

    if tilt.size:
        s, w = _ref_genlaguerre(nodes, b_exp)
        ys = hi[tilt][:, None] - s / mu
        lw = (np.log(w) + s - (b_exp + 1.0) * np.log(mu)
              + a_exp * np.log(np.maximum(ys - lo[tilt][:, None], 1e-300)))
        drop = s >= DROP_FRAC * u[tilt][:, None]
        y[tilt] = np.where(drop, mid[tilt][:, None], ys)
        logw[tilt] = np.where(drop, _NEG_INF, lw)
    return y, logw


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """Stable log(sum(exp(a))); tolerates -inf entries."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


# ---------------------------------------------------------------------------
# semi-infinite exponentially weighted integrals (log space)
# ---------------------------------------------------------------------------

def exp_weighted_log_integral(log_g, alpha: float, nodes: int = 64,
                              scales: Sequence[float] = ()) -> KernelValue:
    """log-space evaluation of I = int_0^inf u^alpha e^{-u} g(u) du.

    ``log_g`` maps an array of u > 0 to log g(u) (g > 0).  When ``scales``
    lists small positive structure scales of g (positions of near-axis
    poles, e.g. a/b_i), the plain generalized-Laguerre rule is replaced by
    ``panel_rule``'s geometric panels resolving those scales, with the
    u^alpha factor absorbed on a Jacobi head panel; either rule's nodes take
    one ``log_g`` call and one logsumexp.
    """

    def run(Q: int) -> tuple[float, int]:
        finite_scales = [s for s in scales if 0 < s < 0.2]
        if not finite_scales:
            s, w = _ref_genlaguerre(Q, alpha)
            vals = np.log(w) + np.asarray(log_g(s), dtype=float)
            return float(logsumexp(vals)), len(s)
        s_min = min(min(finite_scales) * 1e-2, 1e-3)
        s_max = max(60.0, alpha + 20.0 * math.sqrt(abs(alpha) + 1.0))
        n_pan = max(4, int(3 * math.log10(s_max / s_min)) + 1)
        # head panel [0, s_min] absorbs u^alpha; e^{-u} stays in the integrand
        q = max(8, Q // 4)
        xh, wh = jacobi_rule(q, alpha, 0.0, (0.0, s_min))
        xp, wp = panel_rule(np.geomspace(s_min, s_max, n_pan), q)
        x = np.concatenate([xh, xp])
        lw = np.concatenate([np.log(wh), np.log(wp) + alpha * np.log(xp)]) - x
        return float(logsumexp(lw + np.asarray(log_g(x), dtype=float))), len(x)

    lv_coarse, n1 = run(nodes)
    lv_fine, n2 = run(2 * nodes)
    return refined(lv_coarse, lv_fine, n1 + n2)


def log_panel_integral(log_f, lo: float, hi: float, panels_per_decade: int = 4,
                       nodes: int = 16) -> float:
    """log of int_lo^hi f, f > 0, via geometric Legendre panels (log spaced)."""
    if not (0 < lo < hi):
        raise DomainError("log_panel_integral needs 0 < lo < hi")
    n_pan = max(2, int(panels_per_decade * math.log10(hi / lo)) + 1)
    x, w = panel_rule(np.geomspace(lo, hi, n_pan + 1), nodes)
    return float(logsumexp(np.log(w) + np.asarray(log_f(x), dtype=float)))
