"""Quadrature engine: Gauss rules with algebraic endpoint singularities,
exponentially tilted level rules, and semi-infinite log-space integrals.

Every quadrature rule in the package starts here, from scipy's reference rules (cached
per size and exponent) or ``panel_rule``'s Gauss-Legendre panels.  Two regimes matter:

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
from scipy.special import (roots_genlaguerre, roots_hermite, roots_jacobi,
                           roots_legendre)

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

@functools.cache
def _ref_jacobi(nodes: int, a_exp: float, b_exp: float):
    """Reference rule on [-1,1] for weight (1+x)^a_exp (1-x)^b_exp."""
    if a_exp <= -1 or b_exp <= -1:
        raise InvalidExponentError(
            f"Jacobi exponents must be > -1, got ({a_exp}, {b_exp})")
    # scipy weight is (1-x)^alpha (1+x)^beta
    return roots_jacobi(nodes, b_exp, a_exp)


@functools.cache
def _ref_genlaguerre(nodes: int, alpha: float):
    if alpha <= -1:
        raise InvalidExponentError(f"Laguerre exponent must be > -1, got {alpha}")
    return roots_genlaguerre(nodes, alpha)


@functools.cache
def _ref_legendre(nodes: int):
    return roots_legendre(nodes)


@functools.cache
def _ref_hermite(nodes: int):
    return roots_hermite(nodes)


def panel_rule(breakpoints, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, ``nodes`` on each panel between
    consecutive breakpoints, panel by panel in breakpoint order."""
    bps = np.asarray(breakpoints, dtype=float)
    xr, wr = _ref_legendre(nodes)
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
    geometric panels resolving those scales, with the u^alpha factor absorbed
    on the head panel.
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
        bps = np.geomspace(s_min, s_max, n_pan)
        pieces = []
        evals = 0
        # head panel [0, s_min]: absorb u^alpha, keep e^{-u} in the integrand
        x, w = jacobi_rule(max(8, Q // 4), alpha, 0.0, (0.0, s_min))
        pieces.append(logsumexp(np.log(w) - x + np.asarray(log_g(x), dtype=float)))
        evals += len(x)
        xr, wr = _ref_legendre(max(8, Q // 4))
        for lo, hi in zip(bps[:-1], bps[1:]):
            half = 0.5 * (hi - lo)
            x = 0.5 * (hi + lo) + half * xr
            lw = np.log(wr * half) + alpha * np.log(x) - x
            pieces.append(logsumexp(lw + np.asarray(log_g(x), dtype=float)))
            evals += len(x)
        return float(logsumexp(np.array(pieces))), evals

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
