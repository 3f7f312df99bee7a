"""Quadrature engine: Gauss rules with algebraic endpoint singularities,
exponentially tilted level rules, nested tensor integration, and
semi-infinite log-space integrals.

Every integral in the package routes through here.  Two regimes matter:

* endpoint-singular algebraic factors (x-lo)^a (hi-x)^b with a, b > -1 are
  absorbed into Gauss-Jacobi weights so the integrand handed to a rule is
  smooth;
* levels whose integrand carries a factor ~ e^{mu y} with |mu|*(hi-lo)
  beyond what a Jacobi rule of the given size can resolve switch to a
  generalized Gauss-Laguerre rule in the variable s = |mu|*(hot_end - y),
  the same substitution the sharp-estimate proofs use.  Nodes falling
  outside the interval are dropped; their weight mass is O(e^{-0.95 u}).

A-posteriori error indicators come from refining the node count by
``refine_factor`` and differencing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import (betaln, roots_genlaguerre, roots_hermite,
                           roots_jacobi, roots_legendre)

from .errors import (BudgetExceededError, DomainError, EvaluationError,
                     InvalidExponentError)

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

    ``err`` is |I(nodes) - I(refine_factor*nodes)| in the units of ``value``;
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


_FAMILIES = ("gauss_jacobi", "gauss_legendre", "gauss_laguerre", "adaptive_simpson")


@dataclass(frozen=True)
class QuadratureSpec:
    family: str = "gauss_legendre"
    nodes: int = 32
    left_exponent: float = 0.0
    right_exponent: float = 0.0
    refine_factor: int = 2

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.nodes < 2:
            raise DomainError("nodes must be >= 2")
        if self.refine_factor < 2:
            raise DomainError("refine_factor must be >= 2")
        if self.family == "gauss_jacobi" and (
                self.left_exponent <= -1 or self.right_exponent <= -1):
            raise InvalidExponentError("Jacobi exponents must be > -1")


# ---------------------------------------------------------------------------
# cached reference rules
# ---------------------------------------------------------------------------

_rule_cache: dict = {}


def _ref_jacobi(nodes: int, a_exp: float, b_exp: float):
    """Reference rule on [-1,1] for weight (1+x)^a_exp (1-x)^b_exp."""
    if a_exp <= -1 or b_exp <= -1:
        raise InvalidExponentError(
            f"Jacobi exponents must be > -1, got ({a_exp}, {b_exp})")
    key = ("jac", nodes, a_exp, b_exp)
    if key not in _rule_cache:
        # scipy weight is (1-x)^alpha (1+x)^beta
        _rule_cache[key] = roots_jacobi(nodes, b_exp, a_exp)
    return _rule_cache[key]


def _ref_genlaguerre(nodes: int, alpha: float):
    if alpha <= -1:
        raise InvalidExponentError(f"Laguerre exponent must be > -1, got {alpha}")
    key = ("lag", nodes, alpha)
    if key not in _rule_cache:
        _rule_cache[key] = roots_genlaguerre(nodes, alpha)
    return _rule_cache[key]


def _ref_legendre(nodes: int):
    key = ("leg", nodes)
    if key not in _rule_cache:
        _rule_cache[key] = roots_legendre(nodes)
    return _rule_cache[key]


def _ref_hermite(nodes: int):
    key = ("her", nodes)
    if key not in _rule_cache:
        _rule_cache[key] = roots_hermite(nodes)
    return _rule_cache[key]


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


def jacobi_weight_sum(a_exp: float, b_exp: float, interval) -> float:
    lo, hi = interval
    return math.exp(betaln(a_exp + 1.0, b_exp + 1.0)
                    + (a_exp + b_exp + 1.0) * math.log(hi - lo))


# ---------------------------------------------------------------------------
# batched level rule (shared by the spherical recursion and prop_In)
# ---------------------------------------------------------------------------

#: switch to the tilted Laguerre rule once |mu|*(hi-lo) exceeds min(30, 2*Q)
TILT_SWITCH = 30.0
#: drop Laguerre nodes with s >= DROP_FRAC * u; the lost mass is ~e^{-DROP_FRAC*u}
DROP_FRAC = 0.95


def level_nodes(lo: np.ndarray, hi: np.ndarray, a_exp: float, b_exp: float,
                mu, nodes: int):
    """Batched 1-d rule for int_lo^hi f(y) (y-lo)^a (hi-y)^b dy, f ~ e^{mu y}.

    ``lo``, ``hi`` have shape (B,); ``mu`` is a scalar or (B,) array giving
    the exponential slope of f along this level.  Returns (y, logw) of shape
    (B, nodes): sum over j of exp(logw[b, j]) * f(y[b, j]) approximates the
    integral for row b.  Dropped tilted nodes get logw = -inf and a midpoint
    coordinate so downstream logs stay finite.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    B = lo.shape[0]
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (B,))
    L = hi - lo
    u = mu * L
    u_switch = min(TILT_SWITCH, 2.0 * nodes)

    y = np.empty((B, nodes))
    logw = np.empty((B, nodes))

    jmask = np.abs(u) <= u_switch
    if jmask.any():
        xj, wj = _ref_jacobi(nodes, a_exp, b_exp)
        idx = np.where(jmask)[0]
        mid = 0.5 * (hi[idx] + lo[idx])
        half = 0.5 * L[idx]
        y[idx] = mid[:, None] + half[:, None] * xj[None, :]
        logw[idx] = np.log(wj)[None, :] + (a_exp + b_exp + 1.0) * np.log(half)[:, None]

    tmask = ~jmask
    if tmask.any():
        idx = np.where(tmask)[0]
        mui = mu[idx]
        ui = np.abs(u[idx])
        pos = mui > 0
        # hot endpoint carries exponent b (at hi) when mu>0, else a (at lo)
        hot_exp = np.where(pos, b_exp, a_exp)
        cold_exp = np.where(pos, a_exp, b_exp)
        yi = np.empty((len(idx), nodes))
        lw = np.empty((len(idx), nodes))
        for exp_val in np.unique(hot_exp):
            sub = hot_exp == exp_val
            s, w = _ref_genlaguerre(nodes, float(exp_val))
            rows = np.where(sub)[0]
            off = s[None, :] / np.abs(mui[rows])[:, None]
            drop = s[None, :] >= DROP_FRAC * ui[rows][:, None]
            ys = np.where(pos[rows][:, None], hi[idx][rows][:, None] - off,
                          lo[idx][rows][:, None] + off)
            other = np.where(pos[rows][:, None], ys - lo[idx][rows][:, None],
                             hi[idx][rows][:, None] - ys)
            lwr = (np.log(w)[None, :] + s[None, :]
                   - (exp_val + 1.0) * np.log(np.abs(mui[rows]))[:, None]
                   + cold_exp[rows][:, None] * np.log(np.maximum(other, 1e-300)))
            lwr[drop] = _NEG_INF
            mid = (0.5 * (hi[idx][rows] + lo[idx][rows]))[:, None]
            ys = np.where(drop, np.broadcast_to(mid, ys.shape), ys)
            yi[rows] = ys
            lw[rows] = lwr
        y[idx] = yi
        logw[idx] = lw
    return y, logw


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """Stable log(sum(exp(a))); tolerates -inf entries."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


# ---------------------------------------------------------------------------
# one-dimensional integration
# ---------------------------------------------------------------------------

def _eval_checked(f: Callable, x: np.ndarray) -> np.ndarray:
    vals = np.array([f(float(xi)) for xi in x], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = x[~np.isfinite(vals)][0]
        raise EvaluationError(f"integrand non-finite at node {bad!r}", location=float(bad))
    return vals


def _fixed_rule_value(spec: QuadratureSpec, f, interval, nodes: int):
    lo, hi = float(interval[0]), float(interval[1])
    if spec.family == "gauss_jacobi":
        x, w = jacobi_rule(nodes, spec.left_exponent, spec.right_exponent, (lo, hi))
    elif spec.family == "gauss_legendre":
        xr, wr = _ref_legendre(nodes)
        half = 0.5 * (hi - lo)
        x = 0.5 * (hi + lo) + half * xr
        w = wr * half
    elif spec.family == "gauss_laguerre":
        if not math.isinf(hi):
            raise DomainError("gauss_laguerre expects interval (lo, inf)")
        s, w = _ref_genlaguerre(nodes, spec.left_exponent)
        x = lo + s
    else:
        raise DomainError(f"family {spec.family} has no fixed rule")
    vals = _eval_checked(f, x)
    return float(vals @ w), len(x)


def _adaptive_panels(f, lo, hi, tol, nodes, max_depth=24):
    """Endpoint-free adaptive bisection; Simpson-style accept test on panels."""
    xr, wr = _ref_legendre(nodes)
    evals = 0

    def panel(a, b):
        nonlocal evals
        half = 0.5 * (b - a)
        x = 0.5 * (a + b) + half * xr
        vals = _eval_checked(f, x)
        evals += len(x)
        return float(vals @ wr) * half

    def recurse(a, b, whole, depth):
        mid = 0.5 * (a + b)
        left = panel(a, mid)
        right = panel(mid, b)
        err = abs(left + right - whole)
        if err <= tol * max(1.0, abs(left + right)) or depth >= max_depth:
            return left + right, err
        lv, le = recurse(a, mid, left, depth + 1)
        rv, re = recurse(mid, b, right, depth + 1)
        return lv + rv, le + re

    first = panel(lo, hi)
    value, err = recurse(lo, hi, first, 0)
    return value, err, evals


def integrate_1d(spec: QuadratureSpec, f: Callable[[float], float],
                 interval: tuple[float, float]) -> KernelValue:
    """Integrate f against the spec's absorbed weight over the interval.

    For gauss_jacobi the absorbed weight is (x-lo)^left (hi-x)^right; for
    gauss_laguerre it is (u-lo)^left e^{-(u-lo)} on (lo, inf).  f itself is
    only ever sampled at interior nodes.
    """
    if spec.family == "adaptive_simpson":
        value, err, evals = _adaptive_panels(f, float(interval[0]), float(interval[1]),
                                             tol=1e-12, nodes=10)
        return KernelValue(value=value, err=err, evals=evals)
    coarse, n1 = _fixed_rule_value(spec, f, interval, spec.nodes)
    fine, n2 = _fixed_rule_value(spec, f, interval, spec.refine_factor * spec.nodes)
    return KernelValue(value=fine, err=abs(fine - coarse), evals=n1 + n2)


# ---------------------------------------------------------------------------
# nested (tensorized) integration over interlacing boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NestedDomain:
    """Per-level intervals [lo_i, hi_i] with endpoint exponents and tilts.

    Level i integrates y_i over (lo_i, hi_i) against the absorbed weight
    (y_i - lo_i)^{a_i} (hi_i - y_i)^{b_i}; ``tilts`` give the per-level
    exponential slope of the remaining integrand (0 = none).
    """

    levels: tuple[tuple[float, float], ...]
    exponents: tuple[tuple[float, float], ...]
    tilts: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.levels:
            raise DomainError("need at least one level")
        if len(self.exponents) != len(self.levels):
            raise DomainError("one exponent pair per level required")
        for lo, hi in self.levels:
            if not hi > lo:
                raise DomainError(f"degenerate level ({lo}, {hi})")
        if not self.tilts:
            object.__setattr__(self, "tilts", (0.0,) * len(self.levels))
        elif len(self.tilts) != len(self.levels):
            raise DomainError("one tilt per level required")

    @classmethod
    def from_chamber(cls, X_active: Sequence[float], a_exp: float, b_exp: float,
                     tilts: Sequence[float] = ()) -> "NestedDomain":
        """Interlacing levels [x_{i+1}, x_i] below a chamber vector."""
        x = list(map(float, X_active))
        levels = tuple((x[i + 1], x[i]) for i in range(len(x) - 1))
        return cls(levels=levels, exponents=((a_exp, b_exp),) * len(levels),
                   tilts=tuple(tilts))

    @property
    def depth(self) -> int:
        return len(self.levels)


def _nested_fixed(domain: NestedDomain, integrand, node_counts) -> tuple[float, int]:
    m = domain.depth
    ys, lws = [], []
    for i in range(m):
        lo, hi = domain.levels[i]
        a, b = domain.exponents[i]
        y, lw = level_nodes(np.array([lo]), np.array([hi]), a, b,
                            np.array([domain.tilts[i]]), node_counts[i])
        ys.append(y[0])
        lws.append(lw[0])
    grids = np.meshgrid(*ys, indexing="ij")
    Y = np.stack([g.ravel() for g in grids], axis=-1)
    W = np.zeros([len(y) for y in ys])
    for i in range(m):
        shape = [1] * m
        shape[i] = len(ys[i])
        W = W + lws[i].reshape(shape)
    W = W.ravel()
    try:
        vals = np.asarray(integrand(Y), dtype=float)
        if vals.shape != (Y.shape[0],):
            raise TypeError
    except TypeError:
        vals = np.array([integrand(row) for row in Y], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = Y[~np.isfinite(vals)][0]
        raise EvaluationError(f"integrand non-finite at node {bad!r}",
                              location=tuple(bad))
    return float(np.exp(W) @ vals), Y.shape[0]


def integrate_nested(domain: NestedDomain, integrand,
                     specs: Sequence[QuadratureSpec]) -> KernelValue:
    """Tensorized iterated integral over the domain's levels.

    ``integrand`` receives the full vector (y_1, ..., y_m) — either one row
    at a time or, if it accepts an (P, m) array, in a single vectorized call.
    Raises BudgetExceededError before evaluating anything if the total node
    product exceeds the global cap.
    """
    if len(specs) != domain.depth:
        raise DomainError("one QuadratureSpec per level required")
    counts = [s.nodes for s in specs]
    rf = max(s.refine_factor for s in specs)
    total = math.prod(counts) + math.prod(rf * c for c in counts)
    if total > budget_cap():
        raise BudgetExceededError(
            f"nested rule needs {total:.3g} evaluations, cap is {budget_cap():.3g}")
    coarse, n1 = _nested_fixed(domain, integrand, counts)
    fine, n2 = _nested_fixed(domain, integrand, [rf * c for c in counts])
    return KernelValue(value=fine, err=abs(fine - coarse), evals=n1 + n2)


# ---------------------------------------------------------------------------
# semi-infinite exponentially weighted integrals (log space)
# ---------------------------------------------------------------------------

def exp_weighted_log_integral(log_g, alpha: float, nodes: int = 64,
                              scales: Sequence[float] = (),
                              refine_factor: int = 2) -> KernelValue:
    """log-space evaluation of I = int_0^inf u^alpha e^{-u} g(u) du.

    ``log_g`` maps an array of u > 0 to log g(u) (g > 0).  When ``scales``
    lists small positive structure scales of g (posititions of near-axis
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
    lv_fine, n2 = run(refine_factor * nodes)
    err_rel = abs(math.expm1(lv_coarse - lv_fine)) if math.isfinite(lv_fine) else math.inf
    value = math.exp(lv_fine) if lv_fine < 700 else math.inf
    return KernelValue(value=value, err=err_rel * value if math.isfinite(value) else err_rel,
                       evals=n1 + n2, log_value=lv_fine)


def log_panel_integral(log_f, lo: float, hi: float, panels_per_decade: int = 4,
                       nodes: int = 16) -> float:
    """log of int_lo^hi f, f > 0, via geometric Legendre panels (log spaced)."""
    if not (0 < lo < hi):
        raise DomainError("log_panel_integral needs 0 < lo < hi")
    n_pan = max(2, int(panels_per_decade * math.log10(hi / lo)) + 1)
    bps = np.geomspace(lo, hi, n_pan + 1)
    xr, wr = _ref_legendre(nodes)
    pieces = []
    for a, b in zip(bps[:-1], bps[1:]):
        half = 0.5 * (b - a)
        x = 0.5 * (a + b) + half * xr
        pieces.append(logsumexp(np.log(wr * half) + np.asarray(log_f(x), dtype=float)))
    return float(logsumexp(np.array(pieces)))
