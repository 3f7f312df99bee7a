"""Executable oracles for the integral lemmas behind the sharp estimates.

Each lemma_* function returns the ratio of the lemma's integral to its
claimed comparison function; a bounded-ratio sweep over a scale-straddling
grid is the numerical certificate.  prop_In evaluates the rank-n reduction
integral with the estimate-propagated inner factor (the quantity the
induction actually bounds), and prop_truncated_ratio checks that the half
box [M_n, x_n] already carries a definite fraction of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quad
from .errors import BudgetExceededError, DomainError
from .quad import KernelValue, exp_weighted_log_integral, logsumexp
from .rootsys import RootSystemA, ensure_chamber
from .spherical import _log_poisson, check_plan, default_node_plan, interlacing_grid

#: the relative drift a lemma ratio may show under (a, b) -> (ca, cb)
SCALE_TOLERANCE = 0.05


@dataclass(frozen=True)
class AsympClaim:
    """A recorded bounded-ratio certificate for one lemma/proposition."""

    claim_id: str
    grid: str
    bracket: tuple[float, float]
    count: int

    def __post_init__(self):
        if not (0.0 < self.bracket[0] <= self.bracket[1] < math.inf):
            raise DomainError(f"bracket must be finite positive, got {self.bracket}")

    @property
    def spread(self) -> float:
        return self.bracket[1] / self.bracket[0]


# ---------------------------------------------------------------------------
# 1-d lemma ratios
# ---------------------------------------------------------------------------

def _gammainc(a: float, x: float) -> float:
    """The regularized lower incomplete gamma P(a, x) at a > 0, x > 0 (inf
    included): x^a e^{-x}/Gamma(a+1) sum_j x^j/((a+1)...(a+j)) for x < a + 1
    (DLMF 8.7.1), else 1 - Q(a, x) with Q by Legendre's continued fraction
    (DLMF 8.9.2) in Lentz's form.  The prefactor is ``_log_poisson``'s, so it
    keeps its accuracy where a log x and log Gamma(a+1) are large; it
    underflows to 0 where P leaves the float range."""
    if x == math.inf:
        return 1.0
    log_pref = float(_log_poisson(np.array([a]), np.array([x]))[0])
    if x < a + 1.0:
        acc, term, j = 1.0, 1.0, 0
        while term > 1e-17 * acc:
            j += 1
            term *= x / (a + j)
            acc += term
        return math.exp(log_pref + math.log(acc))
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return 1.0 - math.exp(log_pref + math.log(a)) * h


def lemma_A_ratio(k: float, x: float) -> float:
    """[int_0^x u^{k-1} e^{-u} du] / (x/(1+x))^k; the x=0 limit is 1/k and
    the x=inf limit Gamma(k).

    Where Gamma(k) overflows (k >= 171) or P(k, x) leaves the normal float
    range (x << k), the ratio is summed in log space; raises DomainError
    where the ratio itself overflows float64.
    """
    if not (k > 0 and x >= 0 and math.isfinite(k)):
        raise DomainError("need finite k > 0 and x >= 0")
    if x == 0.0:
        return 1.0 / k
    if x < 1e-8:
        # Taylor head: gamma(k,x) = x^k/k (1 - k x/(k+1) + ...)
        return (1.0 + x) ** k * (1.0 - k * x / (k + 1.0)) / k
    p = _gammainc(k, x)
    if k < 171.0 and p > 1e-290 and x < math.inf:
        return math.gamma(k) * p * ((1.0 + x) / x) ** k
    if p > 1e-290:
        log_ratio = math.lgamma(k) + math.log(p) + k * math.log1p(1.0 / x)
    else:
        # gamma(k,x) = x^k e^{-x} sum_j x^j / (k (k+1) ... (k+j)); p this
        # small needs x < k, so the terms fall
        acc, term, j = 0.0, 1.0 / k, 0
        while term > 1e-17 * acc:
            acc += term
            j += 1
            term *= x / (k + j)
        log_ratio = k * math.log1p(x) - x + math.log(acc)
    if log_ratio > 709.0:
        raise DomainError(f"lemma A ratio overflows float64 at k={k:g}, x={x:g}")
    return math.exp(log_ratio)


def _ratio_integral(k: float, N: float, a: float, b: Sequence[float]) -> float:
    """log of int_0^inf u^N e^{-u} prod (a + b_i u)^{-k} du (64-node rule);
    raises DomainError unless k, N, a and every b_i are finite, before any
    of them reaches a log."""
    b = [float(bi) for bi in b]
    if not all(math.isfinite(v) for v in (k, N, a, *b)):
        raise DomainError(f"need finite k, N, a and b_i, got k={k}, N={N}, a={a}, b={b}")
    if a < 0 or any(bi < 0 for bi in b):
        raise DomainError("need a >= 0 and b_i >= 0")
    if any(a + bi <= 0 for bi in b):
        raise DomainError("need a + b_i > 0 for every i")
    if a == 0.0:
        # all b_i > 0 here: Gamma(N - k m + 1) prod b_i^{-k}
        alpha = N - k * len(b)
        if alpha <= -1:
            raise DomainError(f"integral diverges at 0: N={N} <= k*m-1={k * len(b) - 1}")
        return math.lgamma(alpha + 1.0) - k * sum(math.log(bi) for bi in b)
    scales = [a / bi for bi in b if bi > 0]

    def log_g(u):
        out = np.zeros_like(u)
        for bi in b:
            out = out - k * np.log(a + bi * u)
        return out

    kv = exp_weighted_log_integral(log_g, N, 64, scales=scales)
    return kv.log_value


def lemma_ai_ratio(k: float, N: float, a: float, b: Sequence[float]) -> float:
    """[int_0^inf u^N e^{-u} du / prod (a+b_i u)^k] * prod (a+b_i)^k.

    Requires N > k*m - 1 (the divergence guard of the lemma).
    """
    b = [float(bi) for bi in b]
    if not k > 0:
        raise DomainError("need k > 0")
    if N <= k * len(b) - 1.0:
        raise DomainError(f"precondition N > k*m - 1 violated: {N} <= {k * len(b) - 1}")
    log_j = _ratio_integral(k, N, a, b)
    return math.exp(log_j + k * sum(math.log(a + bi) for bi in b))


def lemma_a1_ratio(k: float, a: float, b: float) -> float:
    """[int_0^inf u^{k-1} e^{-u} (a+bu)^{-k} du] * (a+b)^k / ln(2 + b/a)."""
    if not k > 0:
        raise DomainError("need k > 0")
    if not a > 0:
        raise DomainError("lemma a1 requires a > 0")
    if b < 0:
        raise DomainError("need b >= 0")
    log_j = _ratio_integral(k, k - 1.0, a, [b])
    return math.exp(log_j + k * math.log(a + b)) / math.log(2.0 + b / a)


def lemma_a2_ratio(k: float, a: float, b1: float, b2: float, b3: float) -> float:
    """Three-factor variant with u^{3k-1}; comparison ln(2+b1/a)/prod(a+b_i)^k."""
    if not k > 0:
        raise DomainError("need k > 0")
    if not (0.0 <= b1 <= b2 <= b3):
        raise DomainError("need 0 <= b1 <= b2 <= b3")
    if a == 0.0:
        # the displayed RHS blows up for b1 > 0 and degenerates for b1 = 0;
        # the certified grid is restricted to a > 0
        raise DomainError("lemma a2 ratio is certified for a > 0 only")
    log_j = _ratio_integral(k, 3.0 * k - 1.0, a, [b1, b2, b3])
    rhs = math.log(2.0 + b1 / a)
    return math.exp(log_j + k * (math.log(a + b1) + math.log(a + b2)
                                 + math.log(a + b3))) / rhs


# ---------------------------------------------------------------------------
# the reduction integral I^(n) and its truncation
# ---------------------------------------------------------------------------

def _log_In(rs: RootSystemA, lam, X, Q: int, restrict_top: bool) -> float:
    """log I^(n) on Q nodes a level (optionally with y_n restricted to [M_n, x_n]).

    The inner factor is the target envelope propagated through the
    integrand: e^{-mu_i (x_i - y_i)} per level and
    (1 + (lambda_i - lambda_j)(y_i - y_j))^{-k} per pair.
    """
    k = rs.k
    lam_a = rs.active(ensure_chamber(rs, lam))
    X_a = rs.active(ensure_chamber(rs, X, strict=True))
    m = rs.n
    if Q ** m > quad.budget_cap():
        raise BudgetExceededError(f"I^(n) needs ~{Q ** m:.3g} evaluations")
    mu = lam_a[:m] - lam_a[m]
    top_lo = 0.5 * (X_a[m - 1] + X_a[m]) if restrict_top else None  # M_n
    # lambda may be out of order by CHAMBER_TOL; the level rules take slopes >= 0
    ygr, logf = interlacing_grid(k, X_a[None, :], np.maximum(mu, 0.0), Q, top_lo)
    for i in range(m):
        logf = logf + mu[i] * (ygr[i] - X_a[i])
        for j in range(i + 1, m):
            logf = logf - k * np.log1p((lam_a[i] - lam_a[j]) * (ygr[i] - ygr[j]))
    return float(logsumexp(logf.reshape(-1)))


def prop_In(rs: RootSystemA, lam, X, plan: Sequence[int] | None = None) -> KernelValue:
    """The n-fold reduction integral I^(n), with refinement error indicator
    (plan[0] nodes a level against twice as many); ``evals`` counts the
    Q^n + (2Q)^n integrand values of the two interlacing grids."""
    Q = default_node_plan(rs.n)[0] if plan is None else check_plan(plan)[0]
    lv = _log_In(rs, lam, X, Q, restrict_top=False)
    lv2 = _log_In(rs, lam, X, 2 * Q, restrict_top=False)
    return quad.refined(lv, lv2, evals=Q ** rs.n + (2 * Q) ** rs.n)


def log_prop_In_target(rs: RootSystemA, lam, X) -> float:
    """log of pi(X)^{2k-1} / prod (1 + (lambda_i-lambda_j)(x_i-x_j))^k."""
    lam_a = rs.active(np.asarray(lam, float))
    X_a = rs.active(np.asarray(X, float))
    out = 0.0
    for i in range(rs.n + 1):
        for j in range(i + 1, rs.n + 1):
            out += (2.0 * rs.k - 1.0) * math.log(X_a[i] - X_a[j])
            out -= rs.k * math.log1p((lam_a[i] - lam_a[j]) * (X_a[i] - X_a[j]))
    return out


def prop_truncated_ratio(rs: RootSystemA, lam, X,
                         plan: Sequence[int] | None = None) -> float:
    """I_1 / I^(n) where I_1 restricts y_n to [M_n, x_n]; lies in (0, 1].

    Precondition: x_n - x_{n+1} is maximal among the simple-root gaps of X.
    """
    X_a = rs.active(np.asarray(X, float))
    gaps = X_a[:-1] - X_a[1:]
    if gaps[-1] < gaps.max() - 1e-12 * max(1.0, float(np.abs(X_a).max())):
        raise DomainError(
            "precondition: x_n - x_{n+1} must be the largest simple-root gap")
    Q = default_node_plan(rs.n)[0] if plan is None else check_plan(plan)[0]
    l_full = _log_In(rs, lam, X, Q, restrict_top=False)
    l_half = _log_In(rs, lam, X, Q, restrict_top=True)
    return math.exp(l_half - l_full)


# ---------------------------------------------------------------------------
# recorded sweeps (used by `dunkl lemma`)
# ---------------------------------------------------------------------------

CLAIM_IDS = ("lemma_A", "lemma_ai", "lemma_a1", "lemma_a2",
             "prop_In", "prop_truncated")


def _bracket(vals) -> tuple[float, float]:
    vals = [float(v) for v in vals]
    if not vals or not all(math.isfinite(v) and v > 0 for v in vals):
        raise DomainError("sweep produced a non-finite or non-positive ratio")
    return (min(vals), max(vals))


def sweep_claim(claim_id: str) -> tuple[AsympClaim, bool, str]:
    """Run the default bounded-ratio sweep for one claim.

    Returns the recorded bracket, whether it passed (finite positive bracket,
    scale-invariance within tolerance, plus claim-specific checks), and a
    one-line detail.
    """
    if claim_id == "lemma_A":
        vals, notes = [], []
        ok = True
        for k in (0.25, 0.5, 1.0, 2.0, 4.0):
            rs_vals = [lemma_A_ratio(k, x) for x in np.geomspace(1e-6, 1e6, 25)]
            vals += rs_vals
            lo_lim, hi_lim = 1.0 / k, math.exp(math.lgamma(k))
            band = (min(lo_lim, hi_lim) / 2.0, 2.0 * max(lo_lim, hi_lim))
            if not (band[0] <= min(rs_vals) and max(rs_vals) <= band[1]):
                ok = False
                notes.append(f"k={k} escaped [{band[0]:.4g}, {band[1]:.4g}]")
        claim = AsympClaim("lemma_A", "k in {0.25..4}, x in [1e-6,1e6]",
                           _bracket(vals), len(vals))
        return claim, ok, "; ".join(notes) or "limits 1/k and Gamma(k) bracketed"

    if claim_id == "lemma_ai":
        vals = []
        ok = True
        for k in (0.5, 1.0, 2.0):
            for b in ([1.0], [0.3, 4.0], [0.01, 1.0, 150.0]):
                N = k * len(b) + 0.7
                for a in (0.0, 0.4, 3.0):
                    if a == 0.0 and any(bi == 0 for bi in b):
                        continue
                    base = lemma_ai_ratio(k, N, a, b)
                    vals.append(base)
                    for c in (1e-3, 1e3):
                        scaled = lemma_ai_ratio(k, N, c * a, [c * bi for bi in b])
                        if abs(scaled / base - 1.0) > SCALE_TOLERANCE:
                            ok = False
        claim = AsympClaim("lemma_ai", "k,m,a,b grid + (a,b)->(ca,cb)",
                           _bracket(vals), len(vals))
        return claim, ok, f"scale drift within {SCALE_TOLERANCE:.0%}" if ok else "scale drift"

    if claim_id == "lemma_a1":
        vals = []
        ok = True
        for k in (0.5, 1.0, 2.0):
            for ba in np.geomspace(1e-4, 1e6, 21):
                vals.append(lemma_a1_ratio(k, 1.0, float(ba)))
            vals.append(lemma_a1_ratio(k, 1.0, 0.0))
        base = lemma_a1_ratio(1.0, 1.0, 1.0)
        for c in (1e-3, 1e3):
            if abs(lemma_a1_ratio(1.0, c, c) / base - 1.0) > SCALE_TOLERANCE:
                ok = False
        claim = AsympClaim("lemma_a1", "k grid, b/a in [0, 1e6]",
                           _bracket(vals), len(vals))
        return claim, ok, f"bracket spread {claim.spread:.4g}"

    if claim_id == "lemma_a2":
        vals = []
        ok = True
        for k in (0.5, 1.0, 2.0):
            for b1 in np.geomspace(1e-3, 1e3, 7):
                for growth in (1.0, 5.0):
                    b = (float(b1), float(b1 * growth), float(b1 * growth ** 2))
                    base = lemma_a2_ratio(k, 1.0, *b)
                    vals.append(base)
            base = lemma_a2_ratio(k, 1.0, 0.5, 1.0, 8.0)
            for c in (1e-3, 1e3):
                scaled = lemma_a2_ratio(k, c * 1.0, c * 0.5, c * 1.0, c * 8.0)
                if abs(scaled / base - 1.0) > SCALE_TOLERANCE:
                    ok = False
        claim = AsympClaim("lemma_a2", "k grid, ordered b straddling a",
                           _bracket(vals), len(vals))
        return claim, ok, f"bracket spread {claim.spread:.4g}"

    if claim_id == "prop_In":
        from .rootsys import rootsystem
        from .spherical import pairing_sweep_grid
        vals = []
        for n in (1, 2):
            for k in (0.5, 1.0, 2.0):
                rs = rootsystem(n, k)
                for lam, X in pairing_sweep_grid(rs, span=(1e-2, 1e3), num=7):
                    lv = _log_In(rs, lam, X, default_node_plan(n)[0],
                                 restrict_top=False)
                    vals.append(math.exp(lv - log_prop_In_target(rs, lam, X)))
        claim = AsympClaim("prop_In", "A_1/A_2, k grid, pairing in [1e-2,1e3]",
                           _bracket(vals), len(vals))
        return claim, True, f"bracket spread {claim.spread:.4g}"

    if claim_id == "prop_truncated":
        from .rootsys import rootsystem
        vals = []
        ok = True
        for n in (1, 2):
            for k in (0.5, 1.0, 2.0):
                rs = rootsystem(n, k)
                X = np.array([1.0, 0.0]) if n == 1 else np.array([1.6, 0.9, -0.3])
                for scale in np.geomspace(1e-2, 1e3, 7):
                    lam = scale * (np.array([1.0, 0.0]) if n == 1
                                   else np.array([2.0, 0.8, 0.0]))
                    r = prop_truncated_ratio(rs, lam, X)
                    vals.append(r)
                    if not (0.0 < r <= 1.0 + 1e-9):
                        ok = False
        claim = AsympClaim("prop_truncated", "A_1/A_2, lambda scale sweep",
                           _bracket(vals), len(vals))
        return claim, ok, f"I1/I in ({claim.bracket[0]:.4g}, {claim.bracket[1]:.4g}]"

    raise DomainError(f"unknown claim id {claim_id!r}; know {CLAIM_IDS}")
