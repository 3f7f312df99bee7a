"""s-stable W-invariant semigroups by subordination of the heat kernel.

The subordinator density eta_t (Laplace transform e^{-t z^{s/2}}) is the
closed form t (4 pi)^{-1/2} u^{-3/2} e^{-t^2/(4u)} at s = 1 and Kanter's
positive-integrand form of the Zolotarev representation otherwise, valid
for every s/2 in (0,1) and log-space stable down to the essential
singularity at u -> 0.  ``subordinator_inversion``, the pi-rotated Bromwich
integral, is an independent third evaluation for checks; it is sound only
while the oscillatory mass leaves float64 headroom.

``stable_exact`` integrates heat kernels against eta_t over u with log-spaced
panels about the regime boundary u* = t^{2/s}; the envelope is the
Euclidean stable bound divided by prod (t^{2/s} + |X-Y|^2 + alpha(X)alpha(Y))^k.
The u-rule is scale free: eta_t(u* v) = f_beta(v) / u* with f_beta = eta_1, so
the rule is built once in v = u/u* and log f_beta on its nodes is cached per
(s, rule); each row evaluates only its heat kernels at u = u* v, and of
those only the ones that can matter: ``heatkernel.heat_log_sum`` brackets
each heat row by (sum X)(sum Y)/(2u(n+1)) <= log psi_X(e^{Y/2u}) <=
<X, Y>/(2u) (both sorted in decreasing order) and leaves out the rows whose
upper bounds sum to at most e^-37 times a lower bound of the whole sum, so
the rows left out carry less than e^-37 (~8.5e-17) of it.  Where the Kanter
density is not finite (s -> 2), and on A_1, every row is kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import AccuracyError, DomainError, EvaluationError
from .heatkernel import heat_log_sum, heat_sum_terms
from .quad import KernelValue, logsumexp, panel_rule, refined
from .report import Kernel, RatioReport
from .rootsys import RootSystemA, pairing, positive_roots
from .spherical import _predicted_evals, default_node_plan

# ---------------------------------------------------------------------------
# subordinator density
# ---------------------------------------------------------------------------

@functools.cache
def _phi_nodes():
    """Fixed phi-quadrature on (0, pi): 12 Gauss-Legendre nodes a panel, on
    panels dyadically refined toward both ends down to pi 2^-42."""
    left = [math.pi * 2.0 ** (-j) for j in range(42, 1, -1)]
    right = [math.pi - math.pi * 2.0 ** (-j) for j in range(2, 43)]
    return panel_rule(sorted(set([0.0] + left + right + [math.pi])), 12)


def _check_su(s: float, t: float) -> float:
    """The regime boundary u* = t^{2/s}; raises DomainError unless s is in
    (0, 2), t is finite and > 0, and u* is a positive float."""
    if not (0.0 < s < 2.0):
        raise DomainError(f"stability index must be in (0,2), got {s}")
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"t must be finite and > 0, got {t}")
    try:
        u_star = float(t) ** (2.0 / s)
    except OverflowError:
        u_star = math.inf
    if not 0.0 < u_star < math.inf:
        raise DomainError(f"stable time scale overflows: u* = t^(2/s) is not a "
                          f"positive float at t={t:g}, s={s:g}")
    return u_star


#: rows of x a block of ``_kanter_logpdf`` sums at once (one 1 MB temporary)
KANTER_BLOCK = 128


def _kanter_logpdf(beta: float, x: np.ndarray) -> np.ndarray:
    """log density of the standard one-sided beta-stable law at x > 0.

    f(x) = (beta/(1-beta)) x^{-1/(1-beta)} (1/pi)
           int_0^pi A(phi) e^{-x^{-beta/(1-beta)} A(phi)} dphi,
    A(phi) = sin(beta phi)^{beta/(1-beta)} sin((1-beta) phi) sin(phi)^{-1/(1-beta)};
    A is increasing with A(0+) = beta^{beta/(1-beta)} (1-beta), which is
    factored out so the result stays finite in log space for tiny x.

    As beta -> 1 the mesh no longer resolves the integrand and the result
    turns inf or nan; that is left to the caller's finite check, without
    floating-point warnings.  The phi sum runs KANTER_BLOCK rows of x at a
    time, each row summed on its own, so a value does not depend on the
    other entries of x.

    An exponent -c (A - A0) below -708 (log DBL_MIN = -708.40) is set to
    -inf, so its term sums as exactly 0: exp returns no subnormal number,
    and the product and the row sum see almost none (arithmetic on
    subnormals runs ~15x slower).  Leaving those terms out moves no finite
    value's last bit: a row sum either holds its phi -> 0 terms (exponent
    near 0, size ~1e-14 and up), against which they are below rounding,
    or falls to the 1e-300 floor, where -c A0 is so large that log(inner)
    cannot move the result.
    """
    x = np.asarray(x, dtype=float)
    phi, w = _phi_nodes()
    r = beta / (1.0 - beta)
    with np.errstate(all="ignore"):
        logA = (r * np.log(np.sin(beta * phi)) + np.log(np.sin((1.0 - beta) * phi))
                - (1.0 + r) * np.log(np.sin(phi)))
        A = np.exp(logA)
        A0 = beta ** r * (1.0 - beta)
        # A >= A0 = A(0+); rounding can push the difference to ~-1e-16, which
        # a huge c would blow up into a fake positive exponent.  Overflow of
        # the product to -inf gives the same 0 as an exponent cut to -inf.
        dA = np.maximum(A - A0, 0.0)
        wA = w * A
        c = x ** (-r)
        inner = np.empty_like(c)
        buf = np.empty((min(c.size, KANTER_BLOCK), dA.size))
        for lo in range(0, c.size, KANTER_BLOCK):
            blk = buf[:c.size - lo]
            np.multiply(-c[lo:lo + KANTER_BLOCK, None], dA, out=blk)
            # e^x is subnormal below x = -708.40: sum those terms as 0
            np.copyto(blk, -np.inf, where=blk < -708.0)
            np.exp(blk, out=blk)
            blk *= wA
            inner[lo:lo + KANTER_BLOCK] = blk.sum(axis=1)
        return (math.log(beta / (1.0 - beta)) - np.log(x) / (1.0 - beta)
                - c * A0 + np.log(np.maximum(inner, 1e-300)) - math.log(math.pi))


def subordinator_log_density(s: float, t: float, u) -> np.ndarray:
    """log eta_t(u), vectorized over finite u > 0: the closed form at s = 1,
    Kanter's form otherwise."""
    u_star = _check_su(s, t)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all((u > 0) & np.isfinite(u)):
        raise DomainError("subordinator density needs finite u > 0")
    if abs(s - 1.0) < 1e-14:
        return (math.log(t) - 0.5 * math.log(4.0 * math.pi)
                - 1.5 * np.log(u) - t * t / (4.0 * u))
    return _kanter_logpdf(0.5 * s, u / u_star) - math.log(u_star)


def _finite_log_density(log_eta: np.ndarray, s: float, t: float) -> np.ndarray:
    """log_eta, or EvaluationError where an entry is nan or +inf (the
    Kanter path as s -> 2); -inf is a density that underflows to 0."""
    if not np.all(log_eta < math.inf):
        raise EvaluationError(f"non-finite subordinator density at s={s:g}, t={t:.6g}",
                              location=(s, t))
    return log_eta


def subordinator_density(s: float, t: float, u):
    """eta_t(u); scalar in, scalar out.  Raises EvaluationError where the
    density is not finite."""
    out = np.exp(_finite_log_density(subordinator_log_density(s, t, u), s, t))
    return float(out[0]) if np.isscalar(u) or np.ndim(u) == 0 else out


def subordinator_inversion(s: float, t: float, u: float) -> float:
    """The rotated-contour inversion integral, exactly as a Bromwich rotation:

        eta_t(u) = (1/pi) int_0^inf e^{-ux - t x^b cos(pi b)}
                                     sin(t x^b sin(pi b)) dx,  b = s/2.

    16-node Gauss-Legendre panels follow the sine zeros (at most 6000) merged
    with a geometric mesh at the e^{-ux} decay scale.  Raises AccuracyError
    when float64 cancellation headroom is exhausted (growing envelope for
    b > 1/2, or the essential singularity at small u where the result is
    ~e^{-30} below the integrand scale), and DomainError unless u is finite
    and positive.
    """
    _check_su(s, t)
    if not (math.isfinite(u) and u > 0):
        raise DomainError(f"the inversion integral needs finite u > 0, got {u!r}")
    b = 0.5 * s
    cb, sb = math.cos(math.pi * b), math.sin(math.pi * b)
    r = b / (1.0 - b)
    A0 = b ** r * (1.0 - b)
    small_u_exponent = A0 * (t ** (2.0 / s) / u) ** r
    if small_u_exponent > 16.0:
        raise AccuracyError(
            f"inversion integral cancels to ~e^-{small_u_exponent:.3g} of the "
            "integrand scale here; use the kanter path")
    if cb < 0:
        xstar = (b * t * (-cb) / u) ** (1.0 / (1.0 - b))
        peak = t * (-cb) * xstar ** b - u * xstar
        if peak > 16.0:
            raise AccuracyError(
                f"oscillatory envelope reaches e^{peak:.3g}; use the kanter path")
    zeros = []
    m = 1
    while True:
        xm = (m * math.pi / (t * sb)) ** (1.0 / b)
        zeros.append(xm)
        if (xm > 500.0 / u and m > 4) or m > 6000:
            break
        m += 1
    geo = np.geomspace(1e-3 / u, 500.0 / u, 40)
    bps = np.array(sorted({0.0, *zeros, *geo}))
    hi_cut = max(500.0 / u, zeros[min(4, len(zeros) - 1)])
    bps = bps[bps <= hi_cut]
    x, w = panel_rule(bps, 16)
    vals = np.exp(-u * x - t * cb * x ** b) * np.sin(t * sb * x ** b)
    return float(vals @ w) / math.pi


@dataclass(frozen=True)
class SubordinatorBounds:
    upper_ratio: float            # eta / (t u^{-1-s/2} e^{-t u^{-s/2}})
    asymp_ratio: float | None     # eta / (t u^{-1-s/2}) when u >= t^{2/s}
    in_asymp_regime: bool

    @property
    def upper_ok(self) -> bool:
        # the bound holds whenever the ratio is finite (0 = deep underflow,
        # where the density sits far below the bound)
        return math.isfinite(self.upper_ratio)


def subordinator_bounds_check(s: float, t: float, u: float) -> SubordinatorBounds:
    """Point check of the global upper bound and the tail two-sided bound;
    raises EvaluationError where the density is not finite."""
    u_star = _check_su(s, t)
    log_eta = float(_finite_log_density(subordinator_log_density(s, t, u), s, t)[0])
    log_upper = math.log(t) + (-1.0 - 0.5 * s) * math.log(u) - t * u ** (-0.5 * s)
    log_asymp = math.log(t) + (-1.0 - 0.5 * s) * math.log(u)
    in_tail = u >= u_star
    return SubordinatorBounds(
        upper_ratio=math.exp(log_eta - log_upper) if log_eta - log_upper < 700 else math.inf,
        asymp_ratio=math.exp(log_eta - log_asymp) if in_tail else None,
        in_asymp_regime=in_tail,
    )


# ---------------------------------------------------------------------------
# subordinated kernel and envelope
# ---------------------------------------------------------------------------

#: decades of v = u/u* the u-rule spans each side of u* = t^{2/s}
#: (``stable_mass`` extends the upper side)
SPAN_DECADES = 7.0


def _u_rule(lo_decades: float, hi_decades: float, panels_per_decade: float,
            nodes: int):
    """The u-rule at u* = 1: Gauss-Legendre nodes v and log-weights on
    log-spaced panels over [10^-lo_decades, 10^hi_decades], at least 4
    panels.  On the symmetric spans of ``stable_log`` the panel count is
    even, so v = 1 (u = u*) is a breakpoint."""
    n_pan = max(4, int(panels_per_decade * (lo_decades + hi_decades)))
    v, w = panel_rule(np.geomspace(10.0 ** (-lo_decades), 10.0 ** hi_decades,
                                   n_pan + 1), nodes)
    return v, np.log(w)


@functools.lru_cache(maxsize=64)
def _scale_free_rule(s: float, lo_decades: float, hi_decades: float,
                     panels_per_decade: float, nodes: int):
    """The u-rule at u* = 1 with log f_beta(v) = log eta_1(v) on its nodes,
    as read-only arrays (v, log w_v, log f_beta).  For every t,
    eta_t(u* v) = f_beta(v) / u* with u* = t^{2/s}, so one evaluation of the
    subordinator per (s, rule) serves every row."""
    v, log_w = _u_rule(lo_decades, hi_decades, panels_per_decade, nodes)
    log_f = subordinator_log_density(s, 1.0, v)
    for a in (v, log_w, log_f):
        a.flags.writeable = False
    return v, log_w, log_f


def _u_terms(s: float, t: float, nodes: int, panels_per_decade: int
             ) -> tuple[tuple, np.ndarray]:
    """(parts of the log-weights, times) of ``stable_log``'s heat rows."""
    u_star = _check_su(s, t)
    v, log_w, log_f = _scale_free_rule(s, SPAN_DECADES, SPAN_DECADES,
                                       panels_per_decade, nodes)
    return (log_w, log_f), u_star * v


def stable_log(rs: RootSystemA, s: float, t: float, X, Y,
               plan: Sequence[int] | None = None, nodes: int = 12,
               panels_per_decade: int = 3) -> float:
    """log h_t^W(X,Y) = log int_0^inf p_u^W(X,Y) eta_t(u) du.

    Log-spaced panels over SPAN_DECADES decades each side of the regime
    boundary u* = t^{2/s}, one of their breakpoints; the head is killed by
    the subordinator's essential singularity, the tail by
    u^{-1-s/2-d/2-gamma} decay.  The rule is the cached scale-free one:
    u = u* v, log w = log w_v + log u* and log eta_t(u) = log f_beta(v) -
    log u*, so the two log u* terms cancel in the sum.  The heat rows are
    one ``heat_log_sum``: a row whose bounds prove it carries less than
    e^-37 of the sum is left out (at the default rule 48-320 of the 504
    rows are kept on the A_2 and A_3 sweeps at k in [0.25, 2.5] and s in
    {0.5, 1, 1.5}; A_1 sums keep every row).  Raises EvaluationError where
    the integrand is not finite (the Kanter path as s -> 2, where every row
    is kept).
    """
    log_ws, times = _u_terms(s, t, nodes, panels_per_decade)
    out = heat_log_sum(rs, log_ws, times, np.asarray(X, float),
                       np.asarray(Y, float), plan)
    if not math.isfinite(out):
        raise EvaluationError(f"non-finite stable value {out!r} at s={s:g}, t={t:.6g}",
                              location=(s, t))
    return out


def _psi_rows(rs: RootSystemA, s: float, t: float, X, Y, nodes: int = 12,
              panels_per_decade: int = 3) -> int:
    """The psi rows ``stable_log`` evaluates at (s, t, X, Y)."""
    return len(heat_sum_terms(rs, *_u_terms(s, t, nodes, panels_per_decade),
                              np.asarray(X, float), np.asarray(Y, float))[1])


def stable_exact(rs: RootSystemA, s: float, t: float, X, Y,
                 plan: Sequence[int] | None = None) -> KernelValue:
    """h_t^W(X,Y) with a u-rule refinement error indicator; ``evals`` counts
    the terminal evaluations of both rules' psi rows."""
    X = rs.check_vector(X)
    plan = plan if plan is not None else default_node_plan(rs.n)
    lv = stable_log(rs, s, t, X, Y, plan)
    lv2 = stable_log(rs, s, t, X, Y, plan, nodes=20, panels_per_decade=4)
    rows = _psi_rows(rs, s, t, X, Y) + _psi_rows(rs, s, t, X, Y, 20, 4)
    return refined(lv, lv2, rows * int(_predicted_evals(rs.n, plan)))


def log_stable_envelope(rs: RootSystemA, s: float, t: float, X, Y) -> float:
    """Euclidean envelope over prod (t^{2/s} + |X-Y|^2 + alpha(X)alpha(Y))^k."""
    u_star = _check_su(s, t)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    diff = X - Y
    r2 = float(diff @ diff)
    out = math.log(t) - 0.5 * (rs.d + s) * math.log(u_star + r2)
    for root in positive_roots(rs):
        out -= rs.k * math.log(u_star + r2
                               + pairing(rs, root, X) * pairing(rs, root, Y))
    return out


def stable_sweep_grid(rs: RootSystemA, s: float, num: int = 11
                      ) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(t, X, Y) with t^{2/s}/|X-Y|^2 log-spaced over 10^[-2.5, 2.5], across
    the min-form crossover."""
    m = rs.n + 1
    idx = np.array(rs.active_coords) - 1
    X = np.zeros(rs.coord_len)
    X[idx] = np.linspace(1.0, 0.0, m) * 1.1 + 0.3
    Y = np.zeros(rs.coord_len)
    Y[idx] = np.linspace(1.0, 0.0, m) * 0.6
    r2 = float((X - Y) @ (X - Y))
    pts = []
    for j in np.linspace(-2.5, 2.5, num):
        t = (r2 * 10.0 ** j) ** (0.5 * s)
        pts.append((float(t), X.copy(), Y.copy()))
    return pts


def _crossover_columns(rs: RootSystemA, s: float, t: float, X, Y) -> dict:
    r2 = float(((np.asarray(X, float) - np.asarray(Y, float)) ** 2).sum())
    return {"s": s, "t": t, "crossover": t ** (2.0 / s) / r2,
            "regime": "t^(2/s)>=R2" if t ** (2.0 / s) >= r2 else "t^(2/s)<R2"}


#: h^W over its envelope; ``replace(KERNEL, s=s)`` sweeps one stability index
KERNEL = Kernel(
    label="stable n={rs.n} k={rs.k} s={s}", args=("s", "t", "X", "Y"),
    grid=stable_sweep_grid, grid_options={"num": "num"},
    exact=stable_exact, log_value=stable_log, log_envelope=log_stable_envelope,
    columns=_crossover_columns, spread_bound=1e2, psi_rows=_psi_rows)


def stable_row(rs: RootSystemA, s: float, point, plan: Sequence[int] | None = None) -> dict:
    return replace(KERNEL, s=s).row(rs, point, plan)


def certify_stable_ratio(rs: RootSystemA, s: float, points=None, **kw) -> RatioReport:
    return replace(KERNEL, s=s).certify(rs, points, **kw)


def stable_scaling_residual(rs: RootSystemA, s: float, t: float, X, Y, c: float,
                            plan: Sequence[int] | None = None) -> float:
    """| h_{c^s t}(cX, cY) c^{d+2 gamma} / h_t(X,Y) - 1 |."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    l1 = stable_log(rs, s, t, X, Y, plan)
    l2 = stable_log(rs, s, (c ** s) * t, c * X, c * Y, plan)
    return abs(math.expm1(l2 + (rs.d + 2.0 * rs.gamma) * math.log(c) - l1))


def stable_mass(rs: RootSystemA, s: float, t: float, X,
                plan: Sequence[int] | None = None) -> float:
    """|W| int_{a+} h_t^W(X,Y) omega_k(Y) dY; 1 for the true kernel.

    The subordinator tail decays only like u^{-1-s/2}, so the upper
    truncation must reach ~10^{6/beta} above t^{2/s} to keep the missing
    mass below 1e-6.  The u-rule is the cached scale-free one of
    ``stable_log`` over that span, with 10 Gauss-Legendre nodes a panel.
    Raises EvaluationError before any chamber integral where the density is
    not finite on that rule (s -> 2).
    """
    from .heatkernel import chamber_heat_integral
    u_star = _check_su(s, t)
    X = rs.check_vector(np.asarray(X, dtype=float))
    v, log_w, log_f = _scale_free_rule(s, SPAN_DECADES,
                                       max(SPAN_DECADES, 6.0 / (0.5 * s)), 3, 10)
    _finite_log_density(log_f, s, t)
    log_mass_u = np.array([chamber_heat_integral(rs, [(u_star * float(vi), X)], plan=plan)
                           for vi in v])
    return float(np.exp(logsumexp(log_w + log_f + log_mass_u)))
