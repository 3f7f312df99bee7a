"""s-stable W-invariant semigroups by subordination of the heat kernel.

The subordinator density eta_t (Laplace transform e^{-t z^{s/2}}) has three
evaluation paths:

* ``closed``    - the s=1 (1/2-stable) closed form t (4 pi)^{-1/2} u^{-3/2}
                  e^{-t^2/(4u)};
* ``inversion`` - the pi-rotated Bromwich integral
                  (1/pi) int_0^inf e^{-ux - t x^b cos(pi b)} sin(t x^b sin(pi b)) dx,
                  b = s/2, sound only while the oscillatory mass leaves
                  float64 headroom (it raises an accuracy error otherwise);
* ``kanter``    - Kanter's positive-integrand form of the Zolotarev
                  representation, valid for every b in (0,1) and log-space
                  stable down to the essential singularity at u -> 0.

``stable_exact`` integrates heat kernels against eta_t over u with log-spaced
panels split at the regime boundary u = t^{2/s}; the envelope is the
Euclidean stable bound divided by prod (t^{2/s} + |X-Y|^2 + alpha(X)alpha(Y))^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import AccuracyError, DomainError
from .heatkernel import heat_log_for_times
from .quad import KernelValue, _ref_legendre, logsumexp, refined
from .report import RatioReport, build_ratio_report
from .rootsys import RootSystemA, pairing, positive_roots, reflected_distance_sq
from .spherical import default_node_plan

# ---------------------------------------------------------------------------
# subordinator density
# ---------------------------------------------------------------------------

_PHI_MESH: dict = {}


def _phi_nodes(nodes: int = 12, jmax: int = 42):
    """Fixed phi-quadrature on (0, pi), dyadically refined toward both ends."""
    key = (nodes, jmax)
    if key not in _PHI_MESH:
        left = [math.pi * 2.0 ** (-j) for j in range(jmax, 1, -1)]
        right = [math.pi - math.pi * 2.0 ** (-j) for j in range(2, jmax + 1)]
        bps = np.array(sorted(set([0.0] + left + right + [math.pi])))
        xr, wr = _ref_legendre(nodes)
        mid = 0.5 * (bps[:-1] + bps[1:])
        half = 0.5 * (bps[1:] - bps[:-1])
        phi = (mid[:, None] + half[:, None] * xr[None, :]).ravel()
        w = (half[:, None] * wr[None, :]).ravel()
        _PHI_MESH[key] = (phi, w)
    return _PHI_MESH[key]


def _check_su(s: float, t: float):
    if not (0.0 < s < 2.0):
        raise DomainError(f"stability index must be in (0,2), got {s}")
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")


def _kanter_logpdf(beta: float, x: np.ndarray) -> np.ndarray:
    """log density of the standard one-sided beta-stable law at x > 0.

    f(x) = (beta/(1-beta)) x^{-1/(1-beta)} (1/pi)
           int_0^pi A(phi) e^{-x^{-beta/(1-beta)} A(phi)} dphi,
    A(phi) = sin(beta phi)^{beta/(1-beta)} sin((1-beta) phi) sin(phi)^{-1/(1-beta)};
    A is increasing with A(0+) = beta^{beta/(1-beta)} (1-beta), which is
    factored out so the result stays finite in log space for tiny x.
    """
    x = np.asarray(x, dtype=float)
    phi, w = _phi_nodes()
    r = beta / (1.0 - beta)
    logA = (r * np.log(np.sin(beta * phi)) + np.log(np.sin((1.0 - beta) * phi))
            - (1.0 + r) * np.log(np.sin(phi)))
    A = np.exp(logA)
    A0 = beta ** r * (1.0 - beta)
    c = x ** (-r)
    # A >= A0 = A(0+); rounding can push the difference to ~-1e-16, which a
    # huge c would blow up into a fake positive exponent.  Overflow of the
    # product to -inf is harmless under the -745 clamp.
    with np.errstate(over="ignore"):
        expo = -c[:, None] * np.maximum(A[None, :] - A0, 0.0)
    inner = (np.exp(np.maximum(expo, -745.0)) * (w * A)[None, :]).sum(axis=1)
    return (math.log(beta / (1.0 - beta)) - np.log(x) / (1.0 - beta)
            - c * A0 + np.log(np.maximum(inner, 1e-300)) - math.log(math.pi))


def subordinator_log_density(s: float, t: float, u, method: str = "auto") -> np.ndarray:
    """log eta_t(u), vectorized over u > 0."""
    _check_su(s, t)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u <= 0):
        raise DomainError("subordinator density needs u > 0")
    beta = 0.5 * s
    if method == "auto":
        method = "closed" if abs(s - 1.0) < 1e-14 else "kanter"
    if method == "closed":
        if abs(s - 1.0) > 1e-14:
            raise DomainError("closed form only at s == 1")
        return (math.log(t) - 0.5 * math.log(4.0 * math.pi)
                - 1.5 * np.log(u) - t * t / (4.0 * u))
    if method == "kanter":
        theta = t ** (1.0 / beta)
        return _kanter_logpdf(beta, u / theta) - math.log(theta)
    if method == "inversion":
        return np.log(np.maximum(
            [subordinator_inversion(s, t, float(ui)) for ui in u], 1e-300))
    raise DomainError(f"unknown method {method!r}")


def subordinator_density(s: float, t: float, u, method: str = "auto"):
    """eta_t(u); scalar in, scalar out."""
    out = np.exp(subordinator_log_density(s, t, u, method))
    return float(out[0]) if np.isscalar(u) or np.ndim(u) == 0 else out


def subordinator_inversion(s: float, t: float, u: float,
                           nodes: int = 16, max_zero_panels: int = 6000) -> float:
    """The rotated-contour inversion integral, exactly as a Bromwich rotation:

        eta_t(u) = (1/pi) int_0^inf e^{-ux - t x^b cos(pi b)}
                                     sin(t x^b sin(pi b)) dx,  b = s/2.

    Panels follow the sine zeros merged with a geometric mesh at the e^{-ux}
    decay scale.  Raises AccuracyError when float64 cancellation headroom is
    exhausted (growing envelope for b > 1/2, or the essential singularity at
    small u where the result is ~e^{-30} below the integrand scale).
    """
    _check_su(s, t)
    if not u > 0:
        raise DomainError("u must be > 0")
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
        if (xm > 500.0 / u and m > 4) or m > max_zero_panels:
            break
        m += 1
    geo = np.geomspace(1e-3 / u, 500.0 / u, 40)
    bps = np.array(sorted({0.0, *zeros, *geo}))
    hi_cut = max(500.0 / u, zeros[min(4, len(zeros) - 1)])
    bps = bps[bps <= hi_cut]
    xr, wr = _ref_legendre(nodes)
    total = 0.0
    for lo, hi in zip(bps[:-1], bps[1:]):
        half = 0.5 * (hi - lo)
        x = 0.5 * (hi + lo) + half * xr
        vals = np.exp(-u * x - t * cb * x ** b) * np.sin(t * sb * x ** b)
        total += float(vals @ wr) * half
    return total / math.pi


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

    @property
    def asymp_ok(self) -> bool | None:
        if self.asymp_ratio is None:
            return None
        return math.isfinite(self.asymp_ratio) and self.asymp_ratio > 0


def subordinator_bounds_check(s: float, t: float, u: float) -> SubordinatorBounds:
    """Point check of the global upper bound and the tail two-sided bound."""
    _check_su(s, t)
    log_eta = float(subordinator_log_density(s, t, u)[0])
    log_upper = math.log(t) + (-1.0 - 0.5 * s) * math.log(u) - t * u ** (-0.5 * s)
    log_asymp = math.log(t) + (-1.0 - 0.5 * s) * math.log(u)
    in_tail = u >= t ** (2.0 / s)
    return SubordinatorBounds(
        upper_ratio=math.exp(log_eta - log_upper) if log_eta - log_upper < 700 else math.inf,
        asymp_ratio=math.exp(log_eta - log_asymp) if in_tail else None,
        in_asymp_regime=in_tail,
    )


def subordinator_bounds_sweep(s: float, t: float,
                              decades=(-4.0, 4.0), num: int = 33) -> dict:
    """Recorded constants for the two bounds over u/t^{2/s} in 10^decades."""
    u_star = t ** (2.0 / s)
    us = u_star * np.geomspace(10.0 ** decades[0], 10.0 ** decades[1], num)
    if u_star not in us:
        us = np.sort(np.append(us, u_star))  # include the crossover point
    checks = [subordinator_bounds_check(s, t, float(u)) for u in us]
    upper = [c.upper_ratio for c in checks]
    asymp = [c.asymp_ratio for c in checks if c.asymp_ratio is not None]
    return {
        "s": s, "t": t, "u_over_ustar": (10.0 ** decades[0], 10.0 ** decades[1]),
        "upper_C": max(upper),
        "asymp_bracket": (min(asymp), max(asymp)),
        "count": len(checks),
    }


# ---------------------------------------------------------------------------
# Euclidean stable envelope
# ---------------------------------------------------------------------------

def euclid_stable_envelope(d: int, s: float, t: float, X, Y) -> float:
    """t / (t^{2/s} + |X-Y|^2)^{(d+s)/2}."""
    _check_su(s, t)
    diff = np.asarray(X, float) - np.asarray(Y, float)
    return float(t / (t ** (2.0 / s) + diff @ diff) ** (0.5 * (d + s)))


def euclid_stable_min_form(d: int, s: float, t: float, X, Y) -> float:
    """min{ t^{-d/s}, t |X-Y|^{-(d+s)} }; crossover at t^{2/s} = |X-Y|^2."""
    _check_su(s, t)
    diff = np.asarray(X, float) - np.asarray(Y, float)
    r2 = float(diff @ diff)
    if r2 == 0.0:
        return t ** (-d / s)
    return min(t ** (-d / s), t * r2 ** (-0.5 * (d + s)))


def euclid_forms_max_ratio(d: int, s: float) -> float:
    """The two displayed forms differ by at most 2^{(d+s)/2}."""
    return 2.0 ** (0.5 * (d + s))


# ---------------------------------------------------------------------------
# subordinated kernel and envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableParams:
    rs: RootSystemA
    s: float
    t: float
    X: np.ndarray
    Y: np.ndarray
    plan: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_su(self.s, self.t)
        if self.rs.n > 2:
            raise DomainError("stable_exact restricted to A_1 and A_2 (cost)")
        object.__setattr__(self, "X", self.rs.check_vector(self.X))
        object.__setattr__(self, "Y", self.rs.check_vector(self.Y))
        object.__setattr__(self, "beta", 0.5 * self.s)

    beta: float = 0.0


def _u_rule(u_star: float, lo_decades: float, hi_decades: float,
            panels_per_decade: float, nodes: int, split: bool = False):
    """Gauss-Legendre nodes u and log-weights on log-spaced panels over
    [u* 10^-lo_decades, u* 10^hi_decades], at least 4 panels; ``split``
    makes u* a breakpoint too."""
    n_pan = max(4, int(panels_per_decade * (lo_decades + hi_decades)))
    bps = np.geomspace(u_star * 10.0 ** (-lo_decades), u_star * 10.0 ** hi_decades,
                       n_pan + 1)
    if split:
        bps = np.unique(np.concatenate([bps, [u_star]]))
    xr, wr = _ref_legendre(nodes)
    mid = 0.5 * (bps[:-1] + bps[1:])
    half = 0.5 * (bps[1:] - bps[:-1])
    u = (mid[:, None] + half[:, None] * xr[None, :]).ravel()
    return u, np.log((half[:, None] * wr[None, :]).ravel())


def stable_log(rs: RootSystemA, s: float, t: float, X, Y,
               plan: Sequence[int] | None = None, nodes: int = 12,
               panels_per_decade: int = 3, span_decades: float = 7.0) -> float:
    """log h_t^W(X,Y) = log int_0^inf p_u^W(X,Y) eta_t(u) du.

    Log-spaced panels on each side of the regime boundary u* = t^{2/s}; the
    head is killed by the subordinator's essential singularity, the tail by
    u^{-1-s/2-d/2-gamma} decay.
    """
    _check_su(s, t)
    u, logw = _u_rule(t ** (2.0 / s), span_decades, span_decades,
                      panels_per_decade, nodes, split=True)
    log_p = heat_log_for_times(rs, u, np.asarray(X, float), np.asarray(Y, float), plan)
    log_eta = subordinator_log_density(s, t, u)
    return float(logsumexp(logw + log_p + log_eta))


#: the most heat times (psi rows) one ``stable_log`` call evaluates at its
#: default rule: the split adds a panel unless a breakpoint already equals u*
LOG_ROWS = _u_rule(2.0, 7.0, 7.0, 3, 12, split=True)[0].size


def stable_exact(sp: StableParams, *, with_error: bool = True) -> KernelValue:
    rs = sp.rs
    plan = sp.plan if sp.plan is not None else default_node_plan(rs.n)
    lv = stable_log(rs, sp.s, sp.t, sp.X, sp.Y, plan)
    lv2 = (stable_log(rs, sp.s, sp.t, sp.X, sp.Y, plan, nodes=20, panels_per_decade=4)
           if with_error else lv)
    return refined(lv, lv2, evals=0)


def log_stable_envelope(rs: RootSystemA, s: float, t: float, X, Y) -> float:
    """Euclidean envelope over prod (t^{2/s} + |X-Y|^2 + alpha(X)alpha(Y))^k."""
    _check_su(s, t)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    diff = X - Y
    r2 = float(diff @ diff)
    out = math.log(t) - 0.5 * (rs.d + s) * math.log(t ** (2.0 / s) + r2)
    for root in positive_roots(rs):
        out -= rs.k * math.log(t ** (2.0 / s) + r2
                               + pairing(rs, root, X) * pairing(rs, root, Y))
    return out


def log_stable_envelope_reflected(rs: RootSystemA, s: float, t: float, X, Y) -> float:
    """The |X - sigma_a Y|^2 variant; within 2^{k |Sigma+|} of the other form."""
    _check_su(s, t)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    diff = X - Y
    r2 = float(diff @ diff)
    out = math.log(t) - 0.5 * (rs.d + s) * math.log(t ** (2.0 / s) + r2)
    for root in positive_roots(rs):
        out -= rs.k * math.log(t ** (2.0 / s)
                               + reflected_distance_sq(rs, root, X, Y))
    return out


def stable_forms_max_log_ratio(rs: RootSystemA) -> float:
    """The two envelope displays agree within 2^{k |Sigma+|}."""
    return rs.k * rs.num_positive_roots * math.log(2.0)


def stable_sweep_grid(rs: RootSystemA, s: float, num: int = 11,
                      decades: float = 2.5) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(t, X, Y) with t^{2/s}/|X-Y|^2 log-spaced across the min-form crossover."""
    m = rs.n + 1
    idx = np.array(rs.active_coords) - 1
    X = np.zeros(rs.coord_len)
    X[idx] = np.linspace(1.0, 0.0, m) * 1.1 + 0.3
    Y = np.zeros(rs.coord_len)
    Y[idx] = np.linspace(1.0, 0.0, m) * 0.6
    r2 = float((X - Y) @ (X - Y))
    pts = []
    for j in np.linspace(-decades, decades, num):
        t = (r2 * 10.0 ** j) ** (0.5 * s)
        pts.append((float(t), X.copy(), Y.copy()))
    return pts


def stable_row(rs: RootSystemA, s: float, point,
               plan: Sequence[int] | None = None) -> dict:
    t, X, Y = point
    lv = stable_log(rs, s, t, X, Y, plan)
    le = log_stable_envelope(rs, s, t, X, Y)
    r2 = float(((np.asarray(X, float) - np.asarray(Y, float)) ** 2).sum())
    return {
        "n": rs.n, "k": rs.k, "s": s, "t": t,
        "crossover": t ** (2.0 / s) / r2,
        "regime": "t^(2/s)>=R2" if t ** (2.0 / s) >= r2 else "t^(2/s)<R2",
        "log_exact": lv, "log_envelope": le, "log_ratio": lv - le,
        "err_indicator": 0.0,
    }


def certify_stable_ratio(rs: RootSystemA, s: float, points=None, *,
                         plan: Sequence[int] | None = None, num: int = 11,
                         mapper=map) -> RatioReport:
    if points is None:
        points = stable_sweep_grid(rs, s, num=num)
    rows = list(mapper(partial(stable_row, rs, s, plan=plan), points))
    return build_ratio_report(f"stable n={rs.n} k={rs.k} s={s}", rows)


def stable_scaling_residual(rs: RootSystemA, s: float, t: float, X, Y, c: float,
                            plan: Sequence[int] | None = None) -> float:
    """| h_{c^s t}(cX, cY) c^{d+2 gamma} / h_t(X,Y) - 1 |."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    l1 = stable_log(rs, s, t, X, Y, plan)
    l2 = stable_log(rs, s, (c ** s) * t, c * X, c * Y, plan)
    return abs(math.expm1(l2 + (rs.d + 2.0 * rs.gamma) * math.log(c) - l1))


def stable_mass(rs: RootSystemA, s: float, t: float, X,
                plan: Sequence[int] | None = None, nodes: int = 10,
                span_decades: float = 7.0) -> float:
    """|W| int_{a+} h_t^W(X,Y) omega_k(Y) dY; 1 for the true kernel.

    The subordinator tail decays only like u^{-1-s/2}, so the upper
    truncation must reach ~10^{6/beta} above t^{2/s} to keep the missing
    mass below 1e-6.
    """
    from .heatkernel import chamber_heat_integral
    _check_su(s, t)
    X = rs.check_vector(np.asarray(X, dtype=float))
    u, logw = _u_rule(t ** (2.0 / s), span_decades, max(span_decades, 6.0 / (0.5 * s)),
                      3, nodes)
    log_eta = subordinator_log_density(s, t, u)
    log_mass_u = np.array([chamber_heat_integral(rs, [(float(ui), X)], plan=plan)
                           for ui in u])
    return float(np.exp(logsumexp(logw + log_eta + log_mass_u)))
