"""W-invariant Newton kernel N^W = int_0^inf p_t^W dt and its sharp envelopes.

The time integral is computed in the variable u = |X-Y|^2/(4t) (the same
substitution the d >= 3 proof uses), where the integrand acquires a clean
u^{d/2+gamma-2} e^{-u} profile:

    N^W(X,Y) = (2^{gamma+d/2} c)^(-1) (R^2/4)^{1-d/2-gamma}
               int_0^inf u^{d/2+gamma-2} e^{-u}
                         [e^{u - u(|X|^2+|Y|^2)/R^2} psi_X(2uY/R^2)] du,

R = |X-Y|; the bracket is slowly varying (its log decays like the envelope
denominators), so a generalized Gauss-Laguerre rule converges fast.

Envelopes: |X-Y|^{2-d} / prod |X - sigma_a Y|^{2k} for d >= 3, and the two
log-corrected d=2 forms (A_1, and A_2 on the trace-zero plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import DivergentTailError, DomainError, SingularityError
from .heatkernel import c_norm
from .quad import KernelValue, _ref_genlaguerre, logsumexp, refined
from .report import RatioReport, build_ratio_report
from .rootsys import RootSystemA, pairing, positive_roots, reflected_distance_sq
from .spherical import collapse_walls, default_node_plan, spherical_log

#: Gauss-Laguerre nodes of the u-rule; newton_exact refines with twice as many
U_NODES = 64


@dataclass(frozen=True)
class NewtonParams:
    rs: RootSystemA
    X: np.ndarray
    Y: np.ndarray
    plan: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "X", self.rs.check_vector(self.X))
        object.__setattr__(self, "Y", self.rs.check_vector(self.Y))
        if _dist_sq(self.X, self.Y) == 0.0:
            raise SingularityError("Newton kernel is singular at X == Y")


def _dist_sq(X, Y) -> float:
    d = np.asarray(X, float) - np.asarray(Y, float)
    return float(d @ d)


def _check_tail(rs: RootSystemA):
    # u-integrand ~ u^{d/2+gamma-2} near 0 <=> t-tail ~ t^{-d/2-gamma}
    if 0.5 * rs.d + rs.gamma - 1.0 <= 1e-12:
        raise DivergentTailError(
            f"time integral diverges: d/2 + gamma = {0.5 * rs.d + rs.gamma} <= 1")


def newton_log(rs: RootSystemA, X, Y, uQ: int = U_NODES,
               plan: Sequence[int] | None = None) -> float:
    """log N^W(X,Y) by Gauss-Laguerre in u = |X-Y|^2/(4t)."""
    _check_tail(rs)
    X = np.asarray(X, dtype=float)
    Yc, _ = collapse_walls(rs, np.asarray(Y, dtype=float))
    R2 = _dist_sq(X, Y)
    if R2 == 0.0:
        raise SingularityError("Newton kernel is singular at X == Y")
    alpha = 0.5 * rs.d + rs.gamma - 2.0
    u, w = _ref_genlaguerre(uQ, alpha)
    rows = (2.0 / R2) * u[:, None] * Yc[None, :]
    lv = spherical_log(rs, X, rows, plan, batch=True)
    norm_fac = (float(X @ X) + float(np.asarray(Y, float) @ np.asarray(Y, float))) / R2
    log_g = u - u * norm_fac + lv
    total = float(logsumexp(np.log(w) + log_g))
    pref = (-math.log(c_norm(rs)) - (rs.gamma + 0.5 * rs.d) * math.log(2.0)
            + (1.0 - 0.5 * rs.d - rs.gamma) * math.log(R2 / 4.0))
    return pref + total


def newton_exact(p: NewtonParams, *, with_error: bool = True) -> KernelValue:
    rs = p.rs
    plan = p.plan if p.plan is not None else default_node_plan(rs.n)
    lv = newton_log(rs, p.X, p.Y, U_NODES, plan)
    if not with_error:
        return refined(lv, lv, U_NODES)
    return refined(lv, newton_log(rs, p.X, p.Y, 2 * U_NODES, plan), 3 * U_NODES)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def _log_reflected_product(rs: RootSystemA, X, Y) -> float:
    """log prod_{alpha>0} |X - sigma_alpha Y|^{2k}."""
    out = 0.0
    for root in positive_roots(rs):
        d2 = reflected_distance_sq(rs, root, X, Y)
        if d2 <= 0.0:
            raise SingularityError("reflected distance vanished")
        out += rs.k * math.log(d2)
    return out


def log_newton_envelope_d3(rs: RootSystemA, X, Y) -> float:
    if rs.d < 3:
        raise DomainError("d >= 3 envelope requires d >= 3")
    R2 = _dist_sq(X, Y)
    if R2 == 0.0:
        raise SingularityError("envelope singular at X == Y")
    return 0.5 * (2.0 - rs.d) * math.log(R2) - _log_reflected_product(rs, X, Y)


def newton_envelope_d3(rs: RootSystemA, X, Y) -> float:
    return math.exp(log_newton_envelope_d3(rs, X, Y))


def log_newton_envelope_d2_a1(rs: RootSystemA, X, Y) -> float:
    if rs.n != 1 or rs.d != 2:
        raise DomainError("this envelope is the rank-1, d=2 form")
    R2 = _dist_sq(X, Y)
    if R2 == 0.0:
        raise SingularityError("envelope singular at X == Y")
    root = positive_roots(rs)[0]
    refl2 = reflected_distance_sq(rs, root, X, Y)
    return math.log(math.log1p(refl2 / R2)) - rs.k * math.log(refl2)


def newton_envelope_d2_a1(rs: RootSystemA, X, Y) -> float:
    return math.exp(log_newton_envelope_d2_a1(rs, X, Y))


def log_newton_envelope_d2_a2(rs: RootSystemA, X, Y) -> float:
    """A_2 on the trace-zero plane; omega is the closer of the two simple
    reflections, and all three denominator factors carry exponent 2k."""
    if rs.n != 2 or not rs.trace_zero:
        raise DomainError("this envelope is the trace-zero A_2, d=2 form")
    R2 = _dist_sq(X, Y)
    if R2 == 0.0:
        raise SingularityError("envelope singular at X == Y")
    simple = [(1, 2), (2, 3)]
    refl_simple = [reflected_distance_sq(rs, r, X, Y) for r in simple]
    omega2 = min(refl_simple)
    return (math.log(math.log1p(omega2 / R2))
            - _log_reflected_product(rs, X, Y))


def newton_envelope_d2_a2(rs: RootSystemA, X, Y) -> float:
    return math.exp(log_newton_envelope_d2_a2(rs, X, Y))


def log_newton_envelope(rs: RootSystemA, X, Y) -> float:
    """Dispatch to the envelope matching the realization."""
    if rs.d >= 3:
        return log_newton_envelope_d3(rs, X, Y)
    if rs.n == 1 and rs.d == 2:
        return log_newton_envelope_d2_a1(rs, X, Y)
    if rs.n == 2 and rs.trace_zero:
        return log_newton_envelope_d2_a2(rs, X, Y)
    raise DomainError("no envelope for this realization")


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def newton_sweep_grid(rs: RootSystemA, num: int = 13,
                      eps_span=(3e-2, 3e2)) -> list[tuple[np.ndarray, np.ndarray]]:
    """(X, Y) pairs with alpha(X)alpha(Y)/|X-Y|^2 sweeping several decades.

    Y = X + eps*D along a fixed chamber-interior direction D; small eps gives
    large quotient, large eps small quotient.
    """
    m = rs.n + 1
    idx = np.array(rs.active_coords) - 1
    X = np.zeros(rs.coord_len)
    X[idx] = np.linspace(1.0, 0.0, m) * 1.4 + 0.2
    D = np.zeros(rs.coord_len)
    D[idx] = np.linspace(1.0, 0.0, m) * 0.5 + 0.15
    if rs.trace_zero:
        X -= X.mean()
        D -= D.mean()
    elif rs.coord_len > rs.n + 1:
        free = np.setdiff1d(np.arange(rs.coord_len), idx)
        D[free] = 0.3
    pts = []
    for eps in np.geomspace(eps_span[0], eps_span[1], num):
        pts.append((X.copy(), X + eps * D))
    return pts


def newton_row(rs: RootSystemA, point, plan: Sequence[int] | None = None) -> dict:
    X, Y = point
    lv = newton_log(rs, X, Y, plan=plan)
    le = log_newton_envelope(rs, X, Y)
    R2 = _dist_sq(X, Y)
    quot = max(pairing(rs, r, X) * pairing(rs, r, Y)
               for r in positive_roots(rs)) / R2
    return {
        "n": rs.n, "k": rs.k, "d": rs.d, "quotient": quot,
        "log_exact": lv, "log_envelope": le, "log_ratio": lv - le,
        "err_indicator": 0.0,
    }


def certify_newton_ratio(rs: RootSystemA, points=None, *,
                         plan: Sequence[int] | None = None, num: int = 13,
                         mapper=map) -> RatioReport:
    if points is None:
        points = newton_sweep_grid(rs, num=num)
    rows = list(mapper(partial(newton_row, rs, plan=plan), points))
    return build_ratio_report(
        f"newton n={rs.n} k={rs.k} d={rs.d}{' trace0' if rs.trace_zero else ''}",
        rows, drift_key="quotient", tail_cut=math.inf)


def homogeneity_residual(rs: RootSystemA, X, Y, c: float,
                         plan: Sequence[int] | None = None) -> float:
    """| N(cX,cY) c^{d-2+2gamma} / N(X,Y) - 1 |."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    l1 = newton_log(rs, X, Y, plan=plan)
    l2 = newton_log(rs, c * X, c * Y, plan=plan)
    return abs(math.expm1(l2 + (rs.d - 2.0 + 2.0 * rs.gamma) * math.log(c) - l1))
