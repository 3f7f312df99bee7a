"""W-invariant Newton kernel N^W = int_0^inf p_t^W dt and its sharp envelopes.

The time integral runs over heat rows: ``heat_log_for_times`` evaluates
p_t^W at t = R^2/(4u), R = |X-Y|, for the nodes u of one generalized
Gauss-Laguerre rule (the substitution the d >= 3 proof uses).  With the
Jacobian dt = R^2/(4u^2) du the integrand is

    p_{R^2/(4u)}^W(X,Y) R^2/(4u^2) = u^{d/2+gamma-2} e^{-u} g(u),

where the rule keeps u^{d/2+gamma-2} e^{-u} and g(u) is slowly varying (its
log decays like the envelope denominators), so the rule converges fast.

Envelopes: |X-Y|^{2-d} / prod |X - sigma_a Y|^{2k} for d >= 3, and the two
log-corrected d=2 forms (A_1, and A_2 on the trace-zero plane).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DivergentTailError, DomainError, SingularityError
from .heatkernel import heat_log_for_times
from .quad import KernelValue, _ref_genlaguerre, logsumexp, refined
from .report import Kernel
from .rootsys import RootSystemA, pairing, positive_roots, reflected_distance_sq

#: Gauss-Laguerre nodes of the u-rule; newton_exact refines with twice as many
U_NODES = 64


def _dist_sq(X, Y) -> float:
    """|X-Y|^2; raises DomainError where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.asarray(X, float) - np.asarray(Y, float)
        out = float(d @ d)
    if not math.isfinite(out):
        raise DomainError("|X-Y|^2 is not finite")
    return out


def _check_tail(rs: RootSystemA):
    # u-integrand ~ u^{d/2+gamma-2} near 0 <=> t-tail ~ t^{-d/2-gamma}
    if 0.5 * rs.d + rs.gamma - 1.0 <= 1e-12:
        raise DivergentTailError(
            f"time integral diverges: d/2 + gamma = {0.5 * rs.d + rs.gamma} <= 1")


def newton_log(rs: RootSystemA, X, Y, uQ: int = U_NODES,
               plan: Sequence[int] | None = None) -> float:
    """log N^W(X,Y) = log int_0^inf p_t^W(X,Y) dt, by Gauss-Laguerre in
    u = |X-Y|^2/(4t) over one batch of heat rows."""
    _check_tail(rs)
    R2 = _dist_sq(X, Y)
    if R2 == 0.0:
        raise SingularityError("Newton kernel is singular at X == Y")
    alpha = 0.5 * rs.d + rs.gamma - 2.0
    u, w = _ref_genlaguerre(uQ, alpha)
    log_p = heat_log_for_times(rs, R2 / (4.0 * u), X, Y, plan)
    # the rule's weight carries u^alpha e^{-u}, dt = R^2/(4u^2) du
    return (float(logsumexp(np.log(w) + log_p + u - (alpha + 2.0) * np.log(u)))
            + math.log(R2 / 4.0))


def newton_exact(rs: RootSystemA, X, Y, plan: Sequence[int] | None = None,
                 *, with_error: bool = True) -> KernelValue:
    """N^W(X,Y) with a u-rule refinement error indicator."""
    X = rs.check_vector(X)
    lv = newton_log(rs, X, Y, U_NODES, plan)
    if not with_error:
        return refined(lv, lv, U_NODES)
    return refined(lv, newton_log(rs, X, Y, 2 * U_NODES, plan), 3 * U_NODES)


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

def newton_sweep_grid(rs: RootSystemA, num: int = 13
                      ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(X, Y) pairs with alpha(X)alpha(Y)/|X-Y|^2 sweeping several decades.

    Y = X + eps*D along a fixed chamber-interior direction D, eps log-spaced
    over [3e-2, 3e2]; small eps gives large quotient, large eps small quotient.
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
    for eps in np.geomspace(3e-2, 3e2, num):
        pts.append((X.copy(), X + eps * D))
    return pts


def _quotient_columns(rs: RootSystemA, X, Y) -> dict:
    quot = max(pairing(rs, r, X) * pairing(rs, r, Y)
               for r in positive_roots(rs)) / _dist_sq(X, Y)
    return {"d": rs.d, "quotient": quot}


#: N^W over its envelope; no tail fit, the drift slope spans the whole sweep
KERNEL = Kernel(
    label="newton n={rs.n} k={rs.k} d={rs.d}{trace0}", args=("X", "Y"),
    grid=newton_sweep_grid, grid_options={"num": "num"},
    exact=newton_exact, log_value=newton_log, log_envelope=log_newton_envelope,
    columns=_quotient_columns, spread_bound=1e2, psi_rows=U_NODES,
    drift_key="quotient", tail_cut=math.inf)
newton_row = KERNEL.row
certify_newton_ratio = KERNEL.certify


def homogeneity_residual(rs: RootSystemA, X, Y, c: float,
                         plan: Sequence[int] | None = None) -> float:
    """| N(cX,cY) c^{d-2+2gamma} / N(X,Y) - 1 |."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    l1 = newton_log(rs, X, Y, plan=plan)
    l2 = newton_log(rs, c * X, c * Y, plan=plan)
    return abs(math.expm1(l2 + (rs.d - 2.0 + 2.0 * rs.gamma) * math.log(c) - l1))
