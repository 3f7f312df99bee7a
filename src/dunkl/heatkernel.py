"""W-invariant Dunkl heat kernel for A_n: exact values, sharp envelope,
and the analytic identities (mass, semigroup, generator) that pin the
normalization down.

The kernel is evaluated through the spherical function,

    p_t^W(X,Y) = (2^{gamma+d/2} c)^(-1) t^{-d/2-gamma}
                 e^{-(|X|^2+|Y|^2)/(4t)} psi_X(Y/(2t)),

with the normalization constant c fixed operationally by the mass identity
|W| int_{a+} p_t^W(X,Y) omega_k(Y) dY = 1 at (t=1, X=0) and cross-checked
against the Macdonald-Mehta-Selberg product
(2 pi)^{d/2} prod_{j=1}^{n+1} Gamma(1+jk)/Gamma(1+k).

Chamber integrals (mass, Chapman-Kolmogorov, subordination mass) decompose
Y into its mean direction (a Gaussian integrated in closed form) and the
simple-root gaps s_i > 0, where omega_k and the Gaussian envelope are
absorbed into generalized Laguerre rules in w = q s^2.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .quad import (KernelValue, _ref_genlaguerre, _ref_hermite, logsumexp,
                   refined)
from .report import Kernel
from .rootsys import RootSystemA, positive_roots, pairing
from .spherical import (collapse_walls, default_node_plan, refined_plan,
                        spherical_log)

_c_norm_cache: dict = {}


def mehta_selberg_constant(rs: RootSystemA) -> float:
    """Closed-form c = (2 pi)^{d/2} prod_{j=1}^{n+1} Gamma(1+jk)/Gamma(1+k)."""
    lg = sum(gammaln(1.0 + j * rs.k) - gammaln(1.0 + rs.k)
             for j in range(1, rs.n + 2))
    return float(math.exp(0.5 * rs.d * math.log(2 * math.pi) + lg))


def gaussian_chamber_integral(rs: RootSystemA) -> float:
    """|W| int_{a+} e^{-|Y|^2/4} omega_k(Y) dY by 96-node Laguerre rules per
    root gap (n <= 2)."""
    if rs.n == 1:
        q = 1.0 / 8.0
        w_nodes, w_weights = _ref_genlaguerre(96, rs.k - 0.5)
        s_int = 0.5 * q ** (-(rs.k + 0.5)) * float(w_weights.sum())
        jac = 1.0 / math.sqrt(2.0)
    elif rs.n == 2:
        q = 1.0 / 6.0
        w_nodes, w_weights = _ref_genlaguerre(96, rs.k - 0.5)
        s = np.sqrt(w_nodes / q)
        s1 = s[:, None]
        s2 = s[None, :]
        inner = np.exp(-q * s1 * s2 + 2.0 * rs.k * np.log(s1 + s2))
        s_int = (0.5 * q ** (-(rs.k + 0.5))) ** 2 * float(
            (w_weights[:, None] * w_weights[None, :] * inner).sum())
        jac = 1.0 / math.sqrt(3.0)
    else:
        raise DomainError("chamber integrals implemented for A_1 and A_2 only")
    if rs.trace_zero:
        v_part = 1.0
    else:
        v_part = math.sqrt(4.0 * math.pi)
    extra = rs.d - (rs.n + 1) if not rs.trace_zero else 0
    v_part *= math.sqrt(4.0 * math.pi) ** extra
    return rs.weyl_order * jac * v_part * s_int


def c_norm(rs: RootSystemA) -> float:
    """Normalization constant, determined empirically from the mass identity.

    Cached per root system; the cross-check against mehta_selberg_constant
    lives in the test/selftest suite.
    """
    key = (rs.n, rs.d, rs.k, rs.trace_zero)
    if key not in _c_norm_cache:
        _c_norm_cache[key] = (2.0 ** (-(rs.gamma + 0.5 * rs.d))
                              * gaussian_chamber_integral(rs))
    return _c_norm_cache[key]


def heat_log(rs: RootSystemA, t: float, X, Y,
             plan: Sequence[int] | None = None) -> float:
    """log p_t^W(X, Y)."""
    if not t > 0:
        raise DomainError("t must be > 0")
    X = np.asarray(X, dtype=float)
    Yc, _ = collapse_walls(rs, np.asarray(Y, dtype=float))
    arg = Yc / (2.0 * t)
    lv = spherical_log(rs, X, arg, plan)
    nx = float(X @ X)
    ny = float(np.asarray(Y, float) @ np.asarray(Y, float))
    return (-math.log(c_norm(rs)) - (rs.gamma + 0.5 * rs.d) * math.log(2.0)
            - (0.5 * rs.d + rs.gamma) * math.log(t)
            - (nx + ny) / (4.0 * t) + float(lv))


def heat_log_for_times(rs: RootSystemA, times, X, Y,
                       plan: Sequence[int] | None = None) -> np.ndarray:
    """log p_u^W(X, Y) for an array of times u (one batched psi call)."""
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0):
        raise DomainError("times must be > 0")
    X = np.asarray(X, dtype=float)
    Yc, _ = collapse_walls(rs, np.asarray(Y, dtype=float))
    rows = Yc[None, :] / (2.0 * times[:, None])
    lv = spherical_log(rs, X, rows, plan, batch=True)
    nx = float(X @ X)
    ny = float(np.asarray(Y, float) @ np.asarray(Y, float))
    return (-math.log(c_norm(rs)) - (rs.gamma + 0.5 * rs.d) * math.log(2.0)
            - (0.5 * rs.d + rs.gamma) * np.log(times)
            - (nx + ny) / (4.0 * times) + lv)


def heat_exact(rs: RootSystemA, t: float, X, Y, plan: Sequence[int] | None = None,
               *, with_error: bool = True) -> KernelValue:
    """p_t^W(X,Y) with a node-refinement error indicator."""
    X = rs.check_vector(X)
    plan = plan if plan is not None else default_node_plan(rs.n)
    lv = heat_log(rs, t, X, Y, plan)
    lv2 = heat_log(rs, t, X, Y, refined_plan(rs.n, plan)) if with_error else lv
    return refined(lv, lv2, evals=1)


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


def _y0_rows(rs: RootSystemA, s_grid: np.ndarray) -> np.ndarray:
    """Trace-zero chamber vectors from simple-root gaps (batched)."""
    if rs.n == 1:
        s = s_grid[:, 0]
        return np.stack([s / 2.0, -s / 2.0], axis=-1)
    s1, s2 = s_grid[:, 0], s_grid[:, 1]
    return np.stack([(2 * s1 + s2) / 3.0, (s2 - s1) / 3.0, -(s1 + 2 * s2) / 3.0],
                    axis=-1)


def _factor_linear_coeffs(rs: RootSystemA, t_f: float, A0: np.ndarray) -> np.ndarray:
    """Coefficients of s in <A0, Y0(s)>/(2 t_f) (the psi growth direction)."""
    if rs.n == 1:
        return np.array([(A0[0] - A0[1]) / (4.0 * t_f)])
    return np.array([A0[0] / (2.0 * t_f), -A0[2] / (2.0 * t_f)])


def chamber_heat_integral(rs: RootSystemA, factors: Sequence[tuple[float, np.ndarray]],
                          plan: Sequence[int] | None = None) -> float:
    """log of |W| int_{a+} prod_f p_{t_f}^W(A_f, Y) omega_k(Y) dY (n <= 2).

    Requires the standard realization d == n+1 (or trace-zero).  The mean
    direction of Y is integrated in closed form.  Over the root gaps s the
    combined Gaussian is exp(-s'Ms + lin.s): while its peak s* stays within
    a few widths of the origin (every t_f ~ gap^2 case), generalized
    Laguerre rules absorb the s^{2k} wall factors; once the peak escapes
    (t_f << gap^2, the kernel concentrates at Y ~ A), a shifted
    Gauss-Hermite rule centered at s* takes over.  Both rules have 48 nodes
    per gap.
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
    const = 0.0
    if not rs.trace_zero:
        # closed-form Gaussian over the mean direction v
        vf = np.array([math.sqrt(m) * _trace_split(rs, A)[0] for A in As])
        Acoef = float((1.0 / (4.0 * ts)).sum())
        Bcoef = float((vf / (2.0 * ts)).sum())
        Ccoef = float((vf ** 2 / (4.0 * ts)).sum())
        const += 0.5 * math.log(math.pi / Acoef) + Bcoef ** 2 / (4.0 * Acoef) - Ccoef
    lc = -math.log(c_norm(rs)) - (rs.gamma + 0.5 * rs.d) * math.log(2.0)
    A0s = []
    for t_f, A in zip(ts, As):
        _, A0 = _trace_split(rs, A)
        A0s.append(A0)
        const += (lc - (0.5 * rs.d + rs.gamma) * math.log(t_f)
                  - float(A0 @ A0) / (4.0 * t_f))

    if rs.n == 1:
        q = float((1.0 / (8.0 * ts)).sum())
        M = np.array([[q]])
    else:
        q = float((1.0 / (6.0 * ts)).sum())
        M = q * np.array([[1.0, 0.5], [0.5, 1.0]])
    lin_f = [_factor_linear_coeffs(rs, t_f, A0) for t_f, A0 in zip(ts, A0s)]
    lin = np.sum(lin_f, axis=0)
    s_star = np.linalg.solve(2.0 * M, lin)
    peak = float(s_star @ M @ s_star)

    if peak <= 16.0:
        # near-origin regime: absorb s^{2k} e^{-q s^2} per axis
        w_nodes, w_weights = _ref_genlaguerre(48, rs.k - 0.5)
        s = np.sqrt(w_nodes / q)
        if rs.n == 1:
            s_grid = s[:, None]
            logw = np.log(w_weights)
            rule_pref = math.log(0.5) - (rs.k + 0.5) * math.log(q)
        else:
            s1 = np.repeat(s, len(s))
            s2 = np.tile(s, len(s))
            s_grid = np.stack([s1, s2], axis=-1)
            logw = (np.log(w_weights)[:, None] + np.log(w_weights)[None, :]).ravel()
            logw = logw - q * s1 * s2 + 2.0 * rs.k * np.log(s1 + s2)
            rule_pref = 2 * (math.log(0.5) - (rs.k + 0.5) * math.log(q))
        Y0 = _y0_rows(rs, s_grid)
        logvals = logw.copy()
        for t_f, A0 in zip(ts, A0s):
            rows = Y0 / (2.0 * t_f)
            logvals = logvals + spherical_log(rs, A0, rows, plan, batch=True)
    else:
        # concentrated regime: Gauss-Hermite centered at the peak s*
        h, wh = _ref_hermite(48)
        L = np.linalg.cholesky(M)
        if rs.n == 1:
            offs = (h / L[0, 0])[:, None]
            logw = np.log(wh)
            rule_pref = -0.5 * math.log(np.linalg.det(M))
        else:
            o1 = np.repeat(h, len(h))
            o2 = np.tile(h, len(h))
            offs = np.linalg.solve(L.T, np.stack([o1, o2]))
            offs = offs.T
            logw = (np.log(wh)[:, None] + np.log(wh)[None, :]).ravel()
            rule_pref = -0.5 * math.log(np.linalg.det(M))
        s_grid = s_star[None, :] + offs
        keep = np.all(s_grid > 0.0, axis=1)
        s_grid = s_grid[keep]
        logw = logw[keep]
        logw = logw + 2.0 * rs.k * np.log(s_grid).sum(axis=1)
        if rs.n == 2:
            logw = logw + 2.0 * rs.k * np.log(s_grid.sum(axis=1))
        Y0 = _y0_rows(rs, s_grid)
        logvals = logw + peak
        for t_f, A0, lf in zip(ts, A0s, lin_f):
            rows = Y0 / (2.0 * t_f)
            growth = s_grid @ lf
            logvals = logvals + spherical_log(rs, A0, rows, plan, batch=True) - growth
    total = float(logsumexp(logvals))
    return (math.log(rs.weyl_order) - 0.5 * math.log(m) + const
            + rule_pref + total)


def heat_mass(rs: RootSystemA, t: float, X, plan: Sequence[int] | None = None) -> float:
    """|W| int_{a+} p_t^W(X, Y) omega_k(Y) dY; equals 1 for the true kernel."""
    X = rs.check_vector(np.asarray(X, dtype=float))
    return math.exp(chamber_heat_integral(rs, [(t, X)], plan=plan))


def chapman_kolmogorov_check(rs: RootSystemA, t: float, s: float, X, Z,
                             plan: Sequence[int] | None = None) -> float:
    """Relative residual of |W| int p_t(X,Y) p_s(Y,Z) omega dY = p_{t+s}(X,Z)."""
    if rs.n > 2:
        raise DomainError("Chapman-Kolmogorov check restricted to A_1 and A_2")
    X = rs.check_vector(np.asarray(X, dtype=float))
    Z = rs.check_vector(np.asarray(Z, dtype=float))
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


#: heat_exact/heat_envelope sweep, two psi rows a step (a generic and a wall
#: Y per time); spread is reported modulo the single global constant per
#: (n,k), which cancels in max/min
KERNEL = Kernel(
    label="heat n={rs.n} k={rs.k}", args=("t", "X", "Y"),
    grid=heat_sweep_grid, grid_options={"t_span": "t_span", "t_num": "num"},
    exact=heat_exact, log_value=heat_log, log_envelope=log_heat_envelope,
    columns=_heat_columns, spread_bound=1e2, psi_rows=2)
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
