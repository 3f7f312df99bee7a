"""Acceptance gate: one test (or parametrized cell) per criterion, each at
its stated tolerance, printing one PASS/FAIL line per criterion.

Four cells assert bounds that the *true* kernels violate: the certified
exact/envelope spread saturates at the sharp-estimate constants for that
(n, k) or (s, k), which exceed the uniform bounds the criteria posit (the
values are stable to 1e-12 under node refinement and match the k=1
determinant oracle at 1e-13, so they are mathematics, not quadrature).
Those asserts are kept at the stated tolerance and fail honestly; the
failure messages carry the measured value and the saturation analysis.
"""

import math
import time

import numpy as np
import pytest

from dunkl.asymlab import (lemma_A_ratio, lemma_a1_ratio, lemma_a2_ratio,
                           lemma_ai_ratio)
from dunkl.heatkernel import (certify_heat_ratio, chapman_kolmogorov_check,
                              generator_check, heat_mass, log_mehta_selberg,
                              parabolic_rescale_residual)
from dunkl.newton import (certify_newton_ratio, homogeneity_residual,
                          newton_sweep_grid)
from dunkl.quad import log_panel_integral
from dunkl.rootsys import reflected_distance_sq, rootsystem
from dunkl.selftest import run_selftest
from dunkl.spherical import (_pairing_columns, certify_ratio,
                             log_spherical_envelope, pairing_sweep_grid,
                             spherical_log, spherical_oracle_k1)
from dunkl.stable import (certify_stable_ratio, log_stable_envelope,
                          stable_log, stable_scaling_residual,
                          stable_sweep_grid, subordinator_density,
                          subordinator_inversion, subordinator_log_density)
from stable_reference import subordinator_bounds_sweep

MODULE_T0 = time.time()


def _report(line: str):
    print(line, flush=True)


def _rand_interior(rng, m):
    gaps = rng.uniform(0.15, 1.0, size=m - 1)
    x = np.concatenate([[0.0], np.cumsum(gaps)])[::-1]
    return x + rng.uniform(-0.5, 0.5)


# ---------------------------------------------------------------------------
# criterion 1: k=1 oracle agreement on 50 random interior points per rank
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,tol", [(1, 1e-6), (2, 1e-4), (3, 1e-3)])
def test_criterion_1_k1_oracle(n, tol):
    t0 = time.time()
    rs = rootsystem(n, 1.0)
    rng = np.random.default_rng(1000 + n)
    worst = 0.0
    for _ in range(50):
        lam = _rand_interior(rng, n + 1)
        X = _rand_interior(rng, n + 1)
        lv = spherical_log(rs, lam, X)
        ref = spherical_oracle_k1(rs, lam, X)
        worst = max(worst, abs(math.exp(lv - math.log(ref)) - 1.0))
    dt = time.time() - t0
    _report(f"criterion-1[A_{n}]: max rel err {worst:.3e} (tol {tol:g}), "
            f"{dt:.1f}s -> {'PASS' if worst <= tol else 'FAIL'}")
    assert worst <= tol
    assert dt < 300.0


# ---------------------------------------------------------------------------
# criterion 2: Theorem-main certification over 7 decades of pairing product
# ---------------------------------------------------------------------------

# the two k=2.5 cells with n >= 2 cannot meet the 1e3 spread bound: the
# ratio's large-pairing asymptote is prod_{j=2}^{n+1} Gamma(jk)/Gamma(k)
# (~2.5e4 at (2,2.5), ~3e9 at (3,2.5)), and the sweep reaches it
_C2_EXPECTED_SPREAD_RED = {(2, 2.5), (3, 2.5)}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.5])
def test_criterion_2_theorem_main(n, k):
    t0 = time.time()
    rs = rootsystem(n, k)
    rep = certify_ratio(rs, span=(1e-3, 1e4), num=15)  # drift over pairing >= 1e2
    ok_spread = rep.spread <= 1e3
    ok_slope = rep.slope_tail is not None and abs(rep.slope_tail) < 0.02
    _report(f"criterion-2[n={n},k={k}]: spread {rep.spread:.4g} "
            f"(bound 1e3), tail drift slope {rep.slope_tail:+.4f} "
            f"(bound 0.02), {time.time() - t0:.1f}s -> "
            f"{'PASS' if ok_spread and ok_slope else 'FAIL'}")
    assert rep.min_ratio > 0 and math.isfinite(rep.log_max)
    assert ok_slope, f"log-ratio drifts with slope {rep.slope_tail}"
    sat = math.exp(sum(math.lgamma(j * k) - math.lgamma(k)
                       for j in range(2, n + 2)))
    assert ok_spread, (
        f"measured spread {rep.spread:.4g} exceeds 1e3; the ratio's "
        f"large-pairing saturation constant for (n={n}, k={k}) is ~{sat:.3g}, "
        f"stable to 1e-12 under node refinement, so this bound cannot be met "
        f"by any correct evaluation")


# the green companion of the red criterion-2 cells: at large pairing p the
# ratio exact/envelope tends to C = prod_{j=2}^{n+1} Gamma(jk)/Gamma(k) at
# rate 1/p, and |ratio/C - 1| p measured 1.25 (A_1, k=2.5), 1.69 (A_2,
# k=0.5), 2.81 (A_2, k=2.5) and 3.61 (A_3, k=1) over p = 1e3..1e6
@pytest.mark.parametrize("n,k", [(1, 2.5), (2, 0.5), (2, 2.5), (3, 1.0)])
def test_criterion_2_ratio_tends_to_saturation_constant(n, k):
    rs = rootsystem(n, k)
    log_sat = sum(math.lgamma(j * k) - math.lgamma(k) for j in range(2, n + 2))
    rates = []
    for lam, X in pairing_sweep_grid(rs, span=(1e3, 1e6), num=4):
        pairing = _pairing_columns(rs, lam, X)["min_pairing"]
        log_ratio = spherical_log(rs, lam, X) - log_spherical_envelope(rs, lam, X)
        rates.append(abs(math.expm1(log_ratio - log_sat)) * pairing)
    ok = all(0.5 <= r <= 5.0 for r in rates)
    _report(f"criterion-2 companion[n={n},k={k}]: |ratio/C - 1| * pairing "
            f"{', '.join(f'{r:.3g}' for r in rates)} (bounds [0.5, 5]) -> "
            f"{'PASS' if ok else 'FAIL'}")
    assert ok, rates


def test_criterion_2_runtime_note():
    _report(f"criterion-2 cumulative module time so far: "
            f"{time.time() - MODULE_T0:.0f}s (bound 1800s)")
    assert time.time() - MODULE_T0 < 1800.0


# ---------------------------------------------------------------------------
# criterion 3: heat mass / Chapman-Kolmogorov / generator
# ---------------------------------------------------------------------------

def test_criterion_3_mass_ck_generator():
    worst_mass = 0.0
    for n in (1, 2):
        X = (0.7, -0.3) if n == 1 else (1.1, 0.2, -0.5)
        for k in (0.5, 1.0, 2.0):
            rs = rootsystem(n, k)
            for t in (0.5, 1.0, 2.0):
                worst_mass = max(worst_mass, abs(heat_mass(rs, t, X) - 1.0))
    rs1 = rootsystem(1, 1.0)
    ck = chapman_kolmogorov_check(rs1, 0.5, 0.5, (0.8, -0.2), (1.2, 0.1))
    gen = generator_check(rs1, 1.0, (0.9, -0.4), (0.5, 0.0), h=1e-4)
    ok = worst_mass <= 1e-3 and ck < 1e-4 and gen < 1e-3
    _report(f"criterion-3: mass dev {worst_mass:.2e} (1e-3), CK {ck:.2e} "
            f"(1e-4), generator {gen:.2e} (1e-3) -> {'PASS' if ok else 'FAIL'}")
    assert worst_mass <= 1e-3
    assert ck < 1e-4
    assert gen < 1e-3


# ---------------------------------------------------------------------------
# criterion 4: Theorem-heat certification
# ---------------------------------------------------------------------------

# at (2, 2.0) the spread over any grid crossing both regimes is at least
# 2^gamma = 2^6 times the psi saturation range (measured ~3.7e4)
_C4_EXPECTED_RED = {(2, 2.0)}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_criterion_4_theorem_heat(n, k):
    rs = rootsystem(n, k)
    rep = certify_heat_ratio(rs, t_span=(1e-2, 1e2), t_num=9)
    regimes = {r["regime"] for r in rep.rows}
    ok = rep.spread <= 1e2
    _report(f"criterion-4[n={n},k={k}]: spread {rep.spread:.4g} (bound 1e2) "
            f"regimes {sorted(regimes)} -> {'PASS' if ok else 'FAIL'}")
    assert regimes == {"t>=aa", "t<aa"}
    assert ok, (
        f"measured spread {rep.spread:.4g} exceeds 1e2; crossing both "
        f"regimes forces a factor 2^gamma = {2 ** rs.gamma:.3g} times the "
        f"spherical saturation range, so no correct evaluation on a "
        f"both-regime grid can meet this bound at (n={n}, k={k})")


def test_criterion_4_parabolic_invariance():
    rs = rootsystem(1, 1.0)
    worst = max(parabolic_rescale_residual(rs, 0.7, (1.2, 0.0), (0.9, 0.1), c)
                for c in (0.1, 10.0))
    rs2 = rootsystem(2, 0.5)
    worst = max(worst, max(
        parabolic_rescale_residual(rs2, 0.7, (1.2, 0.1, -0.4), (0.9, 0.2, -0.1), c)
        for c in (0.1, 10.0)))
    _report(f"criterion-4[parabolic]: max residual {worst:.2e} (1e-6) -> "
            f"{'PASS' if worst < 1e-6 else 'FAIL'}")
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# criterion 5: Theorem-Newton certification
# ---------------------------------------------------------------------------

def test_criterion_5_newton_d3():
    worst = {}
    for n in (1, 2):
        for k in (0.5, 1.0, 2.0):
            rs = rootsystem(n, k, d=3)
            rep = certify_newton_ratio(rs, num=13)
            quots = [r["quotient"] for r in rep.rows]
            assert max(quots) / min(quots) > 1e4  # covers > 4 decades
            worst[(n, k)] = rep.spread
    ok = all(v <= 1e2 for v in worst.values())
    _report(f"criterion-5[d=3]: spreads {worst} (bound 1e2) -> "
            f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_5_homogeneity():
    rs = rootsystem(1, 1.0, d=3)
    X = np.array([1.4, 0.2, 0.3])
    Y = np.array([1.0, 0.0, 0.1])
    worst = max(homogeneity_residual(rs, X, Y, c) for c in (0.1, 1.0, 10.0))
    _report(f"criterion-5[homogeneity]: residual {worst:.2e} (1e-5) -> "
            f"{'PASS' if worst < 1e-5 else 'FAIL'}")
    assert worst < 1e-5


def test_criterion_5_newton_d2():
    spreads = {}
    for k in (0.5, 1.0, 2.0):
        rep1 = certify_newton_ratio(rootsystem(1, k, d=2), num=13)
        spreads[("A1", k)] = rep1.spread
        rep2 = certify_newton_ratio(rootsystem(2, k, trace_zero=True), num=13)
        spreads[("A2", k)] = rep2.spread
    # A_1 d=2 envelope numerator >= ln 2 at every evaluated point
    rs = rootsystem(1, 1.0, d=2)
    min_num = math.inf
    for X, Y in newton_sweep_grid(rs, num=13):
        refl = reflected_distance_sq(rs, (1, 2), X, Y)
        r2 = float((X - Y) @ (X - Y))
        min_num = min(min_num, math.log1p(refl / r2))
    ok = all(v <= 1e2 for v in spreads.values()) and min_num >= math.log(2.0) - 1e-12
    _report(f"criterion-5[d=2]: spreads {spreads}, min numerator {min_num:.6f} "
            f">= ln2 -> {'PASS' if ok else 'FAIL'}")
    assert all(v <= 1e2 for v in spreads.values())
    assert min_num >= math.log(2.0) - 1e-12


# ---------------------------------------------------------------------------
# criterion 6: subordinator identities and bounds
# ---------------------------------------------------------------------------

def test_criterion_6_subordinator():
    worst_norm = worst_lap = worst_dual = 0.0
    for s in (0.5, 1.0, 1.5):
        beta = 0.5 * s
        for t in (0.5, 1.0, 2.0):
            u_star = t ** (2.0 / s)
            hi = u_star * 10.0 ** max(10.0, 7.0 / beta)
            lv = log_panel_integral(
                lambda u: subordinator_log_density(s, t, u),
                u_star * 1e-8, hi, panels_per_decade=4, nodes=16)
            worst_norm = max(worst_norm, abs(math.exp(lv) - 1.0))
            for z in (0.5, 1.0, 2.0):
                lvz = log_panel_integral(
                    lambda u: subordinator_log_density(s, t, u) - z * u,
                    u_star * 1e-9, max(200.0 / z, 100.0 * u_star),
                    panels_per_decade=4, nodes=16)
                worst_lap = max(worst_lap,
                                abs(math.exp(lvz) - math.exp(-t * z ** beta)))
    for t in (0.5, 1.0, 2.0):
        for u in np.geomspace(1e-1, 1e4, 9) * t * t:
            a = subordinator_inversion(1.0, t, float(u))
            b = subordinator_density(1.0, t, float(u))
            worst_dual = max(worst_dual, abs(a / b - 1.0))
    consts = {s: subordinator_bounds_sweep(s, 1.0, decades=(-4.0, 4.0))
              for s in (0.5, 1.0, 1.5)}
    bounds_ok = all(math.isfinite(c["upper_C"]) and c["upper_C"] > 0
                    and 0 < c["asymp_bracket"][0] <= c["asymp_bracket"][1] < math.inf
                    for c in consts.values())
    ok = worst_norm <= 1e-6 and worst_lap <= 1e-6 and worst_dual <= 1e-6 and bounds_ok
    _report(f"criterion-6: norm dev {worst_norm:.2e}, laplace dev "
            f"{worst_lap:.2e}, s=1 dual-path dev {worst_dual:.2e} (all 1e-6); "
            f"recorded C_upper/asymp: "
            f"{ {s: (round(c['upper_C'], 3), tuple(round(x, 3) for x in c['asymp_bracket'])) for s, c in consts.items()} } "
            f"-> {'PASS' if ok else 'FAIL'}")
    assert worst_norm <= 1e-6
    assert worst_lap <= 1e-6
    assert worst_dual <= 1e-6
    assert bounds_ok


# ---------------------------------------------------------------------------
# criterion 7: Theorem-stable certification
# ---------------------------------------------------------------------------

# at s=0.5 the deep-t^{2/s} saturation constant is
# Gamma((d/2+gamma)/beta) / (beta Gamma(d/2+gamma) 2^{gamma+d/2} c_k) ~ 401
# for A_1 k=1, giving a true spread ~1e3-1e4 over any straddle wider than
# about one decade each side
_C7_EXPECTED_RED = {0.5}


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_criterion_7_theorem_stable(s):
    rs = rootsystem(1, 1.0)
    rep = certify_stable_ratio(rs, s, num=11)
    regimes = {r["regime"] for r in rep.rows}
    ok = rep.spread <= 1e2
    _report(f"criterion-7[s={s}]: spread {rep.spread:.4g} (bound 1e2) "
            f"regimes {sorted(regimes)} -> {'PASS' if ok else 'FAIL'}")
    assert regimes == {"t^(2/s)>=R2", "t^(2/s)<R2"}
    assert ok, (
        f"measured spread {rep.spread:.4g} exceeds 1e2; the deep-time "
        f"saturation constant Gamma((d/2+gamma)(2/s))/(beta Gamma(d/2+gamma) "
        f"2^(gamma+d/2) c) is ~401 at (k=1, s=0.5) while the opposite regime "
        f"saturates near 0.04, so no correct evaluation on a crossover-"
        f"straddling grid can meet this bound")


# the green companion of the A_3 stable sweep (k = 1, s = 1.5), whose spread
# 2.0e5 is the mathematics: at deep time exact/envelope tends to
# Gamma((d/2+gamma)/beta) / (beta Gamma(d/2+gamma) 2^{gamma+d/2} c) = 1.51408e-4;
# it read 1.5159e-4 at t = 1e3 and 1.5142e-4 at t = 1e4
def test_criterion_7_a3_ratio_tends_to_deep_time_constant():
    rs = rootsystem(3, 1.0)
    s, beta = 1.5, 0.75
    a = 0.5 * rs.d + rs.gamma
    log_const = (math.lgamma(a / beta) - math.log(beta) - math.lgamma(a)
                 - a * math.log(2.0) - log_mehta_selberg(rs))
    _, X, Y = stable_sweep_grid(rs, s, num=3)[0]
    errs = [abs(math.expm1(stable_log(rs, s, t, X, Y)
                           - log_stable_envelope(rs, s, t, X, Y) - log_const))
            for t in (1e3, 1e4)]
    ok = errs[1] < errs[0] and errs[1] <= 2e-4
    _report(f"criterion-7 companion[A_3, k=1, s=1.5]: |ratio/C - 1| at "
            f"t = 1e3, 1e4: {errs[0]:.3g}, {errs[1]:.3g} (C = "
            f"{math.exp(log_const):.6g}, bound 2e-4) -> {'PASS' if ok else 'FAIL'}")
    assert ok, errs


def test_criterion_7_scaling():
    rs = rootsystem(1, 1.0)
    worst = max(stable_scaling_residual(rs, s, 0.9, (1.1, 0.0), (0.4, -0.2), 3.0)
                for s in (0.5, 1.0, 1.5))
    _report(f"criterion-7[scaling]: residual {worst:.2e} (1e-4) -> "
            f"{'PASS' if worst < 1e-4 else 'FAIL'}")
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# criterion 8: lemma suite
# ---------------------------------------------------------------------------

def test_criterion_8_lemma_suite():
    for k in (0.25, 0.5, 1.0, 2.0, 4.0):
        lo_lim, hi_lim = 1.0 / k, math.gamma(k)
        band = (min(lo_lim, hi_lim) / 2.0, 2.0 * max(lo_lim, hi_lim))
        for x in np.geomspace(1e-6, 1e6, 25):
            r = lemma_A_ratio(k, float(x))
            assert band[0] <= r <= band[1], (k, x, r)
    golden = 2.0 * math.e * 0.21938393439552026256 / math.log(3.0)
    dev = abs(lemma_a1_ratio(1.0, 1.0, 1.0) / golden - 1.0)
    assert dev < 1e-8
    # scale invariance of the recorded ratios to 5%
    worst_scale = 0.0
    base_ai = lemma_ai_ratio(0.8, 2.5, 0.7, [0.2, 3.0, 40.0])
    base_a1 = lemma_a1_ratio(1.0, 1.0, 1.0)
    base_a2 = lemma_a2_ratio(1.0, 1.0, 0.5, 1.0, 8.0)
    base_A = lemma_A_ratio(0.5, 7.0)
    for c in (1e-3, 1e3):
        worst_scale = max(
            worst_scale,
            abs(lemma_ai_ratio(0.8, 2.5, c * 0.7,
                               [c * 0.2, c * 3.0, c * 40.0]) / base_ai - 1.0),
            abs(lemma_a1_ratio(1.0, c, c) / base_a1 - 1.0),
            abs(lemma_a2_ratio(1.0, c, c * 0.5, c, c * 8.0) / base_a2 - 1.0),
            abs(lemma_A_ratio(0.5, 7.0) / base_A - 1.0))
    ok = dev < 1e-8 and worst_scale < 0.05
    _report(f"criterion-8: bracket PASS, a1 golden dev {dev:.2e} (1e-8), "
            f"scale drift {worst_scale:.2e} (5%) -> {'PASS' if ok else 'FAIL'}")
    assert worst_scale < 0.05


# ---------------------------------------------------------------------------
# criterion 9: selftest wall clock and suite runtime
# ---------------------------------------------------------------------------

def test_criterion_9_selftest_and_runtime():
    t0 = time.time()
    ok, lines = run_selftest(verbose=False)
    dt = time.time() - t0
    _report(f"criterion-9: selftest {'PASS' if ok else 'FAIL'} in {dt:.1f}s "
            f"(bound 60s)")
    assert ok, "\n".join(lines)
    assert dt < 60.0


def test_zz_criterion_9_total_runtime():
    total = time.time() - MODULE_T0
    _report(f"criterion-9: acceptance module total {total:.0f}s (bound 2700s)")
    assert total < 2700.0
