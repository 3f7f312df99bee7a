"""Fast deterministic invariant suite behind `dunkl selftest`.

Every check is closed-form-verifiable or an identity (no recorded empirical
constants), runs in seconds, and uses fixed grids.  The mass-identity line
is the one that catches a corrupted normalization constant.
"""

from __future__ import annotations

import math

import numpy as np

from . import asymlab, heatkernel, newton, quad, rootsys, spherical, stable


class Check:
    def __init__(self, name, fn):
        self.name = name
        self.fn = fn


def _check_roots():
    rs = rootsys.rootsystem(2, 1.0)
    assert rootsys.positive_roots(rs) == [(1, 2), (1, 3), (2, 3)]
    assert rootsys.pairing(rs, (1, 3), (2.0, 0.0, -2.0)) == 4.0
    assert np.allclose(rootsys.reflect((1, 2), (5.0, 3.0)), (3.0, 5.0))
    assert abs(rootsys.weight(rs, (2.0, 0.0, -2.0)) - 256.0) < 1e-12
    d_direct = float(np.sum((np.array([1.0, 0.0])
                             - rootsys.reflect((1, 2), (2.0, 0.0))) ** 2))
    d_id = rootsys.reflected_distance_sq(rootsys.rootsystem(1, 1.0), (1, 2),
                                         (1.0, 0.0), (2.0, 0.0))
    assert abs(d_direct - d_id) < 1e-12
    return "root geometry identities"


def _check_jacobi():
    pts, w = quad.jacobi_rule(24, -0.5, -0.5, (0.0, 1.0))
    assert abs(w.sum() - math.pi) < 1e-12
    pts, w = quad.jacobi_rule(24, 0.5, 0.0, (0.0, 1.0))
    assert abs(w.sum() - 2.0 / 3.0) < 1e-12
    return "Jacobi weight-sum Beta identities"


def _check_psi0():
    for n, k, X in ((1, 0.5, (1.0, 0.0)), (2, 2.5, (1.3, 0.2, -0.9))):
        rs = rootsys.rootsystem(n, k)
        kv = spherical.spherical_exact(rs, np.zeros(n + 1), X, with_error=False)
        assert abs(kv.value - 1.0) < 1e-8, f"psi_0 = {kv.value}"
    return "psi_0 == 1 (A_1, A_2)"


def _check_oracle_k1():
    rs1 = rootsys.rootsystem(1, 1.0)
    v = spherical.spherical_exact(rs1, (1.0, 0.0), (1.0, 0.0), with_error=False).value
    ref = math.e - 1.0
    assert abs(v / ref - 1.0) < 1e-10
    assert abs(spherical.spherical_oracle_k1(rs1, (1.0, 0.0), (1.0, 0.0)) / ref - 1.0) < 1e-12
    rs2 = rootsys.rootsystem(2, 1.0)
    lam, X = (2.0, 1.0, 0.0), (1.0, 0.0, -1.0)
    v = spherical.spherical_exact(rs2, lam, X, with_error=False).value
    ref = spherical.spherical_oracle_k1(rs2, lam, X)
    assert abs(v / ref - 1.0) < 1e-8
    return "k=1 determinant oracle (A_1, A_2)"


def _check_envelope():
    rs = rootsys.rootsystem(1, 2.0)
    v = spherical.spherical_envelope(rs, (3.0, 0.0), (2.0, 0.0))
    assert abs(v - math.exp(6.0) / 49.0) < 1e-9
    rs2 = rootsys.rootsystem(2, 1.0)
    v2 = spherical.spherical_envelope(rs2, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert abs(v2 - math.e / 4.0) < 1e-12
    return "envelope closed-form values"


def _check_heat_mass():
    rs = rootsys.rootsystem(1, 1.0)
    mass = heatkernel.heat_mass(rs, 1.0, (0.7, -0.3))
    assert abs(mass - 1.0) < 1e-3, f"heat mass = {mass}"
    return f"heat mass identity (A_1, k=1, t=1): {mass:.8f}"


def _check_heat_envelope():
    rs = rootsys.rootsystem(1, 1.0)
    v = heatkernel.heat_envelope(rs, 1.0, (1.0, -1.0), (1.0, -1.0))
    assert abs(v - 0.2) < 1e-12
    return "heat envelope arithmetic"


def _check_newton_envelopes():
    rs = rootsys.rootsystem(1, 1.0, d=3)
    X = np.array([1.0, 0.0, 0.0])
    Y = np.array([2.0, 0.0, 0.0])
    # |X-Y|^2 = 1, alpha(X)alpha(Y) = 2 -> envelope = 1/(1+4)
    v = newton.newton_envelope_d3(rs, X, Y)
    assert abs(v - 0.2) < 1e-12
    rs2 = rootsys.rootsystem(1, 0.7, d=2)
    v2 = newton.newton_envelope_d2_a1(rs2, (1.0, 0.0), (1.0, 0.4))
    assert v2 > 0 and math.isfinite(v2)
    return "Newton envelope arithmetic"


def _check_subordinator():
    v = stable.subordinator_density(1.0, 1.0, 1.0)
    ref = math.exp(-0.25) / (2.0 * math.sqrt(math.pi))
    assert abs(v / ref - 1.0) < 1e-12
    kant = stable.subordinator_density(1.0, 1.0, 1.0, method="kanter")
    assert abs(kant / ref - 1.0) < 1e-7
    lap = quad.log_panel_integral(
        lambda u: stable.subordinator_log_density(0.5, 1.0, u) - u,
        1e-8, 200.0, panels_per_decade=4)
    assert abs(math.exp(lap) / math.exp(-1.0) - 1.0) < 1e-6
    return "subordinator closed form / Kanter / Laplace(z=1)"


def _check_lemmas():
    r = asymlab.lemma_A_ratio(1.0, 1.0)
    assert abs(r - (1.0 - math.exp(-1.0)) * 2.0) < 1e-10
    r0 = asymlab.lemma_A_ratio(2.0, 1e-9)
    assert abs(r0 - 0.5) < 1e-6
    g = asymlab.lemma_ai_ratio(1.0, 2.0, 0.0, [1.0])
    assert abs(g - 1.0) < 1e-10
    return "lemma golden values"


def _check_truncated():
    rs = rootsys.rootsystem(1, 0.75)
    r = asymlab.prop_truncated_ratio(rs, (0.0, 0.0), (1.0, 0.0))
    assert abs(r - 0.5) < 1e-10, f"symmetric truncation ratio {r}"
    return "truncated integral ratio = 1/2 at lambda = 0"


CHECKS = [
    Check("rootsys", _check_roots),
    Check("jacobi-weight-sum", _check_jacobi),
    Check("psi0-normalization", _check_psi0),
    Check("k1-oracle", _check_oracle_k1),
    Check("spherical-envelope", _check_envelope),
    Check("heat-mass-identity", _check_heat_mass),
    Check("heat-envelope", _check_heat_envelope),
    Check("newton-envelopes", _check_newton_envelopes),
    Check("subordinator", _check_subordinator),
    Check("lemma-suite", _check_lemmas),
    Check("prop-truncated", _check_truncated),
]


def run_selftest(verbose: bool = True) -> tuple[bool, list[str]]:
    lines = []
    all_ok = True
    for check in CHECKS:
        try:
            detail = check.fn()
            lines.append(f"PASS {check.name}: {detail}")
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            all_ok = False
            lines.append(f"FAIL {check.name}: {exc}")
    if verbose:
        for ln in lines:
            print(ln)
    return all_ok, lines
