"""Certified psi-row pruning: every pruned positive sum of psi rows against
the full sum over every row, and the evaluations the kernels report."""

import math

import numpy as np
import pytest

from dunkl import cli, heatkernel, newton, spherical, stable
from dunkl.rootsys import rootsystem

#: a small plan keeps the full A_3 sums cheap; the bounds do not depend on it
A3_PLAN = (6, 5, 5)


class KeptSpy:
    """Records (kept, total) of each ``_kept`` call; keeps every row when
    ``full``, which makes the sum the full sum over every row."""

    def __init__(self, full: bool):
        self.full = full
        self.calls = []

    def __call__(self, lo, hi):
        keep = np.ones(hi.shape, dtype=bool) if self.full else KEPT(lo, hi)
        self.calls.append((int(keep.sum()), keep.size))
        return keep


KEPT = heatkernel._kept
#: heat rows of one ``stable_log`` call at its default rule
STABLE_ROWS = 504


def pruned_and_full(monkeypatch, fn):
    """(pruned value, full value, [(kept, total)] of the pruned call)."""
    spy = KeptSpy(full=False)
    monkeypatch.setattr(heatkernel, "_kept", spy)
    pruned = fn()
    monkeypatch.setattr(heatkernel, "_kept", KeptSpy(full=True))
    full = fn()
    monkeypatch.setattr(heatkernel, "_kept", KEPT)
    return pruned, full, spy.calls


def assert_close(pruned, full):
    assert abs(pruned - full) <= 1e-14 * max(1.0, abs(full)), (pruned, full)


def _plan(n):
    return A3_PLAN if n == 3 else None


# A_1 sums are not pruned (heatkernel.PRUNE_FROM_RANK): their cases check
# that they stay the full sums
@pytest.mark.parametrize("n, k", [(1, 1.0), (2, 0.5), (3, 1.0)])
def test_pruned_newton_equals_full_sum(n, k, monkeypatch):
    rs = rootsystem(n, k, d=3 if n == 1 else None)
    for X, Y in newton.newton_sweep_grid(rs, num=3):
        pruned, full, calls = pruned_and_full(
            monkeypatch, lambda: newton.newton_log(rs, X, Y, plan=_plan(n)))
        assert_close(pruned, full)
        assert calls == ([] if n == 1 else
                         [(newton._psi_rows(rs, X, Y), newton.U_NODES)])


@pytest.mark.parametrize("n, k", [(1, 1.0), (2, 0.5), (3, 1.0)])
def test_pruned_stable_equals_full_sum(n, k, monkeypatch):
    rs = rootsystem(n, k)
    kept = []
    for t, X, Y in stable.stable_sweep_grid(rs, 1.5, num=3):
        pruned, full, calls = pruned_and_full(
            monkeypatch, lambda: stable.stable_log(rs, 1.5, t, X, Y, plan=_plan(n)))
        assert_close(pruned, full)
        assert calls == ([] if n == 1 else
                         [(stable._psi_rows(rs, 1.5, t, X, Y), STABLE_ROWS)])
        kept += calls
    if n == 2:
        assert all(k < total for k, total in kept), kept


# A_2 heat masses: generic cells on the gap rule, concentrated and near-wall
# cells on the shifted Hermite rule
MASS_CELLS = [
    (0.5, 0.5, (1.1, 0.2, -0.5)),
    (2.0, 2.0, (1.1, 0.2, -0.5)),
    (1.0, 0.005, (1.1, 0.2, -0.5)),
    (0.25, 0.03, (1.15, -0.68, -0.79)),
    (0.5, 0.0063, (1.15, -0.68, -0.79)),
    (1.0, 0.03, (1.15, -0.68, -0.79)),
]


def test_pruned_heat_mass_equals_full_sum_on_both_branches(monkeypatch):
    gap_rules = []
    gap_rule = heatkernel._gap_rule
    monkeypatch.setattr(heatkernel, "_gap_rule",
                        lambda *a: gap_rules.append(1) or gap_rule(*a))
    branches = []
    for k, t, X in MASS_CELLS:
        rs = rootsystem(2, k)
        before = len(gap_rules)
        pruned, full, calls = pruned_and_full(
            monkeypatch, lambda: heatkernel.chamber_heat_integral(rs, [(t, np.array(X))]))
        branches.append(len(gap_rules) > before)
        assert_close(pruned, full)
        (kept, total), = calls
        assert kept < total, (k, t, X, kept)
    assert any(branches) and not all(branches)


def test_pruned_chapman_kolmogorov_equals_full_sum(monkeypatch):
    rs = rootsystem(2, 0.5)
    X, Z = np.array([1.1, 0.2, -0.5]), np.array([0.9, 0.0, -0.4])
    pruned, full, calls = pruned_and_full(
        monkeypatch, lambda: heatkernel.chamber_heat_integral(rs, [(0.3, X), (0.7, Z)]))
    assert_close(pruned, full)
    (kept, total), = calls
    assert kept < total
    assert heatkernel.chapman_kolmogorov_check(rs, 0.3, 0.7, X, Z) < 1e-6


def test_bounds_bracket_every_psi_row():
    rs = rootsystem(2, 0.5, d=4)
    lam = np.array([1.3, -0.4, 0.2, 0.7])
    X = np.array([[1.0, 0.1, -0.6, 0.3], [2.0, 1.9, -3.0, -1.0]])
    lo, hi = spherical.psi_log_bounds(rs, lam, X)
    val = spherical.spherical_log(rs, lam, X)
    assert np.all(lo < val) and np.all(val < hi)
    lo, hi = spherical.psi_log_bounds(rs, lam, X[:, [2, 0, 1, 3]])  # any order
    assert np.all(lo < val) and np.all(val < hi)


@pytest.mark.parametrize("s", [1.95, 1.99])
def test_non_finite_log_weights_keep_every_row(s):
    rs = rootsystem(2, 0.5)
    X, Y = np.array([1.0, 0.0, -0.4]), np.array([0.5, 0.1, -0.2])
    with np.errstate(all="ignore"):
        assert stable._psi_rows(rs, s, 1.0, X, Y) == STABLE_ROWS
    lo = np.array([0.0, -80.0, math.nan])
    assert KEPT(lo, lo + 1.0).all()


def _counting(monkeypatch):
    seen = []
    predicted = spherical._predicted_evals

    def counting(m, plan, batch=1):
        seen.append(predicted(m, plan, batch))
        return seen[-1]

    monkeypatch.setattr(spherical, "_predicted_evals", counting)
    return seen


@pytest.mark.parametrize("kernel, args", [
    ("heat", (rootsystem(2, 0.5), 0.8, np.array([1.1, 0.2, -0.5]),
              np.array([0.9, 0.0, -0.3]))),
    ("newton", (rootsystem(2, 0.5), np.array([1.1, 0.2, -0.5]),
                np.array([0.9, 0.0, -0.3]))),
    ("stable", (rootsystem(2, 0.5), 1.5, 0.7, np.array([1.1, 0.2, -0.5]),
                np.array([0.9, 0.0, -0.3]))),
])
def test_exact_reports_the_evaluations_it_makes(kernel, args, monkeypatch):
    exact = {"heat": heatkernel.heat_exact, "newton": newton.newton_exact,
             "stable": stable.stable_exact}[kernel]
    seen = _counting(monkeypatch)
    kv = exact(*args)
    assert kv.evals == sum(seen) > 0


@pytest.mark.parametrize("kernel", ["newton", "stable"])
def test_budget_prices_the_pruned_rows_a_sweep_makes(kernel, monkeypatch):
    # the A_2 price runs the keep rule: exactly the rows the sweep evaluates
    config = cli.SweepConfig(kernel=kernel, n=2, k=(0.5,), s=(1.5,), num=3,
                             plan=(6, 5))
    priced = config.predicted_evals()
    every_row = 3 * {"newton": newton.U_NODES, "stable": STABLE_ROWS}[kernel]
    assert priced < every_row * spherical._predicted_evals(2, (6, 5))
    monkeypatch.setattr(config, "validate_budget", lambda: None)
    seen = _counting(monkeypatch)
    cli.run_certify(config)
    assert priced == sum(seen)
