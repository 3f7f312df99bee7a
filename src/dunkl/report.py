"""Ratio-sweep reports: the operational form of a two-sided sharp estimate.

A sweep evaluates exact/envelope at every grid point; the report records the
bracket [min, max], its spread, where the extremes happened, and (when the
grid is parameterized by a pairing product) the least-squares drift slope of
log10(ratio) against log10(pairing) over the saturated tail.  A bounded
spread with a flat tail is the numerical certificate of an "asymp" claim.

``Kernel`` declares one kernel for the sweeps and the CLI; its ``row`` and
``certify`` are the only certification row and sweep.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np


@dataclass
class RatioReport:
    grid: str
    min_ratio: float
    max_ratio: float
    argmin: dict
    argmax: dict
    count: int
    rows: list[dict] = field(repr=False, default_factory=list)
    log_min: float = 0.0
    log_max: float = 0.0
    slope_full: float | None = None
    slope_tail: float | None = None

    @property
    def spread(self) -> float:
        if self.log_max - self.log_min < 700:
            return math.exp(self.log_max - self.log_min)
        return math.inf

    def passes(self, spread_bound: float) -> bool:
        return (self.min_ratio > 0 and math.isfinite(self.log_min)
                and math.isfinite(self.log_max) and self.spread <= spread_bound)

    def summary_line(self, spread_bound: float | None = None) -> str:
        verdict = ""
        if spread_bound is not None:
            verdict = " PASS" if self.passes(spread_bound) else " FAIL"
        drift = ""
        if self.slope_tail is not None:
            drift = f" tail_slope={self.slope_tail:+.4f}"
        return (f"{self.grid}: n={self.count} ratio in [{self.min_ratio:.6g}, "
                f"{self.max_ratio:.6g}] spread={self.spread:.6g}{drift}{verdict}")


def _ls_slope(x: np.ndarray, y: np.ndarray) -> float | None:
    if len(x) < 3 or np.ptp(x) == 0:
        return None
    return float(np.polyfit(x, y, 1)[0])


def build_ratio_report(grid: str, rows: Sequence[dict], *,
                       drift_key: str | None = None,
                       tail_cut: float = 1e2) -> RatioReport:
    """Summarize sweep rows; each row needs 'log_ratio' plus its inputs.

    ``drift_key`` names the row field (a positive sweep parameter) against
    which the drift slope is fitted; the tail fit keeps rows with
    drift_key >= tail_cut.
    """
    if not rows:
        raise ValueError("empty sweep grid")
    logr = np.array([r["log_ratio"] for r in rows], dtype=float)
    if not np.all(np.isfinite(logr)):
        bad = rows[int(np.where(~np.isfinite(logr))[0][0])]
        raise ValueError(f"non-finite ratio at grid point {bad}")
    i_min = int(np.argmin(logr))
    i_max = int(np.argmax(logr))

    def inputs(r):
        return {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                for k, v in r.items()
                if k not in ("log_ratio", "log_exact", "log_envelope", "err_indicator")}

    slope_full = slope_tail = None
    if drift_key is not None:
        x = np.array([r[drift_key] for r in rows], dtype=float)
        lx = np.log10(x)
        ly = logr / math.log(10.0)
        slope_full = _ls_slope(lx, ly)
        mask = x >= tail_cut
        slope_tail = _ls_slope(lx[mask], ly[mask])
    return RatioReport(
        grid=grid,
        min_ratio=math.exp(logr[i_min]) if logr[i_min] > -700 else 0.0,
        max_ratio=math.exp(logr[i_max]) if logr[i_max] < 700 else math.inf,
        argmin=inputs(rows[i_min]),
        argmax=inputs(rows[i_max]),
        count=len(rows),
        rows=list(rows),
        log_min=float(logr[i_min]),
        log_max=float(logr[i_max]),
        slope_full=slope_full,
        slope_tail=slope_tail,
    )


@dataclass(frozen=True)
class Kernel:
    """One kernel, declared once for its sweeps and the CLI.  Its functions
    take ``rs``, then the arguments ``args`` names as CLI options; a grid
    point holds those arguments, without ``s`` on a record that sets ``s``."""

    label: str               # report title, formatted with rs, s and trace0
    args: tuple[str, ...]
    grid: Callable           # (rs, [s,] **options) -> grid points
    grid_options: dict[str, str]  # grid keyword -> the SweepConfig field giving it
    exact: Callable          # (rs, *args, plan=None, *, with_error=True) -> KernelValue
    log_value: Callable      # (rs, *args, plan=None) -> log value of one row
    log_envelope: Callable   # (rs, *args) -> log envelope
    columns: Callable        # (rs, *args) -> the row's inputs after n and k
    spread_bound: float      # default PASS threshold on the certified spread
    psi_rows: int            # psi rows a sweep evaluates per step of --num
    drift_key: str | None = None
    tail_cut: float = 1e2
    canonical: Callable | None = None  # (rs, *args) -> the args a row is taken at
    s: float | None = None

    def row(self, rs, point, plan: Sequence[int] | None = None) -> dict:
        """One certification row: inputs, log exact/envelope/ratio at a point."""
        args = (*point,) if self.s is None else (self.s, *point)
        if self.canonical is not None:
            args = self.canonical(rs, *args)
        # the log value as its module binds it now, so that a wrapper put on
        # the module (a tracer, a test double) also sees the rows' calls
        log_value = getattr(sys.modules[self.log_value.__module__], self.log_value.__name__)
        lv = log_value(rs, *args, plan=plan)
        le = self.log_envelope(rs, *args)
        return {"n": rs.n, "k": rs.k, **self.columns(rs, *args),
                "log_exact": lv, "log_envelope": le, "log_ratio": lv - le,
                "err_indicator": 0.0}

    def certify(self, rs, points=None, *, plan: Sequence[int] | None = None,
                mapper=map, **options) -> RatioReport:
        """Ratio sweep over ``points`` (default: the grid built with
        ``options``); the drift is fitted against ``drift_key`` over the rows
        with drift_key >= tail_cut."""
        if points is None:
            points = self.grid(rs, *(() if self.s is None else (self.s,)), **options)
        rows = list(mapper(partial(self.row, rs, plan=plan), points))
        title = self.label.format(rs=rs, s=self.s,
                                  trace0=" trace0" if rs.trace_zero else "")
        return build_ratio_report(title, rows, drift_key=self.drift_key,
                                  tail_cut=self.tail_cut)
