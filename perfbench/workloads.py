"""The benchmark's workloads: inputs from a seed, a cheap warm-up, rounds.

A run repeats rounds until its time is up; ``run_round(j)`` runs round j.  A
round is the unit that ``wall_s`` times.  Rounds of one workload cost about
the same, so their median is steady, while the points they draw on rotate
from round to round so that the workload's whole point set is covered.  A
point that appears in several rounds must give the same bits in each.

The rounds of ``sph_a3_deep`` and ``chamber_batch`` run their points in a
fixed order, so that every seed gives the allocator the same history of
large arrays; only ``sweep_small``, whose arrays are small, shuffles by seed.

Every point is checked against an oracle, an identity or the recorded
reference in ``reference.json``.  A point that raises a ``DunklError``,
returns a non-finite value or misses its check is counted as failed with a
named cause; the pass goes on.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from dunkl import asymlab, cli, heatkernel, newton, spherical, stable
from dunkl.errors import DunklError
from dunkl.rootsys import rootsystem

#: criterion-1 bound for the k = 1 oracle at A_3
ORACLE_REL_TOL = 1e-3
#: |log value - recorded log value|; the (8,8,8) node plan stays within 1.3e-5
LOG_REF_TOL = 1e-4
#: relative tolerance on recorded lemma brackets
BRACKET_REL_TOL = 1e-4
#: criterion-3 bound on the heat mass
MASS_TOL = 1e-3

#: sweeps whose rows fail at the seed, with the reason they are kept
KNOWN_DEFECTS = {
    "stable n=1 k=1.0 s=1.99": (
        "every row is non-finite at the seed: the Kanter subordinator path "
        "overflows as s -> 2 (ROADMAP item 5); kept so failed_frac shows it"),
}


@dataclass
class Point:
    """One timed kernel value (a certification row, a lemma sweep or a call)."""

    label: str
    latency_s: float
    value: object = None          # compared bit for bit between passes
    cause: str | None = None      # why the point failed; None if it passed


@dataclass
class Outcome:
    """Everything one pass produced."""

    points: list[Point]
    report_checks: list[tuple[str, str, str | None]]   # (label, digest, cause)


def measure(label: str, fn, check) -> Point:
    """Time ``fn()``; a typed error or a failed ``check`` names the cause."""
    t0 = time.perf_counter()
    try:
        value = fn()
    except DunklError as exc:
        return Point(label, time.perf_counter() - t0, None,
                     f"raised {type(exc).__name__}")
    return Point(label, time.perf_counter() - t0, value, check(value))


def check_log_ref(ref: float | None):
    def check(value: float) -> str | None:
        if not math.isfinite(value):
            return "non-finite value"
        if ref is not None and abs(value - ref) > LOG_REF_TOL:
            return f"|log - recorded reference| > {LOG_REF_TOL:g}"
        return None
    return check


def rand_interior(rng, m: int) -> np.ndarray:
    """A random strictly decreasing chamber vector (gaps in [0.15, 1])."""
    gaps = rng.uniform(0.15, 1.0, size=m - 1)
    x = np.concatenate([[0.0], np.cumsum(gaps)])[::-1]
    return x + rng.uniform(-0.5, 0.5)


def encode(obj):
    if isinstance(obj, (tuple, list)):
        return [encode(o) for o in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return float(obj)


def decode(obj):
    return tuple(np.array(o, dtype=float) if isinstance(o, list) else o for o in obj)


# ---------------------------------------------------------------------------
# certification sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sweep:
    """One ``certify_*`` sweep on an explicit, recorded grid."""

    kernel: str
    n: int
    k: float
    d: int | None = None
    s: float | None = None

    @property
    def label(self) -> str:
        extra = f" d={self.d}" if self.d is not None else ""
        extra += f" s={self.s}" if self.s is not None else ""
        return f"{self.kernel} n={self.n} k={self.k}{extra}"

    def rs(self):
        return rootsystem(self.n, self.k, self.d)

    def api(self):
        """The kernel's (default grid, row, certify) functions for this sweep."""
        rs = self.rs()
        if self.kernel == "spherical":
            fns = (spherical.pairing_sweep_grid, spherical.spherical_row,
                   spherical.certify_ratio)
        elif self.kernel == "heat":
            fns = (heatkernel.heat_sweep_grid, heatkernel.heat_row,
                   heatkernel.certify_heat_ratio)
        elif self.kernel == "newton":
            fns = (newton.newton_sweep_grid, newton.newton_row,
                   newton.certify_newton_ratio)
        else:
            return tuple(partial(f, rs, self.s) for f in (
                stable.stable_sweep_grid, stable.stable_row, stable.certify_stable_ratio))
        return tuple(partial(f, rs) for f in fns)

    def default_grid(self) -> list:
        """The package's default grid; used only to record the reference."""
        return self.api()[0]()

    def row(self, point) -> dict:
        return self.api()[1](point)

    def certify(self, points, mapper):
        return self.api()[2](points, mapper=mapper)

    def config(self) -> cli.SweepConfig:
        return cli.SweepConfig(kernel=self.kernel, n=self.n, k=(self.k,),
                               s=(self.s,) if self.s is not None else (1.0,),
                               d=self.d)


SWEEP_SMALL_K = (0.25, 0.5, 1.0, 2.5)
SWEEP_SMALL = tuple(
    [Sweep(kern, n, k) for kern in ("spherical", "heat") for n in (1, 2)
     for k in SWEEP_SMALL_K]
    + [Sweep("newton", 1, k, d=d) for d in (3, 2) for k in SWEEP_SMALL_K]
    + [Sweep("stable", 1, 1.0, s=s) for s in (0.5, 1.0, 1.5, 1.99)])
CHAMBER_SWEEPS = (Sweep("newton", 2, 0.5), Sweep("stable", 2, 0.5, s=1.5))


def recorded_sweeps(ref: dict, specs) -> list[tuple[Sweep, dict]]:
    """Each sweep with its recorded grid points and reference log ratios."""
    entries = {e["label"]: e for e in ref["sweeps"]}
    return [(sw, {"points": [decode(p) for p in entries[sw.label]["points"]],
                  "log_ratio": entries[sw.label]["log_ratio"]}) for sw in specs]


class TimedMapper:
    """``mapper=`` for ``certify_*``: times each row, runs the rows in a
    seeded order (grid order if ``rng`` is None) and returns them in grid
    order, and turns a typed error into a NaN row so the remaining rows
    still run."""

    def __init__(self, rng):
        self.rng = rng
        self.latencies: list[float] = []
        self.errors: list[str | None] = []
        self.rows: list[dict] = []

    def __call__(self, fn, points):
        points = list(points)
        self.rows = [None] * len(points)
        self.latencies = [0.0] * len(points)
        self.errors = [None] * len(points)
        n = len(points)
        for i in range(n) if self.rng is None else self.rng.permutation(n):
            t0 = time.perf_counter()
            try:
                self.rows[i] = fn(points[i])
            except DunklError as exc:
                self.errors[i] = f"raised {type(exc).__name__}"
                self.rows[i] = {"log_exact": math.nan, "log_envelope": math.nan,
                                "log_ratio": math.nan}
            self.latencies[i] = time.perf_counter() - t0
        return self.rows


def run_sweep(sweep: Sweep, entry: dict, rng, out_dir: str | None,
              outcome: Outcome, rows: list[int] | None = None):
    """Certify one sweep (only its grid points ``rows``, if given), check each
    row, and round-trip its CSV report."""
    rows = list(range(len(entry["points"]))) if rows is None else rows
    mapper = TimedMapper(rng)
    try:
        report = sweep.certify([entry["points"][i] for i in rows], mapper)
    except ValueError:
        # build_ratio_report refuses non-finite rows; they are counted below
        report = None
    for j, (i, row) in enumerate(zip(rows, mapper.rows)):
        value = (row["log_exact"], row["log_envelope"], row["log_ratio"])
        cause = mapper.errors[j]
        if cause is None:
            cause = check_log_ref(entry["log_ratio"][i])(row["log_ratio"])
            if cause is None and not math.isfinite(row["log_exact"]):
                cause = "non-finite value"
        outcome.points.append(Point(f"{sweep.label} #{i}", mapper.latencies[j],
                                    value, cause))
    if report is None:
        if not any(p.cause for p in outcome.points[-len(mapper.rows):]):
            raise RuntimeError(f"{sweep.label}: report refused with every row valid")
        return
    if out_dir is not None:
        outcome.report_checks.append(csv_round_trip(sweep, report, out_dir))


def csv_round_trip(sweep: Sweep, report, out_dir: str) -> tuple[str, str, str | None]:
    """Write the report with cli.write_csv, re-read it, compare the summary."""
    path = os.path.join(out_dir, sweep.label.replace(" ", "_") + ".csv")
    cli.write_csv(path, report, sweep.config())
    rows, summary = cli.read_csv_report(path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    cause = None
    if (summary.get("min_ratio") != report.min_ratio
            or summary.get("max_ratio") != report.max_ratio
            or summary.get("count") != report.count
            or len(rows) != report.count
            or min(r["ratio"] for r in rows) != report.min_ratio):
        cause = "re-read CSV does not reproduce the summary"
    return f"csv {sweep.label}", digest, cause


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

class SphA3Deep:
    """A_3 spherical_log, one point at a time (deep rank recursion)."""

    name = "sph_a3_deep"
    #: pairing-grid classes by minimum pairing; one recorded point is drawn
    #: from each class at each k
    CLASSES = {"small": lambda p: p <= 1e-2,
               "middle": lambda p: 1e-1 <= p <= 1e1,
               "large": lambda p: p >= 1e3}
    N_RANDOM = 3
    #: the grid classes of a round at (k = 0.25, k = 2.5).  Large pairing costs
    #: about twice as much (tilted rows), so every round has exactly one large
    #: point; four rounds cover all six (k, class) cells.
    ROUNDS = (("small", "large"), ("large", "small"),
              ("middle", "large"), ("large", "middle"))

    def __init__(self, seed: int, ref: dict, out_dir: str | None = None):
        rng = np.random.default_rng(seed)
        self.random = []   # (label, rs, lam, X, check)
        rs1 = rootsystem(3, 1.0)
        for i in range(self.N_RANDOM):
            lam, X = rand_interior(rng, 4), rand_interior(rng, 4)
            oracle = spherical.spherical_oracle_k1(rs1, lam, X)
            self.random.append((f"k=1 random #{i}", rs1, lam, X,
                                self._oracle_check(oracle)))
        grid = ref[self.name]
        self.ks = sorted({g["k"] for g in grid})
        self.grid = {}     # (k, class) -> case
        for k in self.ks:
            for cls, member in self.CLASSES.items():
                cands = [g for g in grid if g["k"] == k and member(g["min_pairing"])]
                g = cands[int(rng.integers(len(cands)))]
                self.grid[k, cls] = (f"k={k} {cls} pairing={g['min_pairing']:.3g}",
                                     rootsystem(3, k), np.array(g["lam"]),
                                     np.array(g["X"]), check_log_ref(g["log_psi"]))

    @staticmethod
    def _oracle_check(oracle: float):
        def check(value: float) -> str | None:
            if not math.isfinite(value):
                return "non-finite value"
            rel = abs(math.expm1(value - math.log(oracle)))
            if rel > ORACLE_REL_TOL:
                return f"relative error vs k=1 oracle {rel:.3g} > {ORACLE_REL_TOL:g}"
            return None
        return check

    def warm_up(self):
        # rank-1 calls with each node count of the A_3 plan build the same
        # Jacobi and tilted-Laguerre rules the workload uses
        for k in sorted({1.0, *self.ks}):
            rs = rootsystem(1, k)
            for q in sorted(set(spherical.default_node_plan(3))):
                for scale in (1.0, 1e4):
                    spherical.spherical_log(rs, (scale, 0.0), (1.0, 0.0), plan=(q,))

    def run_round(self, j: int) -> Outcome:
        """One random k = 1 point and one grid point at each k."""
        classes = self.ROUNDS[j % len(self.ROUNDS)]
        cases = [self.random[j % self.N_RANDOM]] + [
            self.grid[k, cls] for k, cls in zip(self.ks, classes)]
        out = Outcome([], [])
        for label, rs, lam, X, check in cases:
            out.points.append(measure(
                label, lambda: spherical.spherical_log(rs, lam, X), check))
        return out


class SweepSmall:
    """418 cheap certification rows plus the six lemma sweeps."""

    name = "sweep_small"

    def __init__(self, seed: int, ref: dict, out_dir: str | None = None):
        self.rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.sweeps = recorded_sweeps(ref[self.name], SWEEP_SMALL)
        self.claims = ref[self.name]["claims"]

    def warm_up(self):
        # one row of each sweep fills the rule and c_norm caches
        for sweep, entry in self.sweeps:
            try:
                sweep.row(entry["points"][0])
            except DunklError:
                pass

    def _claim_check(self, claim_id: str):
        ref = self.claims[claim_id]

        def check(value) -> str | None:
            (lo, hi), ok = value
            if ok != ref["ok"]:
                return f"verdict {ok} differs from the recorded {ref['ok']}"
            for got, want in zip((lo, hi), ref["bracket"]):
                if not abs(got - want) <= BRACKET_REL_TOL * abs(want):
                    return f"bracket end {got!r} differs from the recorded {want!r}"
            return None
        return check

    def _claim(self, claim_id: str):
        claim, ok, _detail = asymlab.sweep_claim(claim_id)
        return claim.bracket, ok

    def run_round(self, j: int) -> Outcome:
        """Every sweep and lemma sweep: each round is the whole workload."""
        out = Outcome([], [])
        jobs = [("sweep", s) for s in self.sweeps] + [("claim", c) for c in self.claims]
        for i in self.rng.permutation(len(jobs)):
            kind, job = jobs[i]
            if kind == "sweep":
                run_sweep(job[0], job[1], self.rng, self.out_dir, out)
            else:
                out.points.append(measure(f"claim {job}",
                                          lambda: self._claim(job),
                                          self._claim_check(job)))
        return out


class ChamberBatch:
    """Wide batched A_2 calls: heat mass, Newton and stable sweeps."""

    name = "chamber_batch"
    MASS_CELLS = ((0.5, 0.5), (1.0, 1.0), (2.0, 2.0))
    #: stable rows certified a round, rotating over the sweep's grid.  With 5,
    #: a round has 19 points and its median is the second of the five slow
    #: Newton rows (#0-#4, which cost about the same); with 3 it fell on the
    #: step between row #5 and those rows, and moved with every jitter.
    STABLE_ROWS = 5

    def __init__(self, seed: int, ref: dict, out_dir: str | None = None):
        rng = np.random.default_rng(seed)
        self.mass_X = [rand_interior(rng, 3) for _ in self.MASS_CELLS]
        self.newton, self.stable = recorded_sweeps(ref[self.name], CHAMBER_SWEEPS)

    def warm_up(self):
        for k, t in self.MASS_CELLS:
            rs = rootsystem(2, k)
            heatkernel.heat_log(rs, t, (1.0, 0.0, -1.0), (0.5, 0.0, -0.5))
        newton_sweep, entry = self.newton
        newton_sweep.row(entry["points"][0])
        stable.subordinator_log_density(self.stable[0].s, 1.0, [1.0])

    @staticmethod
    def _mass_check(mass: float) -> str | None:
        if not math.isfinite(mass):
            return "non-finite value"
        if abs(mass - 1.0) > MASS_TOL:
            return f"|mass - 1| = {abs(mass - 1.0):.3g} > {MASS_TOL:g}"
        return None

    def run_round(self, j: int) -> Outcome:
        """One heat mass cell, the whole Newton sweep and a stable sub-sweep."""
        out = Outcome([], [])
        cell = j % len(self.MASS_CELLS)
        n_stable = len(self.stable[1]["points"])
        stable_rows = sorted({(self.STABLE_ROWS * j + r) % n_stable
                              for r in range(self.STABLE_ROWS)})
        (k, t), X = self.MASS_CELLS[cell], self.mass_X[cell]
        out.points.append(measure(
            f"heat_mass k={k} t={t}",
            lambda: heatkernel.heat_mass(rootsystem(2, k), t, X),
            self._mass_check))
        run_sweep(*self.newton, None, None, out)
        run_sweep(*self.stable, None, None, out, rows=stable_rows)
        return out


WORKLOADS = {w.name: w for w in (SphA3Deep, SweepSmall, ChamberBatch)}
