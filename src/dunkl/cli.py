"""Command-line surface: point evaluation, sweep certification, lemma
checks, selftest, and CSV/JSON export.

Exit codes: 0 pass, 1 certification fail, 2 usage/domain error, 3 budget
refusal.  DUNKL_BUDGET overrides the global evaluation cap.  Identical
config and version give byte-identical reports (fixed node counts, no
randomness); grid points can be dispatched to a worker pool, output order
always follows grid order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import Pool

import numpy as np

from . import __version__, asymlab, heatkernel, newton, spherical, stable
from .errors import BudgetExceededError, DomainError, DunklError
from .quad import budget_cap
from .report import RatioReport, build_ratio_report
from .rootsys import rootsystem
from .selftest import run_selftest


#: the kernel table that ``eval`` and ``certify`` dispatch on
KERNELS = {"spherical": spherical.KERNEL, "heat": heatkernel.KERNEL,
           "newton": newton.KERNEL, "stable": stable.KERNEL}


@dataclass
class SweepConfig:
    kernel: str
    n: int = 1
    k: tuple[float, ...] = (1.0,)
    s: tuple[float, ...] = (1.0,)
    d: int | None = None
    trace_zero: bool = False
    num: int = 15
    span: tuple[float, float] = (1e-3, 1e4)
    t_span: tuple[float, float] = (1e-2, 1e2)
    plan: tuple[int, ...] | None = None
    spread_bound: float | None = None
    out: str | None = None
    format: str = "csv"
    workers: int = 1
    version: str = field(default=__version__, repr=False)

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise DomainError(f"unknown kernel {self.kernel!r}")
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be csv or json, got {self.format!r}")
        if self.num < 1:
            raise DomainError("grid must have at least one point")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")
        for name in ("span", "t_span"):
            lo, hi = getattr(self, name)
            if not 0 < lo < hi:
                raise DomainError(f"{name} must satisfy 0 < lo < hi, got ({lo:g}, {hi:g})")
        if self.plan is not None and not (
                self.plan and all(isinstance(q, int) and q >= 1 for q in self.plan)):
            raise DomainError(f"node plan entries must be integers >= 1, got {self.plan}")
        if self.spread_bound is None:
            self.spread_bound = KERNELS[self.kernel].spread_bound

    def predicted_evals(self) -> float:
        """Innermost evaluations of the sweep: psi rows x the recursion's
        node product for one row x cells (certification rows do not refine)."""
        entry = KERNELS[self.kernel]
        plan = self.plan if self.plan is not None else spherical.default_node_plan(self.n)
        cells = max(1, len(self.k)) * (len(self.s) if "s" in entry.args else 1)
        return entry.psi_rows * self.num * spherical._predicted_evals(self.n, plan) * cells

    def validate_budget(self):
        """Refuse before evaluating anything if the sweep cannot fit the cap."""
        total = self.predicted_evals()
        if total > budget_cap():
            raise BudgetExceededError(
                f"sweep needs ~{total:.3g} evaluations, cap is {budget_cap():.3g}")


def _finite(text: str) -> float:
    """argparse type: one finite number."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed number {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"non-finite number {text!r}")
    return val


def _vector(text: str) -> np.ndarray:
    """argparse type: comma-separated finite numbers."""
    return np.array([_finite(p) for p in text.split(",")])


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

_SUMMARY_KEYS = ("log_exact", "log_envelope", "log_ratio", "err_indicator")


def _config_doc(config: SweepConfig) -> dict:
    # the output path is not a sweep parameter; identical sweeps must give
    # byte-identical reports wherever they are written
    doc = asdict(config)
    doc.pop("out", None)
    return doc


def write_csv(path: str, report: RatioReport, config: SweepConfig):
    input_keys = [k for k in report.rows[0] if k not in _SUMMARY_KEYS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(input_keys + ["exact", "envelope", "ratio",
                                        "err_indicator"]) + "\n")
        for row in report.rows:
            vals = [row[k] for k in input_keys]
            cells = [_fmt(v) if isinstance(v, float) else str(v) for v in vals]
            exact = math.exp(row["log_exact"]) if row["log_exact"] < 700 else math.inf
            env = math.exp(row["log_envelope"]) if row["log_envelope"] < 700 else math.inf
            ratio = math.exp(row["log_ratio"])
            cells += [_fmt(exact), _fmt(env), _fmt(ratio),
                      _fmt(row["err_indicator"])]
            fh.write(",".join(cells) + "\n")
        # footer spread uses the same division a reader of the data rows does,
        # so re-reading reproduces every summary statistic bit-exactly
        if report.min_ratio > 0 and math.isfinite(report.max_ratio):
            spread = report.max_ratio / report.min_ratio
        else:
            spread = report.spread
        fh.write(f"# min_ratio={_fmt(report.min_ratio)}"
                 f" max_ratio={_fmt(report.max_ratio)}"
                 f" spread={_fmt(spread)} count={report.count}\n")
        fh.write(f"# argmin={report.argmin}\n")
        fh.write(f"# argmax={report.argmax}\n")
        fh.write(f"# config={json.dumps(_config_doc(config))}\n")


def write_json(path: str, report: RatioReport, config: SweepConfig):
    doc = {
        "config": _config_doc(config),
        "summary": {
            "min_ratio": report.min_ratio,
            "max_ratio": report.max_ratio,
            "spread": report.spread,
            "count": report.count,
            "argmin": report.argmin,
            "argmax": report.argmax,
            "slope_full": report.slope_full,
            "slope_tail": report.slope_tail,
        },
        "rows": [
            {k: (v if not isinstance(v, float) else float(_fmt(v)))
             for k, v in row.items()}
            for row in report.rows
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def read_csv_report(path: str) -> tuple[list[dict], dict]:
    """Re-read a CSV report: data rows and the parsed footer summary."""
    rows, summary = [], {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if line.startswith("# min_ratio="):
                    for piece in line[2:].split():
                        key, val = piece.split("=")
                        summary[key] = float(val) if key != "count" else int(val)
                continue
            cells = line.split(",")
            row = {}
            for key, cell in zip(header, cells):
                try:
                    row[key] = float(cell)
                except ValueError:
                    row[key] = cell
            rows.append(row)
    return rows, summary


# ---------------------------------------------------------------------------
# sweep runners
# ---------------------------------------------------------------------------

def _mapper(workers: int):
    if workers <= 1:
        return map, None
    pool = Pool(workers, initializer=spherical.serial_chunks)  # a CPU each already
    return pool.map, pool


def run_certify(config: SweepConfig) -> tuple[list[RatioReport], bool]:
    config.validate_budget()
    entry = KERNELS[config.kernel]
    options = {key: getattr(config, name) for key, name in entry.grid_options.items()}
    mapper, pool = _mapper(config.workers)
    reports = []
    try:
        for k in config.k:
            rs = rootsystem(config.n, k, config.d, trace_zero=config.trace_zero)
            for s in config.s if "s" in entry.args else (None,):
                reports.append(replace(entry, s=s).certify(rs, plan=config.plan,
                                                           mapper=mapper, **options))
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return reports, all(rep.passes(config.spread_bound) for rep in reports)


def _merge_reports(reports: list[RatioReport]) -> RatioReport:
    rows = [row for rep in reports for row in rep.rows]
    return build_ratio_report(" + ".join(r.grid for r in reports), rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    entry = KERNELS[args.kernel]
    vals = [getattr(args, name) for name in entry.args]
    for name, val in zip(entry.args, vals):
        if val is None:
            raise DomainError(f"eval {args.kernel} requires --{name}")
    if len(args.k) != 1:
        raise DomainError("eval takes exactly one --k")
    rs = rootsystem(args.n, float(args.k[0]), args.d, trace_zero=args.trace_zero)
    kv, env = entry.exact(rs, *vals), entry.log_envelope(rs, *vals)
    print(f"value = {_fmt(kv.value)}")
    print(f"log_value = {_fmt(kv.log_value)}")
    print(f"envelope = {_fmt(math.exp(env) if env < 700 else math.inf)}")
    print(f"ratio = {_fmt(math.exp(kv.log_value - env))}")
    print(f"err_indicator = {_fmt(kv.err)}")
    return 0


def cmd_certify(args) -> int:
    plan = None
    if args.plan:
        try:
            plan = tuple(int(v) for v in args.plan.split(","))
        except ValueError as exc:
            raise DomainError(f"malformed node plan {args.plan!r}") from exc
    config = SweepConfig(
        kernel=args.kernel, n=args.n,
        k=tuple(float(v) for v in args.k),
        s=tuple(float(v) for v in args.s),
        d=args.d, trace_zero=args.trace_zero, num=args.num,
        span=(args.span_lo, args.span_hi),
        t_span=(args.t_span_lo, args.t_span_hi), plan=plan,
        spread_bound=args.spread_bound, out=args.out, format=args.format,
        workers=args.workers)
    reports, ok = run_certify(config)
    for rep in reports:
        print(rep.summary_line(config.spread_bound))
    if config.out:
        merged = _merge_reports(reports) if len(reports) > 1 else reports[0]
        if config.format == "csv":
            write_csv(config.out, merged, config)
        else:
            write_json(config.out, merged, config)
        print(f"report written to {config.out}")
    return 0 if ok else 1


def cmd_lemma(args) -> int:
    claim, ok, detail = asymlab.sweep_claim(args.id)
    status = "PASS" if ok else "FAIL"
    print(f"{status} {claim.claim_id} [{claim.grid}]: bracket "
          f"[{claim.bracket[0]:.6g}, {claim.bracket[1]:.6g}] "
          f"spread={claim.spread:.6g} count={claim.count}; {detail}")
    return 0 if ok else 1


def cmd_selftest(_args) -> int:
    ok, _lines = run_selftest(verbose=True)
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dunkl",
        description="Dunkl/heat/Newton/stable kernel evaluation and sharp-"
                    "estimate certification for root systems of type A.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=1, help="rank of A_n")
        p.add_argument("--k", type=_vector, default="1.0",
                       help="multiplicity (list for certify)")
        p.add_argument("--d", type=int, default=None, help="ambient dimension")
        p.add_argument("--trace-zero", action="store_true",
                       help="trace-zero realization (d = n)")

    pe = sub.add_parser("eval", help="evaluate one kernel at one point")
    pe.add_argument("kernel", choices=KERNELS)
    common(pe)
    pe.add_argument("--lambda", type=_vector, help="spectral vector, comma separated")
    pe.add_argument("--X", type=_vector, required=True)
    pe.add_argument("--Y", type=_vector)
    pe.add_argument("--t", type=_finite, default=1.0)
    pe.add_argument("--s", type=_finite, default=1.0)
    pe.set_defaults(fn=cmd_eval)

    pc = sub.add_parser("certify", help="run a ratio-certification sweep")
    pc.add_argument("kernel", choices=KERNELS)
    common(pc)
    pc.add_argument("--s", type=_vector, default="1.0",
                    help="stability indices (stable only)")
    pc.add_argument("--num", type=int, default=15,
                    help="grid steps per cell (heat evaluates a generic "
                         "and a wall Y at each step)")
    pc.add_argument("--span-lo", type=_finite, default=1e-3)
    pc.add_argument("--span-hi", type=_finite, default=1e4)
    pc.add_argument("--t-span-lo", type=_finite, default=1e-2)
    pc.add_argument("--t-span-hi", type=_finite, default=1e2)
    pc.add_argument("--plan", default=None,
                    help="node-count override per rank, e.g. 32,24")
    pc.add_argument("--spread-bound", type=_finite, default=None)
    pc.add_argument("--out", default=None, help="report file path")
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.add_argument("--workers", type=int, default=1)
    pc.set_defaults(fn=cmd_certify)

    pl = sub.add_parser("lemma", help="certify one integral lemma/proposition")
    pl.add_argument("id", choices=asymlab.CLAIM_IDS)
    pl.set_defaults(fn=cmd_lemma)

    ps = sub.add_parser("selftest", help="fast deterministic invariant suite")
    ps.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error
        return exc.code
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 3
    except (DomainError, DunklError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
