"""Spans and counters recorded from outside the dunkl package.

``Tracer.install`` replaces each traced function with a wrapper in every
``dunkl`` module that binds it, because ``spherical``, ``asymlab``,
``heatkernel``, ``newton`` and ``stable`` import most of them with
``from ... import``: patching only the defining module would miss those
calls.  ``spherical._log_psi`` is patched in its own module too, so that its
recursive calls resolve to the wrapper and give one span per recursion
depth.  A nested call at the same rank (same ``lam`` length) is one of the
chunks ``_log_psi`` splits a large batch into.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` and turned
into per-layer metrics by ``layer_metrics``.  A layer's self time is its
span minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# layer name -> (defining module, attribute); every module binding the same
# object is patched
TARGETS = {
    "quad.level_nodes": ("dunkl.quad", "level_nodes"),
    "quad.logsumexp": ("dunkl.quad", "logsumexp"),
    "quad.exp_weighted_log_integral": ("dunkl.quad", "exp_weighted_log_integral"),
    "spherical.spherical_log": ("dunkl.spherical", "spherical_log"),
    "spherical.log_psi": ("dunkl.spherical", "_log_psi"),
    "heatkernel.chamber_heat_integral": ("dunkl.heatkernel", "chamber_heat_integral"),
    "heatkernel.heat_log_for_times": ("dunkl.heatkernel", "heat_log_for_times"),
    "heatkernel.heat_log": ("dunkl.heatkernel", "heat_log"),
    "newton.newton_log": ("dunkl.newton", "newton_log"),
    "stable.subordinator_log_density": ("dunkl.stable", "subordinator_log_density"),
    "stable.stable_log": ("dunkl.stable", "stable_log"),
    "asymlab.sweep_claim": ("dunkl.asymlab", "sweep_claim"),
    "report.build_ratio_report": ("dunkl.report", "build_ratio_report"),
    "cli.write_csv": ("dunkl.cli", "write_csv"),
}
#: scipy rule constructors reached through quad's rule cache
RULE_BUILDERS = ("roots_jacobi", "roots_genlaguerre", "roots_legendre", "roots_hermite")

LOG_PSI_DEPTHS = (1, 2, 3)

#: every per-layer metric the traced run reports, with its unit
LAYER_METRICS = (
    [("quad.level_nodes." + c, "count") for c in
     ("calls", "rows", "nodes", "tilted_rows", "dropped_nodes")]
    + [("quad.level_nodes.self_s", "s")]
    + [("quad.logsumexp.calls", "count"), ("quad.logsumexp.elems", "count"),
       ("quad.logsumexp.bytes_computed", "B"), ("quad.logsumexp.self_s", "s")]
    + [("quad.rule_build.calls", "count"), ("quad.rule_build.self_s", "s")]
    + [("quad.exp_weighted_log_integral.calls", "count"),
       ("quad.exp_weighted_log_integral.self_s", "s")]
    + [("spherical.spherical_log.calls", "count"),
       ("spherical.spherical_log.rows", "count"),
       ("spherical.spherical_log.self_s", "s")]
    + [(f"spherical.log_psi.d{d}.{c}", u) for d in LOG_PSI_DEPTHS
       for c, u in (("calls", "count"), ("rows", "count"), ("self_s", "s"))]
    + [("spherical.innermost_rows", "count"), ("spherical.log_psi.chunks", "count")]
    + [(f"heatkernel.{f}.{c}", u)
       for f in ("chamber_heat_integral", "heat_log_for_times", "heat_log")
       for c, u in (("calls", "count"), ("rows", "count"), ("self_s", "s"))]
    + [("newton.newton_log.calls", "count"), ("newton.newton_log.self_s", "s")]
    + [("stable.subordinator_log_density.calls", "count"),
       ("stable.subordinator_log_density.elems", "count"),
       ("stable.subordinator_log_density.self_s", "s")]
    + [("stable.stable_log.calls", "count"), ("stable.stable_log.self_s", "s")]
    + [("asymlab.sweep_claim.calls", "count"), ("asymlab.sweep_claim.self_s", "s")]
    + [("report.build_ratio_report.calls", "count"),
       ("report.build_ratio_report.self_s", "s")]
    + [("cli.write_csv.calls", "count"), ("cli.write_csv.bytes", "B"),
       ("cli.write_csv.self_s", "s")]
    + [("process.minor_faults", "count")]
    + [("trace.spans", "count"), ("trace.overhead_s", "s")]
)

# span fields
NAME, START, END, PARENT, ATTRS = range(5)
#: bookkeeping done by the tracer itself inside a traced call; its own span
#: keeps it out of the enclosing layer's self time
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Records spans around calls into dunkl while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.innermost_rows = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _call(self, name, fn, args, kwargs, attrs=None, count=None):
        idx = self._open(name, {} if attrs is None else attrs)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if count is not None:
            book = self._open(BOOKKEEPING, {})
            try:
                sig, counter = count
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.spans[idx][ATTRS], bound.arguments, out)
            finally:
                self._close(book)
        return out

    def _wrapper(self, name, fn, counter=None):
        count = (inspect.signature(fn), counter) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, count=count)
        return traced

    def _log_psi_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(k, lam, X, *args, **kwargs):
            m = len(lam) - 1
            if m == 0:
                # the terminal case: one innermost evaluation per row
                self.innermost_rows += X.shape[0]
                return fn(k, lam, X, *args, **kwargs)
            top = self.spans[self._stack[-1]] if self._stack else None
            depth, chunk = 1, False
            if top is not None and top[NAME] == "spherical.log_psi":
                depth, chunk = top[ATTRS]["depth"], top[ATTRS]["m"] == m
                if not chunk:
                    depth += 1
            attrs = {"depth": depth, "m": m, "chunk": chunk, "rows": X.shape[0]}
            return self._call("spherical.log_psi", fn, (k, lam, X) + args, kwargs,
                              attrs=attrs)
        return traced

    # -- patching ----------------------------------------------------------
    def install(self):
        """Wrap every traced function in every dunkl module that binds it."""
        import scipy.special

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "dunkl" or n.startswith("dunkl.")) and m is not None]
        wrappers = []
        for name, (mod_name, attr) in TARGETS.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            if name == "spherical.log_psi":
                wrappers.append((original, self._log_psi_wrapper(original)))
            else:
                wrappers.append((original, self._wrapper(name, original,
                                                         COUNTERS.get(name))))
        for attr in RULE_BUILDERS:
            original = getattr(scipy.special, attr)
            wrappers.append((original, self._wrapper("quad.rule_build", original)))
        for original, wrapper in wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# per-call counters (run after the call, inside a bookkeeping span)
# ---------------------------------------------------------------------------

def _count_level_nodes(attrs, a, out):
    from dunkl import quad

    lo, hi = np.asarray(a["lo"], dtype=float), np.asarray(a["hi"], dtype=float)
    rows = lo.shape[0]
    u = np.broadcast_to(np.asarray(a["mu"], dtype=float), (rows,)) * (hi - lo)
    tilted = np.abs(u) > min(quad.TILT_SWITCH, 2.0 * a["nodes"])
    n_tilted = int(np.count_nonzero(tilted))
    dropped = int(np.count_nonzero(np.isneginf(out[1][tilted]))) if n_tilted else 0
    attrs.update(rows=rows, nodes=rows * a["nodes"], tilted_rows=n_tilted,
                 dropped_nodes=dropped)


def _count_logsumexp(attrs, a, out):
    elems = int(np.size(a["a"]))
    attrs.update(elems=elems, bytes_computed=8 * elems)


def _count_spherical_log(attrs, a, out):
    attrs["rows"] = int(np.atleast_2d(np.asarray(a["X"], dtype=float)).shape[0])


def _count_heat_log_for_times(attrs, a, out):
    attrs["rows"] = int(np.size(a["times"]))


def _count_one_row(attrs, a, out):
    attrs["rows"] = 1


def _count_subordinator(attrs, a, out):
    attrs["elems"] = int(np.size(out))


def _count_write_csv(attrs, a, out):
    attrs["bytes"] = os.path.getsize(a["path"])


COUNTERS = {
    "quad.level_nodes": _count_level_nodes,
    "quad.logsumexp": _count_logsumexp,
    "spherical.spherical_log": _count_spherical_log,
    "heatkernel.heat_log_for_times": _count_heat_log_for_times,
    "heatkernel.heat_log": _count_one_row,
    "stable.subordinator_log_density": _count_subordinator,
    "cli.write_csv": _count_write_csv,
}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans: list[list], innermost_rows: int,
                  setup_spans: list[list] = ()) -> dict[str, float]:
    """Sum counters and self times per layer over the given spans.

    ``quad.rule_build`` also counts ``setup_spans``: the warm-up builds most
    rules, and that cost belongs to set-up time.
    """
    metrics = defaultdict(int)
    metrics["trace.spans"] = len(spans)
    metrics["spherical.innermost_rows"] = innermost_rows
    for group in (spans, setup_spans):
        for s, self_s in zip(group, self_times(group)):
            name, attrs = s[NAME], s[ATTRS]
            if name == BOOKKEEPING or (group is setup_spans
                                       and name != "quad.rule_build"):
                continue
            if name == "spherical.log_psi":
                prefix = f"spherical.log_psi.d{attrs['depth']}"
                metrics[prefix + ".self_s"] += self_s
                if attrs["chunk"]:
                    metrics["spherical.log_psi.chunks"] += 1
                else:
                    metrics[prefix + ".calls"] += 1
                    metrics[prefix + ".rows"] += attrs["rows"]
                continue
            metrics[name + ".calls"] += 1
            metrics[name + ".self_s"] += self_s
            for key, val in attrs.items():
                metrics[f"{name}.{key}"] += val
    # chamber integrals: rows handed to spherical_log by their direct children
    for s in spans:
        if s[NAME] == "spherical.spherical_log" and s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            if parent[NAME] == "heatkernel.chamber_heat_integral":
                metrics["heatkernel.chamber_heat_integral.rows"] += s[ATTRS]["rows"]
    return {name: metrics[name] for name, _ in LAYER_METRICS}
