"""Record the reference values the benchmark checks against.

Run from the repository root:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``: the A_3 pairing-grid points with their
log psi, every certification grid of ``sweep_small`` and ``chamber_batch``
with each row's log ratio (``null`` where the row is non-finite), and the
bracket and verdict of each lemma sweep.  Grids are stored explicitly, so the
benchmark's inputs do not change when the package's default grids do.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMAND = "python3 perfbench/record_reference.py"


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np

    import dunkl
    from dunkl import asymlab, spherical
    from dunkl.rootsys import rootsystem

    import run
    import workloads as wl

    def finite_or_none(x):
        return float(x) if math.isfinite(x) else None

    ref = {"command": COMMAND, "recorded_with": run.machine_info(),
           "dunkl_version": dunkl.__version__}

    grid = []
    for k in (0.25, 2.5):
        rs = rootsystem(3, k)
        targets = np.geomspace(1e-3, 1e4, 15)
        for i, (lam, X) in enumerate(spherical.pairing_sweep_grid(rs, num=15)):
            t0 = time.perf_counter()
            lv = spherical.spherical_log(rs, lam, X)
            print(f"A_3 k={k} #{i}: log psi {lv!r} "
                  f"({time.perf_counter() - t0:.2f} s)", flush=True)
            grid.append({"k": k, "index": i, "min_pairing": float(targets[i]),
                         "lam": lam.tolist(), "X": X.tolist(), "log_psi": lv})
    ref[wl.SphA3Deep.name] = grid

    def sweeps(specs):
        out = []
        for sweep in specs:
            points = sweep.default_grid()
            rows = [sweep.row(p) for p in points]
            out.append({"label": sweep.label,
                        "points": [wl.encode(p) for p in points],
                        "log_ratio": [finite_or_none(r["log_ratio"]) for r in rows]})
            print(f"{sweep.label}: {len(rows)} rows", flush=True)
        return out

    claims = {}
    for cid in asymlab.CLAIM_IDS:
        claim, ok, _detail = asymlab.sweep_claim(cid)
        claims[cid] = {"bracket": list(claim.bracket), "ok": ok}
    ref[wl.SweepSmall.name] = {"sweeps": sweeps(wl.SWEEP_SMALL), "claims": claims}
    ref[wl.ChamberBatch.name] = {"sweeps": sweeps(wl.CHAMBER_SWEEPS)}

    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
