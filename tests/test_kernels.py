"""The kernel records: the module-level grid/row/certify names, called the way
the benchmark calls them, and the report and CSV layout they produce."""

from functools import partial

import pytest

from dunkl import cli, heatkernel, newton, spherical, stable
from dunkl.rootsys import rootsystem

SUMMARY = ["exact", "envelope", "ratio", "err_indicator"]

# kernel -> (rs, s, (grid, row, certify), report title, CSV input columns)
CASES = {
    "spherical": (rootsystem(1, 0.5), None,
                  (spherical.pairing_sweep_grid, spherical.spherical_row,
                   spherical.certify_ratio),
                  "spherical n=1 k=0.5", ["n", "k", "min_pairing", "max_pairing"]),
    "heat": (rootsystem(2, 1.0), None,
             (heatkernel.heat_sweep_grid, heatkernel.heat_row,
              heatkernel.certify_heat_ratio),
             "heat n=2 k=1.0", ["n", "k", "t", "max_pairing", "regime"]),
    "newton": (rootsystem(1, 1.0, d=3), None,
               (newton.newton_sweep_grid, newton.newton_row,
                newton.certify_newton_ratio),
               "newton n=1 k=1.0 d=3", ["n", "k", "d", "quotient"]),
    "stable": (rootsystem(1, 1.0), 1.5,
               (stable.stable_sweep_grid, stable.stable_row,
                stable.certify_stable_ratio),
               "stable n=1 k=1.0 s=1.5", ["n", "k", "s", "t", "crossover", "regime"]),
}


@pytest.mark.parametrize("kernel", sorted(CASES))
def test_record_names_row_certify_and_csv_header(kernel, tmp_path):
    rs, s, fns, title, columns = CASES[kernel]
    bound = (rs,) if s is None else (rs, s)
    grid, row, certify = (partial(f, *bound) for f in fns)
    points = grid()[:3]
    rows = [row(p) for p in points]
    rep = certify(points, mapper=map)
    assert rep.grid == title
    assert rep.count == 3
    assert rep.rows == rows
    config = cli.SweepConfig(kernel=kernel, n=rs.n, k=(rs.k,), d=rs.d,
                             s=(s,) if s is not None else (1.0,))
    path = tmp_path / "rep.csv"
    cli.write_csv(str(path), rep, config)
    assert path.read_text().splitlines()[0].split(",") == columns + SUMMARY

