"""The package runs on numpy and the standard library: scipy is a test
dependency only."""

import os
import subprocess
import sys

import dunkl

SCRIPT = """
import sys
import dunkl
import dunkl.cli
from dunkl import asymlab, heatkernel, newton, spherical, stable
from dunkl.rootsys import rootsystem

rs1, rs2 = rootsystem(1, 0.5), rootsystem(2, 0.5)
spherical.spherical_log(rs1, (300.0, 0.0), (1.0, 0.0))  # a tilted rank-1 row
heatkernel.heat_log(rs2, 0.5, (1.0, 0.0, -1.0), (0.5, 0.0, -0.5))
newton.newton_log(rs1, (1.0, 0.0), (0.3, 0.1))
stable.stable_log(rs1, 1.5, 1.0, (1.0, 0.0), (0.3, 0.1))
asymlab.sweep_claim("lemma_A")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_the_package_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(dunkl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
