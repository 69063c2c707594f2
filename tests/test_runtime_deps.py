"""numpy is the only runtime dependency: memsim must work with scipy blocked."""

import os
import subprocess
import sys
from pathlib import Path

import memsim

# sys.modules["scipy"] = None makes every ``import scipy...`` raise ImportError,
# including imports deferred into function bodies of the exact-form code.
SCRIPT = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import memsim
for info in pkgutil.iter_modules(memsim.__path__):
    importlib.import_module("memsim." + info.name)
import numpy as np
from memsim.circuits import McParams, mc_analytic, mc_calibrate
from memsim.devices import HpParams
from memsim.network import CircuitGraph, Edge, cycle_projector, linearize, source_vector
hp = HpParams(alpha=0.0, beta=3e-4, r_on=1000.0, r_off=6000.0)
assert abs(mc_analytic(0.0, mc_calibrate(McParams(c=1e-3, hp=hp), 1e-4)) - 1e-4) < 1e-18
g = CircuitGraph(n_nodes=2, edges=(Edge(0, 1), Edge(1, 0, "source", 1.0)))
linearize(source_vector(g, hp), cycle_projector(g), hp, np.array([0.5]))
"""


def test_imports_and_exact_forms_without_scipy():
    src = str(Path(memsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
