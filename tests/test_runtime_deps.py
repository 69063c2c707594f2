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
from memsim.circuits import McParams, PlantParams, hh_simulate, mc_analytic, mc_calibrate, plant_simulate
from memsim.core import DriveSignal, IntegratorSpec, linear_response
from memsim.devices import HhParams, HpParams, simulate_hp_voltage_driven
from memsim.learning import LinearReservoir, Reservoir, rc_run
from memsim.network import (CircuitGraph, Edge, MazeSpec, cycle_projector, edge_currents, kirchhoff_system,
                            linearize, simulate_network, solve_maze, source_vector)
hp = HpParams(alpha=0.0, beta=3e-4, r_on=1000.0, r_off=6000.0)
assert abs(mc_analytic(0.0, mc_calibrate(McParams(c=1e-3, hp=hp), 1e-4)) - 1e-4) < 1e-18
g = CircuitGraph(n_nodes=2, edges=(Edge(0, 1), Edge(1, 0, "source", 1.0)))
linearize(source_vector(g, hp), cycle_projector(g), hp, np.array([0.5]))
# two loops sharing an edge, solved in mesh form (C = 2 cycles, N - 1 = 3 potentials, E = 5)
g = CircuitGraph(n_nodes=4, edges=(Edge(0, 1, "memristor", 1.0), Edge(1, 2), Edge(2, 0), Edge(1, 3),
                                   Edge(3, 2)))
net_hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=10.0)
system = kirchhoff_system(g)
assert system.form == "mesh" and system.operator.shape == (2, 5)
assert np.all(np.isfinite(linearize(source_vector(g, net_hp), system, net_hp, np.full(5, 0.5))))
run = simulate_network(g, None, net_hp, IntegratorSpec(method="euler", dt=0.01, t_end=1.0))
assert np.all(np.isfinite(run.trace.values))
# the complete graph on five nodes, solved in nodal form (N - 1 = 4 potentials, C = 6 cycles)
g = CircuitGraph(n_nodes=5, edges=tuple(Edge(a, b, "memristor", float(a == 0)) for a in range(5)
                                        for b in range(a + 1, 5)))
system = kirchhoff_system(g)
assert system.form == "nodal" and system.operator.shape == (4, 10)
s = source_vector(g, net_hp)
i = edge_currents(np.full(10, 0.5), s, system, net_hp)
assert np.max(np.abs(i - edge_currents(np.full(10, 0.5), s, cycle_projector(g), net_hp))) < 1e-14
assert np.all(np.isfinite(linearize(s, system, net_hp, np.full(10, 0.5))))
run = simulate_network(g, None, net_hp, IntegratorSpec(method="euler", dt=0.01, t_end=1.0))
assert run.system.form == "nodal" and np.all(np.isfinite(run.trace.values))
maze = solve_maze(MazeSpec.from_text("S..\\n.#.\\n..E"), HpParams(alpha=0.1, beta=1.0, r_on=1.0, r_off=100.0),
                  100.0, IntegratorSpec(method="euler", dt=0.005, t_end=5.0))
assert np.all(np.isfinite(maze.currents))
drive = DriveSignal("sine", amplitude=1.0, frequency=2.0)
spec = IntegratorSpec(dt=1e-3, t_end=1.0)
plant = PlantParams(p_beta=1.0, r_o=2.0, a_const=1.5, h_kind="exp", h_coeff=0.5, rc_r=0.5, rc_c=0.1)
assert np.all(np.isfinite(plant_simulate(plant, drive, spec)["i"]))
assert np.all(np.isfinite(simulate_hp_voltage_driven(hp, drive, 0.5, spec)["w"]))
hh = HhParams(g_k=36e-3, g_na=120e-3, k1=1.0, k2=0.1, na1=1.0, na2=0.1,
              na3=0.2, na4=-1.0, na5=0.0, na6=0.5, na7=-0.5, na8=0.0, na9=0.5)
assert np.all(np.isfinite(hh_simulate(hh, drive, spec)["i_na"]))
res = Reservoir(dynamics=LinearReservoir(a=np.array([[-1.0, 1.0], [0.0, -1.0]])), b=np.ones((2, 1)),
                h=np.eye(2))
assert np.all(np.isfinite(rc_run(res, drive, spec)["g1"]))
assert np.all(np.isfinite(linear_response(lambda t: -drive(t), -0.5, spec, y0=0.3)))
"""


def test_imports_and_exact_forms_without_scipy():
    src = str(Path(memsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
