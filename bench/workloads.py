"""The three benchmark workloads: inputs, timed experiments and output checks.

A workload is built from the workload seed alone, which draws its inputs in
memory (untimed).  ``write_inputs(input_dir)`` writes them to files (part of
the timed set-up) and sets ``experiments``, a list of (label, run) pairs;
``run(out_dir)`` performs one experiment from the inputs to its written
artifacts and returns the exit code.  The benchmark runs every experiment in
``rounds`` timed rounds and afterwards calls ``checks(round_dirs, capture)``,
which inspects the artifacts of the first round and the calls captured
during it.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import checks as ck
import inputs
from memsim import cli
from memsim.core import DriveSignal, IntegratorSpec
from memsim.devices import HpParams
from memsim.learning import MemristiveReservoir, Reservoir, rc_run
from memsim.network import cycle_projector, edge_currents
from memsim.presets import PRESETS, default_preset

# Checks that fail on every run because of a known fault in the program
# (see README.md).  They count as failed operations but leave ``correct``
# true; any other failed check makes the run incorrect.
KNOWN_FAULTS = frozenset({"soc.steady_state", "nef-demo.beats_zero"})

FIGURES = ("hysteresis", "write-read", "mc-volatility", "amoeba", "plant", "hh", "crossbar-mvm",
           "crossbar-train", "stdp", "rc-demo", "nef-demo", "lca", "energy")

# small-networks: (rooms down, rooms across, extra openings) of each maze,
# giving 36, 72 and 108 edges.  The maze structures are drawn once from
# MAZE_POOL_SEED and the workload seed orients each one: the time to steady
# state differs up to threefold between mazes of one size, so mazes drawn
# per seed would make the workload's work, not the program, vary between
# seeds (16 drawn mazes per seed still spread the total steps by 16%).
MAZE_POOL = ((4, 4, 3), (4, 4, 3), (5, 7, 2), (5, 7, 2), (5, 10, 5), (5, 10, 5))
MAZE_POOL_SEED = 1
# memristive reservoir: 12 nodes, 24 edges, alpha > 0, sine-driven sources
RESERVOIR_NODES = 12
RESERVOIR_EDGES = 24
RESERVOIR_HP = HpParams(alpha=0.1, beta=1.0, r_on=1.0, r_off=100.0)
RESERVOIR_DRIVE = DriveSignal("sine", amplitude=1.0, frequency=0.25)
RESERVOIR_SPEC = IntegratorSpec(method="rk4", dt=0.01, t_end=20.0)
RESERVOIR_SAMPLES = 8


def _preset(experiment: str) -> dict:
    return PRESETS[experiment][default_preset(experiment)]


def run_cli(argv: list[str]) -> int:
    """``memsim <argv>`` in this process, its printed metrics discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    # Timed rounds per run, fixed so that a faster or slower program never
    # changes what one run measures.
    rounds = 3
    capture_targets: tuple[tuple[str, str], ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.experiments: list[tuple[str, object]] = []

    def write_inputs(self, input_dir: Path) -> None:
        raise NotImplementedError

    def checks(self, round_dirs: list[Path], capture) -> list[tuple[str, tuple[bool, str]]]:
        raise NotImplementedError


class Soc(Workload):
    """``memsim network-soc`` on a soc-n100 graph with exactly 233 edges."""

    name = "soc"
    # One round: the process's first, cold one, as one ``memsim network-soc``
    # process runs it (a second round in the same process runs warm and
    # faster; see README.md).
    rounds = 1
    capture_targets = (("memsim.network", "simulate_network"), ("memsim.cli", "random_network"))

    def __init__(self, seed):
        super().__init__(seed)
        self.cli_seed = inputs.soc_graph_seed(seed)

    def write_inputs(self, input_dir):
        # the CLI draws the graph from its seed: there is no file to write
        self.experiments = [("network-soc", lambda out: run_cli(
            ["network-soc", "--seed", str(self.cli_seed), "--out", str(out)]))]

    def checks(self, round_dirs, capture):
        p = _preset("network-soc")
        exp_dir = round_dirs[0] / "network-soc" / "network-soc"
        graph = capture.calls["random_network"][0][2]
        args, kwargs, run = capture.calls["simulate_network"][0]
        s = args[1]
        n_e = len(graph.edges)
        w_star = np.array([run.trace[f"w{k}"][-1] for k in range(n_e)])
        w_all = np.array([run.trace[f"w{k}"] for k in range(n_e)])
        hp = HpParams(alpha=p["alpha"], beta=p["beta"], r_on=p["r_on"], r_off=p["r_off"])
        currents = edge_currents(w_star, s, cycle_projector(graph), hp)
        emf = [e.value for e in graph.edges]
        metrics = ck.read_metrics(exp_dir / "metrics.txt")
        out = [
            ("soc.graph", (n_e == 233 and graph == inputs.soc_graph(self.cli_seed),
                           f"{n_e} edges from CLI seed {self.cli_seed}")),
            ("soc.nodal_currents", ck.check_network_currents(graph, w_star, emf, p["r_on"],
                                                             p["r_off"], currents)),
            ("soc.w_bounds", ck.check_unit_interval(w_all)),
            ("soc.steady_state", ck.check_steady(
                run.steady, run.stop_reason, run.trace.n_samples - 1,
                ck.max_free_rate(w_star, hp.alpha * w_star - hp.polarity * currents / hp.beta))),
            ("soc.manifest", ck.check_manifest(exp_dir, "network-soc", self.cli_seed)),
        ]
        out += [(f"soc.{k}", r) for k, r in ck.check_soc_exponents(
            float(metrics["gamma"]), float(metrics["spectrum_slope"]))]
        return out


class SmallNetworks(Workload):
    """``memsim maze --maze <file>`` on seeded mazes, and a memristive reservoir."""

    name = "small-networks"

    def __init__(self, seed):
        super().__init__(seed)
        pool_rng = np.random.default_rng(MAZE_POOL_SEED)
        rng = np.random.default_rng([seed, 1])
        self.mazes = [inputs.orient_maze(inputs.unique_route_maze(pool_rng, *shape), int(rng.integers(8)))
                      for shape in MAZE_POOL]
        self.graph = inputs.reservoir_graph(rng, RESERVOIR_NODES, RESERVOIR_EDGES)
        self.b = rng.standard_normal((RESERVOIR_EDGES, 1))

    def write_inputs(self, input_dir):
        input_dir.mkdir(parents=True, exist_ok=True)
        self.experiments = []
        for k, text in enumerate(self.mazes):
            path = input_dir / f"maze-{k}.txt"
            path.write_text(text)
            self.experiments.append((f"maze-{k}", lambda out, path=path: run_cli(
                ["maze", "--maze", str(path), "--out", str(out)])))
        self.experiments.append(("reservoir", self.run_reservoir))

    def reservoir(self) -> Reservoir:
        # identity mixing, so the features are the raw memories and edge currents
        dyn = MemristiveReservoir(graph=self.graph, hp=RESERVOIR_HP)
        return Reservoir(dynamics=dyn, b=self.b, h=np.eye(2 * RESERVOIR_EDGES))

    def run_reservoir(self, out: Path) -> int:
        tr = rc_run(self.reservoir(), RESERVOIR_DRIVE, RESERVOIR_SPEC)
        out.mkdir(parents=True, exist_ok=True)
        tr.to_csv(out / "features.csv")
        return 0

    def checks(self, round_dirs, capture):
        out = []
        for k, text in enumerate(self.mazes):
            exp_dir = round_dirs[0] / f"maze-{k}" / "maze"
            _, route, _ = inputs.shortest_routes(text)
            path = exp_dir / "path.txt"
            out.append((f"maze-{k}.route", ck.check_maze_route(path.read_text(), route)
                        if path.is_file() else (False, "no path.txt")))
            out.append((f"maze-{k}.manifest", ck.check_manifest(exp_dir, "maze", 0)))
        cols = ck.read_csv(round_dirs[0] / "reservoir" / "features.csv")
        n_e = RESERVOIR_EDGES
        w = np.array([cols[f"g{k}"] for k in range(n_e)])
        i = np.array([cols[f"g{n_e + k}"] for k in range(n_e)])
        hp = RESERVOIR_HP
        results = []
        for k in np.linspace(0, len(cols["t"]) - 1, RESERVOIR_SAMPLES).astype(int):
            emf = hp.r_on * self.b[:, 0] * cols["u0"][k]
            ok, detail = ck.check_network_currents(self.graph, w[:, k], emf, hp.r_on, hp.r_off, i[:, k])
            results.append((ok, f"step {k}: {detail}"))
        out.append(("reservoir.nodal_currents", next((r for r in results if not r[0]), results[-1])))
        out.append(("reservoir.w_bounds", ck.check_unit_interval(w)))
        return out


class Figures(Workload):
    """The other 13 CLI experiments at their shipped presets."""

    name = "figures"
    capture_targets = (("memsim.cli", "read_mvm"), ("memsim.cli", "apply_update"),
                       ("memsim.cli", "lca_simulate"))

    def write_inputs(self, input_dir):
        # every input is a shipped preset: there is no file to write
        self.experiments = [(exp, lambda out, exp=exp: run_cli(
            [exp, "--seed", str(self.seed), "--out", str(out)])) for exp in FIGURES]

    def checks(self, round_dirs, capture):
        root = round_dirs[0]
        d = {exp: root / exp / exp for exp in FIGURES}
        out = []
        p = _preset("hysteresis")
        for f in p["frequencies"]:
            out.append((f"hysteresis.flux_f{f:g}", ck.check_hysteresis(
                ck.read_csv(d["hysteresis"] / f"iv_f{f:g}.csv"), p, f)))
        out.append(("write-read.bits", ck.check_write_read(
            ck.read_metrics(d["write-read"] / "metrics.txt"), _preset("write-read"))))
        out.append(("mc-volatility.product_log", ck.check_mc(
            ck.read_csv(d["mc-volatility"] / "mc_decay.csv"), _preset("mc-volatility"))))
        out.append(("amoeba.settles", ck.check_amoeba(
            ck.read_csv(d["amoeba"] / "amoeba.csv"), _preset("amoeba"))))
        p = _preset("plant")
        for tag in ("rc", "ideal"):
            for f in p["frequencies"]:
                out.append((f"plant.{tag}_f{f:g}", ck.check_plant(
                    ck.read_csv(d["plant"] / f"plant_{tag}_f{f:g}.csv"), p, f, tag == "rc")))
        out.append(("hh.solve_ivp", ck.check_hh(ck.read_csv(d["hh"] / "hh.csv"), _preset("hh"))))
        reads = [(a[0].m, a[0].r_out, a[1], r) for a, _, r in capture.calls["read_mvm"]]
        out.append(("crossbar-mvm.nodal", ck.check_crossbar_reads(reads)))
        ups = capture.calls["apply_update"]
        p = _preset("crossbar-train")
        out.append(("crossbar-train.sanger", ck.check_sanger(
            ups[0][0][0], [args[2] for args, _, _ in ups], p["eta"], ups[-1][2],
            float(ck.read_metrics(d["crossbar-train"] / "metrics.txt")["leading_axis_angle_deg"]))))
        out.append(("stdp.round_trip", ck.check_stdp(_csv_rows(d["stdp"] / "stdp_pulses.csv"),
                                                     _preset("stdp"))))
        out.append(("rc-demo.normal_equations", self._rc_check(d["rc-demo"])))
        nef = ck.read_csv(d["nef-demo"] / "nef_decode.csv")
        out.append(("nef-demo.beats_zero", ck.check_decode_beats_zero(nef["f"], nef["f_hat"])))
        (problem, x, _), _, res = capture.calls["lca_simulate"][0]
        u_final = np.array([res.trace[f"u{k}"][-1] for k in range(problem.dictionary.shape[1])])
        out.append(("lca.fixed_point", ck.check_lca_fixed_point(
            problem.dictionary, problem.lam, x, u_final, res.a)))
        out.append(("energy.closed_form", ck.check_energy(_csv_rows(d["energy"] / "energy.csv"),
                                                          _preset("energy"))))
        out += [(f"{exp}.manifest", ck.check_manifest(d[exp], exp, self.seed)) for exp in FIGURES]
        return out

    @staticmethod
    def _rc_check(exp_dir: Path):
        p = _preset("rc-demo")
        cols = ck.read_csv(exp_dir / "rc_features.csv")
        g = np.column_stack([cols[f"g{k}"] for k in range(int(p["n_features"]))])
        target = p["amplitude"] * np.sin(2.0 * np.pi * p["frequency"] * (cols["t"] - 0.1))
        rms = float(ck.read_metrics(exp_dir / "metrics.txt")["train_rms"])
        return ck.check_ridge_optimal(g, target, p["ridge"], rms)


def _csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    return [dict(zip(names, line.split(","))) for line in lines[1:]]


WORKLOADS = {w.name: w for w in (Soc, SmallNetworks, Figures)}
