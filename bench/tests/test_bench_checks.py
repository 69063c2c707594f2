"""Each check accepts the program's output and rejects a perturbed copy."""

import json
import math

import numpy as np
import pytest

import checks as ck
import inputs
from memsim.circuits import McParams, PlantParams, hh_simulate, mc_simulate, plant_simulate
from memsim.cli import main
from memsim.core import DriveSignal, IntegratorSpec
from memsim.crossbar import (Crossbar, StdpKernel, UpdateRule, apply_update, energy_estimates,
                             EnergyParams, read_mvm, stdp_program)
from memsim.devices import HhParams, HpParams, simulate_hp_voltage_driven
from memsim.learning import LcaProblem, fit_readout, lca_simulate
from memsim.network import cycle_projector, edge_currents, random_network, source_vector
from memsim.presets import PRESETS


def _preset(name):
    return next(iter(PRESETS[name].values()))


def _bump(a, k=0, by=1e-3):
    a = np.array(a, dtype=float)
    a.flat[k] += by * max(1.0, abs(a.flat[k]))
    return a


@pytest.mark.parametrize("seed", range(8))
def test_nodal_currents_agree_with_edge_currents_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=float(rng.uniform(2.0, 200.0)))
    g = random_network(rng, n_nodes=int(rng.integers(6, 30)), edge_prob=0.3,
                       n_sources=3, source_volts=float(rng.uniform(0.5, 5.0)))
    w = rng.uniform(0.0, 1.0, len(g.edges))
    i = edge_currents(w, source_vector(g, hp), cycle_projector(g), hp)
    emf = [e.value for e in g.edges]
    assert ck.check_network_currents(g, w, emf, hp.r_on, hp.r_off, i)[0]
    assert not ck.check_network_currents(g, w, emf, hp.r_on, hp.r_off, _bump(i, by=1e-4))[0]


def test_nodal_solve_kirchhoff_laws():
    # one loop, two resistors of 1 and 3 ohm, a 2 V EMF on the first: i = 0.5 A
    _, i = ck.nodal_solve(2, [(0, 1), (1, 0)], [1.0, 1.0 / 3.0], [2.0, 0.0])
    assert np.allclose(i, [0.5, 0.5])


def test_unit_interval_steady_and_exponents():
    assert ck.check_unit_interval([0.0, 0.5, 1.0])[0]
    assert not ck.check_unit_interval([0.0, 1.0 + 1e-12])[0]
    assert ck.check_steady(True, "steady", 10, 0.0)[0]
    assert not ck.check_steady(False, "t_end", 4000, 1e-3)[0]
    assert ck.max_free_rate([0.0, 1.0, 0.5], [-2.0, 3.0, -0.25]) == 0.25
    assert all(r[0] for _, r in ck.check_soc_exponents(-1.05, -2.0))
    assert not ck.check_soc_exponents(-0.6, -1.6)[0][1][0]
    assert not ck.check_soc_exponents(-1.0, -1.5)[1][1][0]


def test_maze_route():
    text = inputs.unique_route_maze(np.random.default_rng(0), 4, 4, 3)
    _, route, _ = inputs.shortest_routes(text)
    lines = [f"{a} -> {b}" for a, b in zip(route, route[1:])]
    assert ck.check_maze_route("\n".join(lines) + "\n", route)[0]
    assert not ck.check_maze_route("\n".join(lines[:-1]) + "\n", route)[0]
    assert not ck.check_maze_route("garbage\n", route)[0]


def test_hysteresis_flux_solution():
    p = dict(_preset("hysteresis"))
    hp = HpParams(alpha=0.0, beta=p["beta"], r_on=p["r_on"], r_off=p["r_off"])
    tr = simulate_hp_voltage_driven(hp, DriveSignal("sine", amplitude=1.0, frequency=4.0), p["w0"],
                                    IntegratorSpec(method="rk4", dt=1.0 / 4000.0, t_end=0.25))
    cols = {"t": tr.times, "w": tr["w"]}
    assert ck.check_hysteresis(cols, p, 4.0)[0]
    assert not ck.check_hysteresis({**cols, "w": _bump(cols["w"], 100, 1e-6)}, p, 4.0)[0]


def test_mc_product_log():
    p = _preset("mc-volatility")
    hp = HpParams(alpha=0.0, beta=p["beta"], r_on=p["r_on"], r_off=p["r_off"])
    tau = hp.r_on * p["c"]
    tr = mc_simulate(McParams(c=p["c"], hp=hp), p["q0"],
                     IntegratorSpec(method="rk4", dt=0.005 * tau, t_end=3.0 * tau))
    cols = {"t": tr.times, "q": tr["q"]}
    assert ck.check_mc(cols, p)[0]
    assert not ck.check_mc({**cols, "q": _bump(cols["q"], 50, 1e-5)}, p)[0]


@pytest.mark.parametrize("with_rc", [True, False])
def test_plant_against_solve_ivp(with_rc):
    p = _preset("plant")
    pp = PlantParams(p_beta=p["p_beta"], r_o=p["r_o"], a_const=p["a_const"],
                     rc_r=p["rc_r"] if with_rc else None, rc_c=p["rc_c"] if with_rc else None)
    tr = plant_simulate(pp, DriveSignal("sine", amplitude=p["amplitude"], frequency=4.0),
                        IntegratorSpec(method="rk4", dt=1.0 / 16000.0, t_end=0.5))
    cols = {"t": tr.times, "i": tr["i"]}
    assert ck.check_plant(cols, p, 4.0, with_rc)[0]
    assert not ck.check_plant({**cols, "i": _bump(cols["i"], 300, 1e-4)}, p, 4.0, with_rc)[0]


def test_hh_against_solve_ivp():
    p = dict(_preset("hh"), t_end=0.05)
    hh = HhParams(**{k: p[k] for k in ("g_k", "g_na", "k1", "k2", "na1", "na2", "na3", "na4",
                                        "na5", "na6", "na7", "na8", "na9")})
    tr = hh_simulate(hh, DriveSignal("sine", amplitude=p["amplitude"], frequency=p["frequency"]),
                     IntegratorSpec(method="rk4", dt=p["dt"], t_end=p["t_end"]))
    cols = {"t": tr.times, **{k: tr[k] for k in ("w1", "w2", "w3")}}
    assert ck.check_hh(cols, p)[0]
    assert not ck.check_hh({**cols, "w2": _bump(cols["w2"], 200, 1e-6)}, p)[0]


def test_amoeba_fixed_point_and_bounds():
    p = _preset("amoeba")
    n = int(round(p["t1"] / p["dt"])) + 3
    # stage 1 (v1 > 0) settled with M at r1; stage 2 (v2 < 0) with M at r2
    i1 = p["v1"] / (p["r"] + p["r1"])
    i2 = p["v2"] / (p["r"] + p["r2"])
    cols = {"i": np.full(n, i2), "v_c": np.full(n, i2 * p["r2"]), "m": np.full(n, p["r2"])}
    k1 = int(round(p["t1"] / p["dt"]))
    cols["i"][k1], cols["v_c"][k1], cols["m"][k1] = i1, i1 * p["r1"], p["r1"]
    assert ck.check_amoeba(cols, p)[0]
    assert not ck.check_amoeba({**cols, "i": _bump(cols["i"], k1, 0.1)}, p)[0]
    assert not ck.check_amoeba({**cols, "m": _bump(cols["m"], 1, 0.5)}, p)[0]


def test_crossbar_reads_against_nodal_solve():
    rng = np.random.default_rng(0)
    hp = HpParams(alpha=0.0, beta=1.0, r_on=1e3, r_off=1e5)
    reads = []
    for rows, cols in ((1, 1), (3, 5), (8, 8)):
        xb = Crossbar(m=rng.uniform(1e3, 1e5, (rows, cols)), r_out=rng.uniform(1e3, 1e4, rows), hp=hp)
        xi = rng.uniform(-1, 1, cols)
        reads.append((xb.m, xb.r_out, xi, read_mvm(xb, xi)))
    assert ck.check_crossbar_reads(reads)[0]
    m, r_out, xi, eta = reads[1]
    assert not ck.check_crossbar_reads(reads[:1] + [(m, r_out, xi, _bump(eta, 0, 1e-6))])[0]
    assert not ck.check_crossbar_reads([])[0]


def test_write_read_metrics():
    p = _preset("write-read")
    tau = p["beta"] * (p["r_off"] - p["r_on"]) / (2.0 * p["v_write"])
    good = {"bit_errors": "0", "read_read_flips": "0", "switching_time_s": repr(tau)}
    assert ck.check_write_read(good, p)[0]
    assert not ck.check_write_read({**good, "bit_errors": "1"}, p)[0]
    assert not ck.check_write_read({**good, "read_read_flips": "2"}, p)[0]
    assert not ck.check_write_read({**good, "switching_time_s": repr(tau * 1.001)}, p)[0]


def test_sanger_replay():
    rng = np.random.default_rng(2)
    xs = rng.multivariate_normal([0.0, 0.0], np.diag([4.0, 1.0]), size=300)
    w0 = 0.1 * rng.standard_normal((2, 2))
    w = w0
    for x in xs:
        w = apply_update(w, UpdateRule("sanger", eta=0.02), x)
    axis = np.linalg.eigh(np.cov(xs.T))[1][:, -1]
    angle = math.degrees(math.acos(min(1.0, abs(float(w[0] / np.linalg.norm(w[0]) @ axis)))))
    assert ck.check_sanger(w0, xs, 0.02, w, angle)[0]
    assert not ck.check_sanger(w0, xs, 0.02, _bump(w, 1, 1e-6), angle)[0]
    assert not ck.check_sanger(w0, xs, 0.02, w, angle + 1e-3)[0]


def test_stdp_round_trip():
    p = _preset("stdp")
    hp = HpParams(alpha=0.0, beta=p["beta"], r_on=p["r_on"], r_off=p["r_off"])
    kernel = StdpKernel(p["a_plus"], p["a_minus"], p["tau_plus"], p["tau_minus"])
    rows = []
    for dt in p["timings"]:
        pulse = stdp_program(dt, kernel, hp, v_mag=p["v_mag"])
        rows.append({"delta_t": str(dt), "kernel": f"{kernel(dt):.6g}",
                     "v_write": f"{pulse.v_write:.6g}", "duration": f"{pulse.duration:.6g}"})
    assert ck.check_stdp(rows, p)[0]
    rows[2] = {**rows[2], "duration": f"{1.01 * float(rows[2]['duration']):.6g}"}
    assert not ck.check_stdp(rows, p)[0]


def test_energy_closed_forms():
    p = _preset("energy")
    rows = []
    for n in p["n_values"]:
        est = energy_estimates(EnergyParams(p_err=p["p_err"], l_bits=p["l_bits"], n=n, kt=p["kt"]))
        rows.append({"n": str(n), "e_gate": f"{est.e_gate:.6g}", "e_dig": f"{est.e_dig:.6g}",
                     "e_memr": f"{est.e_memr:.6g}"})
    assert ck.check_energy(rows, p)[0]
    rows[1] = {**rows[1], "e_memr": f"{2.0 * float(rows[1]['e_memr']):.6g}"}
    assert not ck.check_energy(rows, p)[0]


def test_ridge_optimal():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((200, 6))
    y = g @ rng.standard_normal(6) + 0.1 * rng.standard_normal(200)
    coef = fit_readout(g, y, ridge=1e-3)
    rms = float(np.sqrt(np.mean((g @ coef - y) ** 2)))
    assert ck.check_ridge_optimal(g, y, 1e-3, rms)[0]
    assert not ck.check_ridge_optimal(g, y, 1e-3, rms * 1.001)[0]


def test_decode_beats_zero():
    f = np.cos(np.linspace(-np.pi, np.pi, 64))
    assert ck.check_decode_beats_zero(f, 0.9 * f)[0]
    assert not ck.check_decode_beats_zero(f, -f)[0]


def test_lca_fixed_point():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    a_true = np.zeros(8)
    a_true[[1, 5]] = [0.7, 1.2]
    x = q @ a_true
    prob = LcaProblem(dictionary=q, lam=0.0, tau=1.0)
    res = lca_simulate(prob, x, IntegratorSpec(method="rk4", dt=0.01, t_end=50.0))
    u = np.array([res.trace[f"u{k}"][-1] for k in range(8)])
    assert ck.check_lca_fixed_point(q, 0.0, x, u, res.a)[0]
    assert not ck.check_lca_fixed_point(q, 0.0, x, _bump(u, 1, 1e-3), res.a)[0]


def test_manifest_and_identical_trees(tmp_path):
    for name in ("a", "b"):
        assert main(["energy", "--seed", "3", "--out", str(tmp_path / name)]) == 0
    exp_dir = tmp_path / "a" / "energy"
    assert ck.check_manifest(exp_dir, "energy", 3)[0]
    assert not ck.check_manifest(exp_dir, "energy", 4)[0]
    man = json.loads((exp_dir / "manifest.json").read_text())
    man["params"]["l_bits"] = 9
    (tmp_path / "b" / "energy" / "manifest.json").write_text(json.dumps(man))
    assert not ck.check_manifest(tmp_path / "b" / "energy", "energy", 3)[0]
    assert not ck.check_identical_trees(tmp_path / "a", [tmp_path / "b"])[0]
    assert not ck.check_identical_trees(tmp_path / "a", [])[0]  # nothing to compare with
    assert main(["energy", "--seed", "3", "--out", str(tmp_path / "c")]) == 0
    assert ck.check_identical_trees(tmp_path / "a", [tmp_path / "c"])[0]

