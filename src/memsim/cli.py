"""Command-line experiment harness.

Named reproductions of the figure-level runs plus config-driven custom runs:
each experiment runs its one preset, or a ``--config`` JSON file whose
``params`` override fields of that preset.  Every invocation writes trace
CSVs, a plain-text ``metrics.txt`` (key=value lines), and a ``manifest.json``
recording the seed, package version, preset name, and a hash of the
fully-resolved configuration.  Same seed + same config gives
byte-identical artifacts.  They go to ``<out>/<experiment>/``, where ``<out>``
is ``--out``, else the ``MEMNET_OUT`` environment variable, else
``memsim-out``.  ``--dt`` and ``--t-end`` are offered only by the experiments
whose presets have those fields.

Exit codes: 0 success, 1 oracle mismatch (maze), 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    DriveSignal,
    IntegratorSpec,
    SimulationError,
    Trace,
    eval_signal,
    loop_area,
)
from .devices import HhParams, HpParams, ThresholdDeviceParams, simulate_hp_voltage_driven
from .circuits import (
    AmoebaParams,
    McParams,
    PlantParams,
    amoeba_effective_rhs,
    amoeba_simulate,
    hh_simulate,
    mc_analytic,
    mc_calibrate,
    mc_simulate,
    plant_simulate,
)
from .network import (
    MazeSpec,
    bfs_shortest_path,
    random_network,
    shortest_route_edges,
    soc_experiment,
    solve_maze,
)
from .crossbar import (
    Crossbar,
    EnergyParams,
    PulseSpec,
    StdpKernel,
    UpdateRule,
    apply_update,
    energy_estimates,
    nodal_oracle,
    read_bit,
    read_mvm,
    stdp_program,
    switching_time,
    write_pulse,
)
from .learning import (
    LcaProblem,
    LinearReservoir,
    Reservoir,
    fit_readout,
    hard_threshold,
    lca_energy,
    lca_simulate,
    nef_decode,
    nef_encode,
    nef_fit_decoders,
    random_nef_population,
    rc_run,
)
from .presets import PRESETS, default_preset

EXPERIMENTS = tuple(PRESETS)


def _type_mismatch(ref, value) -> str | None:
    """What ``value`` must be to replace the preset value ``ref``, or None if it is that.

    A preset int asks for an int and a preset float for an int or a float;
    a bool stands in for neither.
    """
    if isinstance(ref, bool):
        ok, need = isinstance(value, bool), "a boolean"
    elif isinstance(ref, int):
        ok, need = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(ref, float):
        ok, need = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    elif isinstance(ref, str):
        ok, need = isinstance(value, str), "a string"
    else:
        ok, need = isinstance(value, list), "a list"
    return None if ok else need


def _validate_params(experiment: str, params: dict) -> dict:
    base = dict(PRESETS[experiment][default_preset(experiment)])
    for key, value in params.items():
        if key not in base:
            raise ValueError(f"unknown config field '{key}' for experiment '{experiment}'")
        ref = base[key]
        need = _type_mismatch(ref, value)
        if need:
            raise ValueError(f"config field '{key}' must be {need}")
        if isinstance(ref, list):
            need = next(filter(None, (_type_mismatch(ref[0], v) for v in value)), None)
            if need:
                raise ValueError(f"every element of config field '{key}' must be {need}")
        base[key] = value
    return base


def _load_config(path: str) -> tuple[str, dict]:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    if raw.get("schema") != 1:
        raise ValueError("config field 'schema' must be 1")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ValueError(f"config field 'experiment' must be one of {sorted(EXPERIMENTS)}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("config field 'params' must be an object")
    return experiment, params


def _config_hash(experiment: str, params: dict, seed: int) -> str:
    canon = json.dumps(
        {"experiment": experiment, "params": params, "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_outputs(out_dir: Path, experiment: str, preset: str | None, seed: int,
                   params: dict, metrics: dict, traces: dict[str, Trace],
                   extra_text: dict[str, str] | None = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, tr in traces.items():
        tr.to_csv(out_dir / f"{name}.csv")
    with open(out_dir / "metrics.txt", "w") as fh:
        for key, value in metrics.items():
            if isinstance(value, float):
                fh.write(f"{key}={value:.12g}\n")
            else:
                fh.write(f"{key}={value}\n")
    for name, text in (extra_text or {}).items():
        (out_dir / name).write_text(text)
    manifest = {
        "schema": 1,
        "experiment": experiment,
        "preset": preset,
        "seed": seed,
        "version": __version__,
        "config_sha256": _config_hash(experiment, params, seed),
        "params": params,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _hp(params: dict) -> HpParams:
    return HpParams(alpha=params["alpha"], beta=params["beta"],
                    r_on=params["r_on"], r_off=params["r_off"])


# --------------------------------------------------------------------------
# experiment runners: params -> (metrics, traces, extra_text)


def _sweep(params) -> tuple[list, int]:
    """The drive frequencies and samples per period of a frequency sweep, checked."""
    n = params["samples_per_period"]
    if n < 1:
        raise ValueError(f"samples_per_period must be >= 1, got {n}")
    if not params["frequencies"]:
        raise ValueError("frequencies must hold at least one drive frequency")
    for f in params["frequencies"]:
        if not f > 0:
            raise ValueError(f"drive frequencies must be > 0, got {f}")
    return params["frequencies"], n


def run_hysteresis(params, rng):
    hp = _hp(params)
    metrics = {}
    traces = {}
    areas = []
    frequencies, n = _sweep(params)
    for f in frequencies:
        spec = IntegratorSpec(dt=1.0 / (f * n), t_end=1.0 / f)
        drive = DriveSignal("sine", amplitude=params["amplitude"], frequency=f)
        tr = simulate_hp_voltage_driven(hp, drive, params["w0"], spec)
        traces[f"iv_f{f:g}"] = tr
        v, i = tr["v"][:-1], tr["i"][:-1]  # one full period, no repeated endpoint
        areas.append(loop_area(v, i))
        metrics[f"loop_area_f{f:g}"] = areas[-1]
    metrics["areas_strictly_decreasing"] = all(a > b for a, b in zip(areas, areas[1:]))
    top = traces[f"iv_f{max(frequencies):g}"]
    v, i = top["v"], top["i"]
    coef = np.polyfit(v, i, 1)
    metrics["top_frequency_line_dev"] = float(np.max(np.abs(i - np.polyval(coef, v))) / np.max(np.abs(i)))
    pinch = np.abs(i[np.abs(v) < 1e-9])
    metrics["pinch_max_current"] = float(pinch.max()) if pinch.size else 0.0
    return metrics, traces, None


def run_write_read(params, rng):
    hp = _hp(params)
    rows, cols = int(params["rows"]), int(params["cols"])
    xb = Crossbar(
        m=np.full((rows, cols), 0.5 * (hp.r_on + hp.r_off)),
        r_out=np.full(rows, params["r_line"]),
        hp=hp,
    )
    tau = switching_time(hp, params["v_write"])
    pulse_set = PulseSpec(v_write=params["v_write"], duration=1.2 * tau, v_read=params["v_read"])
    pulse_reset = PulseSpec(v_write=-params["v_write"], duration=1.2 * tau, v_read=params["v_read"])
    bits = rng.integers(0, 2, size=(rows, cols))
    for i in range(rows):
        for j in range(cols):
            xb = write_pulse(xb, i, j, pulse_set if bits[i, j] else pulse_reset)
    errors = 0
    flips = 0
    for i in range(rows):
        for j in range(cols):
            bit, xb = read_bit(xb, i, j, pulse_set)
            errors += int(bit != bits[i, j])
            if i == 0 and j == 0:
                for _ in range(int(params["n_reads"]) - 1):
                    bit2, xb = read_bit(xb, i, j, pulse_set)
                    flips += int(bit2 != bit)
    metrics = {
        "bit_errors": errors,
        "read_read_flips": flips,
        "switching_time_s": tau,
    }
    return metrics, {}, None


def run_mc_volatility(params, rng):
    hp = HpParams(alpha=0.0, beta=params["beta"], r_on=params["r_on"], r_off=params["r_off"])
    mc = McParams(c=params["c"], hp=hp)
    tau0 = hp.r_on * params["c"]
    spec = IntegratorSpec(method="rk4", dt=params["dt_factor"] * tau0,
                          t_end=params["t_end_factor"] * tau0)
    tr = mc_simulate(mc, params["q0"], spec)
    mc = mc_calibrate(mc, params["q0"])
    q_pred = mc_analytic(tr.times, mc)
    out = Trace(t0=tr.t0, dt=tr.dt, names=("q", "q_analytic", "r"),
                values=np.column_stack([tr["q"], q_pred, tr["r"]]))
    tail = tr.times > 5.0 * tau0
    rel = np.abs(q_pred[tail] - tr["q"][tail]) / np.abs(tr["q"][tail])
    metrics = {"tail_max_rel_err": float(rel.max()), "c1": mc.c1}
    return metrics, {"mc_decay": out}, None


def run_amoeba(params, rng):
    dev = ThresholdDeviceParams(t_alpha=params["t_alpha"], t_beta=params["t_beta"],
                                v_t=params["v_t"], r1=params["r1"], r2=params["r2"])
    p = AmoebaParams(c=params["c"], r=params["r"], l=params["l"], dev=dev)
    schedule = [
        (params["t1"], DriveSignal("dc", amplitude=params["v1"])),
        (params["t2"], DriveSignal("dc", amplitude=params["v2"])),
    ]
    spec = IntegratorSpec(method="euler", dt=params["dt"], t_end=params["t1"] + params["t2"])
    tr = amoeba_simulate(p, [params["i0"], params["vc0"], params["m0"]], schedule, spec)
    n1 = int(round(params["t1"] / params["dt"]))
    metrics = {}
    for label, idx, v in (("stage1", n1, params["v1"]), ("stage2", tr.n_samples - 1, params["v2"])):
        state = np.array([tr["i"][idx], tr["v_c"][idx], tr["m"][idx]])
        resid = amoeba_effective_rhs(state, v, p)
        metrics[f"{label}_max_rate"] = float(np.max(np.abs(resid)))
        metrics[f"{label}_settled"] = bool(np.max(np.abs(resid)) < 1e-3)
    metrics["m_min"] = float(tr["m"].min())
    metrics["m_max"] = float(tr["m"].max())
    return metrics, {"amoeba": tr}, None


def run_plant(params, rng):
    metrics = {}
    traces = {}
    frequencies, n = _sweep(params)
    for tag, rc in (("rc", True), ("ideal", False)):
        p = PlantParams(
            p_beta=params["p_beta"], r_o=params["r_o"], a_const=params["a_const"],
            h_kind=params["h_kind"], h_coeff=params["h_coeff"],
            rc_r=params["rc_r"] if rc else None, rc_c=params["rc_c"] if rc else None,
        )
        for f in frequencies:
            spec = IntegratorSpec(dt=1.0 / (f * n), t_end=2.0 / f)
            drive = DriveSignal("sine", amplitude=params["amplitude"], frequency=f)
            tr = plant_simulate(p, drive, spec)
            half = tr.n_samples // 2
            area = loop_area(tr["v"][half:-1], tr["i"][half:-1])
            metrics[f"loop_area_{tag}_f{f:g}"] = area
            traces[f"plant_{tag}_f{f:g}"] = tr
    return metrics, traces, None


def run_hh(params, rng):
    p = HhParams(**{k: params[k] for k in (
        "g_k", "g_na", "k1", "k2", "na1", "na2", "na3", "na4", "na5", "na6", "na7", "na8", "na9")})
    spec = IntegratorSpec(method="rk4", dt=params["dt"], t_end=params["t_end"])
    drive = DriveSignal("sine", amplitude=params["amplitude"], frequency=params["frequency"])
    tr = hh_simulate(p, drive, spec)
    metrics = {f"final_{k}": float(tr[k][-1]) for k in ("w1", "w2", "w3")}
    return metrics, {"hh": tr}, None


def run_network_soc(params, rng):
    hp = _hp(params)
    g = random_network(rng, n_nodes=int(params["n_nodes"]), edge_prob=params["edge_prob"],
                       n_sources=int(params["n_sources"]), source_volts=params["source_volts"])
    spec = IntegratorSpec(method="bs3", dt=params["dt"], t_end=params["t_end"])
    res = soc_experiment(g, hp, spec)
    metrics = {
        "gamma": res.gamma,
        "spectrum_slope": res.spectrum_slope,
        "slope_plus_one_minus_gamma": res.spectrum_slope + 1.0 - res.gamma,
        "power_law": res.power_law,
        "fit_r2": res.fit_r2,
        "n_rates": int(res.rates.size),
        "steady": res.steady,
        "n_unstable": res.n_unstable,
        "stop_reason": res.stop_reason,
        "clamped_fraction": res.clamped_fraction,
        "steps": res.steps,
        "rhs_calls": res.rhs_calls,
    }
    return metrics, {"relaxation": res.relaxation}, None


def run_maze(params, rng):
    """Solve the maze; ``maze_w`` is the relaxation's w0..w{E-1} with their row mean as ``mean_w``."""
    hp = _hp(params)
    maze = MazeSpec.from_text(params["maze"])
    spec = IntegratorSpec(method="bs3", dt=params["dt"], t_end=params["t_end"])
    result = solve_maze(maze, hp, params["v_dc"], spec)
    # the path is an entrance->exit walk; it is one shortest route iff it has
    # the route length and every edge in it lies on some shortest route (the
    # edges of tied routes alone could add up to more than one route)
    found_adj = {tuple(sorted(p)) for p in result.path}
    bfs_edges = len(bfs_shortest_path(maze)) - 1
    metrics = {
        "path_matches_bfs": found_adj <= shortest_route_edges(maze) and len(result.path) == bfs_edges,
        "contrast": result.contrast,
        "path_edges": len(result.path),
        "bfs_edges": bfs_edges,
        "steps": result.run.steps,
        "rhs_calls": result.run.rhs_calls,
    }
    text = "\n".join(f"{a} -> {b}" for a, b in result.path) + "\n"
    tr = result.run.trace
    maze_w = Trace(t0=tr.t0, dt=tr.dt, names=(*tr.names, "mean_w"),
                   values=np.column_stack([tr.values, tr.values.mean(axis=1)]))
    return metrics, {"maze_w": maze_w}, {"path.txt": text}


def run_crossbar_mvm(params, rng):
    hp = HpParams(alpha=0.0, beta=1.0, r_on=params["r_on"], r_off=params["r_off"])
    worst = 0.0
    for _ in range(int(params["n_arrays"])):
        rows = int(rng.integers(1, params["rows"] + 1))
        cols = int(rng.integers(1, params["cols"] + 1))
        m = rng.uniform(hp.r_on, hp.r_off, size=(rows, cols))
        r_out = rng.uniform(0.1 * params["r_line"], params["r_line"], size=rows)
        xb = Crossbar(m=m, r_out=r_out, hp=hp)
        xi = rng.uniform(-1.0, 1.0, size=cols)
        eta = read_mvm(xb, xi)
        ref = nodal_oracle(xb, xi)
        denom = np.maximum(np.abs(ref), 1e-30)
        worst = max(worst, float(np.max(np.abs(eta - ref) / denom)))
    return {"max_rel_err": worst, "n_arrays": int(params["n_arrays"])}, {}, None


def run_crossbar_train(params, rng, literal=False):
    kind = params["rule"]
    eta = params["eta"]
    n_in = int(params["n_inputs"])
    n_out = int(params["n_outputs"])
    cov = np.diag(params["cov_diag"])
    xs = rng.multivariate_normal(np.zeros(n_in), cov, size=int(params["n_samples"]))
    metrics = {}
    rows = []
    if kind == "sanger":
        # the literal printed expression is only conditionally stable; cap its rate
        rule = UpdateRule("sanger", eta=min(eta, 1e-3) if literal else eta, literal=literal)
        w = 0.1 * rng.standard_normal((n_out, n_in))
        for k, x in enumerate(xs):
            w = apply_update(w, rule, x)
            rows.append(np.linalg.norm(w, axis=1))
        evec = np.linalg.eigh(np.cov(xs.T))[1][:, -1]
        lead = w[0] / np.linalg.norm(w[0])
        angle = np.degrees(np.arccos(min(1.0, abs(float(lead @ evec)))))
        metrics["leading_axis_angle_deg"] = angle
    elif kind == "adaline":
        rule = UpdateRule("adaline", eta=eta, literal=literal)
        w = np.zeros((n_in, n_in))
        for x in xs:
            w = apply_update(w, rule, x)
            rows.append(np.linalg.norm(w, axis=1))
        scaled = w / (eta * len(xs))
        metrics["hebbian_vs_cov_err"] = float(
            np.max(np.abs(scaled - (xs.T @ xs) / len(xs))))
    elif kind == "gradient":
        rule = UpdateRule("gradient", eta=eta, literal=literal)
        target = rng.standard_normal((n_out, n_in))
        w = np.zeros((n_out, n_in))
        for x in xs:
            w = apply_update(w, rule, (x, target @ x))
            rows.append(np.linalg.norm(w - target, axis=1))
        metrics["final_weight_err"] = float(np.linalg.norm(w - target))
    else:
        raise ValueError(f"unknown training rule '{kind}'")
    data = np.array(rows)
    tr = Trace(t0=0.0, dt=1.0, names=tuple(f"row{i}" for i in range(data.shape[1])), values=data)
    return metrics, {"training": tr}, None


def run_stdp(params, rng):
    hp = HpParams(alpha=params["alpha"], beta=params["beta"],
                  r_on=params["r_on"], r_off=params["r_off"])
    kernel = StdpKernel(a_plus=params["a_plus"], a_minus=params["a_minus"],
                        tau_plus=params["tau_plus"], tau_minus=params["tau_minus"])
    lines = ["delta_t,kernel,v_write,duration,round_trip_err"]
    worst = 0.0
    for dt_spike in params["timings"]:
        pulse = stdp_program(dt_spike, kernel, hp, v_mag=params["v_mag"])
        xb = Crossbar(m=np.array([[0.5 * (hp.r_on + hp.r_off)]]), r_out=np.array([1000.0]), hp=hp)
        xb2 = write_pulse(xb, 0, 0, pulse)
        achieved = float(xb2.w[0, 0] - xb.w[0, 0])
        want = -kernel(dt_spike)
        err = abs(achieved - want) / max(abs(want), 1e-12)
        worst = max(worst, err)
        lines.append(f"{dt_spike},{kernel(dt_spike):.6g},{pulse.v_write:.6g},"
                     f"{pulse.duration:.6g},{err:.3g}")
    return ({"max_round_trip_rel_err": worst}, {},
            {"stdp_pulses.csv": "\n".join(lines) + "\n"})


def run_rc_demo(params, rng):
    n = int(params["n_state"])
    n_g = int(params["n_features"])
    a = -params["leak"] * np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    a = a - np.abs(np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)  # ensure stable
    res = Reservoir(
        dynamics=LinearReservoir(a=a),
        b=rng.standard_normal((n, 1)),
        h=rng.standard_normal((n_g, n)),
    )
    spec = IntegratorSpec(method="rk4", dt=params["dt"], t_end=params["t_end"])
    u = DriveSignal("sine", amplitude=params["amplitude"], frequency=params["frequency"])
    tr = rc_run(res, u, spec)
    g_mat = tr.values[:, :n_g]
    target = np.asarray(eval_signal(u, tr.times - 0.1), dtype=float)  # delayed copy
    gamma = fit_readout(g_mat, target, ridge=params["ridge"])
    err = float(np.sqrt(np.mean((g_mat @ gamma - target) ** 2)))
    return {"train_rms": err}, {"rc_features": tr}, None


def run_nef_demo(params, rng):
    grid = np.linspace(params["x_min"], params["x_max"], int(params["n_grid"]))
    pop = random_nef_population(rng, int(params["n_neurons"]), grid,
                                tau0=params["tau0"], tau_rc=params["tau_rc"], i_f=params["i_f"])
    # random band-limited training functions: Fourier series in cos/sin(pi k x / 2),
    # k <= band_limit, with N(0, 1/n_terms) coefficients; the test function
    # cos(pi x) lies in their span but is held out of the training set
    phase = np.pi * np.outer(grid, np.arange(int(params["band_limit"]) + 1)) / 2.0
    basis = np.hstack([np.cos(phase), np.sin(phase[:, 1:])])
    coef = rng.standard_normal((int(params["n_train"]), basis.shape[1])) / np.sqrt(basis.shape[1])
    dec = nef_fit_decoders(pop, coef @ basis.T, regularization=params["regularization"])
    test = np.cos(np.pi * grid)
    f_hat = nef_decode(nef_encode(test, pop), dec)
    rms = float(np.sqrt(np.mean((f_hat - test) ** 2)))
    zero_rms = float(np.sqrt(np.mean(test ** 2)))
    tr = Trace(t0=float(grid[0]), dt=float(grid[1] - grid[0]), names=("f", "f_hat"),
               values=np.column_stack([test, f_hat]))
    return ({"test_rms": rms, "zero_rms": zero_rms, "n_neurons": pop.n_neurons},
            {"nef_decode": tr}, None)


def run_lca(params, rng):
    n, m = int(params["n_dim"]), int(params["n_atoms"])
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    problem = LcaProblem(dictionary=q, lam=params["lam"], tau=params["tau"])
    a_true = np.zeros(m)
    idx = rng.choice(m, size=int(params["k_active"]), replace=False)
    a_true[idx] = rng.uniform(0.5, 1.5, size=idx.size)
    x = q @ a_true
    spec = IntegratorSpec(method="rk4", dt=params["dt"], t_end=params["t_end"])
    res = lca_simulate(problem, x, spec)
    err = float(np.max(np.abs(res.a - a_true)))
    energies = [lca_energy(problem, x, hard_threshold(row, problem.lam)) for row in res.trace.values]
    monotone = bool(np.all(np.diff(energies) <= 1e-9 * max(energies[0], 1.0)))
    return ({"recovery_max_err": err, "energy_nonincreasing": monotone,
             "converged": res.converged}, {"lca_u": res.trace}, None)


def run_energy(params, rng):
    lines = ["n,e_gate,e_dig,e_memr"]
    vals = []
    for n in params["n_values"]:
        est = energy_estimates(EnergyParams(p_err=params["p_err"], l_bits=int(params["l_bits"]),
                                            n=int(n), kt=params["kt"]))
        vals.append(est)
        lines.append(f"{n},{est.e_gate:.6g},{est.e_dig:.6g},{est.e_memr:.6g}")
    metrics = {
        "dig_scaling_ratio": vals[-1].e_dig / vals[0].e_dig / (params["n_values"][-1] / params["n_values"][0]),
        "memr_scaling_ratio": vals[-1].e_memr / vals[0].e_memr / (params["n_values"][-1] / params["n_values"][0]) ** 2,
    }
    return metrics, {}, {"energy.csv": "\n".join(lines) + "\n"}


RUNNERS = {
    "hysteresis": run_hysteresis,
    "write-read": run_write_read,
    "mc-volatility": run_mc_volatility,
    "amoeba": run_amoeba,
    "plant": run_plant,
    "hh": run_hh,
    "network-soc": run_network_soc,
    "maze": run_maze,
    "crossbar-mvm": run_crossbar_mvm,
    "crossbar-train": run_crossbar_train,
    "stdp": run_stdp,
    "rc-demo": run_rc_demo,
    "nef-demo": run_nef_demo,
    "lca": run_lca,
    "energy": run_energy,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``memsim`` argument parser, built once per process.

    ``parse_args`` keeps no state in it between calls: each call fills a new
    namespace from the defaults.
    """
    parser = argparse.ArgumentParser(prog="memsim", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", default=None, help="JSON config path")
        sp.add_argument("--out", default=None,
                        help="output directory (default: $MEMNET_OUT, else memsim-out)")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
        fields = PRESETS[name][default_preset(name)]
        if "dt" in fields:
            sp.add_argument("--dt", type=float, default=None,
                            help="override dt (the fixed step; the row spacing of network runs)")
        if "t_end" in fields:
            sp.add_argument("--t-end", type=float, default=None, help="override run length")
        if name == "crossbar-train":
            sp.add_argument("--literal", action="store_true",
                            help="use the printed Sanger expression verbatim")
        if name == "maze":
            sp.add_argument("--maze", default=None, help="path to a maze text file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    experiment = args.experiment
    try:
        if args.config is not None:
            cfg_experiment, params = _load_config(args.config)
            if cfg_experiment != experiment:
                raise ValueError(
                    f"config is for experiment '{cfg_experiment}', not '{experiment}'")
            preset = None
        else:
            params, preset = {}, default_preset(experiment)
        for field in ("dt", "t_end"):
            if getattr(args, field, None) is not None:
                params[field] = getattr(args, field)
        if experiment == "maze" and getattr(args, "maze", None):
            params["maze"] = Path(args.maze).read_text()
        params = _validate_params(experiment, params)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    runner = RUNNERS[experiment]
    try:
        if experiment == "crossbar-train":
            metrics, traces, extra = runner(params, rng, literal=getattr(args, "literal", False))
        else:
            metrics, traces, extra = runner(params, rng)
    except SimulationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_root = args.out or os.environ.get("MEMNET_OUT", "memsim-out")
    out_dir = Path(out_root) / experiment
    _write_outputs(out_dir, experiment, preset, args.seed, params, metrics, traces, extra)
    for key, value in metrics.items():
        print(f"{key}={value}")
    if experiment == "maze" and not metrics["path_matches_bfs"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
