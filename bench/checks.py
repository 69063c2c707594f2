"""Independent checks of the program's outputs.

Each check compares an output with a computation made apart from the
program (nodal analysis, closed forms, scipy's adaptive integrator, BFS,
least squares) or with a property the method must have.  None compares with
stored output.  A check returns ``(ok, detail)``; it never raises on a wrong
output, so a caller can count it as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

Result = tuple[bool, str]


def _ok(cond: bool, detail: str) -> Result:
    return bool(cond), detail


def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of a ``Trace.to_csv`` file by header name."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(names)}


def read_metrics(path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in Path(path).read_text().splitlines())


def _rel_dev(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


# ----------------------------------------------------------------------------
# Kirchhoff networks


def nodal_solve(n_nodes: int, edges, conductance, emf=None, fixed=None) -> tuple[np.ndarray, np.ndarray]:
    """Node potentials and edge currents of a resistor network by nodal analysis.

    Edge k runs tail -> head with conductance g_k and a series EMF sigma_k
    that raises the potential from tail to head, so its current (tail ->
    head) is i_k = g_k (phi_tail - phi_head + sigma_k).  Kirchhoff's current
    law holds at every node not in ``fixed`` (a dict node -> potential);
    node 0 is grounded when ``fixed`` is not given.
    """
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    g = np.asarray(conductance, dtype=float)
    sigma = np.zeros(len(edges)) if emf is None else np.asarray(emf, dtype=float)
    fixed = {0: 0.0} if fixed is None else dict(fixed)
    inc = np.zeros((len(edges), n_nodes))
    inc[np.arange(len(edges)), edges[:, 0]] += 1.0
    inc[np.arange(len(edges)), edges[:, 1]] -= 1.0
    lap = inc.T @ (g[:, None] * inc)
    rhs = -inc.T @ (g * sigma)
    phi = np.zeros(n_nodes)
    known = np.array(sorted(fixed), dtype=int)
    phi[known] = [fixed[k] for k in known]
    free = np.setdiff1d(np.arange(n_nodes), known)
    phi[free] = np.linalg.solve(lap[np.ix_(free, free)], rhs[free] - lap[np.ix_(free, known)] @ phi[known])
    return phi, g * (inc @ phi + sigma)


def check_network_currents(graph, w, emf, r_on: float, r_off: float, currents,
                           rtol: float = 1e-8) -> Result:
    """Currents of a memristive graph (no pure source edges) at memory state w.

    Conductances are 1/R(w) with R(w) = r_on (1 - w) + r_off w; ``emf`` holds
    the series EMF of every edge.
    """
    if any(e.kind != "memristor" for e in graph.edges):
        return False, "graph has pure source edges; contract them before this check"
    w = np.asarray(w, dtype=float)
    edges = [(e.tail, e.head) for e in graph.edges]
    _, want = nodal_solve(graph.n_nodes, edges, 1.0 / (r_on * (1.0 - w) + r_off * w), emf)
    dev = _rel_dev(currents, want)
    return _ok(dev <= rtol, f"max deviation from nodal KCL/KVL currents {dev:.3g} (tol {rtol:g})")


def check_unit_interval(w, name: str = "w") -> Result:
    w = np.asarray(w, dtype=float)
    return _ok(bool(np.all((w >= 0.0) & (w <= 1.0))),
               f"{name} range [{w.min():.6g}, {w.max():.6g}]")


def check_soc_exponents(gamma: float, slope: float, tol: float = 0.3) -> list[tuple[str, Result]]:
    """The relaxation exponent and the spectrum relation slope = -(1 - gamma)."""
    return [
        ("gamma", _ok(abs(gamma + 1.0) <= tol, f"gamma={gamma:.6g}, need |gamma+1| <= {tol}")),
        ("spectrum_relation", _ok(abs(slope + 1.0 - gamma) <= tol,
                                  f"slope+1-gamma={slope + 1.0 - gamma:.6g}, need |.| <= {tol}")),
    ]


def max_free_rate(w, dw) -> float:
    """max |dw/dt| over the edges a [0, 1] clamp does not hold still."""
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    held = ((w >= 1.0) & (dw > 0)) | ((w <= 0.0) & (dw < 0))
    return float(np.max(np.abs(np.where(held, 0.0, dw)), initial=0.0))


def check_steady(steady: bool, stop_reason: str, steps: int, max_rate: float) -> Result:
    """The relaxation reached the steady state it is linearized at."""
    return _ok(steady, f"stop_reason={stop_reason} after {steps} steps, "
                       f"clamp-aware max|dw/dt| {max_rate:.3g} at the last state")


def parse_path_txt(text: str) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Cell adjacencies of a ``path.txt`` written by ``memsim maze``."""
    pairs = set()
    for line in text.splitlines():
        nums = [int(x) for x in re.findall(r"-?\d+", line)]
        if len(nums) != 4:
            raise ValueError(f"unreadable path line {line!r}")
        a, b = (nums[0], nums[1]), (nums[2], nums[3])
        pairs.add((min(a, b), max(a, b)))
    return pairs


def check_maze_route(path_text: str, route) -> Result:
    """The conducting path equals the unique shortest route found by BFS."""
    want = {(min(a, b), max(a, b)) for a, b in zip(route, route[1:])}
    try:
        got = parse_path_txt(path_text)
    except ValueError as exc:
        return False, str(exc)
    return _ok(got == want, f"{len(got)} path edges, BFS route has {len(want)}; "
                            f"{len(got ^ want)} differ")


# ----------------------------------------------------------------------------
# Devices and small circuits


def hp_flux_w(t, amplitude: float, frequency: float, w0: float, beta: float,
              r_on: float, r_off: float, polarity: int = 1) -> np.ndarray:
    """Exact alpha=0 memory under V = A sin(2 pi f t): the flux solution.

    dw/dt = -polarity V / (beta R(w)) with R = r_on (1 + xi w) integrates to
    (xi/2) w^2 + w = (xi/2) w0^2 + w0 - polarity Phi / (beta r_on), where
    Phi = A (1 - cos 2 pi f t) / (2 pi f).
    """
    xi = (r_off - r_on) / r_on
    phi = amplitude * (1.0 - np.cos(2.0 * np.pi * frequency * np.asarray(t))) / (2.0 * np.pi * frequency)
    u = 0.5 * xi * w0**2 + w0 - polarity * phi / (beta * r_on)
    return (np.sqrt(1.0 + 2.0 * xi * u) - 1.0) / xi


def check_hysteresis(columns: dict, params: dict, frequency: float, atol: float = 1e-9) -> Result:
    want = hp_flux_w(columns["t"], params["amplitude"], frequency, params["w0"],
                     params["beta"], params["r_on"], params["r_off"])
    dev = float(np.max(np.abs(columns["w"] - want)))
    return _ok(dev <= atol, f"max |w - flux solution| {dev:.3g} (tol {atol:g})")


def mc_exact_q(t, q0: float, c: float, beta: float, r_on: float, r_off: float) -> np.ndarray:
    """Product-log discharge of the memristor-capacitor cell, c1 fixed by q(0) = q0.

    r_on C (ln q + xi q / beta) = r_on C (ln q0 + xi q0 / beta) - t, so
    q = (beta/xi) W((xi/beta) q0 e^{xi q0/beta} e^{-t/(r_on C)}).
    """
    from scipy.special import lambertw

    xi = (r_off - r_on) / r_on
    arg = (xi / beta) * q0 * np.exp(xi * q0 / beta) * np.exp(-np.asarray(t) / (r_on * c))
    return (beta / xi) * np.real(lambertw(arg))


def check_mc(columns: dict, params: dict, rtol: float = 1e-7) -> Result:
    want = mc_exact_q(columns["t"], params["q0"], params["c"], params["beta"],
                      params["r_on"], params["r_off"])
    dev = float(np.max(np.abs(columns["q"] - want) / np.abs(want)))
    return _ok(dev <= rtol, f"max relative |q - product-log q| {dev:.3g} (tol {rtol:g})")


def _solve_ivp(rhs, y0, t, rtol=1e-11, atol=1e-13):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (t[0], t[-1]), y0, method="DOP853", t_eval=t, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y


def check_plant(columns: dict, params: dict, frequency: float, with_rc: bool,
                rtol: float = 1e-6) -> Result:
    """Plant memristor current against scipy's DOP853 on the same running-integral ODE.

    J' = -b J + h(V) gives i_m = V / (b R_o J + A e^{-b t}); the parasitic
    branch is q' = (V - q/C)/R with i_rc = q'.  Only h = const is supported.
    """
    if params["h_kind"] != "constant":
        return False, f"check supports h_kind='constant' only, got {params['h_kind']!r}"
    t = columns["t"]
    amp, b = params["amplitude"], params["p_beta"]
    volt = lambda tt: amp * np.sin(2.0 * np.pi * frequency * tt)

    def rhs(tt, y):
        out = [-b * y[0] + 1.0]
        if with_rc:
            out.append((volt(tt) - y[1] / params["rc_c"]) / params["rc_r"])
        return out

    y = _solve_ivp(rhs, [0.0, 0.0] if with_rc else [0.0], t)
    v = volt(t)
    i_m = v / (b * params["r_o"] * y[0] + params["a_const"] * np.exp(-b * t))
    i_rc = (v - y[1] / params["rc_c"]) / params["rc_r"] if with_rc else np.zeros_like(t)
    dev = _rel_dev(columns["i"], i_m + i_rc)
    return _ok(dev <= rtol, f"max deviation of i from DOP853 {dev:.3g} (tol {rtol:g})")


def _rate(x):
    return 1.0 if x == 0 else x / math.expm1(x)


def check_hh(columns: dict, params: dict, atol: float = 1e-8) -> Result:
    """Gate trajectories against DOP853 on the displayed memristive channel equations.

    The gates start at 0 and stay inside [0, 1] in the exact solution, so the
    driver's clamp is inactive and the comparison needs no event handling.
    """
    p = params
    w_freq = 2.0 * np.pi * p["frequency"]

    def rhs(tt, y):
        v = p["amplitude"] * math.sin(w_freq * tt)
        w1, w2, w3 = y
        return [
            _rate(p["k1"] * v + p["k2"]) * (1.0 - w1),
            _rate(p["na1"] * v + p["na2"]) * (1.0 - w2) + p["na3"] * math.exp(p["na4"] * v + p["na5"]) * w2,
            p["na6"] * math.exp(p["na7"] * v + p["na8"]) * (1.0 - w3)
            - w3 / (math.exp(p["na1"] * v + p["na9"]) + 1.0),
        ]

    y = _solve_ivp(rhs, [0.0, 0.0, 0.0], columns["t"])
    dev = max(float(np.max(np.abs(columns[f"w{k + 1}"] - y[k]))) for k in range(3))
    return _ok(dev <= atol, f"max |gate - DOP853| {dev:.3g} (tol {atol:g})")


def check_amoeba(columns: dict, params: dict, tol: float = 1e-3) -> Result:
    """M stays in [r1, r2], and both drive stages end at a clamp-aware fixed point."""
    p = params
    m = columns["m"]
    if m.min() < p["r1"] or m.max() > p["r2"]:
        return False, f"M range [{m.min():.6g}, {m.max():.6g}] leaves [{p['r1']}, {p['r2']}]"
    ends = [int(round(p["t1"] / p["dt"])), len(m) - 1]
    worst = 0.0
    for k, v in zip(ends, (p["v1"], p["v2"])):
        i, vc, mm = columns["i"][k], columns["v_c"][k], m[k]
        di = (-p["r"] * i + v - vc) / p["l"]
        dvc = (i - vc / mm) / p["c"]
        # threshold device: slope -t_alpha inside |V| < v_t, -t_beta outside
        f = -p["t_alpha"] * vc if abs(vc) <= p["v_t"] else (
            -p["t_alpha"] * p["v_t"] * np.sign(vc) - p["t_beta"] * (vc - p["v_t"] * np.sign(vc)))
        dm = f if (vc > 0 and mm > p["r1"]) or (vc < 0 and mm < p["r2"]) else 0.0
        worst = max(worst, abs(di), abs(dvc), abs(dm))
    return _ok(worst < tol, f"largest rate at the stage ends {worst:.3g} (tol {tol:g})")


# ----------------------------------------------------------------------------
# Crossbars


def crossbar_nodal_read(m, r_out, xi) -> np.ndarray:
    """Output-line potentials of a crossbar read, by nodal analysis of the whole array.

    Nodes: input lines 0..C-1 held at xi, output lines C..C+R-1, ground C+R.
    Cell (i, j) joins input j to output i through M_ij; output i reaches
    ground through r_out[i].
    """
    m = np.asarray(m, dtype=float)
    rows, cols = m.shape
    ground = cols + rows
    edges = [(j, cols + i) for i in range(rows) for j in range(cols)]
    edges += [(cols + i, ground) for i in range(rows)]
    g = np.concatenate([1.0 / m.ravel(), 1.0 / np.asarray(r_out, dtype=float)])
    fixed = {j: float(xi[j]) for j in range(cols)}
    fixed[ground] = 0.0
    phi, _ = nodal_solve(cols + rows + 1, edges, g, fixed=fixed)
    return phi[cols:cols + rows]


def check_crossbar_reads(reads, rtol: float = 1e-10) -> Result:
    """``reads`` is a list of (m, r_out, xi, eta) from ``read_mvm`` calls."""
    if not reads:
        return False, "no reads captured"
    worst = max(_rel_dev(eta, crossbar_nodal_read(m, r_out, xi)) for m, r_out, xi, eta in reads)
    return _ok(worst <= rtol, f"{len(reads)} reads, max deviation from nodal solve {worst:.3g}")


def check_write_read(metrics: dict, params: dict) -> Result:
    """Every bit reads back, repeated reads never flip, and tau is the sqrt-law bound.

    tau = beta (r_off - r_on) / (2 |V_write|) from w dw = V dt / (beta (r_off - r_on)).
    """
    tau = params["beta"] * (params["r_off"] - params["r_on"]) / (2.0 * abs(params["v_write"]))
    got = float(metrics["switching_time_s"])
    ok = (int(metrics["bit_errors"]) == 0 and int(metrics["read_read_flips"]) == 0
          and abs(got - tau) <= 1e-9 * tau)
    return _ok(ok, f"bit_errors={metrics['bit_errors']} flips={metrics['read_read_flips']} "
                   f"tau={got:.12g} (want {tau:.12g})")


def check_sanger(w_init, samples, eta: float, w_final, angle_deg: float, tol: float = 1e-9) -> Result:
    """Replay the generalized Hebbian algorithm and recompute the reported axis angle.

    W <- W + eta (y x^T - LT[y y^T] W), y = W x; the angle is between the
    first row of W and the leading principal axis (right singular vector of
    the centred samples).
    """
    w = np.array(w_init, dtype=float)
    for x in samples:
        y = w @ x
        w = w + eta * (np.outer(y, x) - np.tril(np.outer(y, y)) @ w)
    dev = _rel_dev(w_final, w)
    xs = np.asarray(samples, dtype=float)
    axis = np.linalg.svd(xs - xs.mean(axis=0), full_matrices=False)[2][0]
    lead = w_final[0] / np.linalg.norm(w_final[0])
    angle = math.degrees(math.acos(min(1.0, abs(float(lead @ axis)))))
    ok = dev <= tol and abs(angle - angle_deg) <= 1e-6
    return _ok(ok, f"replayed W deviates {dev:.3g}; angle {angle_deg:.9g} vs recomputed {angle:.9g}")


def check_stdp(rows: list[dict], params: dict, rtol: float = 1e-4) -> Result:
    """Each synthesized pulse, applied to a cell at w = 0.5, moves it by -kernel(dt).

    The movement uses the exact alpha=0 flux solution of the write dynamics
    with the printed (6-digit) pulse voltage and duration.
    """
    p = params
    xi = (p["r_off"] - p["r_on"]) / p["r_on"]
    worst = 0.0
    for row in rows:
        dt = float(row["delta_t"])
        want = (p["a_plus"] * math.exp(-dt / p["tau_plus"]) if dt >= 0
                else -p["a_minus"] * math.exp(dt / p["tau_minus"]))
        u = 0.5 * xi * 0.25 + 0.5 - float(row["v_write"]) * float(row["duration"]) / (p["beta"] * p["r_on"])
        w1 = (math.sqrt(1.0 + 2.0 * xi * u) - 1.0) / xi
        worst = max(worst, abs((w1 - 0.5) + want) / abs(want),
                    abs(float(row["kernel"]) - want) / abs(want))
    return _ok(worst <= rtol, f"{len(rows)} pulses, worst relative round-trip error {worst:.3g}")


def check_energy(rows: list[dict], params: dict, rtol: float = 1e-5) -> Result:
    """Landauer-style estimates against their closed forms."""
    ln_inv = math.log(1.0 / params["p_err"])
    kt, l_bits = params["kt"], params["l_bits"]
    worst = 0.0
    for row in rows:
        n = float(row["n"])
        want = {"e_gate": 2.0 * ln_inv * kt,
                "e_dig": 24.0 * ln_inv * math.log2(l_bits) ** 2 * n * kt,
                "e_memr": ln_inv * l_bits**2 * n**2 * kt / 24.0}
        worst = max([worst] + [abs(float(row[k]) - v) / v for k, v in want.items()])
    return _ok(worst <= rtol, f"{len(rows)} rows, worst relative error {worst:.3g}")


# ----------------------------------------------------------------------------
# Learning


def check_ridge_optimal(features, target, ridge: float, rms: float, rtol: float = 1e-6) -> Result:
    """The reported training RMS is that of the ridge optimum (normal equations).

    The optimum is computed by least squares on the augmented system
    [G; sqrt(ridge) I] c = [y; 0], not by the normal equations.
    """
    g = np.asarray(features, dtype=float)
    aug = np.vstack([g, math.sqrt(ridge) * np.eye(g.shape[1])])
    rhs = np.concatenate([target, np.zeros(g.shape[1])])
    coef = np.linalg.lstsq(aug, rhs, rcond=None)[0]
    want = float(np.sqrt(np.mean((g @ coef - target) ** 2)))
    dev = abs(rms - want) / want
    return _ok(dev <= rtol, f"train_rms={rms:.9g}, ridge optimum {want:.9g}")


def check_decode_beats_zero(f, f_hat) -> Result:
    """Decoding is better than returning the zero function."""
    rms = float(np.sqrt(np.mean((np.asarray(f_hat) - f) ** 2)))
    zero = float(np.sqrt(np.mean(np.asarray(f) ** 2)))
    return _ok(rms < zero, f"decode rms {rms:.6g} vs zero-function rms {zero:.6g}")


def check_lca_fixed_point(dictionary, lam: float, x, u, a, tol: float = 1e-6) -> Result:
    """u = Phi^T x - (Phi^T Phi - diag) T(u), and a = T(u) reconstructs x."""
    phi = np.asarray(dictionary, dtype=float)
    gram = phi.T @ phi
    act = np.where(u > lam, u, 0.0)
    resid = phi.T @ x - u - (gram - np.diag(np.diag(gram))) @ act
    recon = float(np.max(np.abs(phi @ a - x)))
    worst = max(float(np.max(np.abs(resid))), recon, float(np.max(np.abs(a - act))))
    return _ok(worst <= tol, f"fixed-point residual {np.max(np.abs(resid)):.3g}, "
                             f"reconstruction error {recon:.3g}")


# ----------------------------------------------------------------------------
# Artifacts


def check_manifest(exp_dir, experiment: str, seed: int) -> Result:
    """manifest.json names the run and hashes its resolved configuration.

    The hash is SHA-256 of the canonical JSON {experiment, params, seed}
    (sorted keys, no spaces).
    """
    try:
        man = json.loads((Path(exp_dir) / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return False, f"unreadable manifest: {exc}"
    canon = json.dumps({"experiment": experiment, "params": man.get("params"), "seed": seed},
                       sort_keys=True, separators=(",", ":"))
    want = hashlib.sha256(canon.encode()).hexdigest()
    ok = (man.get("experiment") == experiment and man.get("seed") == seed
          and man.get("config_sha256") == want and (Path(exp_dir) / "metrics.txt").is_file())
    return _ok(ok, f"experiment={man.get('experiment')} seed={man.get('seed')} "
                   f"hash {'matches' if man.get('config_sha256') == want else 'differs'}")


def check_identical_trees(first, others) -> Result:
    """Every round wrote byte-identical artifacts (the determinism contract)."""
    if not others:
        return False, "no second round to compare"
    first = Path(first)
    ref = {p.relative_to(first): p.read_bytes() for p in sorted(first.rglob("*")) if p.is_file()}
    for other in map(Path, others):
        got = {p.relative_to(other): p.read_bytes() for p in sorted(other.rglob("*")) if p.is_file()}
        if got != ref:
            diff = sorted(str(k) for k in set(got) | set(ref) if got.get(k) != ref.get(k))
            return False, f"{other.name} differs from {first.name} in {diff[:5]}"
    return True, f"{len(ref)} files identical over {1 + len(others)} rounds"
