"""Named experiment presets: the figure-level reproductions and demo runs.

Each experiment has one preset, a plain JSON-serializable dict whose fields
are the experiment's parameters; a config file may override any of them with
a value of the same type.  Device parameters follow the source figures where
stated; everything else is a documented desk-scale choice.
"""

from __future__ import annotations

# Pinched-hysteresis figure: alpha=0, beta=0.3 mA*s, r_on=1k, r_off=6k,
# unit sinusoidal drive.  Frequencies chosen so the top one passes the
# collapse-to-a-line check (f=4 Hz deviates ~3%, 16 Hz ~0.7%).
HYSTERESIS = {
    "alpha": 0.0,
    "beta": 3e-4,
    "r_on": 1000.0,
    "r_off": 6000.0,
    "w0": 0.5,
    "amplitude": 1.0,
    "frequencies": [1.0, 4.0, 16.0],
    "samples_per_period": 4000,
}

# SET/RESET + retention on an 8x8 array; r_off >> r_on so the sqrt write
# solution (and the switching-time bound) applies.
WRITE_READ = {
    "rows": 8,
    "cols": 8,
    "alpha": 0.0,
    "beta": 3e-4,
    "r_on": 1000.0,
    "r_off": 100000.0,
    "r_line": 10000.0,
    "v_write": 1.0,
    "v_read": 0.001,
    "n_reads": 100,
}

MC_VOLATILITY = {
    "c": 1e-3,
    "beta": 3e-4,
    "r_on": 1000.0,
    "r_off": 6000.0,
    "q0": 1e-4,
    "t_end_factor": 20.0,   # in units of r_on*C
    "dt_factor": 0.005,
}

# Amoeba adaptation: device/circuit constants and Euler dt=0.1 from the
# figure; the two-stage stimulus is piecewise-DC (+0.5 then -2.0) with a
# 1:2 duration ratio (half frequency = doubled period).
AMOEBA = {
    "t_alpha": 0.1,
    "t_beta": 100.0,
    "v_t": 2.5,
    "r1": 3.0,
    "r2": 20.0,
    "c": 1.0,
    "r": 1.0,
    "l": 2.0,
    "i0": 1.0,
    "vc0": 1.0,
    "m0": 7.0,
    "v1": 0.5,
    "v2": -2.0,
    "t1": 150.0,
    "t2": 300.0,
    "dt": 0.1,
}

PLANT = {
    "p_beta": 1.0,
    "r_o": 1.0,
    "a_const": 3.0,
    "h_kind": "constant",
    "h_coeff": 1.0,
    "rc_r": 0.5,
    "rc_c": 0.1,
    "amplitude": 1.0,
    "frequencies": [1.0, 4.0, 16.0],
    "samples_per_period": 4000,
}

# Channel conductances are the classic fits; the k*/na* rate constants are
# placeholders (no numeric values are published for the memristive form).
HH = {
    "g_k": 36e-3,
    "g_na": 120e-3,
    "k1": 1.0,
    "k2": 0.1,
    "na1": 1.0,
    "na2": 0.1,
    "na3": 0.2,
    "na4": -1.0,
    "na5": 0.0,
    "na6": 0.5,
    "na7": -0.5,
    "na8": 0.0,
    "na9": 0.5,
    "amplitude": 0.05,
    "frequency": 20.0,
    "dt": 1e-4,
    "t_end": 0.5,
}

# The network relaxations (soc and maze) are stepped by the error-controlled
# bs3 pair; their dt is the spacing of the trace rows only.
NETWORK_SOC = {
    "n_nodes": 100,
    "edge_prob": 0.045,
    "n_sources": 5,
    "source_volts": 1.0,
    "alpha": 0.0,
    "beta": 1.0,
    "r_on": 1.0,
    "r_off": 100.0,
    "dt": 0.05,
    "t_end": 200.0,
}

MAZE = {
    "maze": "S....\n####.\n....E\n",
    "alpha": 0.1,
    "beta": 1.0,
    "r_on": 1.0,
    "r_off": 100.0,
    "v_dc": 100.0,
    "dt": 0.1,
    "t_end": 100.0,
}

CROSSBAR_MVM = {
    "rows": 8,
    "cols": 8,
    "r_on": 1000.0,
    "r_off": 100000.0,
    "r_line": 10000.0,
    "n_arrays": 100,
}

CROSSBAR_TRAIN = {
    "rule": "sanger",
    "eta": 0.02,
    "n_samples": 500,
    "n_inputs": 2,
    "n_outputs": 2,
    "cov_diag": [4.0, 1.0],
}

STDP = {
    "alpha": 0.0,
    "beta": 3e-4,
    "r_on": 1000.0,
    "r_off": 100000.0,
    "a_plus": 0.2,
    "a_minus": 0.2,
    "tau_plus": 0.02,
    "tau_minus": 0.02,
    "v_mag": 1.0,
    "timings": [-0.1, -0.05, -0.02, -0.01, 0.0, 0.01, 0.02, 0.05, 0.1],
}

RC_DEMO = {
    "n_state": 12,
    "n_features": 6,
    "leak": 3.0,
    "amplitude": 1.0,
    "frequency": 1.5,
    "dt": 1e-3,
    "t_end": 4.0,
    "ridge": 1e-8,
}

NEF_DEMO = {
    "n_neurons": 60,
    "n_grid": 64,
    "x_min": -1.0,
    "x_max": 1.0,
    "tau0": 5e-3,
    "tau_rc": 20e-3,
    "i_f": 1.0,
    "regularization": 1e-6,
    "n_train": 200,
    "band_limit": 4,
}

LCA = {
    "n_dim": 16,
    "n_atoms": 16,
    "lam": 0.0,
    "tau": 1.0,
    "k_active": 3,
    "dt": 0.01,
    "t_end": 50.0,
}

ENERGY = {
    "p_err": 1e-9,
    "l_bits": 8,
    "n_values": [1, 2, 4, 8],
    "kt": 4.11e-21,
}

PRESETS: dict[str, dict[str, dict]] = {
    "hysteresis": {"hp-fig": HYSTERESIS},
    "write-read": {"storage-8x8": WRITE_READ},
    "mc-volatility": {"mc-default": MC_VOLATILITY},
    "amoeba": {"amoeba-fig": AMOEBA},
    "plant": {"plant-fig": PLANT},
    "hh": {"hh-demo": HH},
    "network-soc": {"soc-n100": NETWORK_SOC},
    "maze": {"maze-demo": MAZE},
    "crossbar-mvm": {"mvm-8x8": CROSSBAR_MVM},
    "crossbar-train": {"sanger-pca": CROSSBAR_TRAIN},
    "stdp": {"stdp-demo": STDP},
    "rc-demo": {"rc-linear": RC_DEMO},
    "nef-demo": {"nef-default": NEF_DEMO},
    "lca": {"lca-orthonormal": LCA},
    "energy": {"landauer": ENERGY},
}


def default_preset(experiment: str) -> str:
    return next(iter(PRESETS[experiment]))
