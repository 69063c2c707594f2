"""Crossbar-array storage and in-memory computation.

Analog read (matrix-vector multiply through the line conductances), pulsed
SET/RESET writes with the closed-form switching time, plasticity programming
(STDP pulse synthesis), learning-rule weight updates, and the Landauer-style
energy estimates.

Cell writes and read disturbances use the exact flux solution of the
non-volatile (alpha=0) device, clipped to [0, 1]: under a constant pulse
voltage the memory moves monotonically, so the clamp only stops it at the
bound it runs into.  Devices with alpha != 0 are rejected.

Crossbar snapshots are immutable: write operations return new snapshots.
Cell convention: rows are output b-lines i (readout resistances r_out[i]),
columns are input e-lines j; cell (i, j) holds memristance m[i, j] in
[r_on, r_off] of the shared device model.  SET (positive write voltage with
polarity +1) drives a cell towards r_on / bit 1; RESET towards r_off / bit 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .devices import HpParams, hp_analytic_w, hp_flux_coordinate, hp_resistance

__all__ = [
    "Crossbar",
    "PulseSpec",
    "UpdateRule",
    "StdpKernel",
    "EnergyParams",
    "EnergyEstimates",
    "AmbiguousBitError",
    "UnrealizableTargetError",
    "UnreachableDeltaError",
    "read_mvm",
    "nodal_oracle",
    "switching_time",
    "write_constants",
    "write_pulse",
    "read_bit",
    "program_matrix",
    "apply_update",
    "stdp_program",
    "energy_estimates",
]


class AmbiguousBitError(ValueError):
    """Measured resistance fell inside the guard band around the midpoint."""


class UnrealizableTargetError(ValueError):
    def __init__(self, message, entries):
        super().__init__(message)
        self.entries = entries


class UnreachableDeltaError(ValueError):
    """The requested memory change cannot be produced from the anchor state."""


@dataclass(frozen=True)
class Crossbar:
    m: np.ndarray       # memristances, ohms; shape (n_rows, n_cols)
    r_out: np.ndarray   # output-line resistances, ohms; shape (n_rows,)
    hp: HpParams

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        r_out = np.asarray(self.r_out, dtype=float)
        if m.ndim != 2:
            raise ValueError("m must be a 2-D matrix")
        if r_out.shape != (m.shape[0],):
            raise ValueError("r_out must have one entry per row")
        if np.any(r_out <= 0):
            raise ValueError("output-line resistances must be positive")
        tol = 1e-9 * self.hp.r_off
        if np.any(m < self.hp.r_on - tol) or np.any(m > self.hp.r_off + tol):
            raise ValueError("all memristances must lie in [r_on, r_off]")
        object.__setattr__(self, "m", np.clip(m, self.hp.r_on, self.hp.r_off))
        object.__setattr__(self, "r_out", r_out)

    @property
    def shape(self) -> tuple[int, int]:
        return self.m.shape

    @property
    def w(self) -> np.ndarray:
        """Memory values per cell, w = (M - r_on)/(r_off - r_on)."""
        hp = self.hp
        if hp.r_off == hp.r_on:
            return np.zeros_like(self.m)
        return (self.m - hp.r_on) / (hp.r_off - hp.r_on)

    def with_cell_w(self, i: int, j: int, w: float) -> "Crossbar":
        m = self.m.copy()
        m[i, j] = hp_resistance(float(np.clip(w, 0.0, 1.0)), self.hp)
        return replace(self, m=m)


@dataclass(frozen=True)
class PulseSpec:
    v_write: float        # volts, signed; sign selects SET/RESET
    duration: float       # seconds
    v_read: float         # volts, |v_read| << |v_write|

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if abs(self.v_read) >= abs(self.v_write):
            raise ValueError("need |v_read| < |v_write|")


@dataclass(frozen=True)
class UpdateRule:
    kind: str             # "generic" | "adaline" | "sanger" | "gradient"
    eta: float = 0.0
    literal: bool = False  # sanger only: use the printed expression verbatim

    def __post_init__(self):
        if self.kind not in ("generic", "adaline", "sanger", "gradient"):
            raise ValueError(f"unknown update rule {self.kind!r}")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.literal and self.kind != "sanger":
            raise ValueError(f"the literal form exists for the sanger rule only, not {self.kind!r}")


@dataclass(frozen=True)
class StdpKernel:
    """Double-exponential spike-timing kernel.

    kernel(dt) = a_plus * exp(-dt/tau_plus) for dt >= 0 (pre before post,
    potentiation), and -a_minus * exp(dt/tau_minus) for dt < 0.  The output
    is a synaptic-weight (conductance-sense) change.
    """

    a_plus: float = 0.2
    a_minus: float = 0.2
    tau_plus: float = 20e-3
    tau_minus: float = 20e-3

    def __post_init__(self):
        if min(self.a_plus, self.a_minus, self.tau_plus, self.tau_minus) <= 0:
            raise ValueError("kernel amplitudes and time constants must be positive")

    def __call__(self, delta_t: float) -> float:
        if delta_t >= 0:
            return self.a_plus * math.exp(-delta_t / self.tau_plus)
        return -self.a_minus * math.exp(delta_t / self.tau_minus)


@dataclass(frozen=True)
class EnergyParams:
    p_err: float
    l_bits: int
    n: int
    kt: float = 4.11e-21  # joules, ~300 K

    def __post_init__(self):
        if not 0.0 < self.p_err < 1.0:
            raise ValueError("p_err must lie in (0, 1)")
        if self.l_bits < 1 or self.n < 1:
            raise ValueError("l_bits and n must be >= 1")
        if not (math.isfinite(self.kt) and self.kt > 0):
            raise ValueError(f"kt must be finite and > 0, got {self.kt!r}")


class EnergyEstimates(NamedTuple):
    e_gate: float
    e_dig: float
    e_memr: float


def read_mvm(x: Crossbar, xi) -> np.ndarray:
    """Analog matrix-vector product eta = A xi.

    A_ij = M_ij^-1 / (R_i^-1 + sum_s M_is^-1); the read is non-destructive.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (x.shape[1],):
        raise ValueError(f"input must have shape ({x.shape[1]},), got {xi.shape}")
    g = 1.0 / x.m
    return (g @ xi) / (1.0 / x.r_out + g.sum(axis=1))


def nodal_oracle(x: Crossbar, xi) -> np.ndarray:
    """Independent read check: solve the b-line KCL node equations directly.

    For each output line i the node equation is
    sum_j (xi_j - eta_i)/M_ij = eta_i / R_i, assembled entry by entry and
    solved as a linear system.
    """
    xi = np.asarray(xi, dtype=float)
    n_rows, n_cols = x.shape
    if xi.shape != (n_cols,):
        raise ValueError(f"input must have shape ({n_cols},), got {xi.shape}")
    a = np.zeros((n_rows, n_rows))
    b = np.zeros(n_rows)
    for i in range(n_rows):
        a[i, i] = 1.0 / x.r_out[i]
        for j in range(n_cols):
            a[i, i] += 1.0 / x.m[i, j]
            b[i] += xi[j] / x.m[i, j]
    return np.linalg.solve(a, b)  # positive diagonal: never singular


def write_constants(hp: HpParams) -> float:
    """Coefficient b of the write solution w(t) = sqrt(w0^2 + b V t).

    From the alpha=0 dynamics dw/dt = V/(beta R(w)) with the resistance
    dominated by its w-dependent part (r_off >> r_on): w dw = V dt /
    (beta (r_off - r_on)), so b = 2 / (beta (r_off - r_on)) and a = w0^2.
    """
    if hp.r_off <= hp.r_on:
        raise ValueError("write solution needs r_off > r_on")
    return 2.0 / (hp.beta * (hp.r_off - hp.r_on))


def _require_nonvolatile(hp: HpParams) -> None:
    if hp.alpha != 0:
        raise ValueError(
            f"crossbar cells are defined for the non-volatile device (alpha=0), got alpha={hp.alpha:g}")


def switching_time(hp: HpParams, v_write: float) -> float:
    """Full-swing switching time tau = 1/(b |V_write|).

    sqrt(a + b V tau) = 1 from a = 0 gives the bound; it matches direct
    integration of the write ODE to a few percent when r_off >> r_on.
    """
    if v_write == 0:
        raise ValueError("write voltage must be nonzero")
    _require_nonvolatile(hp)
    return 1.0 / (write_constants(hp) * abs(v_write))


def _write_cell(w0: float, v: float, hp: HpParams, duration: float) -> float:
    """Memory after holding ``v`` on a cell at ``w0`` for ``duration``.

    The exact flux solution of dw/dt = -polarity*v/(beta*R(w)), clipped to
    [0, 1]: the flux coordinate moves monotonically from u(w0), and a cell
    whose coordinate would pass u(0) or u(1) stops at that bound.
    """
    flux = v * duration
    if flux == 0.0:
        return w0
    u = hp_flux_coordinate(w0, hp, flux)
    if u <= 0.0:
        return 0.0
    if u >= hp_flux_coordinate(1.0, hp):
        return 1.0
    return hp_analytic_w(flux, w0, hp)


def write_pulse(x: Crossbar, i: int, j: int, p: PulseSpec) -> Crossbar:
    """Apply v_write to cell (i, j) for the pulse duration; returns the new snapshot.

    Positive v_write (polarity +1) lowers w towards r_on (SET); negative
    raises it towards r_off (RESET).  The cell state is clamped to [0, 1].
    """
    n_rows, n_cols = x.shape
    if not (0 <= i < n_rows and 0 <= j < n_cols):
        raise IndexError(f"cell ({i}, {j}) outside a {n_rows}x{n_cols} array")
    _require_nonvolatile(x.hp)
    w_new = _write_cell(float(x.w[i, j]), p.v_write, x.hp, p.duration)
    return x.with_cell_w(i, j, w_new)


READ_GUARD = 0.05  # read_bit's relative guard band around the midpoint resistance
MAX_PROGRAM_SWEEPS = 1000  # program_matrix's fixed-point sweep limit
STDP_ANCHOR_W = 0.5  # the cell memory stdp_program synthesizes its pulses for


def read_bit(x: Crossbar, i: int, j: int, p: PulseSpec) -> tuple[int, Crossbar]:
    """Measure the stored bit of cell (i, j) and return (bit, post-read snapshot).

    The resistance is computed from the read current v_read / R(w); values
    within ``READ_GUARD`` (relative) of the midpoint (r_on + r_off)/2 raise
    AmbiguousBitError.  The read acts through the same device dynamics, so
    the returned snapshot carries the (bounded) disturbance.
    """
    n_rows, n_cols = x.shape
    if not (0 <= i < n_rows and 0 <= j < n_cols):
        raise IndexError(f"cell ({i}, {j}) outside a {n_rows}x{n_cols} array")
    if p.v_read == 0:
        raise ValueError("read voltage must be nonzero")
    _require_nonvolatile(x.hp)
    i_meas = p.v_read / float(x.m[i, j])
    r_meas = p.v_read / i_meas
    mid = 0.5 * (x.hp.r_on + x.hp.r_off)
    if abs(r_meas - mid) <= READ_GUARD * mid:
        raise AmbiguousBitError(
            f"cell ({i},{j}) reads R={r_meas:.6g}, inside the +-{READ_GUARD:.0%} guard band around {mid:.6g}"
        )
    bit = 1 if r_meas < mid else 0
    w_new = _write_cell(float(x.w[i, j]), p.v_read, x.hp, p.duration)
    return bit, x.with_cell_w(i, j, w_new)


def program_matrix(x: Crossbar, target: np.ndarray, tol: float = 1e-6) -> Crossbar:
    """Set the memristances so the read matrix A equals ``target``.

    Row-wise fixed-point iteration: each sweep recomputes the row conductance
    sum and sets M_ij = 1 / (A_ij (R_i^-1 + sum_s M_is^-1)), clamping into
    [r_on, r_off].  Entries with target 0 are parked at r_off (weakest
    coupling, best effort with a documented residual).  Raises
    UnrealizableTargetError when a row sum is >= 1 or an entry needs a
    memristance outside the device range.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != x.shape:
        raise ValueError(f"target shape {target.shape} != crossbar shape {x.shape}")
    if np.any(target < 0):
        raise UnrealizableTargetError(
            "negative couplings are not realizable",
            entries=[tuple(idx) for idx in np.argwhere(target < 0)],
        )
    hp = x.hp
    row_sums = target.sum(axis=1)
    if np.any(row_sums >= 1.0):
        raise UnrealizableTargetError(
            f"row sums must be < 1 (got max {row_sums.max():.6g})",
            entries=[(int(i), None) for i in np.nonzero(row_sums >= 1.0)[0]],
        )
    # feasibility from the closed-form solution of the row equations
    g_out = 1.0 / x.r_out
    bad = []
    for i in range(x.shape[0]):
        denom = g_out[i] / (1.0 - row_sums[i])
        for j in range(x.shape[1]):
            if target[i, j] > 0:
                m_req = 1.0 / (target[i, j] * denom)
                if m_req < hp.r_on * (1 - 1e-12) or m_req > hp.r_off * (1 + 1e-12):
                    bad.append((i, j))
    if bad:
        raise UnrealizableTargetError(
            f"{len(bad)} entr{'y' if len(bad) == 1 else 'ies'} need memristances outside "
            f"[r_on, r_off]", entries=bad)

    m = x.m.copy()
    for _ in range(MAX_PROGRAM_SWEEPS):
        g = 1.0 / m
        denom = 1.0 / x.r_out + g.sum(axis=1)
        with np.errstate(divide="ignore"):
            m_new = 1.0 / (target * denom[:, None])
        m_new = np.clip(m_new, hp.r_on, hp.r_off)
        m_new[target == 0] = hp.r_off
        g = 1.0 / m_new
        a_now = g / (1.0 / x.r_out + g.sum(axis=1))[:, None]
        m = m_new
        if np.max(np.abs(a_now - np.where(target == 0, a_now, target))) < tol:
            break
    return replace(x, m=m)


def apply_update(w: np.ndarray, rule: UpdateRule, data) -> np.ndarray:
    """One step of the discrete weight update W <- W + f(W, Q).

    data by kind:
      generic  : callable f(W) -> increment; applied as W + eta * f(W)
      adaline  : pattern x (or batch of rows); W + eta * sum_k outer(x_k, x_k)
      sanger   : sample x; standard GHA  W + eta (o x^T - LT[o o^T] W), o = W x.
                 With rule.literal, the printed form W + 2 eta o (x - (2W - I) o)^T
                 (square W only).
      gradient : (x, t) pair; W + 2 eta (t - W x) x^T  (descent on |t - o|^2)
    """
    w = np.asarray(w, dtype=float)
    if rule.kind == "generic":
        if not callable(data):
            raise ValueError("generic update needs a callable f(W)")
        return w + rule.eta * np.asarray(data(w), dtype=float)
    if rule.kind == "adaline":
        x = np.atleast_2d(np.asarray(data, dtype=float))
        if x.shape[1] != w.shape[0] or w.shape[0] != w.shape[1]:
            raise ValueError("adaline needs square W matching the pattern length")
        return w + rule.eta * x.T @ x
    if rule.kind == "sanger":
        x = np.asarray(data, dtype=float)
        if x.shape != (w.shape[1],):
            raise ValueError(f"sanger sample must have shape ({w.shape[1]},)")
        o = w @ x
        if rule.literal:
            if w.shape[0] != w.shape[1]:
                raise ValueError("the literal Sanger expression needs square W")
            return w + 2.0 * rule.eta * np.outer(o, x - (2.0 * w - np.eye(w.shape[0])) @ o)
        return w + rule.eta * (np.outer(o, x) - np.tril(np.outer(o, o)) @ w)
    # gradient
    x, t = data
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    o = w @ x
    return w + 2.0 * rule.eta * np.outer(t - o, x)


def stdp_program(delta_t: float, kernel: StdpKernel, hp: HpParams,
                 v_mag: float = 1.0) -> PulseSpec:
    """Turn a spike-timing difference into a write pulse.

    The kernel value is a synaptic-weight change; the device memory moves
    opposite (w up means resistance up means weight down), so the pulse is
    synthesized to produce delta_w_device = -kernel(delta_t) on a cell at
    ``STDP_ANCHOR_W``, by inverting the exact flux solution of the write dynamics:

        duration = |delta_u| * beta * r_on / |v|,
        delta_u  = (xi/2) (w1^2 - w0^2) + (w1 - w0).

    Potentiation (kernel > 0) emits SET polarity (positive voltage with
    polarity +1).
    """
    if v_mag <= 0:
        raise ValueError("v_mag must be positive")
    dw_device = -kernel(delta_t)
    w1 = STDP_ANCHOR_W + dw_device
    if not 0.0 <= w1 <= 1.0:
        raise UnreachableDeltaError(
            f"target memory {w1:.4g} outside [0,1] from anchor {STDP_ANCHOR_W}"
        )
    delta_u = float(hp_flux_coordinate(w1, hp) - hp_flux_coordinate(STDP_ANCHOR_W, hp))
    # dw/dt = -polarity*v/(beta R(w))  ->  delta_u = -polarity * v * T/(beta r_on)
    if delta_u == 0.0:
        v_write = hp.polarity * v_mag  # SET polarity for the degenerate zero pulse
        duration = 0.0
    else:
        sign = -hp.polarity * (1.0 if delta_u > 0 else -1.0)
        v_write = sign * v_mag
        duration = abs(delta_u) * hp.beta * hp.r_on / v_mag
    return PulseSpec(v_write=v_write, duration=duration, v_read=v_write / 1000.0)


def energy_estimates(p: EnergyParams) -> EnergyEstimates:
    """Landauer-style dissipation of gate, digital, and memristive updates.

        E_gate ~ -2 ln(p_err) kT
        E_dig  ~ 24 ln(1/p_err) log2(L)^2 N kT
        E_memr ~ (1/24) ln(1/p_err) L^2 N^2 kT
    """
    ln_inv = math.log(1.0 / p.p_err)
    e_gate = 2.0 * ln_inv * p.kt
    e_dig = 24.0 * ln_inv * math.log2(p.l_bits) ** 2 * p.n * p.kt
    e_memr = (1.0 / 24.0) * ln_inv * p.l_bits**2 * p.n**2 * p.kt
    return EnergyEstimates(e_gate=e_gate, e_dig=e_dig, e_memr=e_memr)
