"""Deterministic fixed-step ODE integration, drive waveforms, and trace analysis.

Everything here is pure: the same inputs always produce bit-identical outputs.
``integrate`` is the package's one stepping loop.  State clamping (where a
model needs it) is supplied by the caller through the ``poststep`` hook; the
integrator itself never touches the state.  Runs that end early (a network
reaching steady state, the LCA reaching its fixed point) pass a ``stop`` hook,
which sees the state and its derivative after every step; that derivative is
reused as the next step's first stage, so the check costs no extra RHS
evaluation.  ``linear_response`` solves the scalar linear ODE with a
prescribed forcing, ``dy/dt = -rate(t)*y + g(t)`` from any ``y0``, by
exponential quadrature of ``g`` on the trace grid (the rate a constant or a
function of time, the solution optionally held in an interval after each
step); the devices, circuits and gates whose state obeys such an equation
on a known drive use it in place of ``integrate``.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DriveSignal",
    "Trace",
    "IntegratorSpec",
    "SimulationError",
    "IntegrationDivergedError",
    "eval_signal",
    "integrate",
    "linear_response",
    "loop_area",
    "power_spectrum_exponent",
    "loglog_slope",
    "simulation_cost_metrics",
]

_SIGNAL_KINDS = ("dc", "sine", "square", "pulse_train")
_METHODS = ("euler", "rk4")


class SimulationError(RuntimeError):
    """A numerical failure during a simulation (as opposed to bad inputs)."""


class IntegrationDivergedError(SimulationError):
    def __init__(self, t: float):
        super().__init__(f"integration diverged: non-finite state at t={t:.6g}")
        self.time = t


@dataclass(frozen=True)
class DriveSignal:
    """Declarative waveform; units of ``amplitude``/``offset`` are set by the consumer.

    kind:
        "dc"          -> amplitude + offset
        "sine"        -> amplitude*sin(2*pi*f*t + phase) + offset
        "square"      -> +amplitude for the duty fraction of each period,
                         -amplitude otherwise, plus offset
        "pulse_train" -> +amplitude for the duty fraction, 0 otherwise, plus offset
    """

    kind: str
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    duty: float = 0.5
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in _SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}; expected one of {_SIGNAL_KINDS}")
        if self.frequency < 0:
            raise ValueError("frequency must be >= 0")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty must lie in [0, 1]")

    def __call__(self, t):
        return eval_signal(self, t)


def eval_signal(s: DriveSignal, t):
    """Evaluate a DriveSignal at time(s) ``t``. Pure and deterministic."""
    t = np.asarray(t, dtype=float)
    if s.kind == "dc":
        out = np.full_like(t, s.amplitude + s.offset)
    elif s.kind == "sine":
        out = s.amplitude * np.sin(2.0 * np.pi * s.frequency * t + s.phase) + s.offset
    else:
        cycle = np.mod(s.frequency * t + s.phase / (2.0 * np.pi), 1.0)
        high = cycle < s.duty
        low = -s.amplitude if s.kind == "square" else 0.0
        out = np.where(high, s.amplitude, low) + s.offset
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled multichannel time series."""

    t0: float
    dt: float
    channels: dict[str, np.ndarray]

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        lengths = {name: len(v) for name, v in self.channels.items()}
        if not lengths:
            raise ValueError("trace needs at least one channel")
        if len(set(lengths.values())) != 1:
            raise ValueError(f"channel length mismatch: {lengths}")
        if next(iter(lengths.values())) < 1:
            raise ValueError("channels need at least one sample")
        object.__setattr__(
            self, "channels", {k: np.asarray(v, dtype=float) for k, v in self.channels.items()}
        )

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.channels.values())))

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.channels)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]

    def to_csv(self, path_or_file) -> None:
        """Write ``t,<channel>,...`` rows; plain decimal point, locale-free."""
        np.savetxt(path_or_file, np.column_stack([self.times, *self.channels.values()]),
                   fmt="%.17g", delimiter=",", header="t," + ",".join(self.names), comments="")

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path) -> "Trace":
        data = np.genfromtxt(path, delimiter=",", names=True)
        names = list(data.dtype.names)
        t = np.atleast_1d(data["t"])
        dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
        return cls(
            t0=float(t[0]),
            dt=dt,
            channels={n: np.atleast_1d(data[n]) for n in names if n != "t"},
        )


@dataclass(frozen=True)
class IntegratorSpec:
    method: str = "rk4"
    dt: float = 1e-3
    t_end: float = 1.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {_METHODS}")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def integrate(
    rhs: Callable[[np.ndarray, float], np.ndarray],
    state0: Sequence[float],
    spec: IntegratorSpec,
    names: Sequence[str] | None = None,
    poststep: Callable[[np.ndarray], np.ndarray] | None = None,
    stop: Callable[[np.ndarray, np.ndarray], bool] | None = None,
) -> Trace:
    """Integrate ``dy/dt = rhs(y, t)`` with a fixed step.

    Parameters
    ----------
    rhs : callable(state, t) -> derivative
    state0 : initial state vector (finite)
    spec : IntegratorSpec (euler or rk4)
    names : channel names, default ``y0, y1, ...``
    poststep : optional state transform applied after every step
        (device models use this for hard clamping; the integrator itself
        never clamps).
    stop : optional early-stop hook ``stop(state, derivative) -> bool``,
        called after every step (after ``poststep``) with the new state and
        ``rhs(state, t)`` there.  The run ends after the first step for
        which it returns True, and the trace ends with that step.  The
        derivative it is shown becomes the next step's first stage, so a
        run with a hook costs one RHS evaluation per Euler step (four per
        RK4 step) plus one for the first step.

    Raises
    ------
    IntegrationDivergedError
        if the state becomes non-finite; the error names the failure time.
    """
    y = np.asarray(state0, dtype=float).copy()
    if y.ndim != 1:
        y = y.ravel()
    if not np.all(np.isfinite(y)):
        raise ValueError("state0 must be finite")
    if names is None:
        names = [f"y{i}" for i in range(y.size)]
    if len(names) != y.size:
        raise ValueError("number of names must match the state dimension")
    dt = spec.dt
    # one row per step taken: a run that stops early never allocates the rest
    rows = [y]
    t = 0.0
    dy = None  # derivative at (y, t) when the stop hook has already computed it
    for k in range(spec.n_steps):
        k1 = np.asarray(rhs(y, t), dtype=float) if dy is None else dy
        if spec.method == "euler":
            y = y + dt * k1
        else:
            k2 = np.asarray(rhs(y + 0.5 * dt * k1, t + 0.5 * dt), dtype=float)
            k3 = np.asarray(rhs(y + 0.5 * dt * k2, t + 0.5 * dt), dtype=float)
            k4 = np.asarray(rhs(y + dt * k3, t + dt), dtype=float)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if poststep is not None:
            y = np.asarray(poststep(y), dtype=float)
        t = (k + 1) * dt
        if not np.all(np.isfinite(y)):
            raise IntegrationDivergedError(t)
        rows.append(y)
        if stop is not None:
            dy = np.asarray(rhs(y, t), dtype=float)
            if stop(y, dy):
                break
    out = np.array(rows)
    return Trace(t0=0.0, dt=dt, channels={nm: out[:, i] for i, nm in enumerate(names)})


# samples per block of the scalar recurrence in ``linear_response``
_BLOCK = 1024


def linear_response(g: Callable[[np.ndarray], np.ndarray],
                    rate: float | Callable[[np.ndarray], np.ndarray],
                    spec: IntegratorSpec, y0: float = 0.0,
                    bounds: tuple[float, float] | None = None) -> np.ndarray:
    """Solution of ``dy/dt = -rate(t)*y + g(t)``, ``y(0) = y0``, on the grid of ``spec``.

    ``g`` is a vectorised callable of time (an array of times in, an array of
    the same shape out); it is called twice, on the grid ``k*dt`` and on the
    midpoints.  ``rate`` is a float or a vectorised callable of time, which
    is then sampled on the same two grids.  Each step is the exponential
    Simpson rule for the exact variation-of-constants step

        y_{k+1} = a_k y_k + (dt/6) (a_k g_k + 4 h_k g_{k+1/2} + g_{k+1}),

    where a_k is the propagator over the step and h_k the one from its
    midpoint to its end.  A constant rate gives ``a = e^{-rate dt}`` and
    ``h = sqrt(a)``, exact, so the error is that of Simpson's rule on the
    forcing, O(dt^4) globally.  A rate callable gives
    ``a_k = exp(-(dt/6)(r_k + 4 r_{k+1/2} + r_{k+1}))`` (Simpson's rule on
    the integral of the rate) and ``h_k = exp(-(dt/4)(r_{k+1/2} + r_{k+1}))``
    (the trapezoid rule on the half step), which is third-order accurate for
    a smooth rate.  With ``bounds = (lo, hi)`` y is held in [lo, hi] after
    every step, as a clamp after each step of ``integrate`` would.  The
    steps run as a plain float recurrence, so every quantity stays bounded
    for any rate*t (a cumulative sum scaled by e^{+rate t} would overflow).
    ``spec.method`` is not used.  Returns ``n_steps + 1`` samples.

    Raises
    ------
    IntegrationDivergedError
        at the first sample that is not finite, as ``integrate`` does.
    """
    dt = spec.dt
    t = dt * np.arange(spec.n_steps + 1)
    t_mid = t[:-1] + 0.5 * dt
    g_grid = np.asarray(g(t), dtype=float)
    g_mid = np.asarray(g(t_mid), dtype=float)
    if callable(rate):
        r_grid = np.asarray(rate(t), dtype=float)
        r_mid = np.asarray(rate(t_mid), dtype=float)
        a = np.exp(-(dt / 6.0) * (r_grid[:-1] + 4.0 * r_mid + r_grid[1:]))
        h = np.exp(-(dt / 4.0) * (r_mid + r_grid[1:]))
    else:
        a = math.exp(-rate * dt)
        h = math.sqrt(a)
    incr = (dt / 6.0) * (a * g_grid[:-1] + 4.0 * h * g_mid + g_grid[1:])
    lo, hi = (-math.inf, math.inf) if bounds is None else bounds

    def recurrence():
        acc = float(y0)
        yield acc
        # floats are unboxed a block at a time, so no list spans the whole run
        for k in range(0, incr.size, _BLOCK):
            decay = a[k:k + _BLOCK].tolist() if callable(rate) else itertools.repeat(a)
            for ak, d in zip(decay, incr[k:k + _BLOCK].tolist()):
                acc = ak * acc + d
                if acc < lo:
                    acc = lo
                elif acc > hi:
                    acc = hi
                yield acc

    y = np.fromiter(recurrence(), dtype=float, count=incr.size + 1)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise IntegrationDivergedError(float(t[bad[0]]))
    return y


def _shoelace(v: np.ndarray, i: np.ndarray) -> float:
    return 0.5 * float(np.sum(v * np.roll(i, -1) - np.roll(v, -1) * i))


def loop_area(v, i) -> float:
    """Area of the (possibly pinched) I-V loop traced over one full period.

    The cyclic polygon is split at the zero crossings of ``v`` (the pinch
    points, interpolated linearly) and the unsigned areas of the sub-loops
    are summed.  The plain signed shoelace would cancel the two lobes of a
    pinched loop exactly, so the splitting is essential.  A single-valued
    curve gives 0; the result is invariant under cyclic rotation of the
    sample window.
    """
    v = np.asarray(v, dtype=float)
    i = np.asarray(i, dtype=float)
    if v.shape != i.shape or v.ndim != 1:
        raise ValueError(f"v and i must be 1-D and of equal length, got {v.shape} vs {i.shape}")
    n = v.size
    if n < 3:
        return 0.0
    polys: list[tuple[list[float], list[float]]] = []
    cur_v: list[float] = []
    cur_i: list[float] = []
    for k in range(n):
        k2 = (k + 1) % n
        cur_v.append(v[k])
        cur_i.append(i[k])
        crossing = v[k] == 0.0 or (v[k] * v[k2] < 0.0)
        if crossing:
            if v[k] == 0.0:
                vc, ic = 0.0, i[k]
            else:
                s = v[k] / (v[k] - v[k2])
                vc, ic = 0.0, i[k] + s * (i[k2] - i[k])
            cur_v.append(vc)
            cur_i.append(ic)
            polys.append((cur_v, cur_i))
            cur_v, cur_i = [vc], [ic]
    if cur_v:
        if polys:
            pv, pi = polys[0]
            polys[0] = (cur_v + pv, cur_i + pi)
        else:
            polys = [(cur_v, cur_i)]
    return sum(abs(_shoelace(np.asarray(pv), np.asarray(pi))) for pv, pi in polys)


def loglog_slope(x, y) -> tuple[float, float]:
    """OLS slope of log(y) vs log(x); returns (slope, r_squared)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(np.sum((ly - a @ coef) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


# Relative power floor: spectral bins this far below the peak are treated as
# numerically zero (an exact-period sinusoid leaves roundoff dust in all
# other bins; fitting through it would be meaningless).
_POWER_FLOOR = 1e-24


def power_spectrum_exponent(tr: Trace, channel: str, fit_band: tuple[float, float]) -> float:
    """Log-log slope of the plain FFT periodogram in ``fit_band`` (Hz).

    No window and no detrending: for relaxation transients the turn-on
    discontinuity carries the power-law skirt that the slope measures.
    Requires >= 1024 samples and 0 < f_lo < f_hi < Nyquist.

    Raises
    ------
    ValueError
        if the band is empty after discretization (fewer than two usable
        bins; a pure spectral line rejects this way).
    """
    x = tr[channel]
    n = x.size
    if n < 1024:
        raise ValueError(f"need at least 1024 samples, got {n}")
    f_lo, f_hi = fit_band
    nyquist = 0.5 / tr.dt
    if not 0.0 < f_lo < f_hi < nyquist:
        raise ValueError(f"fit band must satisfy 0 < f_lo < f_hi < Nyquist={nyquist:.6g}")
    p = np.abs(np.fft.rfft(x)) ** 2
    f = np.fft.rfftfreq(n, tr.dt)
    mask = (f >= f_lo) & (f <= f_hi) & (p > p.max() * _POWER_FLOOR)
    if np.count_nonzero(mask) < 2:
        raise ValueError("fit band is empty after discretization")
    slope, _ = loglog_slope(f[mask], p[mask])
    return slope


def simulation_cost_metrics(tr: Trace, reference) -> tuple[float, float]:
    """Digital-simulation cost metrics of a trajectory.

    R is the max Euclidean norm of the second time derivative (central finite
    differences over all channels); epsilon is the distance between the final
    sample and ``reference``. Needs at least 3 samples.
    """
    y = np.column_stack([tr[name] for name in tr.names])
    if y.shape[0] < 3:
        raise ValueError("need at least 3 samples for a second finite difference")
    d2 = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / tr.dt**2
    r = float(np.max(np.linalg.norm(d2, axis=1)))
    ref = np.asarray(reference, dtype=float)
    eps = float(np.linalg.norm(y[-1] - ref))
    return r, eps
