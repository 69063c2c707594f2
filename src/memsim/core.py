"""Deterministic ODE integration, drive waveforms, and trace analysis.

Everything here is pure: the same inputs always produce bit-identical outputs.
``integrate`` is the package's one stepping loop: fixed-step Euler or RK4,
or the error-controlled Bogacki-Shampine 3(2) pair, which emits its rows at
any increasing output times a caller asks for and by default on the same
uniform grid ``IntegratorSpec.grid``.  It returns a ``Run``: the (rows x
state) array, the time of each row and the work done, so no caller counts
steps itself.  State clamping (where a model needs it) is supplied by the
caller through the ``poststep`` hook; the integrator never touches the
state.  Runs that end early (a network reaching steady state, the LCA
reaching its fixed point) pass a ``stop`` hook, which sees the state and
its derivative after every step; that derivative is reused as the next
step's first stage, so the check costs no extra RHS evaluation.
``linear_response`` solves the scalar linear ODE with a prescribed forcing,
``dy/dt = -rate(t)*y + g(t)`` from any ``y0``, by exponential quadrature of
``g`` on the trace grid (the rate a constant or a function of time, the
solution optionally held in an interval after each step); the devices,
circuits and gates whose state obeys such an equation on a known drive use
it in place of ``integrate``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DriveSignal",
    "Trace",
    "IntegratorSpec",
    "Run",
    "SimulationError",
    "IntegrationDivergedError",
    "eval_signal",
    "integrate",
    "linear_response",
    "loop_area",
    "power_spectrum_exponent",
    "loglog_slope",
]

_SIGNAL_KINDS = ("dc", "sine", "square", "pulse_train")
_METHODS = ("euler", "rk4", "bs3")
# error tolerances of the "bs3" pair, on every component the clamp leaves free
BS3_RTOL = 1e-7
BS3_ATOL = 1e-7
# values formatted per call by ``Trace.to_csv``: one block of rows at a time
CSV_BLOCK_VALUES = 8192
# ``Trace.spacing``: gaps may differ by this share of the largest |time|
UNIFORM_RTOL = 1e-9


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
    """Multichannel time series, sample k at ``times[k]``.

    ``times`` is one float array of the sample times, finite and strictly
    increasing, one per row; a uniform series passes ``t0 + dt * np.arange(n)``.
    ``values`` is one float (samples x channels) array, column j the channel
    ``names[j]``.  Float64 arrays are kept as they are, not copied, and
    ``tr[name]`` is a view of its column.
    """

    times: np.ndarray
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if not names:
            raise ValueError("trace needs at least one channel")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate channel names in {names}")
        if values.ndim != 2 or values.shape[1] != len(names):
            raise ValueError(f"values must be (samples x {len(names)}), got shape {values.shape}")
        if values.shape[0] < 1:
            raise ValueError("trace needs at least one sample")
        if times.shape != (values.shape[0],):
            raise ValueError(f"times must hold one time per sample ({values.shape[0]}), got shape {times.shape}")
        if not np.isfinite(times).all():
            raise ValueError("times must be finite")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("times must strictly increase")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def spacing(self) -> float:
        """The uniform sample spacing ``times[1] - times[0]``.

        Raises ValueError for fewer than two samples, or when a gap between
        samples differs from it by more than ``UNIFORM_RTOL`` of the largest
        |time| (rounding in ``t0 + dt * np.arange(n)`` stays far inside that).
        """
        t = self.times
        if t.size < 2:
            raise ValueError("a spacing needs at least two samples")
        h = t[1] - t[0]
        if np.max(np.abs(np.diff(t) - h)) > UNIFORM_RTOL * np.max(np.abs(t)):
            raise ValueError("trace samples are not uniformly spaced")
        return float(h)

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise KeyError(name)
        return self.values[:, self.names.index(name)]

    def to_csv(self, path) -> None:
        """Write the header ``t,<channel>,...`` and one row per sample to ``path``.

        Every cell is ``"%.17g" % value`` (plain decimal point, locale-free,
        ``nan``/``inf``/``-0`` as Python prints them), which reads back as the
        same double.  Rows go out in blocks of
        ``max(1, CSV_BLOCK_VALUES // n_columns)``, each formatted by one ``%``
        call and written at once, so no copy of the whole trace is made.
        """
        n_columns = len(self.names) + 1
        row_fmt = ",".join(["%.17g"] * n_columns) + "\n"
        block_rows = max(1, CSV_BLOCK_VALUES // n_columns)
        with open(path, "w") as fh:
            fh.write("t," + ",".join(self.names) + "\n")
            for k in range(0, self.n_samples, block_rows):
                k_end = min(k + block_rows, self.n_samples)
                block = np.column_stack([self.times[k:k_end], self.values[k:k_end]])
                fh.write((row_fmt * (k_end - k)) % tuple(block.ravel().tolist()))


@dataclass(frozen=True)
class IntegratorSpec:
    method: str = "rk4"
    dt: float = 1e-3
    t_end: float = 1.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {_METHODS}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt must be finite, got {self.t_end!r} / {self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def grid(self) -> np.ndarray:
        """The ``n_steps + 1`` times ``k * dt`` of the fixed steps, from 0 to the run's end."""
        return self.dt * np.arange(self.n_steps + 1)


class Run(NamedTuple):
    """What one ``integrate`` call did: its rows, their times and its work."""

    times: np.ndarray  # of each row, from 0: on the grid, or under bs3 at its output times and end
    rows: np.ndarray  # (rows x state), row 0 the initial state
    steps: int  # steps accepted
    rhs_calls: int  # evaluations of ``rhs``
    stopped: bool  # whether the ``stop`` hook returned True


def integrate(
    rhs: Callable[[np.ndarray, float], np.ndarray],
    state0: Sequence[float],
    spec: IntegratorSpec,
    poststep: Callable[[np.ndarray], np.ndarray] | None = None,
    stop: Callable[[np.ndarray, np.ndarray], bool] | None = None,
    times: Sequence[float] | None = None,
) -> Run:
    """Integrate ``dy/dt = rhs(y, t)``; returns a ``Run``, row 0 the state at t = 0.

    The run ends at ``spec.n_steps * spec.dt``, unless ``stop`` ends it
    earlier.  By default row k is the state at ``k * spec.dt``, and
    ``Run.times`` holds each row's time (see the fields of ``Run``).

    ``euler`` and ``rk4`` take fixed steps of ``spec.dt``, one per row.
    ``bs3`` is the Bogacki-Shampine 3(2) pair with error control: its first
    trial step is ``spec.dt``, and then its steps follow the error, which is
    the RMS, over the components ``poststep`` left unmoved at the step's
    end, of the difference of the two orders scaled by
    ``BS3_ATOL + BS3_RTOL * |y|`` (a clamped component ends exactly at its
    bound, where the difference says nothing).  A step is accepted when that
    error is at most 1, and the next step is 0.9 err^(-1/3) times this one,
    clipped to [0.2, 10]; the last step lands on the end.  Its rows lie at
    output times: ``times`` when given, else the grid ``k * spec.dt``.  A
    row inside a step is the pair's cubic Hermite interpolant between the
    steps around it (for a component the clamp stopped inside the step, the
    quadratic through its start, its rate there and its unclamped end, cut
    by ``poststep``); a row at a step's end is that stepped state.  The rows
    are ``state0``, the row at each output time the run reached, and then
    the final state if the run did not end on an output time, so the
    default grid gives ``n_steps + 1`` rows unless the run stops early.
    The steps taken do not depend on ``times``.

    Parameters
    ----------
    rhs : callable(state, t) -> derivative
    state0 : initial state vector (finite)
    spec : IntegratorSpec (euler, rk4 or bs3)
    poststep : optional state transform applied after every step (device
        models use this for hard clamping; the integrator itself never
        clamps).  Under bs3 it is also applied to every stage state and to
        the interpolated rows, passed as a stack (rows x state), so it must
        act row by row; no state the RHS sees or the rows hold then
        leaves the clamp.
    stop : optional early-stop hook ``stop(state, derivative) -> bool``,
        called after every accepted step (after ``poststep``) with the new
        state and ``rhs(state, t)`` there.  Once it returns True the run
        ends at the next output time: at once under euler and rk4, whose
        steps are the grid; under bs3 at once when the step landed on an
        output time or none is left, else after the steps that land on the
        next one (the hook still sees them, and what it returns there is
        ignored), so the last row is a stepped state, not an interpolated
        one.  The derivative it is shown becomes the next step's first
        stage, so a run with a hook costs one RHS evaluation per Euler step
        (four per RK4 step, three per attempted bs3 step, which reuses it
        with or without a hook) plus one for the first step.
    times : optional output times of bs3, strictly increasing in
        (0, n_steps * dt]; ``()`` asks for the initial and the final state
        alone.  euler and rk4 refuse it, since their rows are their steps.

    Raises
    ------
    ValueError
        for a non-finite ``state0`` or ``times`` that break the rules above.
    IntegrationDivergedError
        if the state becomes non-finite; the error names the failure time.
    SimulationError
        if the bs3 step size underflows.
    """
    y = np.asarray(state0, dtype=float).copy()
    if y.ndim != 1:
        y = y.ravel()
    if not np.all(np.isfinite(y)):
        raise ValueError("state0 must be finite")
    if spec.method == "bs3":
        return _bs3_run(rhs, y, spec, poststep, stop, times)
    if times is not None:
        raise ValueError(f"{spec.method} rows are its steps on the grid k * dt; only bs3 takes times")
    dt = spec.dt
    # one row per step taken: a run that stops early never allocates the rest
    rows = [y]
    t = 0.0
    dy = None  # derivative at (y, t) when the stop hook has already computed it
    stopped = False
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
        if not np.isfinite(y).all():
            raise IntegrationDivergedError(t)
        rows.append(y)
        if stop is not None:
            dy = np.asarray(rhs(y, t), dtype=float)
            if stop(y, dy):
                stopped = True
                break
    steps = len(rows) - 1
    # a hook's derivative is the next step's first stage, so it adds only the first
    rhs_calls = (1 if spec.method == "euler" else 4) * steps + int(stop is not None and steps > 0)
    return Run(spec.grid[:len(rows)], np.array(rows), steps, rhs_calls, stopped)


def _bs3_run(rhs, y, spec: IntegratorSpec, poststep, stop, times) -> Run:
    """``integrate`` under bs3, its rows at the output times reached (see there)."""
    clamp = (lambda v: v) if poststep is None else (lambda v: np.asarray(poststep(v), dtype=float))
    t_last = spec.n_steps * spec.dt  # the run ends here, or at the output time after a stop
    if times is None:
        times = spec.grid[1:]
    else:
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or not (np.isfinite(times).all() and (times[1:] > times[:-1]).all()):
            raise ValueError("times must be a finite, strictly increasing 1-D sequence")
        if times.size and not (times[0] > 0.0 and times[-1] <= t_last):
            raise ValueError(f"times must lie in (0, {t_last:.6g}]")
    blocks = [y[None, :]]  # the rows: state0, then those of each step in turn
    k = 0  # index of the next output time
    t, h = 0.0, spec.dt
    f = np.asarray(rhs(y, t), dtype=float)
    attempts = steps = 0
    stopped = False
    landed = True  # the state at t is a row: state0, or a step's end on an output time
    while t < t_last:
        attempts += 1
        lands = h >= t_last - t
        if lands:
            h = t_last - t
        t_new = t_last if lands else t + h
        k2 = np.asarray(rhs(clamp(y + (0.5 * h) * f), t + 0.5 * h), dtype=float)
        k3 = np.asarray(rhs(clamp(y + (0.75 * h) * k2), t + 0.75 * h), dtype=float)
        raw = y + h * ((2.0 / 9.0) * f + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3)
        y_new = clamp(raw)
        if not np.isfinite(y_new).all():
            raise IntegrationDivergedError(t_new)
        f_new = np.asarray(rhs(y_new, t_new), dtype=float)
        free = y_new == raw
        e = h * ((-5.0 / 72.0) * f + (1.0 / 12.0) * k2 + (1.0 / 9.0) * k3 - 0.125 * f_new)
        scale = BS3_ATOL + BS3_RTOL * np.maximum(np.abs(y), np.abs(y_new))
        ratio = (e / scale)[free]
        err = math.sqrt(np.mean(ratio * ratio)) if ratio.size else 0.0
        grow = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** (-1.0 / 3.0)))
        if not err <= 1.0:  # also rejects a NaN error
            h *= grow if math.isfinite(err) else 0.2
            if t + h == t:
                raise SimulationError(f"bs3 step size underflow at t={t:.6g}")
            continue
        last = int(np.searchsorted(times, t_new))  # times[k:last] lie inside the step
        if last > k:
            # the cubic Hermite interpolant of the step, written as
            # y + theta dy + ... so that a component with zero change and
            # zero rates reads exactly y
            theta = ((times[k:last] - t) / h)[:, None]
            dy = y_new - y
            mid = y + theta * dy + theta * (theta - 1.0) * (
                (1.0 - 2.0 * theta) * dy + (theta - 1.0) * h * f + theta * h * f_new)
            if not free.all():
                # a component the clamp stopped inside the step: the quadratic
                # from (y, f) to the unclamped end, which poststep then cuts at
                # the bound where it crosses it
                moved = ~free
                mid[:, moved] = y[moved] + theta * (h * f[moved] + theta * (raw[moved] - y[moved] - h * f[moved]))
            blocks.append(clamp(mid))
        landed = last < times.size and times[last] == t_new
        if landed:
            blocks.append(y_new[None, :])
            last += 1
        k = last
        steps += 1
        t, y, f = t_new, y_new, f_new
        if stop is not None and stop(y, f) and not stopped:
            # end at the next output time: here if the step landed on one or none is left
            stopped = True
            t_last = t if landed or k == times.size else times[k]
        h *= grow
    if not landed:
        blocks.append(y[None, :])  # the final state, at no output time
    row_times = np.concatenate([[0.0], times[:k], () if landed else [t]])
    return Run(row_times, np.concatenate(blocks), steps, 1 + 3 * attempts, stopped)


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
    t = spec.grid
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
# other bins; fitting through it would be meaningless).  The closed-form
# periodogram of ``network.soc_experiment`` drops bins by the same floor.
_POWER_FLOOR = 1e-24


def power_spectrum_exponent(tr: Trace, channel: str, fit_band: tuple[float, float]) -> float:
    """Log-log slope of the plain FFT periodogram in ``fit_band`` (Hz).

    No window and no detrending: for relaxation transients the turn-on
    discontinuity carries the power-law skirt that the slope measures.
    Requires >= 1024 uniformly spaced samples (``Trace.spacing``) and
    0 < f_lo < f_hi < Nyquist.  ``network.soc_experiment`` takes its
    spectrum slope from the closed form of this periodogram for a sum of
    sampled exponentials; on the built series this function is the FFT
    oracle the tests check that closed form against.

    Raises
    ------
    ValueError
        if the samples are not uniformly spaced, or if the band is empty
        after discretization (fewer than two usable bins; a pure spectral
        line rejects this way).
    """
    x = tr[channel]
    n = x.size
    if n < 1024:
        raise ValueError(f"need at least 1024 samples, got {n}")
    f_lo, f_hi = fit_band
    dt = tr.spacing
    nyquist = 0.5 / dt
    if not 0.0 < f_lo < f_hi < nyquist:
        raise ValueError(f"fit band must satisfy 0 < f_lo < f_hi < Nyquist={nyquist:.6g}")
    p = np.abs(np.fft.rfft(x)) ** 2
    f = np.fft.rfftfreq(n, dt)
    mask = (f >= f_lo) & (f <= f_hi) & (p > p.max() * _POWER_FLOOR)
    if np.count_nonzero(mask) < 2:
        raise ValueError("fit band is empty after discretization")
    slope, _ = loglog_slope(f[mask], p[mask])
    return slope
