"""Analog-learning readouts and algorithms.

Fixed-dictionary regression (ELM style), reservoir pipelines over linear or
memristive dynamics (the linear one solved by its matrix exponential, the
memristive one stepped by ``core.integrate``), tuning-curve encode/decode
with the leaky integrate-and-fire rate function, and sparse coding by the
locally competitive algorithm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import IntegratorSpec, Trace, integrate
from .devices import HpParams, clamp01
from .network import CircuitGraph, edge_currents, kirchhoff_system, memnet_rhs

__all__ = [
    "elm_features",
    "fit_readout",
    "LinearReservoir",
    "MemristiveReservoir",
    "Reservoir",
    "rc_run",
    "NefPopulation",
    "random_nef_population",
    "lif_response",
    "nef_encode",
    "nef_fit_decoders",
    "nef_decode",
    "LcaProblem",
    "LcaResult",
    "hard_threshold",
    "lca_energy",
    "lca_simulate",
]


def elm_features(x_samples, g_dictionary: Sequence[Callable]) -> np.ndarray:
    """Design matrix G[i, j] = g_j(x(i)) over a fixed function dictionary."""
    x = np.asarray(x_samples, dtype=float)
    n = x.shape[0]
    out = np.empty((n, len(g_dictionary)))
    for j, g in enumerate(g_dictionary):
        for i in range(n):
            out[i, j] = g(x[i])
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))[0]
        raise ValueError(f"non-finite feature value at sample {bad[0]}, function {bad[1]}")
    return out


def fit_readout(g_matrix, y, ridge: float = 0.0) -> np.ndarray:
    """Ridge-regularized linear readout: minimize |G c - y|^2 + ridge |c|^2.

    Solved by the normal equations (Cholesky) when well conditioned; falls
    back to the minimum-norm least-squares solution (with a warning) when
    ridge = 0 and the problem is rank deficient or the condition number
    exceeds 1e10.
    """
    g = np.asarray(g_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    if g.shape[0] != y.shape[0]:
        raise ValueError(f"rows(G)={g.shape[0]} != len(y)={y.shape[0]}")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    gram = g.T @ g + ridge * np.eye(g.shape[1])
    if ridge == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e10:
            warnings.warn(
                "rank-deficient readout fit: returning the minimum-norm solution",
                RuntimeWarning,
                stacklevel=2,
            )
            return np.linalg.lstsq(g, y, rcond=None)[0]
    try:
        c = np.linalg.cholesky(gram)
        z = np.linalg.solve(c, g.T @ y)
        return np.linalg.solve(c.T, z)
    except np.linalg.LinAlgError:
        warnings.warn(
            "ill-conditioned normal equations: falling back to lstsq",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.linalg.lstsq(g, y, rcond=None)[0]


def _expm(m: np.ndarray) -> np.ndarray:
    """e^m by scaling and squaring a degree-16 Taylor polynomial.

    No eigenvectors are used, so a defective (non-diagonalisable) m is fine.
    m is scaled by 2^-s until its 1-norm is at most 1/2, where the Taylor
    remainder is below 1e-19 relative, and the result is squared s times.
    """
    norm = float(np.max(np.sum(np.abs(m), axis=0))) if m.size else 0.0
    s = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0 else 0
    x = m / 2.0**s
    out = term = np.eye(m.shape[0])
    for k in range(1, 17):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


@dataclass(frozen=True)
class LinearReservoir:
    """dq/dt = a q + (input), q(0) = 0; must be stable for the run at hand."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("a must be square")
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def out_dim(self) -> int:
        return self.dim

    def trajectory(self, b: np.ndarray, inputs: Callable, spec: IntegratorSpec) -> np.ndarray:
        """States q on the grid of ``spec`` for dq/dt = a q + b e(t), one row per sample.

        ``inputs`` maps an array of n times to the (n, m) inputs e,
        and is called twice, on the grid and on the midpoints.
        Each step is the exponential Simpson rule for the exact
        variation-of-constants step,

            q_{k+1} = P q_k + (dt/6) (P b e_k + 4 P_h b e_{k+1/2} + b e_{k+1}),

        with the propagators P_h = e^{a dt/2} (``_expm``) and P = P_h^2
        computed once: exact in a, Simpson's rule on the input, O(dt^4)
        globally.  ``spec.method`` is not used.
        """
        dt = spec.dt
        t = dt * np.arange(spec.n_steps + 1)
        e = inputs(t)
        half = _expm(0.5 * dt * self.a)
        full = half @ half
        weights = (dt / 6.0) * np.hstack([full @ b, 4.0 * (half @ b), b])
        q = np.empty((t.size, self.dim))
        q[0] = 0.0
        # each step's input term first, written into the row the step ends in
        np.matmul(np.hstack([e[:-1], inputs(t[:-1] + 0.5 * dt), e[1:]]), weights.T, out=q[1:])
        for k in range(spec.n_steps):
            q[k + 1] += full @ q[k]
        return q


@dataclass(frozen=True)
class MemristiveReservoir:
    """Memristive-network dynamics; the observable state is (w, edge currents).

    The drive vector is applied as the per-edge source vector (units V/r_on).
    A saturated network (all w clamped) exposes only the current half, which
    is a static linear map of the input.
    """

    graph: CircuitGraph
    hp: HpParams

    def __post_init__(self):
        object.__setattr__(self, "_system", kirchhoff_system(self.graph))

    @property
    def dim(self) -> int:
        return self._system.n_edges

    @property
    def out_dim(self) -> int:
        return 2 * self.dim

    def trajectory(self, b: np.ndarray, inputs: Callable, spec: IntegratorSpec) -> np.ndarray:
        """Observable rows (w, edge currents) on the grid of ``spec``, one per sample.

        The memories start at 1/2 and are stepped by ``integrate`` with
        ``spec.method``, clamped to [0, 1] after every step; the drive at time
        t is ``b @ inputs(t)``.  While stepping, ``inputs`` is called on one
        time at a time, only when the stage time differs from the last one:
        RK4's two midpoint stages share a drive, and so do a step's last stage
        and the next step's first when their times are equal.  ``inputs`` is
        then called once more, on the array of row times, and the row
        currents are solved at those drives by one ``edge_currents`` call on
        the (rows x E) stack, in stacked blocks.
        """
        last = [None, None]  # the last stage time and its drive

        def drive(t):
            if t != last[0]:
                last[:] = t, b @ inputs(t)
            return last[1]

        rows = integrate(lambda w, t: memnet_rhs(w, drive(t), self._system, self.hp),
                         np.full(self.dim, 0.5), spec, poststep=clamp01)
        # row k's drive as b @ inputs(t_k) computes it, one matrix-vector product
        # per row; passed inline, so the drives are freed before the stack below
        currents = edge_currents(rows, (b @ inputs(spec.dt * np.arange(len(rows)))[..., None])[..., 0],
                                 self._system, self.hp)
        return np.hstack([rows, currents])


@dataclass(frozen=True)
class Reservoir:
    """Inputs -> fixed random dynamics -> linear mixing.

    b mixes the inputs into the dynamics (dim q x dim u); h mixes states
    into the N_g feature signals (N_g x out_dim, with N_g <= state dim).
    """

    dynamics: LinearReservoir | MemristiveReservoir
    b: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if b.shape[0] != self.dynamics.dim:
            raise ValueError(f"b must have {self.dynamics.dim} rows")
        if h.shape[1] != self.dynamics.out_dim:
            raise ValueError(f"h must have {self.dynamics.out_dim} columns")
        if h.shape[0] > h.shape[1]:
            raise ValueError("need N_g <= state dimension")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "h", h)


def rc_run(r: Reservoir, u_signal, spec: IntegratorSpec) -> Trace:
    """Drive the reservoir and return the N_g mixed feature signals g = H y.

    y is the dynamics' observable row (``trajectory``) at each sample.
    ``u_signal`` is a DriveSignal or a vectorised callable of time: for one
    time it returns a value or an m-vector, for an array of n times n values
    or an (n, m) array, m being b's input width.  The trace's columns are
    the features g0..g{N_g-1}, then the inputs u0..u{m-1}.
    """
    def inputs(t):
        return np.asarray(u_signal(t), dtype=float).reshape(np.shape(t) + (-1,))

    feats = r.dynamics.trajectory(r.b, inputs, spec) @ r.h.T
    us = inputs(spec.dt * np.arange(spec.n_steps + 1))
    names = (*(f"g{i}" for i in range(feats.shape[1])), *(f"u{i}" for i in range(us.shape[1])))
    return Trace(t0=0.0, dt=spec.dt, names=names, values=np.hstack([feats, us]))


@dataclass(frozen=True)
class NefPopulation:
    """Rate-coding population over a discretized function domain.

    encoders[i] is the generator profile of neuron i sampled on the grid;
    the soma current for a function f on the grid is
    gain_i * mean(f * encoders[i]) + bias_i.
    """

    gains: np.ndarray
    biases: np.ndarray
    encoders: np.ndarray  # (n_neurons, n_grid)
    grid: np.ndarray      # (n_grid,)
    tau0: float = 5e-3
    tau_rc: float = 20e-3
    i_f: float = 1.0

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        biases = np.asarray(self.biases, dtype=float)
        enc = np.asarray(self.encoders, dtype=float)
        grid = np.asarray(self.grid, dtype=float)
        if enc.shape != (gains.size, grid.size):
            raise ValueError("encoders must be (n_neurons, n_grid)")
        if biases.shape != gains.shape:
            raise ValueError("gains and biases must match")
        if self.tau0 <= 0 or self.tau_rc < 0 or self.i_f <= 0:
            raise ValueError("need tau0 > 0, tau_rc >= 0, i_f > 0")
        if grid.size > 1 and np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be increasing")
        for name, val in (("gains", gains), ("biases", biases), ("encoders", enc), ("grid", grid)):
            object.__setattr__(self, name, val)

    @property
    def n_neurons(self) -> int:
        return self.gains.size


def random_nef_population(
    rng: np.random.Generator,
    n_neurons: int,
    grid,
    tau0: float = 5e-3,
    tau_rc: float = 20e-3,
    i_f: float = 1.0,
) -> NefPopulation:
    """Population with random signed-indicator encoder profiles.

    Each encoder is +-1 on a random subinterval of the grid and 0 outside;
    gains and biases are drawn so a good fraction of the population fires.
    """
    grid = np.asarray(grid, dtype=float)
    n_x = grid.size
    enc = np.zeros((n_neurons, n_x))
    for i in range(n_neurons):
        a, b = np.sort(rng.integers(0, n_x, size=2))
        b = max(b, a + 1)
        enc[i, a:b] = rng.choice([-1.0, 1.0])
    gains = rng.uniform(5.0, 15.0, n_neurons)
    biases = rng.uniform(0.5, 2.5, n_neurons) * i_f
    return NefPopulation(gains=gains, biases=biases, encoders=enc, grid=grid,
                         tau0=tau0, tau_rc=tau_rc, i_f=i_f)


def lif_response(i_soma, tau0: float, tau_rc: float, i_f: float):
    """Leaky integrate-and-fire rate: 1/(tau0 - tau_rc ln(1 - i_f/I)) above I_F, else 0."""
    i_soma = np.asarray(i_soma, dtype=float)
    above = i_soma > i_f
    safe = np.where(above, i_soma, 2.0 * i_f)
    rate = 1.0 / (tau0 - tau_rc * np.log1p(-i_f / safe))
    out = np.where(above, rate, 0.0)
    return out if out.ndim else float(out)


def nef_encode(f_values, p: NefPopulation) -> np.ndarray:
    """Firing rates of the population for a function sampled on the grid."""
    f = np.asarray(f_values, dtype=float)
    if f.shape != p.grid.shape:
        raise ValueError(f"f must be sampled on the population grid ({p.grid.size} points)")
    currents = p.gains * (p.encoders * f).mean(axis=1) + p.biases
    return lif_response(currents, p.tau0, p.tau_rc, p.i_f)


def nef_fit_decoders(p: NefPopulation, train_functions, regularization: float = 0.0) -> np.ndarray:
    """Least-squares decoders on the grid from a set of training functions.

    Returns the (n_neurons, n_grid) decoder array mapping rates back to
    function values; uses the same regularized solver as fit_readout,
    column-shared across grid points.
    """
    fs = np.atleast_2d(np.asarray(train_functions, dtype=float))
    if fs.shape[1] != p.grid.size:
        raise ValueError("training functions must be sampled on the population grid")
    acts = np.vstack([nef_encode(f, p) for f in fs])  # (K, N)
    return fit_readout(acts, fs, ridge=regularization)


def nef_decode(activities, decoders) -> np.ndarray:
    """f_hat(x) = sum_i a_i phi_i(x) on the grid."""
    return np.asarray(activities, dtype=float) @ np.asarray(decoders, dtype=float)


def hard_threshold(x, lam: float):
    """T_lam(x) = x where x > lam, else 0."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > lam, x, 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LcaProblem:
    """Sparse-coding setup: dictionary columns phi^i, sparsity weight, time constant."""

    dictionary: np.ndarray  # (n_dim, n_atoms), columns are atoms
    lam: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        phi = np.asarray(self.dictionary, dtype=float)
        if phi.ndim != 2:
            raise ValueError("dictionary must be a 2-D array of column atoms")
        if np.any(np.linalg.norm(phi, axis=0) == 0):
            raise ValueError("dictionary must not contain zero columns")
        if self.lam < 0 or self.tau <= 0:
            raise ValueError("need lam >= 0 and tau > 0")
        object.__setattr__(self, "dictionary", phi)


class LcaResult(NamedTuple):
    a: np.ndarray
    trace: Trace
    converged: bool


def lca_energy(p: LcaProblem, x, a) -> float:
    """E = 1/2 |x - Phi a|^2 + (lam^2/2) |a|_0.

    The sparsity cost is the one implied by the hard threshold through
    lam dC/da = u - a: constant (lam/2) per active unit.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    resid = x - p.dictionary @ a
    return 0.5 * float(resid @ resid) + 0.5 * p.lam**2 * int(np.count_nonzero(a))


def lca_simulate(p: LcaProblem, x, spec: IntegratorSpec, tol: float = 1e-8) -> LcaResult:
    """Integrate the neuron dynamics to a fixed point and threshold the state.

        du_m/dt = (1/tau) (b_m - u_m - sum_{n != m} G_mn a_n),
        b = Phi^T x,  G = Phi^T Phi,  a = T_lam(u).

    b_m is the atom-input overlap phi^m . x (the printed "b = Phi x" only
    types with the transpose action).  Stops early when |du/dt|_inf < tol;
    otherwise returns the last iterate with converged=False.  The trace holds
    ``integrate``'s rows of u as they are, one column per atom, u0..u{M-1}.
    """
    x = np.asarray(x, dtype=float)
    phi = p.dictionary
    if x.shape != (phi.shape[0],):
        raise ValueError(f"input must have shape ({phi.shape[0]},)")
    b = phi.T @ x
    gram = phi.T @ phi
    g_off = gram - np.diag(np.diagonal(gram))
    n_atoms = phi.shape[1]

    def rhs(u, t):
        return (b - u - g_off @ hard_threshold(u, p.lam)) / p.tau

    converged = False

    def reached_fixed_point(u, du):
        nonlocal converged
        converged = bool(np.max(np.abs(du)) < tol)
        return converged

    rows = integrate(rhs, np.zeros(n_atoms), spec, stop=reached_fixed_point)
    if not converged:
        warnings.warn("LCA did not reach a fixed point within t_end", RuntimeWarning, stacklevel=2)
    trace = Trace(t0=0.0, dt=spec.dt, names=tuple(f"u{i}" for i in range(n_atoms)), values=rows)
    return LcaResult(a=hard_threshold(rows[-1], p.lam), trace=trace, converged=converged)
