"""Interacting memristor networks under Kirchhoff constraints.

Graph construction, the cycle space, the network state equation

    dw/dt = alpha w - (1/beta) (I + chi Omega W)^{-1} Omega S,   chi = (r_off-r_on)/r_on,

its exact linearization J = alpha I + polarity (chi/beta) (I + chi Omega W)^{-1}
Omega diag(i) (Caravelli, Traversa & Di Ventra, PRE 95, 022140, 2017),
spectral/relaxation analysis, and the maze-solving demo (Pershin & Di Ventra,
PRE 84, 046703, 2011).  The maze route is read off the relaxed currents:
current in a passive network only flows downhill in potential, so the walk
from the entrance along the largest outgoing current reaches the exit.

Omega is the orthogonal projector onto the cycle space (``cycle_projector``),
the paper's object.  The simulation paths solve the same currents in the
smaller of the two Kirchhoff systems of the graph, R = diag(1 + chi w) being
the edge resistances in units of r_on and G = R^{-1}:

- mesh (KVL) form, on the signed fundamental-cycle matrix B (C x E,
  C = E - N + 1, ``cycle_basis``), with C cycle currents as unknowns:
  i = B^T K^{-1} B S,  K = B R B^T;
- nodal (KCL) form, on the reduced incidence matrix A ((N - 1) x E, node 0
  grounded), with N - 1 node potentials as unknowns:
  i = G S - G A^T L^{-1} A G S,  L = A G A^T.

Both follow from (I + chi Omega W)^{-1} Omega = B^T (B R B^T)^{-1} B
= G - G A^T (A G A^T)^{-1} A G: B^T K^{-1} B R and G A^T L^{-1} A are
projectors that annihilate each other (B A^T = 0) and have ranks C and
N - 1, which add up to E, so they sum to the identity; multiply by G.  K and
L are symmetric positive definite for w in [0, 1].

``kirchhoff_system(g)`` builds, once per graph, the form with fewer unknowns
(nodal when N - 1 < C: the dense soc graphs; mesh otherwise: trees and
mazes) together with the index triples that assemble K or L by one
``np.bincount``.  ``simulate_network`` builds it and hands it back as
``NetworkRun.system``; ``soc_experiment`` (and through it ``linearize``),
``solve_maze`` and ``learning.MemristiveReservoir`` pass it to
``edge_currents``.  The projector form is kept as the reference the tests and
independent checks compare against.

``simulate_network`` steps the clamp-aware rate (zero for a memory that a
bound holds) with any ``integrate`` method.  The soc relaxation and the maze
take the error-controlled Bogacki-Shampine pair ("bs3"), whose steps follow
the slow DC relaxation; their ``dt`` is the spacing of the trace rows only.

Voltage sources come in two forms: a series EMF on a memristive edge (the
``value`` field), or a pure source edge.  Pure source edges are eliminated
losslessly before analysis by source shifting: the constraint phi_head =
phi_tail + V is propagated through a potential-weighted union-find and the
EMF reappears on the remaining memristive edges (sigma' = sigma + delta_tail
- delta_head).  The cycle space and the source vector S = sigma'/r_on then
live purely on memristive edges, which reproduces the single-loop reduction
to the one-device equation exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import IntegratorSpec, SimulationError, Trace, integrate, loglog_slope, power_spectrum_exponent
from .devices import HpParams, clamp01, clamped_rate

__all__ = [
    "Edge",
    "CircuitGraph",
    "MazeSpec",
    "DisconnectedGraphError",
    "SingularNetworkError",
    "AmbiguousPathError",
    "reduce_sources",
    "cycle_basis",
    "cycle_projector",
    "source_vector",
    "KirchhoffSystem",
    "kirchhoff_system",
    "memnet_rhs",
    "edge_currents",
    "NetworkRun",
    "simulate_network",
    "linearize",
    "mean_relaxation",
    "SocResult",
    "random_network",
    "soc_experiment",
    "maze_to_circuit",
    "MazeResult",
    "solve_maze",
    "bfs_shortest_path",
    "shortest_route_edges",
]


class DisconnectedGraphError(ValueError):
    pass


class SingularNetworkError(SimulationError):
    pass


class AmbiguousPathError(SimulationError):
    """The maze's current walk found no forward current or did not reach the exit.

    ``currents`` holds the relaxed edge currents the walk followed.
    """

    def __init__(self, message, currents=None):
        super().__init__(message)
        self.currents = currents


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    kind: str = "memristor"  # "memristor" | "source"
    value: float = 0.0       # series EMF (memristor) or source EMF (source), volts

    def __post_init__(self):
        if self.kind not in ("memristor", "source"):
            raise ValueError("edge kind must be 'memristor' or 'source'")


@dataclass(frozen=True)
class CircuitGraph:
    """Directed graph with device-bearing edges.

    Orientation fixes the sign of edge currents and of dw/dt; EMF convention:
    traversing an edge tail -> head through its source raises the potential
    by ``value``.
    """

    n_nodes: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        for e in self.edges:
            if not (0 <= e.tail < self.n_nodes and 0 <= e.head < self.n_nodes):
                raise ValueError(f"edge {e} references a node outside 0..{self.n_nodes - 1}")

    @property
    def memristive_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.kind == "memristor")


class _PotentialUnionFind:
    """Union-find carrying delta[v] = phi(v) - phi(root(v))."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.delta = [0.0] * n

    def find(self, v: int) -> int:
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        offset = 0.0
        for u in reversed(path):
            offset += self.delta[u]
            self.parent[u] = v
            self.delta[u] = offset
        return v

    def potential(self, v: int) -> float:
        """phi(v) - phi(root(v))."""
        root = self.find(v)
        return 0.0 if v == root else self.delta[v]

    def union(self, a: int, b: int, diff: float) -> None:
        """Impose phi(b) - phi(a) = diff."""
        ra = self.find(a)
        rb = self.find(b)
        pa = self.potential(a)
        pb = self.potential(b)
        if ra == rb:
            if abs((pb - pa) - diff) > 1e-9 * (1.0 + abs(diff)):
                raise ValueError("inconsistent source loop (conflicting EMF constraints)")
            return
        # attach rb under ra: phi(rb) - phi(ra) = pa + diff - pb
        self.parent[rb] = ra
        self.delta[rb] = pa + diff - pb


def reduce_sources(g: CircuitGraph) -> tuple[int, list[tuple[int, int]], np.ndarray]:
    """Contract pure source edges;  return (n_nodes, memristive edge list, EMF vector).

    Node ids are re-labelled densely.  Each memristive edge's effective series
    EMF is sigma + delta_tail - delta_head where delta are the node potential
    offsets imposed by the source edges.
    """
    uf = _PotentialUnionFind(g.n_nodes)
    for e in g.edges:
        if e.kind == "source":
            uf.union(e.tail, e.head, e.value)
    roots = {}
    for v in range(g.n_nodes):
        roots.setdefault(uf.find(v), len(roots))
    mem = g.memristive_edges
    edges = []
    emf = np.empty(len(mem))
    for k, e in enumerate(mem):
        rt = uf.find(e.tail)
        rh = uf.find(e.head)
        edges.append((roots[rt], roots[rh]))
        emf[k] = e.value + uf.potential(e.tail) - uf.potential(e.head)
    return len(roots), edges, emf


def _fundamental_cycles(n_nodes: int, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Signed fundamental-cycle matrix (rows = cycles) from a BFS spanning tree.

    Self-loops are their own cycles.  Raises DisconnectedGraphError if the
    graph does not span all nodes.
    """
    adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(n_nodes)}
    self_loops = []
    for k, (a, b) in enumerate(edges):
        if a == b:
            self_loops.append(k)
            continue
        adj[a].append((b, k, +1))
        adj[b].append((a, k, -1))
    parent: dict[int, tuple[int | None, int | None, int]] = {0: (None, None, 0)}
    order = deque([0])
    while order:
        v = order.popleft()
        for (u, k, s) in adj[v]:
            if u not in parent:
                parent[u] = (v, k, s)
                order.append(u)
    if len(parent) != n_nodes:
        raise DisconnectedGraphError(
            f"graph is disconnected: reached {len(parent)} of {n_nodes} nodes"
        )
    tree = {parent[v][1] for v in parent if parent[v][1] is not None}

    def path_to_root(v: int) -> list[tuple[int, int]]:
        seq = []
        while parent[v][0] is not None:
            pv, k, s = parent[v]
            seq.append((k, s))
            v = pv
        return seq

    rows = []
    for k, (a, b) in enumerate(edges):
        if k in tree:
            continue
        row = np.zeros(len(edges))
        row[k] = 1.0
        if a != b:
            pa = path_to_root(a)
            pb = path_to_root(b)
            while pa and pb and pa[-1][0] == pb[-1][0]:
                pa.pop()
                pb.pop()
            # close the cycle through the tree: the stored sign s is the
            # parent->child direction, so the b->root walk contributes -s and
            # the root->a walk contributes +s
            for (ke, s) in pb:
                row[ke] -= s
            for (ke, s) in pa:
                row[ke] += s
        rows.append(row)
    return np.array(rows) if rows else np.zeros((0, len(edges)))


def cycle_basis(g: CircuitGraph) -> np.ndarray:
    """Signed fundamental-cycle matrix B (C x E) of the source-contracted graph.

    Rows are the fundamental cycles of a BFS spanning tree over the memristive
    edges, after pure source edges are contracted; columns follow
    ``g.memristive_edges``.  C = E - N + 1 (0 for a tree; a self-loop is its
    own cycle).  Raises DisconnectedGraphError if the contracted graph is
    disconnected.
    """
    n_nodes, edges, _ = reduce_sources(g)
    return _fundamental_cycles(n_nodes, edges)


def cycle_projector(g: CircuitGraph) -> np.ndarray:
    """Orthogonal projector onto the cycle space of the memristive edge space.

    Built from the fundamental-cycle basis: Omega = B^T (B B^T)^+ B with
    B = ``cycle_basis(g)``.  Symmetric, idempotent, eigenvalues in {0, 1},
    rank E - N + 1 for a connected graph.  The paper's form of the network
    equation; the simulation paths use ``kirchhoff_system(g)``.
    """
    b = cycle_basis(g)
    n_edges = b.shape[1]
    if b.shape[0] == 0:
        return np.zeros((n_edges, n_edges))
    return b.T @ np.linalg.pinv(b @ b.T) @ b


def source_vector(g: CircuitGraph, hp: HpParams) -> np.ndarray:
    """Per-memristive-edge source vector S = sigma / r_on (units of current)."""
    _, _, emf = reduce_sources(g)
    return emf / hp.r_on


# rows per stacked solve in ``KirchhoffSystem.currents``.  A block's
# temporaries (matrices, scatter indices) grow with it; at 128 rows a 2001-row
# stack on a 24-edge graph solved in 4.2 ms (64 rows: 4.8 ms, 256: 4.5 ms,
# one block: 6.3 ms; 2-vCPU Xeon, one BLAS thread)
STACK_BLOCK = 128


@dataclass(frozen=True, eq=False)
class KirchhoffSystem:
    """The current system of one graph, in nodal or mesh form (``kirchhoff_system``).

    ``operator`` is the reduced incidence matrix A ((N-1) x E, node 0
    grounded) in nodal form, or the cycle matrix B (C x E) in mesh form.
    ``operator . diag(x) . operator^T`` is assembled by ``np.bincount`` over
    the (row * n + col, edge, sign) triples ``flat``, ``edge``, ``sign``,
    one per pair of nonzeros that share a column.
    """

    form: str  # "nodal" | "mesh"
    operator: np.ndarray
    flat: np.ndarray
    edge: np.ndarray
    sign: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.operator.shape[1]

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """operator . diag(x) . operator^T, scattered from the triples.

        For a (rows x E) stack ``x``, one matrix per row (rows x n x n), all
        scattered by one ``np.bincount``, row k's triples offset by k n^2.
        """
        n = self.operator.shape[0]
        if x.ndim == 1:
            return np.bincount(self.flat, weights=self.sign * x[self.edge], minlength=n * n).reshape(n, n)
        flat = (n * n * np.arange(len(x)))[:, None] + self.flat
        return np.bincount(flat.ravel(), weights=(self.sign * x[:, self.edge]).ravel(),
                           minlength=len(x) * n * n).reshape(len(x), n, n)

    def currents(self, w: np.ndarray, s: np.ndarray, chi: float) -> np.ndarray:
        """Edge currents at memories ``w`` for sources ``s``; see ``edge_currents``.

        ``w`` is one state (E) with ``s`` an E vector or an E x k matrix, or a
        (rows x E) stack with ``s`` of the same shape, row k solved at
        ``w[k]`` and ``s[k]``, ``STACK_BLOCK`` rows per stacked solve.
        """
        if not np.isfinite(s).all():
            raise SingularNetworkError("network current system is singular: a source is not finite")
        if w.ndim == 1:
            return self._solve(w, s, chi)
        if w.ndim != 2 or s.shape != w.shape:
            raise ValueError(f"a stack of states w must be (rows x E) with sources s of its shape; "
                             f"got w {w.shape} and s {s.shape}")
        i = np.empty_like(w)
        for lo in range(0, len(w), STACK_BLOCK):
            block = slice(lo, lo + STACK_BLOCK)
            i[block] = self._solve(w[block], s[block, :, None], chi)[..., 0]
        return i

    def _solve(self, w: np.ndarray, s: np.ndarray, chi: float) -> np.ndarray:
        """Currents for memories ``w`` (E) and sources ``s`` (E or E x k), or for
        a (rows x E) stack of ``w`` and a (rows x E x 1) stack of ``s``.

        A stack is solved by one stacked ``np.linalg.solve`` and projected
        by ``np.matmul`` one row at a time, the arithmetic of a lone row.
        """
        r = 1.0 + chi * w
        if not r.min(initial=np.inf) > 0.0:  # also refuses NaN; checked before any 1 / r
            raise SingularNetworkError("network current system is singular: a resistance is not positive")
        op = self.operator
        if self.form == "mesh":
            return op.T @ np.linalg.solve(self.matrix(r), op @ s)
        g = 1.0 / r
        g_col = g[..., None] if s.ndim > g.ndim else g
        gs = g_col * s
        i = gs - g_col * (op.T @ np.linalg.solve(self.matrix(g), op @ gs))
        if not np.isfinite(i).all():
            raise SingularNetworkError("network current system is singular: non-finite currents")
        return i


def _scatter_triples(op: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row * n + col, edge, op[row, edge] * op[col, edge]) over the nonzero pairs of each column."""
    n = op.shape[0]
    flat, edge, sign = [], [], []
    for e, col in enumerate(op.T):
        rows = np.flatnonzero(col)
        flat.append((rows[:, None] * n + rows[None, :]).ravel())
        edge.append(np.full(rows.size ** 2, e))
        sign.append(np.outer(col[rows], col[rows]).ravel())
    if not flat:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    return np.concatenate(flat), np.concatenate(edge), np.concatenate(sign)


def kirchhoff_system(g: CircuitGraph) -> KirchhoffSystem:
    """The current solver of the source-contracted graph, built once per graph.

    Takes the form with fewer unknowns: nodal (N - 1 node potentials) when
    N - 1 < C, mesh (C cycle currents) otherwise, so trees and sparse graphs
    such as mazes take mesh form and dense ones such as soc take nodal form.
    Raises DisconnectedGraphError if the contracted graph is disconnected.
    """
    n_nodes, edges, _ = reduce_sources(g)
    cycles = _fundamental_cycles(n_nodes, edges)
    if n_nodes - 1 < cycles.shape[0]:
        incidence = np.zeros((n_nodes, len(edges)))
        for k, (tail, head) in enumerate(edges):
            incidence[tail, k] -= 1.0
            incidence[head, k] += 1.0
        form, op = "nodal", incidence[1:]
    else:
        form, op = "mesh", cycles
    return KirchhoffSystem(form, op, *_scatter_triples(op))


def edge_currents(w: np.ndarray, s: np.ndarray, system, hp: HpParams) -> np.ndarray:
    """Edge currents of the memristive network at memories ``w`` (amperes).

    ``system`` is either

    - a ``KirchhoffSystem`` (``kirchhoff_system``), which ``simulate_network``,
      ``linearize`` from ``soc_experiment``, ``solve_maze`` and
      ``learning.MemristiveReservoir`` pass.  It is in nodal form when the
      graph has fewer node potentials than cycles (N - 1 < C):
      i = G S - G A^T L^{-1} A G S with L = A G A^T and G = diag(1 / (1 + chi w));
      in mesh form otherwise: i = B^T K^{-1} B S with K = B G^{-1} B^T, so a
      graph without cycles (C = 0) carries no current.  The two agree by
      B^T (B G^{-1} B^T)^{-1} B = G - G A^T (A G A^T)^{-1} A G (see the
      module docstring);
    - the E x E projector Omega (``cycle_projector``), the paper's form kept
      as the reference: i = (I + chi Omega W)^{-1} Omega S.

    ``s`` may also be an E x k matrix: column k of the result is then driven
    by column k of ``s``.  With a ``KirchhoffSystem``, ``w`` may also be a
    (rows x E) stack of states with ``s`` a stack of the same shape: row k
    of the result is then solved at ``w[k]`` and ``s[k]``, as one call per
    row would solve it, in stacked blocks of ``STACK_BLOCK`` rows.

    Raises SingularNetworkError when the system is singular; for a
    ``KirchhoffSystem`` also when a source is not finite (before any
    arithmetic on it) or a resistance 1 + chi w is not positive (in either
    form, before any division by it), and in nodal form when the currents
    are not finite.
    """
    w = np.asarray(w, dtype=float)
    s = np.asarray(s, dtype=float)
    try:
        if isinstance(system, KirchhoffSystem):
            return system.currents(w, s, hp.xi)
        if w.ndim != 1:
            raise ValueError(f"the projector form takes one state w, got shape {w.shape}")
        if system.shape != (w.size, w.size):
            raise ValueError(f"the projector must be {w.size} x {w.size}, got {system.shape}")
        m = np.eye(w.size) + hp.xi * system * w[None, :]
        return np.linalg.solve(m, system @ s)
    except np.linalg.LinAlgError as exc:
        raise SingularNetworkError(f"network current system is singular: {exc}") from exc


def memnet_rhs(w, s, system, hp: HpParams) -> np.ndarray:
    """dw/dt = alpha w - polarity * i / beta, with i = ``edge_currents(w, s, system, hp)``.

    ``system`` is a ``KirchhoffSystem`` or the projector Omega (see
    ``edge_currents``); both give (I + chi Omega W)^{-1} Omega S.
    """
    w = np.asarray(w, dtype=float)
    return hp.alpha * w - hp.polarity * edge_currents(w, s, system, hp) / hp.beta


@dataclass(frozen=True)
class NetworkRun:
    trace: Trace
    steady: bool
    stop_reason: str  # "steady" | "t_end"
    system: KirchhoffSystem  # the current solver the run stepped with
    steps: int  # steps accepted
    rhs_calls: int  # evaluations of the network equation, one current solve each


def simulate_network(
    g: CircuitGraph,
    s,
    hp: HpParams,
    spec: IntegratorSpec,
    w0: float = 0.5,
    steady_tol: float = 1e-6,
) -> NetworkRun:
    """Integrate the network equation with per-edge clamping to [0, 1].

    ``s`` is the constant source vector over memristive edges (units V/r_on),
    or None to derive it from the graph's EMFs; every memory starts at
    ``w0``.  The rate ``integrate`` steps is clamp-aware (``clamped_rate``):
    a memory at a bound that the network pushes outward has rate zero, so
    it stays exactly at the bound, in the rows bs3 interpolates too.  Under
    ``spec.method == "bs3"`` (what ``soc_experiment`` and ``solve_maze``
    use) the steps follow the error and ``spec.dt`` is the row spacing.
    Stops once the rate norm falls below ``steady_tol``, at the next row.
    The trace holds ``integrate``'s rows as they are, one column per memory,
    w0..w{E-1}.  Every rate evaluation solves the currents with
    ``kirchhoff_system(g)``, built once here and returned as
    ``NetworkRun.system`` for the caller's own solves; ``NetworkRun.steps``
    and ``rhs_calls`` count the accepted steps and the rate evaluations.
    """
    system = kirchhoff_system(g)
    n_e = system.n_edges
    s = source_vector(g, hp) if s is None else np.asarray(s, dtype=float)
    if s.shape != (n_e,):
        raise ValueError(f"source vector must have shape ({n_e},), got {s.shape}")
    w = np.full(n_e, w0, dtype=float)
    steps = rhs_calls = 0
    steady = False

    def rate(w, t):
        nonlocal rhs_calls
        rhs_calls += 1
        return clamped_rate(w, memnet_rhs(w, s, system, hp), 0.0, 1.0)

    def reached_steady(w, dw):
        # bs3 shows the hook the steps after it fired too, up to the next row
        nonlocal steps, steady
        steps += 1
        steady = steady or bool(np.max(np.abs(dw)) < steady_tol)
        return steady

    rows = integrate(rate, w, spec, poststep=clamp01, stop=reached_steady)
    trace = Trace(t0=0.0, dt=spec.dt, names=tuple(f"w{i}" for i in range(n_e)), values=rows)
    return NetworkRun(trace=trace, steady=steady, stop_reason="steady" if steady else "t_end",
                      system=system, steps=steps, rhs_calls=rhs_calls)


def linearize(s, system, hp: HpParams, w_star) -> np.ndarray:
    """Exact Jacobian of memnet_rhs at w_star.

    Differentiating M i = Omega S, with M = I + chi Omega W, gives
    di/dw_j = -chi M^{-1} Omega e_j i_j, so J = alpha I + polarity (chi/beta)
    M^{-1} Omega diag(i) (Caravelli, Traversa & Di Ventra, PRE 95, 022140,
    2017).  M^{-1} Omega is one ``edge_currents`` call with the identity as
    source matrix, so ``system`` may be a ``KirchhoffSystem`` (what
    ``soc_experiment`` passes), where M^{-1} Omega is G - G A^T L^{-1} A G in
    nodal form and B^T K^{-1} B in mesh form, or the projector Omega.
    Raises SingularNetworkError if the current system is singular and
    SimulationError on non-finite entries.
    """
    w_star = np.asarray(w_star, dtype=float)
    # column j of M^{-1} Omega: the currents a unit source on edge j drives
    unit_response = edge_currents(w_star, np.eye(w_star.size), system, hp)
    i = unit_response @ np.asarray(s, dtype=float)
    a = (hp.polarity * hp.xi / hp.beta) * unit_response * i[None, :]
    a[np.diag_indices_from(a)] += hp.alpha
    if not np.all(np.isfinite(a)):
        raise SimulationError("non-finite Jacobian entries")
    return a


def mean_relaxation(a: np.ndarray, w0, ts, branch: str | None = None) -> np.ndarray:
    """Average relaxation <w(t)> = (1/N) tr(e^{At} W0), W0 = diag(w0).

    Evaluated through the eigendecomposition of A; ``branch`` restricts the
    modal sum to the "negative" or "positive" part of the spectrum (the
    branch decomposition used in the relaxation analysis).

    Raises
    ------
    SimulationError
        if the eigendecomposition fails (e.g. on non-finite entries).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    w0 = np.asarray(w0, dtype=float)
    ts = np.asarray(ts, dtype=float)
    try:
        lam, q = np.linalg.eig(a)
        d = np.diagonal(np.linalg.solve(q, np.diag(w0) @ q))
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"eigendecomposition of the linearization failed: {exc}") from exc
    if branch == "negative":
        keep = lam.real < -1e-12
    elif branch == "positive":
        keep = lam.real > 1e-12
    elif branch is None:
        keep = np.ones_like(lam, dtype=bool)
    else:
        raise ValueError("branch must be None, 'negative' or 'positive'")
    lam = lam[keep]
    d = d[keep]
    out = np.array([np.sum(np.exp(lam * t) * d) for t in ts])
    return out.real / n


@dataclass(frozen=True)
class SocResult:
    gamma: float
    spectrum_slope: float
    power_law: bool
    fit_r2: float
    rates: np.ndarray
    relaxation: Trace
    steady: bool  # the relaxation reached steady state before it was linearized
    n_unstable: int  # Jacobian eigenvalues with real part > 1e-10
    stop_reason: str  # why the relaxation ended: "steady" | "t_end"
    clamped_fraction: float  # share of edges at w = 0 or w = 1 where it was linearized
    steps: int  # steps the relaxation accepted
    rhs_calls: int  # evaluations of the network equation during the relaxation


MAX_GRAPH_DRAWS = 200  # random_network gives up after this many disconnected draws


def random_network(
    rng: np.random.Generator,
    n_nodes: int = 100,
    edge_prob: float = 0.045,
    n_sources: int = 5,
    source_volts: float = 1.0,
) -> CircuitGraph:
    """Connected Erdos-Renyi memristive network with random series sources."""
    for _ in range(MAX_GRAPH_DRAWS):
        mask = rng.random((n_nodes, n_nodes)) < edge_prob
        pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes) if mask[i, j]]
        if len(pairs) < n_nodes:
            continue
        emf = np.zeros(len(pairs))
        idx = rng.choice(len(pairs), size=min(n_sources, len(pairs)), replace=False)
        emf[idx] = source_volts * rng.choice([-1.0, 1.0], size=len(idx))
        g = CircuitGraph(
            n_nodes=n_nodes,
            edges=tuple(Edge(a, b, "memristor", v) for (a, b), v in zip(pairs, emf)),
        )
        try:
            cycle_basis(g)
            return g
        except DisconnectedGraphError:
            continue
    raise RuntimeError("failed to sample a connected graph")


def _log_resampled_r2(t: np.ndarray, x: np.ndarray, t_lo: float, t_hi: float, n: int = 128) -> float:
    """R^2 of the log-log fit on log-uniform resampled points (power-law gate)."""
    tg = np.geomspace(max(t_lo, t[1]), min(t_hi, t[-1]), n)
    xg = np.interp(tg, t, x)
    keep = xg > 0
    _, r2 = loglog_slope(tg[keep], xg[keep])
    return r2


# soc_experiment's analysis constants (see its docstring)
RATE_DECADES = 2.5
RELAXATION_SAMPLES = 32768
RELAXATION_BLOCK = 1024  # rows of the relaxation evaluated at once
GAMMA_WINDOW = (2.0, 0.5)
FIT_BAND = (10.0, 30.0)


def soc_experiment(g: CircuitGraph, hp: HpParams, spec: IntegratorSpec | None = None) -> SocResult:
    """Relaxation-exponent and spectrum-slope analysis of a driven network.

    Procedure: relax the network to its DC configuration, linearize there,
    take the negative branch of the spectrum (rates within ``RATE_DECADES``
    of the fastest), build <w(t)> = tr(e^{At} W0)/N with W0 = I/2 on a
    uniform grid of ``RELAXATION_SAMPLES`` points spanning 6/lambda_min,
    then fit

    - gamma: log-log slope of <w(t)> on the scaling window
      (GAMMA_WINDOW[0]/lambda_max, GAMMA_WINDOW[1]/lambda_min),
    - spectrum slope: periodogram log-log slope on the band
      (lambda_max/FIT_BAND[0], FIT_BAND[1]*lambda_max)/(2 pi), clipped at
      the Nyquist frequency of the relaxation grid.

    The power-law gate is the R^2 of the log-resampled time-domain fit
    (falling back to the corner window when the rate spread leaves no
    scaling regime, e.g. a single device): fits with R^2 < 0.9 report
    ``power_law=False``.

    The relaxation is ``simulate_network`` under ``spec``, by default bs3
    with rows every 0.05 up to t = 200; the linearization point is its last
    row, a stepped state.  ``steps`` and ``rhs_calls`` report its work.
    """
    if spec is None:
        spec = IntegratorSpec(method="bs3", dt=0.05, t_end=200.0)
    s = source_vector(g, hp)
    run = simulate_network(g, s, hp, spec, w0=0.5)
    w_star = run.trace.values[-1]
    a = linearize(s, run.system, hp, w_star)
    lam = np.real(np.linalg.eigvals(a))
    neg = -lam[lam < -1e-10]
    if neg.size == 0:
        raise SimulationError("linearization has no negative branch to relax on")
    lam_max = neg.max()
    rates = neg[neg >= lam_max * 10.0 ** (-RATE_DECADES)]
    lam_min = rates.min()

    t_end = 6.0 / lam_min
    t = np.linspace(0.0, t_end, RELAXATION_SAMPLES)
    # a block of rows at a time: each row reduces alone, so the blocks give
    # the same numbers as one RELAXATION_SAMPLES x rates array, without it
    x = np.concatenate([0.5 * np.exp(-np.outer(t[k:k + RELAXATION_BLOCK], rates)).mean(axis=1)
                        for k in range(0, t.size, RELAXATION_BLOCK)])
    relax = Trace(t0=0.0, dt=t[1] - t[0], names=("mean_w",), values=x[:, None])

    t_lo, t_hi = GAMMA_WINDOW[0] / lam_max, GAMMA_WINDOW[1] / lam_min
    msk = (t > t_lo) & (t <= t_hi) & (x > 0)
    if np.count_nonzero(msk) >= 8:
        gamma, _ = loglog_slope(t[msk], x[msk])
        fit_r2 = _log_resampled_r2(t, x, t_lo, t_hi)
    else:
        # no scaling regime (single relaxation scale): fit around the corner
        gamma, _ = loglog_slope(*_corner_window(t, x, lam_max, lam_min))
        fit_r2 = _log_resampled_r2(t, x, 0.3 / lam_max, 5.0 / lam_min)
    nyquist = 0.5 / relax.dt
    f_hi = min(lam_max * FIT_BAND[1] / (2.0 * np.pi), 0.999 * nyquist)
    slope = power_spectrum_exponent(relax, "mean_w", (lam_max / (2.0 * np.pi) / FIT_BAND[0], f_hi))
    return SocResult(
        gamma=float(gamma),
        spectrum_slope=float(slope),
        power_law=bool(fit_r2 >= 0.9),
        fit_r2=float(fit_r2),
        rates=rates,
        relaxation=relax,
        steady=run.steady,
        n_unstable=int(np.count_nonzero(lam > 1e-10)),
        stop_reason=run.stop_reason,
        clamped_fraction=float(np.mean((w_star <= 0.0) | (w_star >= 1.0))),
        steps=run.steps,
        rhs_calls=run.rhs_calls,
    )


def _corner_window(t, x, lam_max, lam_min):
    msk = (t > 0.3 / lam_max) & (t <= 5.0 / lam_min) & (x > 0)
    return t[msk], x[msk]


@dataclass(frozen=True)
class MazeSpec:
    """Rectangular grid maze: '#' wall, '.' open, 'S' entrance, 'E' exit."""

    rows: tuple[str, ...]
    entrance: tuple[int, int]
    exit: tuple[int, int]

    @classmethod
    def from_text(cls, text: str) -> "MazeSpec":
        rows = tuple(line for line in text.strip("\n").splitlines())
        if not rows or len(set(map(len, rows))) != 1:
            raise ValueError("maze rows must be non-empty and of equal width")
        entrance = exit_ = None
        for r, row in enumerate(rows):
            for c, ch in enumerate(row):
                if ch == "S":
                    entrance = (r, c)
                elif ch == "E":
                    exit_ = (r, c)
                elif ch not in ".#":
                    raise ValueError(f"invalid maze character {ch!r} at {(r, c)}")
        if entrance is None or exit_ is None:
            raise ValueError("maze needs exactly one 'S' and one 'E'")
        spec = cls(rows=rows, entrance=entrance, exit=exit_)
        if spec.entrance == spec.exit:
            raise ValueError("entrance and exit must differ")
        if bfs_shortest_path(spec) is None:
            raise ValueError("no path between entrance and exit")
        return spec

    def open_cells(self) -> list[tuple[int, int]]:
        return [
            (r, c)
            for r, row in enumerate(self.rows)
            for c, ch in enumerate(row)
            if ch in ".SE"
        ]

    def neighbors(self, cell: tuple[int, int]):
        r, c = cell
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < len(self.rows) and 0 <= cc < len(self.rows[0]) and self.rows[rr][cc] in ".SE":
                yield (rr, cc)


def _bfs_distances(m: MazeSpec, src: tuple[int, int]) -> dict[tuple[int, int], int]:
    dist = {src: 0}
    q = deque([src])
    while q:
        v = q.popleft()
        for u in m.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def bfs_shortest_path(m: MazeSpec) -> list[tuple[int, int]] | None:
    """One shortest entrance->exit path (the oracle side of the maze check)."""
    dist = _bfs_distances(m, m.entrance)
    if m.exit not in dist:
        return None
    path = [m.exit]
    v = m.exit
    while v != m.entrance:
        v = next(u for u in m.neighbors(v) if dist.get(u, -2) == dist[v] - 1)
        path.append(v)
    return list(reversed(path))


def shortest_route_edges(m: MazeSpec) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Every cell adjacency that lies on some shortest entrance->exit route.

    With L the route length and d_S, d_E the BFS distances from the entrance
    and the exit, the adjacency u-v lies on one iff d_S(u) + 1 + d_E(v) = L
    in one of its two orientations.  Pairs are sorted, as ``run_maze``
    compares them; tied routes contribute all their edges.
    """
    d_s = _bfs_distances(m, m.entrance)
    d_e = _bfs_distances(m, m.exit)
    length = d_s[m.exit]
    return {
        tuple(sorted((u, v)))
        for u in d_s
        for v in m.neighbors(u)
        if v in d_e and d_s[u] + 1 + d_e[v] == length
    }


def maze_to_circuit(
    m: MazeSpec, hp: HpParams, v_dc: float
) -> tuple[CircuitGraph, dict[tuple[int, int], int]]:
    """Memristive grid circuit for a maze, plus the cell -> node map.

    Each open cell reachable from the entrance is a node (walled-off pockets
    are dropped); each adjacency is a memristive edge oriented along
    increasing entrance-distance (matching the device polarity to the drive
    gradient); one pure DC source edge runs exit -> entrance.
    """
    dist = _bfs_distances(m, m.entrance)
    cells = sorted(dist.keys())
    index = {cell: k for k, cell in enumerate(cells)}
    if m.exit not in index:
        raise ValueError("no path between entrance and exit")
    edges = []
    seen = set()
    for cell in cells:
        for nb in m.neighbors(cell):
            if nb not in index:
                continue
            key = tuple(sorted((cell, nb)))
            if key in seen:
                continue
            seen.add(key)
            a, b = (cell, nb) if dist[cell] <= dist[nb] else (nb, cell)
            edges.append(Edge(index[a], index[b], "memristor", 0.0))
    edges.append(Edge(index[m.exit], index[m.entrance], "source", v_dc))
    return CircuitGraph(n_nodes=len(cells), edges=tuple(edges)), index


@dataclass(frozen=True)
class MazeResult:
    path: tuple[tuple[tuple[int, int], tuple[int, int]], ...]  # cell adjacencies
    contrast: float
    currents: np.ndarray
    run: NetworkRun


def solve_maze(
    m: MazeSpec,
    hp: HpParams,
    v_dc: float,
    spec: IntegratorSpec | None = None,
) -> MazeResult:
    """Self-organize the maze circuit under DC and read the route off its currents.

    Current in a passive network only flows downhill in potential, so the
    walk that leaves the entrance along the largest outgoing edge current,
    and repeats from each cell it reaches, ends at the exit without a
    threshold.  ``path`` lists the walked edges in edge-index order.
    Contrast is min(on-path |current|) / max(off-path |current|) (infinite
    when nothing flows off the path).  Raises AmbiguousPathError when a cell
    has no forward current (v_dc <= 0 drives none) or the walk takes more
    steps than there are edges.  The relaxation is ``simulate_network`` under
    ``spec``, by default bs3 with rows every 0.1 up to t = 100, ending at the
    row after the steady stop; the currents are solved at that last row, a
    stepped state.
    """
    if spec is None:
        spec = IntegratorSpec(method="bs3", dt=0.1, t_end=100.0)
    g, index = maze_to_circuit(m, hp, v_dc)
    s = source_vector(g, hp)
    run = simulate_network(g, s, hp, spec, w0=0.5)
    n_e = run.system.n_edges
    w_final = run.trace.values[-1]
    cur = edge_currents(w_final, s, run.system, hp)
    mem_edges = g.memristive_edges
    inv = {v: k for k, v in index.items()}
    # (current leaving the node along edge k, k, the node at its other end)
    outgoing: dict[int, list[tuple[float, int, int]]] = {}
    for k, e in enumerate(mem_edges):
        outgoing.setdefault(e.tail, []).append((cur[k], k, e.head))
        outgoing.setdefault(e.head, []).append((-cur[k], k, e.tail))
    walk: list[int] = []
    node = index[m.entrance]
    while node != index[m.exit]:
        flow, k, nxt = max(outgoing[node], key=lambda x: x[0])
        if flow <= 0 or len(walk) == n_e:
            raise AmbiguousPathError(f"no forward current leads from cell {inv[node]} to the exit "
                                     f"(largest {flow:.3g} A, {len(walk)} steps walked)", currents=cur)
        walk.append(k)
        node = nxt
    mags = np.abs(cur)
    on = np.isin(np.arange(n_e), walk)
    off_max = mags[~on].max(initial=0.0)
    contrast = float(mags[on].min() / off_max) if off_max > 0 else float("inf")
    path = tuple((inv[mem_edges[k].tail], inv[mem_edges[k].head]) for k in sorted(walk))
    return MazeResult(path=path, contrast=contrast, currents=cur, run=run)
