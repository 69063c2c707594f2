"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` (or a seed) and is
deterministic: the same seed gives the same inputs.  Nothing here runs an
experiment; the program only ever sees the generated files and arrays.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from memsim.network import CircuitGraph, Edge, random_network
from memsim.presets import NETWORK_SOC

_STEPS = ((0, 1), (1, 0), (0, -1), (-1, 0))


def carve_maze(rng: np.random.Generator, rooms_r: int, rooms_c: int, loops: int) -> str:
    """Maze text on a (2r-1) x (2c-1) grid with 'S' top-left and 'E' bottom-right.

    Rooms sit at even coordinates.  A randomized depth-first search opens a
    spanning tree of corridors between rooms (a perfect maze); ``loops``
    further walls between rooms are then opened, each adding one cycle.
    """
    h, w = 2 * rooms_r - 1, 2 * rooms_c - 1
    grid = [["#"] * w for _ in range(h)]
    for i in range(rooms_r):
        for j in range(rooms_c):
            grid[2 * i][2 * j] = "."
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        i, j = stack[-1]
        nbrs = [(i + di, j + dj) for di, dj in _STEPS
                if 0 <= i + di < rooms_r and 0 <= j + dj < rooms_c and (i + di, j + dj) not in seen]
        if not nbrs:
            stack.pop()
            continue
        ni, nj = nbrs[rng.integers(len(nbrs))]
        grid[i + ni][j + nj] = "."  # the wall cell between rooms (2i,2j) and (2ni,2nj)
        seen.add((ni, nj))
        stack.append((ni, nj))
    walls = [(r, c) for r in range(h) for c in range(w) if grid[r][c] == "#" and r % 2 != c % 2]
    for k in rng.permutation(len(walls))[:loops]:
        r, c = walls[k]
        grid[r][c] = "."
    grid[0][0] = "S"
    grid[h - 1][w - 1] = "E"
    return "\n".join("".join(row) for row in grid) + "\n"


def shortest_routes(text: str) -> tuple[int, list[tuple[int, int]], int]:
    """Path-counting BFS over a maze text.

    Returns (number of shortest S->E routes, one shortest route as a cell
    list, number of open-cell adjacencies reachable from S).  The route is
    the unique one when the count is 1.
    """
    rows = text.strip("\n").splitlines()
    cells = {(r, c): ch for r, row in enumerate(rows) for c, ch in enumerate(row) if ch != "#"}
    start = next(p for p, ch in cells.items() if ch == "S")
    goal = next(p for p, ch in cells.items() if ch == "E")
    dist = {start: 0}
    count = {start: 1}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for dr, dc in _STEPS:
            u = (v[0] + dr, v[1] + dc)
            if u not in cells:
                continue
            if u not in dist:
                dist[u] = dist[v] + 1
                count[u] = 0
                queue.append(u)
            if dist[u] == dist[v] + 1:
                count[u] += count[v]
    if goal not in dist:
        return 0, [], 0
    route = [goal]
    while route[-1] != start:
        v = route[-1]
        route.append(next(u for u in ((v[0] + dr, v[1] + dc) for dr, dc in _STEPS)
                          if dist.get(u, -2) == dist[v] - 1))
    n_adj = sum(1 for (r, c) in dist for dr, dc in ((0, 1), (1, 0)) if (r + dr, c + dc) in dist)
    return count[goal], route[::-1], n_adj


def unique_route_maze(rng: np.random.Generator, rooms_r: int, rooms_c: int, loops: int,
                      max_tries: int = 1000) -> str:
    """Draw mazes until one has exactly one shortest route (tied mazes are skipped)."""
    for _ in range(max_tries):
        text = carve_maze(rng, rooms_r, rooms_c, loops)
        if shortest_routes(text)[0] == 1:
            return text
    raise RuntimeError(f"no unique-route {rooms_r}x{rooms_c} maze with {loops} loops "
                       f"in {max_tries} draws")


def orient_maze(text: str, variant: int) -> str:
    """The maze under one of the 8 symmetries of the square (``variant`` 0-7).

    Bits 0-1 rotate by multiples of 90 degrees and bit 2 transposes.  Every
    orientation is the same circuit with its nodes and edges relabelled, so
    it takes the same number of steps to steady state.  (Swapping S and E
    is not a symmetry: it re-orients the memristors and can double that
    number.)
    """
    grid = np.rot90(np.array([list(row) for row in text.strip("\n").splitlines()]), variant % 4)
    if variant & 4:
        grid = grid.T
    return "\n".join("".join(row) for row in grid) + "\n"


def soc_graph_seed(seed: int, n_edges: int = 233) -> int:
    """The first CLI seed at or after ``1000 * seed`` whose soc-n100 graph has ``n_edges`` edges.

    ``memsim network-soc --seed k`` draws its graph with
    ``random_network(default_rng(k), ...)`` from the soc-n100 preset.  Fixing
    the edge count fixes the size of every linear solve, so different
    workload seeds vary the graph's structure but not the work per step.
    About one candidate in 40 qualifies.
    """
    return next(cand for cand in itertools.count(1000 * seed)
                if len(soc_graph(cand).edges) == n_edges)


def soc_graph(cli_seed: int) -> CircuitGraph:
    """The graph ``memsim network-soc --seed cli_seed`` builds."""
    p = NETWORK_SOC
    return random_network(np.random.default_rng(cli_seed), n_nodes=int(p["n_nodes"]),
                          edge_prob=p["edge_prob"], n_sources=int(p["n_sources"]),
                          source_volts=p["source_volts"])


def reservoir_graph(rng: np.random.Generator, n_nodes: int, n_edges: int) -> CircuitGraph:
    """Connected memristive graph with exactly ``n_edges`` distinct edges and no EMFs.

    A random spanning tree (each node after the first joins an earlier node
    of a random order) plus distinct random extra node pairs, each edge
    oriented at random.
    """
    if not n_nodes - 1 <= n_edges <= n_nodes * (n_nodes - 1) // 2:
        raise ValueError("edge count must lie between a tree and the complete graph")
    order = rng.permutation(n_nodes)
    pairs = {tuple(sorted((int(order[k]), int(order[rng.integers(k)])))) for k in range(1, n_nodes)}
    while len(pairs) < n_edges:
        a, b = (int(x) for x in rng.choice(n_nodes, size=2, replace=False))
        pairs.add((min(a, b), max(a, b)))
    edges = []
    for a, b in sorted(pairs):
        if rng.random() < 0.5:
            a, b = b, a
        edges.append(Edge(a, b, "memristor", 0.0))
    return CircuitGraph(n_nodes=n_nodes, edges=tuple(edges))
