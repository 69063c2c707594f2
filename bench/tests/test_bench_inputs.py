import numpy as np
import pytest

import inputs
from memsim.network import MazeSpec, bfs_shortest_path, cycle_projector


@pytest.mark.parametrize("seed", range(6))
def test_generated_mazes_have_one_shortest_route_and_loops(seed):
    rng = np.random.default_rng(seed)
    text = inputs.unique_route_maze(rng, 4, 4, 3)
    count, route, n_adj = inputs.shortest_routes(text)
    assert count == 1
    assert n_adj == 36
    maze = MazeSpec.from_text(text)
    assert len(maze.open_cells()) < n_adj  # more edges than a tree: the maze has cycles
    assert route == bfs_shortest_path(maze)


def test_generator_is_seeded():
    a = inputs.unique_route_maze(np.random.default_rng(3), 4, 4, 3)
    b = inputs.unique_route_maze(np.random.default_rng(3), 4, 4, 3)
    assert a == b


def test_path_count_sees_ties():
    # two routes of 8 steps around each pillar pair: tied, so never generated
    count, _, _ = inputs.shortest_routes("S....\n.#.#.\n.....\n.#.#.\n....E\n")
    assert count > 1
    assert inputs.shortest_routes("S..\n.#.\n..E\n")[0] == 2
    assert inputs.shortest_routes("S..\n##.\n..E\n")[0] == 1


def test_soc_graph_seed_fixes_the_edge_count():
    assert inputs.soc_graph_seed(0) == 0
    cand = inputs.soc_graph_seed(3)
    assert cand >= 3000
    assert len(inputs.soc_graph(cand).edges) == 233


def test_reservoir_graph_is_connected_with_exact_edges():
    g = inputs.reservoir_graph(np.random.default_rng(1), 12, 24)
    assert len(g.edges) == 24
    assert len({tuple(sorted((e.tail, e.head))) for e in g.edges}) == 24
    omega = cycle_projector(g)  # raises on a disconnected graph
    assert round(np.trace(omega)) == 24 - 12 + 1


def test_orientations_are_the_same_maze():
    base = inputs.unique_route_maze(np.random.default_rng(7), 5, 7, 2)
    count, route, n_adj = inputs.shortest_routes(base)
    texts = {inputs.orient_maze(base, v) for v in range(8)}
    assert len(texts) == 8
    for text in texts:
        c, r, n = inputs.shortest_routes(text)
        assert (c, len(r), n) == (count, len(route), n_adj)
