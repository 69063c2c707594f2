import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import exp1

from memsim import network
from memsim.core import IntegratorSpec, Trace, loglog_slope, power_spectrum_exponent
from memsim.devices import HpParams, hp_resistance, hp_rhs
from memsim.network import (
    AmbiguousPathError,
    CORNER_WINDOW,
    CircuitGraph,
    DisconnectedGraphError,
    Edge,
    FIT_BAND,
    GAMMA_WINDOW,
    MazeSpec,
    RELAXATION_SAMPLES,
    STACK_BLOCK,
    SingularNetworkError,
    bfs_shortest_path,
    cycle_basis,
    cycle_projector,
    edge_currents,
    kirchhoff_system,
    linearize,
    maze_to_circuit,
    memnet_rhs,
    random_network,
    reduce_sources,
    shortest_route_edges,
    simulate_network,
    soc_experiment,
    solve_maze,
    source_vector,
)
from memsim.presets import MAZE, NETWORK_SOC

HP = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=100.0)
# the step policies of the soc-n100 and maze-demo presets, as the CLI passes them
SOC_SPEC = IntegratorSpec(method="bs3", dt=NETWORK_SOC["dt"], t_end=NETWORK_SOC["t_end"])
MAZE_SPEC = IntegratorSpec(method="bs3", dt=MAZE["dt"], t_end=MAZE["t_end"])
# the soc-n100 preset's graph fields, as the CLI passes them to random_network
SOC_GRAPH = {k: NETWORK_SOC[k] for k in ("n_nodes", "edge_prob", "n_sources", "source_volts")}

# 9 x 19, one shortest route: the size of the largest benchmark mazes
LONG_MAZE = ("S..#...#.....#...#.\n.#.###.#.#.#.#.#.#.\n.#.......#.#.#.#...\n.#.#.#.###.#.#.###.\n"
             ".#...#.....#.#...#.\n.#.#####.###.#.#.#.\n.#.#.........#.#.#.\n.#.###.###.#####.#.\n"
             ".......#.........#E")


def preset_graph(seed):
    """The CLI's soc-n100 graph at ``--seed seed``."""
    return random_network(np.random.default_rng(seed), **SOC_GRAPH)


def ring(n, emf_on_first=0.0):
    edges = [Edge(k, (k + 1) % n, "memristor", emf_on_first if k == 0 else 0.0)
             for k in range(n)]
    return CircuitGraph(n_nodes=n, edges=tuple(edges))


def random_connected(rng, n_nodes, p=0.15):
    while True:
        mask = rng.random((n_nodes, n_nodes)) < p
        edges = [Edge(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes) if mask[i, j]]
        g = CircuitGraph(n_nodes=n_nodes, edges=tuple(edges))
        try:
            cycle_projector(g)
            return g
        except DisconnectedGraphError:
            continue


def random_sourced(rng, n_nodes, p=0.3):
    """random_connected with a random series EMF on every edge."""
    g = random_connected(rng, n_nodes, p)
    emf = rng.normal(size=len(g.edges))
    return CircuitGraph(n_nodes=n_nodes, edges=tuple(
        Edge(e.tail, e.head, "memristor", float(v)) for e, v in zip(g.edges, emf)))


class TestCycleProjector:
    def test_spanning_tree_is_zero(self):
        g = CircuitGraph(n_nodes=4, edges=(Edge(0, 1), Edge(1, 2), Edge(1, 3)))
        assert np.allclose(cycle_projector(g), 0.0)

    def test_single_loop_uniform(self):
        for n in (3, 5, 8):
            omega = cycle_projector(ring(n))
            assert np.allclose(omega, np.full((n, n), 1.0 / n), atol=1e-12)

    def test_two_disjoint_loops_block_diagonal(self):
        # two triangles sharing no edge, joined by a bridge edge
        edges = (
            Edge(0, 1), Edge(1, 2), Edge(2, 0),      # loop 1
            Edge(3, 4), Edge(4, 5), Edge(5, 3),      # loop 2
            Edge(2, 3),                              # bridge (no cycle through it)
        )
        g = CircuitGraph(n_nodes=6, edges=edges)
        omega = cycle_projector(g)
        want = np.zeros((7, 7))
        # orientation: consistent loops -> |entries| = 1/3 within each block
        assert np.allclose(np.abs(omega[:3, :3]), 1.0 / 3.0, atol=1e-12)
        assert np.allclose(np.abs(omega[3:6, 3:6]), 1.0 / 3.0, atol=1e-12)
        assert np.allclose(omega[:3, 3:], 0.0, atol=1e-12)
        assert np.allclose(omega[6, :], 0.0, atol=1e-12)
        del want

    def test_invariants_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_nodes = int(rng.integers(4, 31))
            g = random_connected(rng, n_nodes)
            omega = cycle_projector(g)
            assert np.max(np.abs(omega - omega.T)) < 1e-10
            assert np.max(np.abs(omega @ omega - omega)) < 1e-10
            eig = np.linalg.eigvalsh(omega)
            assert np.all((np.abs(eig) < 1e-8) | (np.abs(eig - 1.0) < 1e-8))
            rank = int(round(np.trace(omega)))
            assert rank == len(g.edges) - n_nodes + 1

    def test_disconnected_raises(self):
        g = CircuitGraph(n_nodes=4, edges=(Edge(0, 1), Edge(2, 3)))
        with pytest.raises(DisconnectedGraphError):
            cycle_projector(g)

    def test_self_loop_is_unit_projector(self):
        g = CircuitGraph(n_nodes=1, edges=(Edge(0, 0),))
        assert np.allclose(cycle_projector(g), [[1.0]])


def contracted_incidence(g):
    """Node-edge incidence (-1 at the tail, +1 at the head) of the source-contracted graph."""
    n_nodes, edges, _ = reduce_sources(g)
    a = np.zeros((n_nodes, len(edges)))
    for k, (tail, head) in enumerate(edges):
        a[tail, k] -= 1.0
        a[head, k] += 1.0
    return a


class TestCycleBasis:
    def test_rows_are_independent_cycles(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n_nodes = int(rng.integers(2, 25))
            g = random_connected(rng, n_nodes, p=0.25)
            b = cycle_basis(g)
            assert b.shape == (len(g.edges) - n_nodes + 1, len(g.edges))
            assert np.linalg.matrix_rank(b) == b.shape[0]
            # every row is a closed walk: it has no net flow at any node
            assert np.all(contracted_incidence(g) @ b.T == 0.0)

    def test_tree_has_no_cycles(self):
        g = CircuitGraph(n_nodes=4, edges=(Edge(0, 1), Edge(1, 2), Edge(1, 3)))
        assert cycle_basis(g).shape == (0, 3)

    def test_self_loops_give_the_identity(self):
        # a memristor across a source contracts to a self-loop
        g = CircuitGraph(n_nodes=2, edges=(Edge(0, 1), Edge(0, 1), Edge(1, 0, "source", 1.0)))
        assert np.array_equal(cycle_basis(g), np.eye(2))
        assert np.allclose(cycle_projector(g), np.eye(2), atol=1e-15)


@st.composite
def sourced_graphs(draw):
    """Connected graphs: a random spanning tree (some of its edges pure
    sources), then parallel edges, self-loops and chords with series EMFs.

    Contracting the m memristive tree edges' sources leaves N - 1 = m node
    potentials, and each chord adds one cycle, so drawing at most m chords
    or more than m puts the graph on the mesh or the nodal side of
    ``kirchhoff_system``'s choice; both are drawn.
    """
    volts = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_nan=False))
    n_nodes = draw(st.integers(1, 8))
    edges = []
    for v in range(1, n_nodes):
        u = draw(st.integers(0, v - 1))
        tail, head = (u, v) if draw(st.booleans()) else (v, u)
        kind = draw(st.sampled_from(("memristor", "memristor", "source")))
        edges.append(Edge(tail, head, kind, draw(volts)))
    m = sum(e.kind == "memristor" for e in edges)
    n_chords = draw(st.one_of(st.integers(0, m), st.integers(m + 1, m + 12)))
    node = st.integers(0, n_nodes - 1)
    edges += [Edge(a, b, "memristor", v) for a, b, v in
              draw(st.lists(st.tuples(node, node, volts), min_size=n_chords, max_size=n_chords))]
    if not any(e.kind == "memristor" for e in edges):
        edges.append(Edge(0, 0, "memristor", draw(volts)))
    return CircuitGraph(n_nodes=n_nodes, edges=tuple(edges))


class TestMeshCurrents:
    @settings(max_examples=300, deadline=None)
    @given(g=sourced_graphs(), data=st.data())
    def test_mesh_form_equals_projector_form_and_obeys_kirchhoff(self, g, data):
        # both forms of kirchhoff_system: nodal when N - 1 < C, mesh otherwise
        r_off = data.draw(st.floats(1.0, 200.0), label="r_off")
        hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=r_off)
        b = cycle_basis(g)
        n_e = b.shape[1]
        system = kirchhoff_system(g)
        n_potentials = reduce_sources(g)[0] - 1
        assert system.form == ("nodal" if n_potentials < b.shape[0] else "mesh")
        event(system.form)
        w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_e, max_size=n_e), label="w"))
        n_cols = data.draw(st.sampled_from((0, 1, 3)), label="columns of s")
        if n_cols == 0:
            s = source_vector(g, hp)
        else:
            s = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).normal(
                size=(n_e, n_cols))
        i_mesh = edge_currents(w, s, system, hp)
        i_proj = edge_currents(w, s, cycle_projector(g), hp)
        assert i_mesh.shape == i_proj.shape == s.shape
        # the currents are bounded by the source (|i| <= |S| in the 2-norm, as
        # every resistance is at least r_on): measure both errors against it
        scale = max(np.max(np.abs(s), initial=0.0), np.max(np.abs(i_proj), initial=0.0), 1e-300)
        assert np.max(np.abs(i_mesh - i_proj), initial=0.0) <= 1e-12 * scale
        # nodal KCL on the contracted graph, and KVL (r_on (1 + chi w) i = sigma
        # around every cycle): together they fix the currents
        assert np.max(np.abs(contracted_incidence(g) @ i_mesh), initial=0.0) <= 1e-12 * scale
        drop = (1.0 + hp.xi * w).reshape((-1,) + (1,) * (s.ndim - 1)) * i_mesh
        assert np.max(np.abs(b @ (drop - s)), initial=0.0) <= 1e-12 * scale * max(1.0, hp.xi)

    def test_tree_carries_no_current(self):
        g = CircuitGraph(n_nodes=3, edges=(Edge(0, 1, "memristor", 2.0), Edge(1, 2, "memristor", -1.0)))
        system = kirchhoff_system(g)
        assert system.form == "mesh" and system.operator.shape == (0, 2)
        assert np.array_equal(edge_currents(np.full(2, 0.5), source_vector(g, HP), system, HP), np.zeros(2))
        assert np.array_equal(edge_currents(np.full(2, 0.5), np.ones((2, 3)), system, HP), np.zeros((2, 3)))

    def test_single_loop_is_ohms_law(self):
        g = ring(4, emf_on_first=3.0)
        w = np.array([0.1, 0.4, 0.7, 1.0])
        i = edge_currents(w, source_vector(g, HP), kirchhoff_system(g), HP)
        want = 3.0 / (HP.r_on * np.sum(1.0 + HP.xi * w))
        assert np.allclose(i, want, rtol=1e-14, atol=0.0)

    def test_singular_mesh_raises(self):
        # chi = 3: the loop resistance 2 + chi (w0 + w1) is exactly zero at w = -1/3
        hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=4.0)
        g = ring(2, emf_on_first=1.0)
        system = kirchhoff_system(g)
        assert system.form == "mesh"
        with pytest.raises(SingularNetworkError):
            edge_currents(np.full(2, -1.0 / 3.0), source_vector(g, hp), system, hp)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_nodal_raises(self):
        # three parallel edges: one node potential, two cycles.  Nodal form
        # divides by each resistance 1 + chi w, so a zero, a negative or a
        # non-finite one is refused, and so are non-finite currents
        hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=4.0)
        g = CircuitGraph(n_nodes=2, edges=(Edge(0, 1, "memristor", 1.0), Edge(0, 1), Edge(0, 1)))
        system = kirchhoff_system(g)
        assert system.form == "nodal"
        s = source_vector(g, hp)
        assert np.all(np.isfinite(edge_currents(np.full(3, 0.5), s, system, hp)))
        for w0 in (-1.0 / 3.0, -0.5, np.nan):
            w = np.array([0.5, w0, 0.5])
            with pytest.raises(SingularNetworkError):
                edge_currents(w, s, system, hp)
            with pytest.raises(SingularNetworkError):
                edge_currents(w, np.eye(3), system, hp)
        with pytest.raises(SingularNetworkError):
            edge_currents(np.full(3, 0.5), np.array([np.inf, 0.0, 0.0]), system, hp)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_positive_resistance_raises_in_mesh_form(self):
        # a ring 0-1-2-3 with a chord 0-2: three node potentials, two cycles.
        # At chi = 99, w = -1/2 makes one resistance -48.5 r_on, which the mesh
        # form solved without complaint (rk4 stage states are not clamped)
        hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=100.0)
        g = CircuitGraph(n_nodes=4, edges=(Edge(0, 1, "memristor", 1.0), Edge(1, 2), Edge(2, 3),
                                           Edge(3, 0), Edge(0, 2)))
        system = kirchhoff_system(g)
        assert system.form == "mesh"
        s = source_vector(g, hp)
        assert np.all(np.isfinite(edge_currents(np.full(5, 0.5), s, system, hp)))
        for w1 in (-0.5, -1.0 / 99.0, np.nan):
            w = np.array([0.5, w1, 0.5, 0.5, 0.5])
            with pytest.raises(SingularNetworkError, match="resistance"):
                edge_currents(w, s, system, hp)
            with pytest.raises(SingularNetworkError, match="resistance"):
                edge_currents(np.vstack([np.full(5, 0.5), w]), np.vstack([s, s]), system, hp)

    def test_projector_must_be_square(self):
        # a cycle matrix is not taken for the projector
        g = ring(3, emf_on_first=1.0)
        with pytest.raises(ValueError, match="projector"):
            edge_currents(np.full(3, 0.5), source_vector(g, HP), cycle_basis(g), HP)


class TestKirchhoffSystem:
    def test_scattered_matrix_equals_dense_product(self):
        rng = np.random.default_rng(11)
        forms = set()
        for _ in range(40):
            g = random_connected(rng, int(rng.integers(2, 20)), p=float(rng.uniform(0.1, 0.6)))
            system = kirchhoff_system(g)
            forms.add(system.form)
            op = system.operator
            want = cycle_basis(g) if system.form == "mesh" else contracted_incidence(g)[1:]
            assert np.array_equal(op, want)
            x = rng.uniform(0.5, 100.0, op.shape[1])
            dense = (op * x[None, :]) @ op.T
            assert np.allclose(system.matrix(x), dense, rtol=1e-14, atol=0.0)
        assert forms == {"nodal", "mesh"}

    def test_form_follows_the_smaller_system(self):
        # the soc-n100 preset graph (seed 0): N - 1 = 99 potentials, C = 134 cycles
        g = preset_graph(0)
        system = kirchhoff_system(g)
        assert system.form == "nodal" and system.operator.shape == (99, 233)
        # a benchmark-sized maze: a few cycles among ~100 cells
        m = MazeSpec.from_text(LONG_MAZE)
        g, _ = maze_to_circuit(m, HpParams(alpha=0.1, beta=1.0, r_on=1.0, r_off=100.0), 100.0)
        system = kirchhoff_system(g)
        assert system.form == "mesh"
        assert system.operator.shape[0] < reduce_sources(g)[0] - 1

    def test_disconnected_graph_raises(self):
        g = CircuitGraph(n_nodes=4, edges=(Edge(0, 1), Edge(1, 0), Edge(2, 3), Edge(3, 2)))
        with pytest.raises(DisconnectedGraphError):
            kirchhoff_system(g)


class TestStackedCurrents:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 14), p=st.floats(0.1, 0.7),
           n_rows=st.integers(1, 40), r_off=st.floats(1.0, 200.0))
    def test_stack_equals_one_call_per_row(self, seed, n_nodes, p, n_rows, r_off):
        rng = np.random.default_rng(seed)
        g = random_connected(rng, n_nodes, p)
        system = kirchhoff_system(g)
        event(system.form)
        hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=r_off)
        w = rng.uniform(0.0, 1.0, (n_rows, system.n_edges))
        s = rng.normal(size=w.shape)
        stacked = edge_currents(w, s, system, hp)
        rows = np.array([edge_currents(wk, sk, system, hp) for wk, sk in zip(w, s)])
        assert stacked.shape == w.shape
        assert np.max(np.abs(stacked - rows)) <= 1e-13 * max(np.max(np.abs(rows)), 1e-300)

    @pytest.mark.parametrize("p", [0.15, 0.6])
    def test_rows_past_one_block(self, p):
        rng = np.random.default_rng(4)
        system = kirchhoff_system(random_connected(rng, 10, p))
        w = rng.uniform(0.0, 1.0, (2 * STACK_BLOCK + 3, system.n_edges))
        s = rng.normal(size=w.shape)
        stacked = edge_currents(w, s, system, HP)
        for k in (0, STACK_BLOCK - 1, STACK_BLOCK, 2 * STACK_BLOCK, len(w) - 1):
            want = edge_currents(w[k], s[k], system, HP)
            assert np.max(np.abs(stacked[k] - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [0.15, 0.6])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_one_non_finite_source_row_raises(self, p, bad):
        rng = np.random.default_rng(5)
        system = kirchhoff_system(random_connected(rng, 10, p))
        w = np.full((STACK_BLOCK + 7, system.n_edges), 0.5)
        s = rng.normal(size=w.shape)
        s[STACK_BLOCK + 2, 1] = bad
        with pytest.raises(SingularNetworkError, match="source"):
            edge_currents(w, s, system, HP)

    def test_source_stack_must_match_the_states(self):
        rng = np.random.default_rng(6)
        g = random_connected(rng, 8, 0.3)
        system = kirchhoff_system(g)
        w = np.full((3, system.n_edges), 0.5)
        with pytest.raises(ValueError, match="shape"):
            edge_currents(w, np.ones(system.n_edges), system, HP)
        with pytest.raises(ValueError, match="one state"):
            edge_currents(w, np.ones(w.shape), cycle_projector(g), HP)


class TestCurrentsWidth:
    # a ring 0-1-2-3 with a chord 0-2 takes mesh form (C = 2 < N - 1 = 3); the
    # complete graph on five nodes takes nodal form (N - 1 = 4 < C = 6)
    GRAPHS = {
        "mesh": CircuitGraph(n_nodes=4, edges=(Edge(0, 1, "memristor", 1.0), Edge(1, 2), Edge(2, 3),
                                               Edge(3, 0), Edge(0, 2))),
        "nodal": CircuitGraph(n_nodes=5, edges=tuple(Edge(a, b, "memristor", float(a == 0))
                                                     for a in range(5) for b in range(a + 1, 5))),
    }

    @pytest.mark.parametrize("form", ["mesh", "nodal"])
    def test_wrong_width_refused(self, form):
        g = self.GRAPHS[form]
        system = kirchhoff_system(g)
        assert system.form == form
        s = source_vector(g, HP)
        n_e = s.size
        w = np.full(n_e, 0.5)
        longer = np.r_[w, 0.7, 0.3]
        cases = [
            (longer, s),                                        # 1-D w too long
            (w[:-1], s),                                        # 1-D w too short
            (w, np.r_[s, 1.0]),                                 # 1-D s too long
            (longer, np.eye(n_e)),                              # E x k sources, w too long
            (w, np.eye(n_e + 1)),                               # E x k sources too tall
            (np.vstack([longer, longer]), np.vstack([longer, longer])),  # stack too wide
            (np.vstack([w, w]), np.vstack([longer, longer])),   # source stack too wide
            (longer, np.full(n_e, np.nan)),                     # refused before the source check
        ]
        for w_bad, s_bad in cases:
            with pytest.raises(ValueError, match=f"E = {n_e}"):
                edge_currents(w_bad, s_bad, system, HP)
        # the right widths still solve, in each calling form
        one = edge_currents(w, s, system, HP)
        assert np.array_equal(edge_currents(w, s[:, None], system, HP)[:, 0], one)
        assert np.max(np.abs(edge_currents(np.vstack([w, w]), np.vstack([s, s]), system, HP)[1] - one)) \
            <= 1e-13 * np.max(np.abs(one))


class TestSourceReduction:
    def test_memristor_source_loop(self):
        # one memristor 0->1 plus a source edge 1->0 with EMF V:
        # contraction leaves a self-loop with series EMF +V
        g = CircuitGraph(n_nodes=2, edges=(Edge(0, 1), Edge(1, 0, "source", 2.5)))
        n_nodes, edges, emf = reduce_sources(g)
        assert n_nodes == 1
        assert edges[0][0] == edges[0][1]
        assert emf[0] == pytest.approx(2.5)
        assert np.allclose(cycle_projector(g), [[1.0]])

    def test_source_chain(self):
        # two sources in series around a loop add up
        g = CircuitGraph(
            n_nodes=3,
            edges=(Edge(0, 1), Edge(1, 2, "source", 1.0), Edge(2, 0, "source", 0.5)),
        )
        _, _, emf = reduce_sources(g)
        assert emf[0] == pytest.approx(1.5)

    def test_inconsistent_source_loop_raises(self):
        g = CircuitGraph(
            n_nodes=2,
            edges=(Edge(0, 1, "source", 1.0), Edge(0, 1, "source", 2.0)),
        )
        with pytest.raises(ValueError, match="inconsistent"):
            reduce_sources(g)

    def test_series_emf_passthrough(self):
        g = ring(3, emf_on_first=4.0)
        _, _, emf = reduce_sources(g)
        assert emf[0] == pytest.approx(4.0)
        assert emf[1] == emf[2] == 0.0


class TestMemnetReduction:
    def test_single_edge_reduces_to_device_equation(self):
        v = 3.0
        g = CircuitGraph(n_nodes=2, edges=(Edge(0, 1), Edge(1, 0, "source", v)))
        omega = cycle_projector(g)
        s = source_vector(g, HP)
        assert s[0] == pytest.approx(v / HP.r_on)
        chi = HP.xi
        for w in (0.0, 0.21, 0.5, 0.99):
            got = memnet_rhs(np.array([w]), s, omega, HP)[0]
            want = HP.alpha * w - s[0] / (HP.beta * (1.0 + chi * w))
            assert abs(got - want) < 1e-12
            # and against the device law with I = V/R(w)
            i_dev = v / hp_resistance(w, HP)
            assert abs(got - hp_rhs(w, i_dev, HP)) < 1e-12

    def test_zero_source_zero_motion(self):
        g = ring(4)
        omega = cycle_projector(g)
        s = np.zeros(4)
        dw = memnet_rhs(np.full(4, 0.3), s, omega, HP)
        assert np.all(dw == 0.0)

    def test_chi_zero_is_linear(self):
        hp = HpParams(alpha=0.0, beta=2.0, r_on=5.0, r_off=5.0)
        g = ring(3, emf_on_first=1.0)
        omega = cycle_projector(g)
        s = source_vector(g, hp)
        for w0 in (0.1, 0.9):
            dw = memnet_rhs(np.full(3, w0), s, omega, hp)
            assert np.allclose(dw, -(omega @ s) / hp.beta, atol=1e-14)


class TestSimulateNetwork:
    method = None  # None: each test's own fixed-step method

    def spec(self, method, dt, t_end):
        return IntegratorSpec(method=self.method or method, dt=dt, t_end=t_end)

    def test_clamp_invariant(self):
        rng = np.random.default_rng(5)
        g = random_connected(rng, 12, p=0.3)
        edges = list(g.edges)
        edges[0] = Edge(edges[0].tail, edges[0].head, "memristor", 5.0)
        g = CircuitGraph(n_nodes=g.n_nodes, edges=tuple(edges))
        hp = HpParams(alpha=0.3, beta=0.1, r_on=1.0, r_off=50.0)
        run = simulate_network(g, None, hp, self.spec("euler", 0.01, 20.0))
        for name in run.trace.names:
            assert run.trace[name].min() >= 0.0
            assert run.trace[name].max() <= 1.0

    def test_dc_drive_reaches_steady_state(self):
        rng = np.random.default_rng(1)
        g = random_connected(rng, 15, p=0.25)
        edges = list(g.edges)
        edges[0] = Edge(edges[0].tail, edges[0].head, "memristor", 20.0)
        g = CircuitGraph(n_nodes=g.n_nodes, edges=tuple(edges))
        hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=10.0)
        run = simulate_network(g, None, hp, self.spec("euler", 0.02, 400.0))
        assert run.steady
        assert run.stop_reason == "steady"
        assert 0 < run.steps < run.rhs_calls

    def test_zero_drive_volatility_growth(self):
        # w0 e^{alpha t} up to the clamp: within 1e-8 for rk4 at dt 1e-3 and
        # 5e-6 for bs3 at its tolerances (1.6e-6 seen, also in the rows of the
        # step that crosses the bound)
        hp = HpParams(alpha=0.5, beta=1.0, r_on=1.0, r_off=100.0)
        g = ring(3)
        spec = self.spec("rk4", 1e-3, 6.0)
        run = simulate_network(g, np.zeros(3), hp, spec, w0=0.1)
        t = run.trace.times
        grow = 0.1 * np.exp(hp.alpha * t)
        pre_clamp = grow < 1.0
        rtol = {"rk4": 1e-8, "bs3": 5e-6}[spec.method]
        assert np.allclose(run.trace["w0"][pre_clamp], grow[pre_clamp], rtol=rtol)
        assert run.trace["w0"][-1] == 1.0

    def test_symmetric_graph_symmetric_orbits(self):
        # two parallel memristive branches across the same source edge
        g = CircuitGraph(
            n_nodes=2,
            edges=(Edge(0, 1), Edge(0, 1), Edge(1, 0, "source", 1.5)),
        )
        run = simulate_network(g, None, HP, self.spec("rk4", 1e-3, 1.0))
        assert np.max(np.abs(run.trace["w0"] - run.trace["w1"])) < 1e-12

    def test_trace_columns_are_the_memories(self):
        g = random_sourced(np.random.default_rng(3), 10)
        run = simulate_network(g, None, HP, self.spec("rk4", 0.05, 20.0))
        n_e = run.system.n_edges
        assert run.trace.names == tuple(f"w{i}" for i in range(n_e))
        assert run.trace.values.shape == (run.trace.n_samples, n_e)
        assert np.shares_memory(run.trace["w3"], run.trace.values)


class TestSimulateNetworkBs3(TestSimulateNetwork):
    method = "bs3"


def test_bs3_matches_dop853_on_unclamped_networks():
    # volatile growth against a drive that keeps every memory inside (0, 1):
    # no clamp acts, so the rows must follow the exact flow.  Seen: at most
    # 2.5e-7 from DOP853 at rtol = atol = 1e-12; the bound is 2e-6.
    from scipy.integrate import solve_ivp

    hp = HpParams(alpha=0.05, beta=5.0, r_on=1.0, r_off=50.0)
    spec = IntegratorSpec(method="bs3", dt=0.1, t_end=10.0)
    forms = set()
    for seed, n_nodes in ((0, 8), (1, 8), (0, 14), (1, 14)):
        g = random_sourced(np.random.default_rng(seed), n_nodes)
        run = simulate_network(g, None, hp, spec)
        system = kirchhoff_system(g)
        forms.add(system.form)
        s = source_vector(g, hp)
        w = run.trace.values.T
        assert w.shape == (system.n_edges, spec.n_steps + 1)
        ref = solve_ivp(lambda t, y: memnet_rhs(y, s, system, hp), (0.0, spec.t_end), w[:, 0],
                        method="DOP853", t_eval=run.trace.times, rtol=1e-12, atol=1e-12).y
        assert 0.0 < ref.min() and ref.max() < 1.0
        assert np.max(np.abs(w - ref)) < 2e-6
    assert forms == {"mesh", "nodal"}


def test_bs3_log_times_follow_the_exact_flow():
    # the Hermite rows at log-spaced times on unclamped networks, against
    # DOP853 at rtol = atol = 1e-12.  Seen: at most 2.5e-7, as on the
    # uniform grid; the bound is 2e-6, 20 BS3_RTOL.
    from scipy.integrate import solve_ivp

    hp = HpParams(alpha=0.05, beta=5.0, r_on=1.0, r_off=50.0)
    spec = IntegratorSpec(method="bs3", dt=0.1, t_end=10.0)
    times = np.geomspace(1e-3, 10.0, 61)
    for seed, n_nodes in ((0, 8), (1, 8), (0, 14), (1, 14)):
        g = random_sourced(np.random.default_rng(seed), n_nodes)
        run = simulate_network(g, None, hp, spec, times=times)
        system = kirchhoff_system(g)
        s = source_vector(g, hp)
        assert np.array_equal(run.trace.times, np.concatenate([[0.0], times]))
        w = run.trace.values.T
        ref = solve_ivp(lambda t, y: memnet_rhs(y, s, system, hp), (0.0, spec.t_end), w[:, 0],
                        method="DOP853", t_eval=run.trace.times, rtol=1e-12, atol=1e-12).y
        assert 0.0 < ref.min() and ref.max() < 1.0
        assert np.max(np.abs(w - ref)) < 2e-6


class TestLinearize:
    def test_chi_zero_alpha_zero_is_zero(self):
        hp = HpParams(alpha=0.0, beta=1.0, r_on=2.0, r_off=2.0)
        g = ring(3, emf_on_first=1.0)
        omega = cycle_projector(g)
        s = source_vector(g, hp)
        a = linearize(s, omega, hp, np.full(3, 0.4))
        assert np.max(np.abs(a)) < 1e-9

    def test_single_loop_hand_derivative(self):
        v = 2.0
        g = CircuitGraph(n_nodes=2, edges=(Edge(0, 1), Edge(1, 0, "source", v)))
        omega = cycle_projector(g)
        hp = HpParams(alpha=0.2, beta=1.5, r_on=1.0, r_off=30.0)
        s = source_vector(g, hp)
        chi = hp.xi
        w = 0.37
        a = linearize(s, omega, hp, np.array([w]))
        want = hp.alpha + chi * s[0] / (hp.beta * (1.0 + chi * w) ** 2)
        assert a[0, 0] == pytest.approx(want, rel=1e-12)

    def test_matches_central_differences(self):
        h = 1e-6
        forms = set()
        for seed in range(24):
            rng = np.random.default_rng(seed)
            g = random_sourced(rng, int(rng.integers(5, 13)))
            hp = HpParams(alpha=(0.0, 0.1)[seed % 2], beta=0.5 + rng.random(), r_on=1.0,
                          r_off=100.0, polarity=(1, -1)[seed // 2 % 2])
            omega = cycle_projector(g)
            s = source_vector(g, hp)
            n_e = omega.shape[0]
            w = rng.uniform(0.05, 0.95, n_e)
            fd = np.empty((n_e, n_e))
            for j in range(n_e):
                dw = np.zeros(n_e)
                dw[j] = h
                fd[:, j] = (memnet_rhs(w + dw, s, omega, hp) - memnet_rhs(w - dw, s, omega, hp)) / (2 * h)
            # the exact Jacobian through the projector and the Kirchhoff system
            system = kirchhoff_system(g)
            forms.add(system.form)
            for cycles in (omega, system):
                a = linearize(s, cycles, hp, w)
                assert np.max(np.abs(a - fd)) <= 1e-6 * np.max(np.abs(a)), seed
        assert forms == {"nodal", "mesh"}

    def test_null_space_at_alpha_zero(self):
        # J = (chi/beta) M^{-1} Omega diag(i) has rank at most rank(Omega) = C,
        # so at least E - C eigenvalues vanish to rounding.  The graphs are
        # dense enough to have no block that is a lone cycle: on one with as
        # many edges oriented each way, sum(i) = 0 and the zero eigenvalue is
        # defective, so rounding moves it to ~sqrt(eps).
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = random_sourced(rng, 12, p=0.5)
            omega = cycle_projector(g)
            n_e = omega.shape[0]
            n_cycles = np.linalg.matrix_rank(omega)
            w = rng.uniform(0.05, 0.95, n_e)
            system = kirchhoff_system(g)
            assert system.form == "nodal"
            for cycles in (omega, system):
                a = linearize(source_vector(g, HP), cycles, HP, w)
                lam = np.abs(np.linalg.eigvals(a))
                assert np.count_nonzero(lam <= 1e-11 * lam.max()) >= n_e - n_cycles, seed

    def test_singular_network_raises(self):
        # chi = 4, so M = 1 + chi w is exactly zero at w = -1/4
        hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=5.0)
        g = CircuitGraph(n_nodes=2, edges=(Edge(0, 1), Edge(1, 0, "source", 1.0)))
        with pytest.raises(SingularNetworkError):
            linearize(source_vector(g, hp), cycle_projector(g), hp, np.array([-0.25]))


def mean_relaxation(a: np.ndarray, w0, ts) -> np.ndarray:
    """<w(t)> = (1/N) tr(e^{At} W0), W0 = diag(w0), through the eigendecomposition of A.

    The average relaxation of Caravelli, Traversa & Di Ventra (PRE 95, 022140,
    2017): the reference that ``soc_experiment``'s relaxation is checked against.
    """
    a = np.asarray(a, dtype=float)
    lam, q = np.linalg.eig(a)
    d = np.diagonal(np.linalg.solve(q, np.diag(np.asarray(w0, dtype=float)) @ q))
    return np.array([np.sum(np.exp(lam * t) * d) for t in np.asarray(ts, dtype=float)]).real / a.shape[0]


class TestMeanRelaxation:
    def test_zero_matrix_constant(self):
        w0 = np.array([0.2, 0.4, 0.9])
        ts = np.linspace(0, 5, 7)
        out = mean_relaxation(np.zeros((3, 3)), w0, ts)
        assert np.allclose(out, w0.mean(), atol=1e-12)

    def test_diagonal_closed_form(self):
        lam = np.array([-1.0, -0.5, -2.0])
        w0 = np.array([0.3, 0.6, 0.9])
        ts = np.linspace(0, 3, 11)
        out = mean_relaxation(np.diag(lam), w0, ts)
        want = np.array([(np.exp(lam * t) * w0).mean() for t in ts])
        assert np.allclose(out, want, atol=1e-12)

    def test_against_expm_oracle(self):
        rng = np.random.default_rng(3)
        for n in (4, 12, 20):
            m = rng.normal(size=(n, n))
            a = -(m @ m.T) / n - 0.5 * np.eye(n)  # symmetric stable
            w0 = rng.uniform(0, 1, n)
            ts = np.linspace(0, 4, 9)
            ours = mean_relaxation(a, w0, ts)
            ref = np.array([np.trace(expm(a * t) @ np.diag(w0)) / n for t in ts])
            assert np.max(np.abs(ours - ref)) < 1e-8

    def test_log_uniform_spectrum_power_law(self):
        # Lorentzian-mixture oracle: log-uniform rates over 4 decades give a
        # logarithmic relaxation; compare the fitted exponent with the same
        # fit applied to the exp1 closed form.
        rng = np.random.default_rng(6)
        rates = np.exp(rng.uniform(np.log(1.0), np.log(1e4), 600))
        a = np.diag(-rates)
        w0 = np.full(rates.size, 0.5)
        ts = np.geomspace(1e-3, 1.0, 200)
        ours = mean_relaxation(a, w0, ts)
        lo, hi = 1.0, 1e4
        oracle = 0.5 * (exp1(lo * ts) - exp1(hi * ts)) / np.log(hi / lo)
        window = (ts > 3.0 / hi) & (ts < 0.3 / lo)
        fit = np.polyfit(np.log(ts[window]), np.log(ours[window]), 1)[0]
        fit_oracle = np.polyfit(np.log(ts[window]), np.log(oracle[window]), 1)[0]
        assert abs(fit - fit_oracle) < 0.2


class TestRandomNetwork:
    def test_too_few_nodes_refused(self):
        for n_nodes in (0, 1):
            with pytest.raises(ValueError, match="at least 2 nodes"):
                random_network(np.random.default_rng(0), **{**SOC_GRAPH, "n_nodes": n_nodes})

    def test_no_connected_draw_refused(self):
        with pytest.raises(ValueError, match="no connected graph"):
            random_network(np.random.default_rng(0), **{**SOC_GRAPH, "n_nodes": 5, "edge_prob": 0.0})

    def test_graph_fields_are_required(self):
        with pytest.raises(TypeError):
            random_network(np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_edges_match_the_pair_loop(self, seed):
        # the loop the numpy pairs replaced, on the same draws of the same rng
        p = SOC_GRAPH
        rng = np.random.default_rng(seed)
        while True:
            mask = rng.random((p["n_nodes"], p["n_nodes"])) < p["edge_prob"]
            pairs = [(i, j) for i in range(p["n_nodes"]) for j in range(i + 1, p["n_nodes"]) if mask[i, j]]
            if len(pairs) < p["n_nodes"]:
                continue
            emf = np.zeros(len(pairs))
            idx = rng.choice(len(pairs), size=min(p["n_sources"], len(pairs)), replace=False)
            emf[idx] = p["source_volts"] * rng.choice([-1.0, 1.0], size=len(idx))
            want = CircuitGraph(p["n_nodes"], tuple(Edge(a, b, "memristor", v) for (a, b), v in zip(pairs, emf)))
            try:
                cycle_basis(want)
                break
            except DisconnectedGraphError:
                continue
        got = preset_graph(seed)
        assert got == want
        assert all(type(x) is int for e in got.edges for x in (e.tail, e.head))

    def test_cli_seed_0_has_233_edges(self):
        assert len(preset_graph(0).edges) == 233


class TestSocExperiment:
    def test_n100_network_exponents(self):
        g = preset_graph(1)
        res = soc_experiment(g, HP, SOC_SPEC)
        assert res.power_law
        assert abs(res.gamma + 1.0) <= 0.3
        assert abs(res.spectrum_slope + (1.0 - res.gamma)) <= 0.3

    @pytest.mark.parametrize("seed", [0, 1])
    def test_relaxation_rows_match_the_modal_sum(self, seed):
        # the CLI's graph at this seed; <w(t)> over the kept rates is the modal
        # sum tr(e^{At} W0)/N with A = diag(-rates) and W0 = I/2, written on
        # the grid rows of the gamma window and one row on each side
        p = NETWORK_SOC
        g = preset_graph(seed)
        hp = HpParams(alpha=p["alpha"], beta=p["beta"], r_on=p["r_on"], r_off=p["r_off"])
        res = soc_experiment(g, hp, SOC_SPEC)
        t = res.relaxation.times
        want = mean_relaxation(np.diag(-res.rates), np.full(res.rates.size, 0.5), t)
        got = res.relaxation["mean_w"]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        grid = np.linspace(0.0, 6.0 / res.rates.min(), RELAXATION_SAMPLES)
        first = np.searchsorted(grid, t[0])
        assert np.array_equal(t, grid[first:first + t.size])
        t_lo, t_hi = GAMMA_WINDOW[0] / res.rates.max(), GAMMA_WINDOW[1] / res.rates.min()
        assert t[0] <= t_lo < t[1] and t[-2] <= t_hi < t[-1]
        inside = (t > t_lo) & (t <= t_hi)
        assert np.count_nonzero(inside) == t.size - 2
        assert loglog_slope(t[inside], got[inside])[0] == res.gamma

    @pytest.mark.parametrize("seed", [*range(10), 34017, "single"])
    def test_closed_form_matches_the_whole_series(self, seed):
        # the CLI's graph at this seed (34017: the graph of bench seed 34), or
        # one driven memristor, whose single rate takes the corner window.
        # Build the whole RELAXATION_SAMPLES-row series and fit it over all
        # its rows: gamma and fit_r2 come out bit for bit, and the slope of
        # its FFT periodogram to 1e-12
        if seed == "single":
            g = CircuitGraph(n_nodes=2, edges=(Edge(0, 1), Edge(1, 0, "source", -2.0)))
            hp = HP
        else:
            p = NETWORK_SOC
            g = preset_graph(seed)
            hp = HpParams(alpha=p["alpha"], beta=p["beta"], r_on=p["r_on"], r_off=p["r_off"])
        res = soc_experiment(g, hp, SOC_SPEC)
        lam_max, lam_min = res.rates.max(), res.rates.min()
        t = np.linspace(0.0, 6.0 / lam_min, RELAXATION_SAMPLES)
        x = np.concatenate([0.5 * np.exp(-np.outer(t[k:k + 1024], res.rates)).mean(axis=1)
                            for k in range(0, t.size, 1024)])
        t_lo, t_hi = GAMMA_WINDOW[0] / lam_max, GAMMA_WINDOW[1] / lam_min
        if np.count_nonzero((t > t_lo) & (t <= t_hi) & (x > 0)) < 8:
            t_lo, t_hi = CORNER_WINDOW[0] / lam_max, CORNER_WINDOW[1] / lam_min
        msk = (t > t_lo) & (t <= t_hi) & (x > 0)
        assert loglog_slope(t[msk], x[msk])[0] == res.gamma
        tg = np.geomspace(max(t_lo, t[1]), min(t_hi, t[-1]), 128)
        xg = np.interp(tg, t, x)
        assert loglog_slope(tg[xg > 0], xg[xg > 0])[1] == res.fit_r2
        dt = t[1] - t[0]
        band = (lam_max / (2.0 * np.pi) / FIT_BAND[0],
                min(lam_max * FIT_BAND[1] / (2.0 * np.pi), 0.999 * 0.5 / dt))
        series = Trace(dt * np.arange(t.size), ("mean_w",), x[:, None])
        slope = power_spectrum_exponent(series, "mean_w", band)
        assert abs(res.spectrum_slope - slope) <= 1e-12 * abs(slope)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relaxation_keeps_its_end_alone(self, seed, monkeypatch):
        # the CLI's graph at this seed: the run soc_experiment makes holds the
        # initial and the final state, and the final one, the steps and the
        # rate evaluations are those of a run that keeps every grid row
        p = NETWORK_SOC
        g = preset_graph(seed)
        hp = HpParams(alpha=p["alpha"], beta=p["beta"], r_on=p["r_on"], r_off=p["r_off"])
        runs = []

        def spy(*args, **kwargs):
            runs.append(simulate_network(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(network, "simulate_network", spy)
        soc_experiment(g, hp, SOC_SPEC)
        (run,) = runs
        full = simulate_network(g, source_vector(g, hp), hp, SOC_SPEC, w0=0.5)
        assert full.trace.n_samples == SOC_SPEC.n_steps + 1 and not full.steady
        assert run.trace.n_samples == 2
        assert np.array_equal(run.trace.times, [0.0, SOC_SPEC.n_steps * SOC_SPEC.dt])
        assert np.array_equal(run.trace.values, full.trace.values[[0, -1]])
        assert (run.steps, run.rhs_calls, run.steady) == (full.steps, full.rhs_calls, full.steady)

    def test_relaxation_memory(self):
        # the CLI-seed-0 graph: keeping every grid row peaked at 15.9 MB
        # (4001 rows x 233 memories, listed and then copied); the rows
        # soc_experiment reads, and its periodogram taken a block of bins at
        # a time, peak at about 2.2 MB
        p = NETWORK_SOC
        g = preset_graph(0)
        hp = HpParams(alpha=p["alpha"], beta=p["beta"], r_on=p["r_on"], r_off=p["r_off"])
        tracemalloc.start()
        try:
            soc_experiment(g, hp, SOC_SPEC)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_single_memristor_rejected(self):
        # one device driven so its linearization is a single negative rate:
        # no scaling regime, the R^2 gate rejects the power-law fit
        g = CircuitGraph(n_node_s := 2, edges=(Edge(0, 1), Edge(1, 0, "source", -2.0)))
        del n_node_s
        res = soc_experiment(g, HP, SOC_SPEC)
        assert res.rates.size == 1
        assert not res.power_law
        assert res.fit_r2 < 0.9

    def test_run_record(self):
        rng = np.random.default_rng(2)
        g = random_network(rng, n_nodes=30, edge_prob=0.15, n_sources=4, source_volts=2.0)
        spec = IntegratorSpec(method="euler", dt=0.05, t_end=40.0)
        run = simulate_network(g, None, HP, spec, w0=0.5)
        w_star = run.trace.values[-1]
        res = soc_experiment(g, HP, spec)
        assert res.run.stop_reason == run.stop_reason
        assert (res.run.steps, res.run.rhs_calls) == (run.steps, run.rhs_calls) == (800, 801)
        assert res.run.steady == (res.run.stop_reason == "steady")
        want = np.count_nonzero((w_star == 0.0) | (w_star == 1.0)) / w_star.size
        assert res.clamped_fraction == want
        assert 0.0 < want < 1.0


class TestMaze:
    def test_shortest_route_edges_unique_route(self):
        m = MazeSpec.from_text("S....\n####.\n....E")
        route = bfs_shortest_path(m)
        assert shortest_route_edges(m) == {tuple(sorted(p)) for p in zip(route, route[1:])}

    def test_shortest_route_edges_tied_routes(self):
        # every adjacency of this grid lies on some monotone shortest route
        m = MazeSpec.from_text("S....\n.#.#.\n.....\n.#.#.\n....E")
        assert len(shortest_route_edges(m)) == 24
        # two tied routes round the wall; the dead end (3, 0) is on neither
        m = MazeSpec.from_text("S..\n.#.\n..E\n.##")
        assert len(m.open_cells()) == 9
        assert ((2, 0), (3, 0)) not in shortest_route_edges(m)
        assert len(shortest_route_edges(m)) == 8

    def test_corridor_shape(self):
        m = MazeSpec.from_text("S.E")
        g, _ = maze_to_circuit(m, HP, 1.0)
        kinds = [e.kind for e in g.edges]
        assert kinds.count("memristor") == 2
        assert kinds.count("source") == 1

    def test_open_room_edge_count(self):
        m = MazeSpec.from_text("S..\n...\n..E")
        g, _ = maze_to_circuit(m, HP, 1.0)
        assert len(g.memristive_edges) == 12  # 2 * 3 * 2 grid adjacencies

    def test_walls_remove_adjacencies(self):
        m = MazeSpec.from_text("S..\n.#.\n..E")
        g, _ = maze_to_circuit(m, HP, 1.0)
        assert len(g.memristive_edges) == 8  # the hole removes 4 adjacencies

    def test_unreachable_pockets_dropped(self):
        m = MazeSpec.from_text("S.#..\n..###\n....E")
        # the (0,3)/(0,4) pocket is walled off from the entrance side
        g, index = maze_to_circuit(m, HP, 1.0)
        assert (0, 3) not in index
        assert (0, 4) not in index
        assert (2, 0) in index

    def test_maze_validation(self):
        with pytest.raises(ValueError, match="no path"):
            MazeSpec.from_text("S#E")
        with pytest.raises(ValueError, match="one 'S'"):
            MazeSpec.from_text("..E")
        with pytest.raises(ValueError, match="invalid maze character"):
            MazeSpec.from_text("SxE")

    def test_corridor_solution(self):
        m = MazeSpec.from_text("S....E")
        result = solve_maze(m, HpParams(alpha=0.1, beta=1.0, r_on=1.0, r_off=100.0), 100.0, MAZE_SPEC)
        oracle = bfs_shortest_path(m)
        assert {tuple(sorted(p)) for p in result.path} == {
            tuple(sorted(p)) for p in zip(oracle, oracle[1:])}
        assert result.contrast == np.inf

    def test_hand_maze_with_unique_path(self):
        text = "S....\n####.\n....E"
        m = MazeSpec.from_text(text)
        result = solve_maze(m, HpParams(alpha=0.1, beta=1.0, r_on=1.0, r_off=100.0), 100.0, MAZE_SPEC)
        oracle = bfs_shortest_path(m)
        assert {tuple(sorted(p)) for p in result.path} == {
            tuple(sorted(p)) for p in zip(oracle, oracle[1:])}

    def test_two_routes_prefer_short(self):
        # ring with a 2-edge route and a 6-edge route between source terminals
        edges = [Edge(0, 1), Edge(1, 2)]                      # short route 0-1-2
        edges += [Edge(0, 3), Edge(3, 4), Edge(4, 5), Edge(5, 6), Edge(6, 7), Edge(7, 2)]
        edges.append(Edge(2, 0, "source", 50.0))
        g = CircuitGraph(n_nodes=8, edges=tuple(edges))
        hp = HpParams(alpha=0.1, beta=1.0, r_on=1.0, r_off=100.0)
        omega = cycle_projector(g)
        s = source_vector(g, hp)
        run = simulate_network(g, s, hp, IntegratorSpec(method="euler", dt=0.005, t_end=100.0))
        w_final = run.trace.values[-1]
        cur = np.abs(edge_currents(w_final, s, omega, hp))
        short = cur[:2].min()
        long = cur[2:].max()
        assert short > long
        assert short / max(long, 1e-300) > 1.0

    def test_random_mazes_match_bfs(self):
        rng = np.random.default_rng(42)
        hp = HpParams(alpha=0.1, beta=1.0, r_on=1.0, r_off=100.0)
        n_ok = 0
        trials = 0
        while n_ok < 8 and trials < 200:
            trials += 1
            h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
            maze = _random_maze(rng, h, w)
            if maze is None:
                continue
            result = solve_maze(maze, hp, 100.0, MAZE_SPEC)
            oracle = bfs_shortest_path(maze)
            oracle_adj = {tuple(sorted(p)) for p in zip(oracle, oracle[1:])}
            found_adj = {tuple(sorted(p)) for p in result.path}
            assert found_adj == oracle_adj
            assert result.contrast > 1.0
            n_ok += 1
        assert n_ok == 8

    def test_random_tied_mazes_walk_one_shortest_route(self):
        # all tied routes conduct; the current walk must still be one of them
        rng = np.random.default_rng(43)
        hp = HpParams(alpha=0.1, beta=1.0, r_on=1.0, r_off=100.0)
        n_ok = 0
        trials = 0
        while n_ok < 8 and trials < 200:
            trials += 1
            h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
            maze = _random_maze(rng, h, w, tied=True)
            if maze is None:
                continue
            result = solve_maze(maze, hp, 100.0, MAZE_SPEC)
            found_adj = {tuple(sorted(p)) for p in result.path}
            assert found_adj <= shortest_route_edges(maze)
            assert len(result.path) == len(bfs_shortest_path(maze)) - 1
            n_ok += 1
        assert n_ok == 8


def _count_shortest_paths(m: MazeSpec):
    from collections import deque

    dist = {m.entrance: 0}
    q = deque([m.entrance])
    while q:
        v = q.popleft()
        for u in m.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                q.append(u)
    if m.exit not in dist:
        return 0
    count = {m.entrance: 1}
    for v in sorted(dist, key=dist.get):
        if v == m.entrance:
            continue
        count[v] = sum(count.get(u, 0) for u in m.neighbors(v) if dist.get(u) == dist[v] - 1)
    return count[m.exit]


def _random_maze(rng, h, w, tied=False):
    """A random maze whose shortest route is unique, or tied when ``tied``."""
    grid = (rng.random((h, w)) < 0.72)
    grid[0, 0] = grid[h - 1, w - 1] = True
    rows = []
    for r in range(h):
        rows.append("".join(
            ("S" if (r, c) == (0, 0) else "E" if (r, c) == (h - 1, w - 1)
             else "." if grid[r, c] else "#")
            for c in range(w)))
    try:
        m = MazeSpec.from_text("\n".join(rows))
    except ValueError:
        return None
    if (_count_shortest_paths(m) > 1) != tied:
        return None
    if len(bfs_shortest_path(m)) < max(h, w):
        return None
    return m
