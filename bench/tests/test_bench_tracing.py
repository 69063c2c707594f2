import time

import numpy as np

import memsim
import memsim.learning
import memsim.network as network
from memsim.devices import HpParams
from tracing import Capture, Patches, Tracer, install_layer_spans


def test_patches_reach_every_namespace_and_restore():
    original = network.edge_currents
    tracer = Tracer(hot=("network.edge_currents",))
    patches = Patches()
    patches.replace("memsim.network", "edge_currents", tracer.wrapper("network.edge_currents"))
    try:
        assert memsim.learning.edge_currents is network.edge_currents is memsim.edge_currents
        assert network.edge_currents is not original
        hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=10.0)
        omega = np.eye(2)
        network.memnet_rhs(np.full(2, 0.5), np.ones(2), omega, hp)
        memsim.learning.edge_currents(np.full(2, 0.5), np.ones(2), omega, hp)
    finally:
        patches.restore()
    assert network.edge_currents is original and memsim.learning.edge_currents is original
    assert tracer.counts["network.edge_currents.calls"] == 2
    assert not tracer.spans  # hot spans are aggregated only


def test_self_time_excludes_children_and_counters():
    tracer = Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrapper("child")(child)

    def parent(n):
        time.sleep(0.01)
        for _ in range(n):
            traced_child()
        return n

    traced_parent = tracer.wrapper("parent", lambda a, k, r: {"items": r})(parent)
    assert traced_parent(2) == 2
    snap = tracer.snapshot()
    assert snap["child.calls"] == 2 and snap["parent.items"] == 2
    assert snap["parent.s"] >= snap["child.s"] >= 0.04
    assert abs(snap["parent.self_s"] - (snap["parent.s"] - snap["child.s"])) < 1e-9
    ids = {name: (sid, parent_id) for sid, parent_id, name, _, _ in tracer.spans}
    assert ids["child"][1] == ids["parent"][0] and ids["parent"][1] == 0


def test_capture_only_while_active():
    capture = Capture()
    patches = Patches()
    patches.replace("memsim.network", "bfs_shortest_path", capture.wrapper("bfs"))
    try:
        maze = network.MazeSpec.from_text("S.E\n")
        network.bfs_shortest_path(maze)
        capture.active = True
        network.bfs_shortest_path(maze)
    finally:
        patches.restore()
    assert len(capture.calls["bfs"]) == 1
    assert capture.calls["bfs"][0][2] == [(0, 0), (0, 1), (0, 2)]


def test_layer_spans_install_and_restore(tmp_path):
    import memsim.cli as cli

    runners = dict(cli.RUNNERS)
    tracer = Tracer()
    patches = Patches()
    install_layer_spans(tracer, patches)
    try:
        assert cli.main(["energy", "--out", str(tmp_path)]) == 0
        assert cli.main(["maze", "--out", str(tmp_path)]) == 0
    finally:
        patches.restore()
    assert cli.RUNNERS == runners
    snap = tracer.snapshot()
    assert snap["cli.runner.calls"] == 2
    assert snap["network.solve_maze.calls"] == 1
    assert snap["network.simulate_network.steps"] > 0
    assert snap["core.Trace.to_csv.bytes"] == (tmp_path / "maze" / "maze_w.csv").stat().st_size
