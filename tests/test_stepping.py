"""The shared stepping loop: the stop hook of ``integrate`` and the runs built on it.

``reference_run`` is a self-contained loop in the style the network and LCA
drivers once carried themselves: step, clip, then evaluate the RHS afresh at
the new state for the steady/convergence check.  ``simulate_network`` and
``lca_simulate`` must reproduce it bit for bit.
"""

import numpy as np
import pytest

from memsim.core import IntegratorSpec, integrate
from memsim.devices import HpParams
from memsim.learning import LcaProblem, hard_threshold, lca_simulate
from memsim.network import CircuitGraph, Edge, kirchhoff_system, memnet_rhs, simulate_network, source_vector


def reference_run(rhs, y0, spec, clip, done):
    """Returns (rows, steps taken, whether ``done`` fired)."""
    y = np.array(y0, dtype=float)
    rows = [y.copy()]
    dt = spec.dt
    t = 0.0
    for k in range(spec.n_steps):
        if spec.method == "euler":
            y = y + dt * rhs(y, t)
        else:
            k1 = rhs(y, t)
            k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = rhs(y + dt * k3, t + dt)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if clip:
            y = np.clip(y, 0.0, 1.0)
        rows.append(y.copy())
        t = (k + 1) * dt
        if done(y, rhs(y, t)):
            return np.array(rows), k + 1, True
    return np.array(rows), spec.n_steps, False


def counting(rhs):
    calls = []

    def wrapped(y, t):
        calls.append(t)
        return rhs(y, t)

    return wrapped, calls


class TestStopHook:
    @pytest.mark.parametrize("method,per_step", [("euler", 1), ("rk4", 4)])
    def test_one_rhs_call_per_stage(self, method, per_step):
        rhs, calls = counting(lambda y, t: -y)
        spec = IntegratorSpec(method=method, dt=0.1, t_end=10.0)
        tr = integrate(rhs, [1.0], spec, stop=lambda y, dy: abs(dy[0]) < 0.2)
        taken = tr.n_samples - 1
        assert 0 < taken < spec.n_steps
        assert len(calls) == per_step * taken + 1

    @pytest.mark.parametrize("method,per_step", [("euler", 1), ("rk4", 4)])
    def test_without_hook_no_extra_call(self, method, per_step):
        rhs, calls = counting(lambda y, t: -y)
        spec = IntegratorSpec(method=method, dt=0.1, t_end=1.0)
        integrate(rhs, [1.0], spec)
        assert len(calls) == per_step * spec.n_steps

    def test_hook_sees_clamped_state_and_its_derivative(self):
        seen = []

        def stop(y, dy):
            seen.append((y.copy(), dy.copy()))
            return False

        spec = IntegratorSpec(method="euler", dt=0.3, t_end=3.0)
        tr = integrate(lambda y, t: np.array([1.0 - t]), [0.0], spec,
                       poststep=lambda y: np.minimum(y, 0.5), stop=stop)
        assert len(seen) == spec.n_steps
        for k, (y, dy) in enumerate(seen, start=1):
            assert y[0] == tr["y0"][k] <= 0.5
            assert dy[0] == 1.0 - k * spec.dt

    def test_trace_ends_with_stopping_step(self):
        spec = IntegratorSpec(method="euler", dt=1.0, t_end=10.0)
        tr = integrate(lambda y, t: np.ones_like(y), [0.0], spec, stop=lambda y, dy: y[0] >= 3.0)
        assert list(tr["y0"]) == [0.0, 1.0, 2.0, 3.0]

    def test_bs3_stop_lands_on_the_next_grid_point(self):
        # the hook sees each accepted step's end, whose derivative is the
        # last RHS call; after it fires the run steps on to the next grid
        # point, which is the last row, a stepped state
        rhs, calls = counting(lambda y, t: -y)
        seen = []  # (step end time, state, what the hook returned)

        def stop(y, dy):
            seen.append((calls[-1], y.copy(), abs(dy[0]) < 1e-2))
            return seen[-1][2]

        spec = IntegratorSpec(method="bs3", dt=0.5, t_end=100.0)
        tr = integrate(rhs, [1.0], spec, stop=stop)
        fired = next(k for k, (_, _, hit) in enumerate(seen) if hit)
        t_fired = seen[fired][0]
        assert t_fired % spec.dt != 0.0  # off the grid, so the landing is tested
        assert tr.n_samples - 1 == int(np.ceil(t_fired / spec.dt))
        t_last, y_last, _ = seen[-1]
        assert t_last == tr.times[-1]
        assert tr["y0"][-1] == y_last[0]
        assert all(t_fired < t <= t_last for t, _, _ in seen[fired + 1:])


def relaxing_network():
    # two loops sharing an edge, one series EMF, and a dangling edge that
    # carries no current: the run ends with memories at a bound and inside
    edges = (Edge(0, 1, "memristor", 2.0), Edge(1, 2), Edge(2, 0), Edge(1, 3), Edge(3, 2),
             Edge(3, 4))
    g = CircuitGraph(n_nodes=5, edges=edges)
    hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=10.0)
    return g, hp


def free_rate(w, dw):
    return np.where(((w >= 1.0) & (dw > 0)) | ((w <= 0.0) & (dw < 0)), 0.0, dw)


def network_reference(g, hp, spec, tol):
    # the rate is clamp-aware, as simulate_network steps it: zero where a
    # bound holds the memory, also in the RK4 stages
    system = kirchhoff_system(g)
    s = source_vector(g, hp)
    return reference_run(lambda w, t: free_rate(w, memnet_rhs(w, s, system, hp)), np.full(len(s), 0.5),
                         spec, clip=True, done=lambda w, dw: np.max(np.abs(dw)) < tol)


def bipolar_network():
    # one loop edge against the flow, so memories end at both bounds, and a
    # dangling edge that stays inside
    edges = (Edge(0, 1, "memristor", 2.0), Edge(2, 1), Edge(2, 0), Edge(1, 3), Edge(3, 2), Edge(3, 4))
    return CircuitGraph(n_nodes=5, edges=edges), HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=10.0)


class TestBs3Network:
    """bs3 on a network whose memories reach the clamp."""

    def test_held_memories_sit_exactly_on_their_bound(self):
        g, hp = bipolar_network()
        spec = IntegratorSpec(method="bs3", dt=0.1, t_end=100.0)
        run = simulate_network(g, None, hp, spec)
        w = np.array([run.trace[f"w{i}"] for i in range(len(g.edges))])
        assert np.all((w >= 0.0) & (w <= 1.0))
        assert np.array_equal(run.trace["mean_w"], np.ascontiguousarray(w.T).mean(axis=1))
        bounds = set()
        for row in w:
            end = row[-1]
            if end in (0.0, 1.0):
                bounds.add(end)
                first = int(np.argmax(row == end))
                assert np.all(row[first:] == end)
                assert first < row.size - 1
        assert bounds == {0.0, 1.0}
        assert 0.0 < w[-1, -1] < 1.0

    def test_steady_stop_lands_on_the_grid(self):
        g, hp = bipolar_network()
        tol = 1e-6
        spec = IntegratorSpec(method="bs3", dt=0.1, t_end=100.0)
        run = simulate_network(g, None, hp, spec, steady_tol=tol)
        assert run.steady and run.stop_reason == "steady"
        assert run.trace.n_samples - 1 < spec.n_steps
        w_end = np.array([run.trace[f"w{i}"][-1] for i in range(len(g.edges))])
        dw = memnet_rhs(w_end, source_vector(g, hp), kirchhoff_system(g), hp)
        assert np.max(np.abs(free_rate(w_end, dw))) < tol
        # three evaluations per attempted step and one for the first
        assert (run.rhs_calls - 1) % 3 == 0
        assert run.rhs_calls >= 3 * run.steps + 1

    def test_never_steady_runs_to_t_end(self):
        g, hp = bipolar_network()
        spec = IntegratorSpec(method="bs3", dt=0.1, t_end=1.0)
        run = simulate_network(g, None, hp, spec)
        assert not run.steady and run.stop_reason == "t_end"
        assert run.trace.n_samples == spec.n_steps + 1


def lca_problem():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    p = LcaProblem(dictionary=q, lam=0.1, tau=1.0)
    x = q @ np.array([0.0, 1.2, 0.0, 0.0, -0.7, 0.0])
    return p, x


def lca_reference(p, x, spec, tol):
    phi = p.dictionary
    b = phi.T @ x
    gram = phi.T @ phi
    g_off = gram - np.diag(np.diagonal(gram))
    rhs = lambda u, t: (b - u - g_off @ hard_threshold(u, p.lam)) / p.tau
    return reference_run(rhs, np.zeros(phi.shape[1]), spec, clip=False,
                         done=lambda u, du: np.max(np.abs(du)) < tol)


def stop_step(reference, method, dt, tol):
    _, k, fired = reference(IntegratorSpec(method=method, dt=dt, t_end=1e4 * dt), tol)
    assert fired
    return k


@pytest.mark.parametrize("method,dt", [("euler", 0.02), ("rk4", 0.05)])
class TestNetworkMatchesReference:
    tol = 1e-6

    def check(self, method, dt, n_steps):
        g, hp = relaxing_network()
        spec = IntegratorSpec(method=method, dt=dt, t_end=n_steps * dt)
        assert spec.n_steps == n_steps
        rows, k, fired = network_reference(g, hp, spec, self.tol)
        run = simulate_network(g, None, hp, spec, steady_tol=self.tol)
        got = np.column_stack([run.trace[f"w{i}"] for i in range(rows.shape[1])])
        assert np.array_equal(got, rows)
        assert np.array_equal(run.trace["mean_w"], rows.mean(axis=1))
        assert run.trace.n_samples - 1 == run.steps == k
        assert run.rhs_calls == {"euler": 1, "rk4": 4}[method] * k + 1
        assert run.steady is fired
        assert run.stop_reason == ("steady" if fired else "t_end")
        return fired

    def test_stops_on_last_step(self, method, dt):
        g, hp = relaxing_network()
        k = stop_step(lambda spec, tol: network_reference(g, hp, spec, tol), method, dt, self.tol)
        assert self.check(method, dt, k)

    def test_never_stops(self, method, dt):
        g, hp = relaxing_network()
        k = stop_step(lambda spec, tol: network_reference(g, hp, spec, tol), method, dt, self.tol)
        assert not self.check(method, dt, k - 1)


@pytest.mark.parametrize("method,dt", [("euler", 0.05), ("rk4", 0.1)])
class TestLcaMatchesReference:
    tol = 1e-8

    def check(self, method, dt, n_steps):
        p, x = lca_problem()
        spec = IntegratorSpec(method=method, dt=dt, t_end=n_steps * dt)
        assert spec.n_steps == n_steps
        rows, k, fired = lca_reference(p, x, spec, self.tol)
        if fired:
            res = lca_simulate(p, x, spec, tol=self.tol)
        else:
            with pytest.warns(RuntimeWarning, match="fixed point"):
                res = lca_simulate(p, x, spec, tol=self.tol)
        got = np.column_stack([res.trace[f"u{i}"] for i in range(rows.shape[1])])
        assert np.array_equal(got, rows)
        assert res.trace.n_samples - 1 == k
        assert res.converged is fired
        assert np.array_equal(res.a, hard_threshold(rows[-1], p.lam))
        return fired

    def test_stops_on_last_step(self, method, dt):
        p, x = lca_problem()
        k = stop_step(lambda spec, tol: lca_reference(p, x, spec, tol), method, dt, self.tol)
        assert self.check(method, dt, k)

    def test_never_stops(self, method, dt):
        p, x = lca_problem()
        k = stop_step(lambda spec, tol: lca_reference(p, x, spec, tol), method, dt, self.tol)
        assert not self.check(method, dt, k - 1)
