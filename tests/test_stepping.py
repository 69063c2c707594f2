"""The shared stepping loop: the stop hook of ``integrate`` and the runs built on it.

``reference_run`` is a self-contained loop in the style the network and LCA
drivers once carried themselves: step, clip, then evaluate the RHS afresh at
the new state for the steady/convergence check.  ``simulate_network`` and
``lca_simulate`` must reproduce it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        rows = integrate(rhs, [1.0], spec, stop=lambda y, dy: abs(dy[0]) < 0.2).rows
        taken = len(rows) - 1
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
        rows = integrate(lambda y, t: np.array([1.0 - t]), [0.0], spec,
                         poststep=lambda y: np.minimum(y, 0.5), stop=stop).rows
        assert len(seen) == spec.n_steps
        for k, (y, dy) in enumerate(seen, start=1):
            assert y[0] == rows[k, 0] <= 0.5
            assert dy[0] == 1.0 - k * spec.dt

    def test_trace_ends_with_stopping_step(self):
        spec = IntegratorSpec(method="euler", dt=1.0, t_end=10.0)
        rows = integrate(lambda y, t: np.ones_like(y), [0.0], spec, stop=lambda y, dy: y[0] >= 3.0).rows
        assert list(rows[:, 0]) == [0.0, 1.0, 2.0, 3.0]

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
        rows = integrate(rhs, [1.0], spec, stop=stop).rows
        fired = next(k for k, (_, _, hit) in enumerate(seen) if hit)
        t_fired = seen[fired][0]
        assert t_fired % spec.dt != 0.0  # off the grid, so the landing is tested
        assert len(rows) - 1 == int(np.ceil(t_fired / spec.dt))
        t_last, y_last, _ = seen[-1]
        assert t_last == spec.dt * (len(rows) - 1)
        assert rows[-1, 0] == y_last[0]
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
        w = run.trace.values.T
        assert np.all((w >= 0.0) & (w <= 1.0))
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
        w_end = run.trace.values[-1]
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
        assert np.array_equal(run.trace.values, rows)
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
        assert np.array_equal(res.trace.values, rows)
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


class TestOutputTimes:
    """bs3 rows at the times a caller asks for, over one stepping path."""

    spec = IntegratorSpec(method="bs3", dt=0.1, t_end=100.0)

    def never_steady(self, times=None):
        # steady_tol 0 never fires, so the run spans t_end while memories
        # reach both bounds and one stays inside
        g, hp = bipolar_network()
        return simulate_network(g, None, hp, self.spec, steady_tol=0.0, times=times)

    def test_grid_subsets_are_the_grid_rows(self):
        full = self.never_steady()
        grid = self.spec.dt * np.arange(1, self.spec.n_steps + 1)
        assert np.array_equal(full.trace.times[1:], grid)
        rng = np.random.default_rng(0)
        picks = [np.arange(0), np.arange(grid.size), np.array([grid.size - 1]), np.array([0, 7, 8, 500])]
        picks += [np.sort(rng.choice(grid.size, size=n, replace=False)) for n in (1, 10, 300)]
        for idx in picks:
            run = self.never_steady(times=grid[idx])
            ends_on_request = idx.size and idx[-1] == grid.size - 1
            assert run.trace.n_samples == idx.size + (1 if ends_on_request else 2)
            assert np.array_equal(run.trace.values[1:idx.size + 1], full.trace.values[idx + 1])
            assert np.array_equal(run.trace.values[0], full.trace.values[0])
            assert np.array_equal(run.trace.values[-1], full.trace.values[-1])
            assert np.array_equal(run.trace.times, np.concatenate([[0.0], grid[idx], [grid[-1]]])[
                :run.trace.n_samples])
            assert (run.steps, run.rhs_calls) == (full.steps, full.rhs_calls)

    def test_integrate_rows_do_not_move_the_steps(self):
        # integrate alone, without a network: the same RHS calls at the same
        # times for any output times, and the grid rows where they are asked
        spec = IntegratorSpec(method="bs3", dt=0.5, t_end=30.0)
        rhs = lambda y, t: np.array([y[1], -y[0] - 0.1 * y[1] + np.sin(t)])
        f_full, calls_full = counting(rhs)
        full = integrate(f_full, [1.0, 0.0], spec).rows
        grid = spec.dt * np.arange(1, spec.n_steps + 1)
        for times in ((), grid[::7], np.geomspace(1e-3, 29.0, 40)):
            f, calls = counting(rhs)
            rows = integrate(f, [1.0, 0.0], spec, times=times).rows
            assert calls == calls_full
            assert np.array_equal(rows[-1], full[-1])
            assert len(rows) == len(times) + 2
        rows = integrate(rhs, [1.0, 0.0], spec, times=grid[::7]).rows
        assert np.array_equal(rows[1:-1], full[1::7][:len(grid[::7])])

    def test_log_times_are_deterministic(self):
        times = np.geomspace(1e-2, 100.0, 50)
        a, b = self.never_steady(times=times), self.never_steady(times=times)
        assert np.array_equal(a.trace.values, b.trace.values)
        assert np.array_equal(a.trace.times, b.trace.times)
        assert (a.steps, a.rhs_calls) == (b.steps, b.rhs_calls)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_fixed_step_methods_refuse_times(self, method):
        spec = IntegratorSpec(method=method, dt=0.1, t_end=1.0)
        with pytest.raises(ValueError, match="only bs3"):
            integrate(lambda y, t: -y, [1.0], spec, times=[0.5])
        with pytest.raises(ValueError, match="only bs3"):
            integrate(lambda y, t: -y, [1.0], spec, times=())
        g, hp = bipolar_network()
        with pytest.raises(ValueError, match="only bs3"):
            simulate_network(g, None, hp, spec, times=())

    @pytest.mark.parametrize("times", [[0.0, 1.0], [-1.0], [1.0, 10.5], [2.0, 1.0], [1.0, 1.0],
                                       [np.nan], [[1.0, 2.0]]])
    def test_bad_times_refused(self, times):
        spec = IntegratorSpec(method="bs3", dt=0.1, t_end=10.0)
        with pytest.raises(ValueError, match="times"):
            integrate(lambda y, t: -y, [1.0], spec, times=times)

    def stopped_run(self, times):
        # the hook fires off the grid, at t_fired; returns (rows, hook calls)
        rhs, calls = counting(lambda y, t: -y)
        seen = []

        def stop(y, dy):
            seen.append((calls[-1], y.copy(), abs(dy[0]) < 1e-2))
            return seen[-1][2]

        rows = integrate(rhs, [1.0], IntegratorSpec(method="bs3", dt=0.5, t_end=100.0), stop=stop, times=times).rows
        return rows, seen

    def test_stop_ends_at_the_next_requested_time(self):
        _, seen = self.stopped_run(())
        t_fired = next(t for t, _, hit in seen if hit)
        times = [1.0, t_fired + 2.0, t_fired + 3.0]
        rows, seen = self.stopped_run(times)
        assert len(rows) == 3  # state0, t = 1, and the stepped state at t_fired + 2
        t_last, y_last, _ = seen[-1]
        assert t_last == times[1]
        assert rows[-1, 0] == y_last[0]

    def test_stop_with_no_time_left_ends_at_once(self):
        for times in ((), [0.5, 1.0]):
            rows, seen = self.stopped_run(times)
            fired = next(k for k, (_, _, hit) in enumerate(seen) if hit)
            assert fired == len(seen) - 1  # no step after the hook fired
            assert len(rows) == len(times) + 2
            assert rows[-1, 0] == seen[fired][1][0]


@st.composite
def linear_runs(draw):
    """dy/dt = A y for a small A, a spec, a kind of stop hook and, under bs3, maybe output times."""
    n = draw(st.integers(1, 3))
    a = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    y0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    spec = IntegratorSpec(method=draw(st.sampled_from(["euler", "rk4", "bs3"])),
                          dt=draw(st.floats(0.05, 0.5)), t_end=draw(st.floats(0.0, 3.0)))
    hook = draw(st.sampled_from([None, "never", "threshold"]))
    tol = draw(st.floats(1e-3, 2.0))
    times = None
    if spec.method == "bs3" and draw(st.booleans()):
        shares = draw(st.lists(st.floats(0.0, 1.0), max_size=8))
        times = np.unique(spec.n_steps * spec.dt * np.array(shares, dtype=float))
        times = times[times > 0.0]
    return a, y0, spec, hook, tol, times


class TestRunRecord:
    @settings(max_examples=300, deadline=None)
    @given(case=linear_runs())
    def test_record_matches_what_the_run_did(self, case):
        a, y0, spec, hook, tol, times = case
        rhs, calls = counting(lambda y, t: a @ y)
        returned = []

        def stop(y, dy):
            returned.append(hook == "threshold" and bool(np.max(np.abs(dy)) < tol))
            return returned[-1]

        run = integrate(rhs, y0, spec, stop=None if hook is None else stop, times=times)
        assert len(run.times) == len(run.rows)
        assert run.times[0] == 0.0 and np.all(np.diff(run.times) > 0.0)
        assert run.rhs_calls == len(calls)
        assert run.stopped == any(returned)
        if hook is not None:
            assert run.steps == len(returned)  # the hook sees every accepted step
        if spec.method != "bs3":
            assert run.steps == len(run.rows) - 1
            assert np.array_equal(run.times, spec.dt * np.arange(len(run.rows)))
        else:
            # the last RHS call is at the end of the last accepted step, where the run ends
            end = calls[-1]
            asked = spec.dt * np.arange(1, spec.n_steps + 1) if times is None else times
            reached = asked[asked <= end]
            landed = end == 0.0 or (reached.size and reached[-1] == end)
            assert np.array_equal(run.times, np.concatenate([[0.0], reached, [] if landed else [end]]))
