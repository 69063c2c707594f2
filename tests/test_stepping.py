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


def relaxing_network():
    # two loops sharing an edge, one series EMF, and a dangling edge that
    # carries no current: the run ends with memories at a bound and inside
    edges = (Edge(0, 1, "memristor", 2.0), Edge(1, 2), Edge(2, 0), Edge(1, 3), Edge(3, 2),
             Edge(3, 4))
    g = CircuitGraph(n_nodes=5, edges=edges)
    hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=10.0)
    return g, hp


def network_reference(g, hp, spec, tol):
    system = kirchhoff_system(g)
    s = source_vector(g, hp)

    def done(w, dw):
        free = np.where(((w >= 1.0) & (dw > 0)) | ((w <= 0.0) & (dw < 0)), 0.0, dw)
        return np.max(np.abs(free)) < tol

    return reference_run(lambda w, t: memnet_rhs(w, s, system, hp), np.full(len(s), 0.5),
                         spec, clip=True, done=done)


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
        assert run.trace.n_samples - 1 == k
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
