import numpy as np
import pytest

from memsim.core import DriveSignal, IntegratorSpec
from memsim.devices import HpParams
from memsim.network import CircuitGraph, Edge, edge_currents, kirchhoff_system
from memsim.learning import (
    _expm,
    LcaProblem,
    LinearReservoir,
    MemristiveReservoir,
    NefPopulation,
    Reservoir,
    elm_features,
    fit_readout,
    hard_threshold,
    lca_energy,
    lca_simulate,
    lif_response,
    nef_decode,
    nef_encode,
    nef_fit_decoders,
    random_nef_population,
    rc_run,
)


class TestElmFeatures:
    def test_identity_dictionary(self):
        x = np.array([1.0, 2.0, 3.0])
        g = elm_features(x, [lambda v: v])
        assert np.array_equal(g[:, 0], x)

    def test_two_by_two_elementwise(self):
        x = np.array([1.0, 2.0])
        g = elm_features(x, [lambda v: v**2, lambda v: v + 1])
        assert np.array_equal(g, [[1.0, 2.0], [4.0, 3.0]])

    def test_monte_carlo_glm_average(self):
        # sampled-prior dictionary: mean over many eta draws approximates the
        # integral; for a sigmoid link and centered normal eta the integral is
        # exactly 1/2 by symmetry
        rng = np.random.default_rng(0)
        d, n_g = 3, 4000
        x = rng.normal(size=(5, d))
        etas = rng.normal(size=(n_g, d))
        sigmoid = lambda z: 1.0 / (1.0 + np.exp(-z))
        funcs = [lambda v, e=e: sigmoid(v @ e) for e in etas]
        g = elm_features(x, funcs)
        assert np.max(np.abs(g.mean(axis=1) - 0.5)) < 0.02

    def test_non_finite_rejected(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                elm_features(np.array([0.0, 1.0]), [lambda v: 1.0 / v])


class TestFitReadout:
    def test_square_interpolation(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        y = rng.normal(size=4)
        gamma = fit_readout(g, y, ridge=0.0)
        assert np.allclose(g @ gamma, y, atol=1e-9)

    def test_zero_residual_in_column_space(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(10, 3))
        coef = np.array([1.0, -2.0, 0.5])
        gamma = fit_readout(g, g @ coef, ridge=0.0)
        assert np.allclose(gamma, coef, atol=1e-9)

    def test_heavy_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        gamma = fit_readout(g, y, ridge=1e12)
        assert np.max(np.abs(gamma)) < 1e-8

    def test_rank_deficient_flagged_min_norm(self):
        g = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([2.0, 4.0, 6.0])
        with pytest.warns(RuntimeWarning, match="minimum-norm"):
            gamma = fit_readout(g, y, ridge=0.0)
        ref = np.linalg.lstsq(g, y, rcond=None)[0]
        assert np.allclose(gamma, ref, atol=1e-12)

    def test_residual_never_grows_with_new_column(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        r1 = np.linalg.norm(g @ fit_readout(g, y) - y)
        g2 = np.column_stack([g, rng.normal(size=30)])
        r2 = np.linalg.norm(g2 @ fit_readout(g2, y) - y)
        assert r2 <= r1 + 1e-12


def make_linear_reservoir(rng, n=6, n_g=3):
    m = rng.normal(size=(n, n))
    a = -(m @ m.T) / n - 0.8 * np.eye(n)
    return Reservoir(
        dynamics=LinearReservoir(a=a),
        b=rng.normal(size=(n, 1)),
        h=rng.normal(size=(n_g, n)),
    )


class TestRcRun:
    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(5)
        res = make_linear_reservoir(rng)
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=1.0)
        tr = rc_run(res, DriveSignal("dc", amplitude=0.0), spec)
        for k in range(3):
            assert np.all(tr[f"g{k}"] == 0.0)

    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(6)
        res = make_linear_reservoir(rng)
        dt, t_end = 1e-3, 2.0
        spec = IntegratorSpec(method="rk4", dt=dt, t_end=t_end)
        f = 1.5
        u = DriveSignal("sine", amplitude=1.0, frequency=f)
        tr = rc_run(res, u, spec)
        # closed form: for u = sin(wt) and q(0) = 0,
        # q(t) = Im[(iwI - A)^{-1} (e^{iwt} I - e^{At}) b], with A symmetric here
        a = res.dynamics.a
        w = 2.0 * np.pi * f
        lam, vec = np.linalg.eigh(a)
        t = tr.times
        b = res.b[:, 0]
        e_at_b = (vec * np.exp(np.outer(t, lam))[:, None, :]) @ (vec.T @ b)  # (T, n)
        resolvent = np.linalg.inv(1j * w * np.eye(a.shape[0]) - a)
        q = np.imag((np.exp(1j * w * t)[:, None] * b - e_at_b) @ resolvent.T)
        ref = q @ res.h.T
        got = tr.values[:, :3]
        assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_defective_matrix_against_jordan_closed_form(self):
        # A = lam I + N (one Jordan block): e^{At} = e^{lam t} (I + N t) has no
        # eigenvector basis.  For u = 1, q(t) = int_0^t e^{As} ds b
        lam = -3.0
        a = np.array([[lam, 1.0], [0.0, lam]])
        b = np.array([[0.4], [1.0]])
        res = Reservoir(dynamics=LinearReservoir(a=a), b=b, h=np.eye(2))
        spec = IntegratorSpec(dt=1e-3, t_end=3.0)
        tr = rc_run(res, DriveSignal("dc", amplitude=1.0), spec)
        t = tr.times
        e1 = np.expm1(lam * t) / lam                             # int_0^t e^{lam s} ds
        e2 = (np.exp(lam * t) * (lam * t - 1.0) + 1.0) / lam**2  # int_0^t s e^{lam s} ds
        want = np.column_stack([b[0, 0] * e1 + b[1, 0] * e2, b[1, 0] * e1])
        got = tr.values[:, :2]
        assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("t", [0.01, 0.3, 2.0, 7.5])
    def test_propagator_of_a_jordan_block(self, t):
        # small arguments take the Taylor sum alone, larger ones its squarings
        lam = -1.7
        a = np.array([[lam, 1.0], [0.0, lam]])
        want = np.exp(lam * t) * np.array([[1.0, t], [0.0, 1.0]])
        assert np.max(np.abs(_expm(a * t) - want)) < 1e-14 * max(1.0, t)

    def test_input_linearity(self):
        rng = np.random.default_rng(7)
        res = make_linear_reservoir(rng)
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=1.0)
        u1 = DriveSignal("sine", amplitude=1.0, frequency=2.0)
        u2 = DriveSignal("square", amplitude=0.7, frequency=1.0)
        alpha_c, beta_c = 1.3, -0.4
        mix = lambda t: alpha_c * np.atleast_1d(u1(t)) + beta_c * np.atleast_1d(u2(t))
        tr_mix = rc_run(res, mix, spec)
        tr1 = rc_run(res, u1, spec)
        tr2 = rc_run(res, u2, spec)
        for k in range(3):
            combo = alpha_c * tr1[f"g{k}"] + beta_c * tr2[f"g{k}"]
            assert np.max(np.abs(tr_mix[f"g{k}"] - combo)) < 1e-8

    def test_saturated_memristive_reservoir_is_static(self):
        # strong volatility with no opposing drive pins every memory at 1;
        # the exposed state is then (const, linear-in-u currents)
        g = CircuitGraph(
            n_nodes=2,
            edges=(Edge(0, 1), Edge(0, 1), Edge(1, 0, "source", 0.0)),
        )
        hp = HpParams(alpha=50.0, beta=1.0, r_on=1.0, r_off=20.0)
        dyn = MemristiveReservoir(graph=g, hp=hp)
        n_e = dyn.dim
        res = Reservoir(
            dynamics=dyn,
            b=np.eye(n_e)[:, :1],
            h=np.eye(2 * n_e),
        )
        spec = IntegratorSpec(method="euler", dt=1e-3, t_end=1.0)
        u = DriveSignal("sine", amplitude=0.3, frequency=4.0, offset=0.0)
        tr = rc_run(res, u, spec)
        t = tr.times
        tail = t > 0.5
        us = np.asarray(u(t))
        # memory channels frozen at the clamp
        for k in range(n_e):
            assert np.all(tr[f"g{k}"][tail] == 1.0)
        # current channels are a static linear map of the input
        for k in range(n_e, 2 * n_e):
            y = tr[f"g{k}"][tail]
            c = y[0] / us[tail][0]
            assert np.max(np.abs(y - c * us[tail])) < 1e-9 * max(1.0, abs(c))

    @pytest.mark.parametrize("method", ["euler", "rk4", "bs3"])
    def test_memristive_rows_are_the_solved_row_currents(self, method):
        # a 6-node ring with chords (mesh form) and a two-input drive; rk4
        # evaluates the drive once per distinct stage time, at most three
        # times per step (its midpoint stages share one)
        g = CircuitGraph(n_nodes=6, edges=tuple(
            [Edge(k, (k + 1) % 6) for k in range(6)] + [Edge(0, 3), Edge(1, 4)]))
        hp = HpParams(alpha=0.1, beta=1.0, r_on=1.0, r_off=50.0)
        dyn = MemristiveReservoir(graph=g, hp=hp)
        b = np.random.default_rng(2).normal(size=(dyn.dim, 2))
        spec = IntegratorSpec(method=method, dt=0.01, t_end=2.0)
        scalar_calls = 0

        def inputs(t):
            nonlocal scalar_calls
            scalar_calls += np.ndim(t) == 0
            return np.stack([np.sin(3.0 * np.asarray(t)), np.cos(np.asarray(t))], axis=-1)

        out = dyn.trajectory(b, inputs, spec)
        assert out.shape == (spec.n_steps + 1, 2 * dyn.dim)
        if method == "rk4":
            assert scalar_calls <= 3 * spec.n_steps
        system = kirchhoff_system(g)
        for k, t in enumerate((spec.dt * np.arange(len(out))).tolist()):
            want = edge_currents(out[k, :dyn.dim], b @ inputs(t), system, hp)
            assert np.max(np.abs(out[k, dyn.dim:] - want)) <= 1e-13 * np.max(np.abs(want))

    def test_ng_bounded_by_state_dim(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            Reservoir(dynamics=LinearReservoir(a=-np.eye(2)),
                      b=np.ones((2, 1)), h=np.ones((3, 2)))


class TestLif:
    def test_zero_at_and_below_threshold(self):
        assert lif_response(0.5, 5e-3, 20e-3, 1.0) == 0.0
        assert lif_response(1.0, 5e-3, 20e-3, 1.0) == 0.0

    def test_saturates_at_inverse_tau0(self):
        assert lif_response(1e12, 5e-3, 20e-3, 1.0) == pytest.approx(200.0, rel=1e-6)

    def test_no_rc_gives_flat_rate(self):
        for i in (1.001, 2.0, 100.0):
            assert lif_response(i, 5e-3, 0.0, 1.0) == pytest.approx(200.0)

    def test_monotone_and_strictly_increasing_above(self):
        i = np.linspace(0.0, 5.0, 200)
        r = lif_response(i, 5e-3, 20e-3, 1.0)
        assert np.all(np.diff(r) >= 0)
        ii = np.linspace(1.01, 5.0, 50)
        assert np.all(np.diff(lif_response(ii, 5e-3, 20e-3, 1.0)) > 0)


class TestNef:
    def test_zero_function_zero_bias_is_silent(self):
        grid = np.linspace(-1, 1, 8)
        pop = NefPopulation(gains=np.ones(2), biases=np.zeros(2),
                            encoders=np.ones((2, 8)), grid=grid)
        a = nef_encode(np.zeros(8), pop)
        assert np.all(a == 0.0)

    def test_orthogonal_encoder_sees_bias_only(self):
        grid = np.linspace(-1, 1, 4)
        enc = np.array([[1.0, -1.0, 1.0, -1.0]])
        pop = NefPopulation(gains=np.array([3.0]), biases=np.array([2.0]),
                            encoders=enc, grid=grid)
        f = np.ones(4)  # orthogonal to the alternating profile
        a = nef_encode(f, pop)
        assert a[0] == pytest.approx(lif_response(2.0, pop.tau0, pop.tau_rc, pop.i_f))

    def test_hand_grid_mean(self):
        grid = np.array([0.0, 0.5, 1.0])
        enc = np.array([[1.0, 2.0, 3.0]])
        pop = NefPopulation(gains=np.array([2.0]), biases=np.array([0.5]),
                            encoders=enc, grid=grid)
        f = np.array([1.0, 1.0, 2.0])
        current = 2.0 * np.mean(f * enc[0]) + 0.5
        a = nef_encode(f, pop)
        assert a[0] == pytest.approx(lif_response(current, pop.tau0, pop.tau_rc, pop.i_f))

    def test_single_neuron_constant_function_decoder(self):
        grid = np.linspace(-1, 1, 16)
        pop = NefPopulation(gains=np.array([5.0]), biases=np.array([2.0]),
                            encoders=np.ones((1, 16)), grid=grid)
        f = np.full(16, 0.7)
        dec = nef_fit_decoders(pop, [f], regularization=0.0)
        a = nef_encode(f, pop)
        assert a[0] > 0
        assert np.allclose(dec[0], f / a[0], atol=1e-9)

    def test_decode_then_encode_identity(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(-1, 1, 32)
        pop = random_nef_population(rng, 6, grid)
        train = [np.sin((k + 1) * grid) for k in range(6)]
        acts = np.vstack([nef_encode(f, pop) for f in train])
        if np.linalg.matrix_rank(acts) < 6:
            pytest.skip("degenerate draw")
        dec = nef_fit_decoders(pop, train, regularization=0.0)
        for f in train:
            f_hat = nef_decode(nef_encode(f, pop), dec)
            assert np.max(np.abs(f_hat - f)) < 1e-6

    def test_decode_error_decreases_with_population(self):
        grid = np.linspace(-1, 1, 64)
        train = [np.sin(np.pi * k * grid / 2) for k in range(1, 9)]
        test = np.cos(np.pi * grid)

        def rms(n_neurons, seed):
            rng = np.random.default_rng(seed)
            pop = random_nef_population(rng, n_neurons, grid)
            dec = nef_fit_decoders(pop, train, regularization=1e-6)
            f_hat = nef_decode(nef_encode(test, pop), dec)
            return np.sqrt(np.mean((f_hat - test) ** 2))

        small = np.mean([rms(10, s) for s in range(5)])
        large = np.mean([rms(100, s) for s in range(5)])
        assert large < small


class TestHardThreshold:
    def test_below(self):
        assert hard_threshold(0.5, 1.0) == 0.0

    def test_above(self):
        assert hard_threshold(2.0, 1.0) == 2.0

    def test_zero_lambda_positive_part(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(hard_threshold(x, 0.0), [0.0, 0.0, 2.0])


class TestLca:
    def orthonormal_problem(self, rng, n=8, lam=0.0):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return LcaProblem(dictionary=q, lam=lam, tau=1.0)

    def test_zero_input_zero_code(self):
        rng = np.random.default_rng(10)
        p = self.orthonormal_problem(rng)
        res = lca_simulate(p, np.zeros(8), IntegratorSpec(method="rk4", dt=0.01, t_end=5.0))
        assert np.all(res.a == 0.0)

    def test_orthonormal_exact_recovery(self):
        rng = np.random.default_rng(11)
        p = self.orthonormal_problem(rng)
        a_true = np.zeros(8)
        a_true[[1, 4]] = [0.9, 1.4]
        x = p.dictionary @ a_true
        res = lca_simulate(p, x, IntegratorSpec(method="rk4", dt=0.01, t_end=50.0))
        assert res.converged
        assert np.max(np.abs(res.a - a_true)) < 1e-6

    def test_threshold_dominates(self):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        x = q @ np.full(8, 0.5)
        lam = 1.1 * np.max(np.abs(q.T @ x))
        p = LcaProblem(dictionary=q, lam=lam, tau=1.0)
        res = lca_simulate(p, x, IntegratorSpec(method="rk4", dt=0.01, t_end=20.0))
        assert np.all(res.a == 0.0)

    def test_energy_nonincreasing(self):
        rng = np.random.default_rng(13)
        for lam in (0.0, 0.3):
            q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
            p = LcaProblem(dictionary=q, lam=lam, tau=1.0)
            a_true = np.zeros(10)
            a_true[[0, 3, 7]] = [1.2, 0.8, 1.0]
            x = q @ a_true
            res = lca_simulate(p, x, IntegratorSpec(method="rk4", dt=0.005, t_end=30.0))
            energies = np.array([lca_energy(p, x, hard_threshold(u, lam)) for u in res.trace.values])
            assert np.all(np.diff(energies) <= 1e-9 * max(energies[0], 1.0))

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(14)
        p = self.orthonormal_problem(rng)
        x = p.dictionary @ np.ones(8)
        with pytest.warns(RuntimeWarning, match="fixed point"):
            res = lca_simulate(p, x, IntegratorSpec(method="euler", dt=0.01, t_end=0.05))
        assert not res.converged

    def test_validation(self):
        with pytest.raises(ValueError):
            LcaProblem(dictionary=np.zeros((3, 2)), lam=0.0, tau=1.0)
        with pytest.raises(ValueError):
            LcaProblem(dictionary=np.eye(3), lam=-1.0, tau=1.0)
