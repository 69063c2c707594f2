import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memsim.core import (
    CSV_BLOCK_VALUES,
    DriveSignal,
    IntegrationDivergedError,
    IntegratorSpec,
    SimulationError,
    Trace,
    eval_signal,
    integrate,
    linear_response,
    loop_area,
    power_spectrum_exponent,
    simulation_cost_metrics,
)


class TestEvalSignal:
    def test_sine_at_zero(self):
        s = DriveSignal("sine", amplitude=1.0, frequency=1.0)
        assert eval_signal(s, 0.0) == 0.0

    def test_dc(self):
        s = DriveSignal("dc", amplitude=0.5)
        for t in (0.0, 1.7, -3.0, 1e6):
            assert eval_signal(s, t) == 0.5

    def test_square_first_half_high(self):
        s = DriveSignal("square", amplitude=2.0, frequency=1.0, duty=0.5)
        assert eval_signal(s, 0.25) == 2.0
        assert eval_signal(s, 0.75) == -2.0

    def test_pulse_train_low_is_zero(self):
        s = DriveSignal("pulse_train", amplitude=3.0, frequency=1.0, duty=0.25, offset=1.0)
        assert eval_signal(s, 0.1) == 4.0
        assert eval_signal(s, 0.9) == 1.0

    def test_offset_and_phase(self):
        s = DriveSignal("sine", amplitude=2.0, frequency=1.0, phase=np.pi / 2, offset=1.0)
        assert eval_signal(s, 0.0) == pytest.approx(3.0)

    def test_vectorized(self):
        s = DriveSignal("sine", amplitude=1.0, frequency=2.0)
        t = np.linspace(0, 1, 11)
        assert np.allclose(eval_signal(s, t), np.sin(4 * np.pi * t))

    def test_validation(self):
        with pytest.raises(ValueError):
            DriveSignal("triangle")
        with pytest.raises(ValueError):
            DriveSignal("sine", frequency=-1.0)
        with pytest.raises(ValueError):
            DriveSignal("square", duty=1.5)


class TestIntegrate:
    def test_zero_rhs_constant(self):
        spec = IntegratorSpec(method="rk4", dt=0.1, t_end=1.0)
        tr = integrate(lambda y, t: np.zeros_like(y), [1.0], spec)
        assert np.all(tr["y0"] == 1.0)

    def test_rk4_exponential_decay(self):
        spec = IntegratorSpec(method="rk4", dt=0.01, t_end=1.0)
        tr = integrate(lambda y, t: -y, [1.0], spec)
        assert abs(tr["y0"][-1] - np.exp(-1.0)) < 1e-6

    def test_euler_hand_unrolled(self):
        # 10 Euler steps of dy/dt = -y with dt=0.1: y_n = (1 - 0.1)^n
        # (equality up to float associativity of y + dt*(-y) vs y*0.9)
        spec = IntegratorSpec(method="euler", dt=0.1, t_end=1.0)
        tr = integrate(lambda y, t: -y, [1.0], spec)
        final = tr["y0"][-1]
        assert final == pytest.approx(0.9**10, rel=5e-15)
        # and it is the Euler value, not the exact exponential
        assert abs(final - 0.9**10) < 1e-12 < abs(final - np.exp(-1.0))

    def test_deterministic_bit_identical(self):
        spec = IntegratorSpec(method="rk4", dt=0.01, t_end=2.0)
        rhs = lambda y, t: np.array([np.sin(t) - 0.3 * y[0]])
        a = integrate(rhs, [0.2], spec)
        b = integrate(rhs, [0.2], spec)
        assert np.array_equal(a["y0"], b["y0"])

    def test_rk4_order(self):
        # halving dt must reduce the error by at least 8x on dy/dt = -y
        def err(dt):
            spec = IntegratorSpec(method="rk4", dt=dt, t_end=1.0)
            tr = integrate(lambda y, t: -y, [1.0], spec)
            return abs(tr["y0"][-1] - np.exp(-1.0))

        assert err(0.1) / err(0.05) >= 8.0

    def test_divergence_names_time(self):
        spec = IntegratorSpec(method="euler", dt=0.5, t_end=100.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationDivergedError) as exc:
                integrate(lambda y, t: y**2, [10.0], spec)
        assert exc.value.time > 0

    def test_poststep_clamp(self):
        spec = IntegratorSpec(method="euler", dt=0.3, t_end=3.0)
        tr = integrate(lambda y, t: np.ones_like(y), [0.0], spec,
                       poststep=lambda y: np.minimum(y, 0.5))
        assert tr["y0"].max() == 0.5

    def test_names_and_validation(self):
        spec = IntegratorSpec(method="euler", dt=0.1, t_end=0.2)
        tr = integrate(lambda y, t: -y, [1.0, 2.0], spec, names=["a", "b"])
        assert tr.names == ("a", "b")
        with pytest.raises(ValueError):
            integrate(lambda y, t: -y, [np.inf], spec)
        with pytest.raises(ValueError):
            IntegratorSpec(method="rk45", dt=0.1, t_end=1.0)


class TestBs3:
    """The error-controlled pair against closed forms, on its uniform output grid.

    The bounds are about five times the errors seen at the module tolerances
    (rtol = atol = 1e-7): 1.7e-7 on the decay, 8.9e-7 on the damped rotation
    and 2.0e-7 on the quadrature.
    """

    @staticmethod
    def counted(rhs):
        calls = []

        def wrapped(y, t):
            calls.append(t)
            return rhs(y, t)

        return wrapped, calls

    def test_exponential_decay(self):
        spec = IntegratorSpec(method="bs3", dt=0.1, t_end=5.0)
        rhs, calls = self.counted(lambda y, t: -y)
        tr = integrate(rhs, [1.0], spec)
        assert tr.n_samples == spec.n_steps + 1
        assert tr.dt == spec.dt
        assert np.max(np.abs(tr["y0"] - np.exp(-tr.times))) < 1e-6
        # first-same-as-last: three new evaluations per attempted step
        assert (len(calls) - 1) % 3 == 0

    def test_damped_rotation(self):
        a = np.array([[-0.5, 2.0], [-2.0, -0.5]])
        spec = IntegratorSpec(method="bs3", dt=0.05, t_end=10.0)
        tr = integrate(lambda y, t: a @ y, [1.0, 0.0], spec)
        assert tr.n_samples == spec.n_steps + 1
        t = tr.times
        decay = np.exp(-0.5 * t)
        assert np.max(np.abs(tr["y0"] - decay * np.cos(2.0 * t))) < 5e-6
        assert np.max(np.abs(tr["y1"] + decay * np.sin(2.0 * t))) < 5e-6

    def test_time_dependent_rhs(self):
        spec = IntegratorSpec(method="bs3", dt=0.1, t_end=20.0)
        tr = integrate(lambda y, t: np.array([np.cos(t)]), [0.0], spec)
        assert np.max(np.abs(tr["y0"] - np.sin(tr.times))) < 1e-6

    def test_last_row_lands_on_t_end(self):
        # steps grow tenfold on an exact solution, so the last one is cut to land
        spec = IntegratorSpec(method="bs3", dt=0.3, t_end=30.0)
        tr = integrate(lambda y, t: np.ones_like(y), [0.0], spec)
        assert tr.n_samples == 101
        assert np.allclose(tr["y0"], tr.times, rtol=0.0, atol=1e-12)

    def test_poststep_on_stages_and_rows(self):
        seen = []

        def rhs(y, t):
            seen.append(y[0])
            return np.ones_like(y)

        spec = IntegratorSpec(method="bs3", dt=0.1, t_end=3.0)
        tr = integrate(rhs, [0.0], spec, poststep=lambda y: np.minimum(y, 0.5))
        assert max(seen) == tr["y0"].max() == 0.5
        assert tr["y0"][-1] == 0.5

    def test_clamped_components_leave_the_error_norm(self):
        # a second component that the clamp pins at 0 while its rate swings
        # hard: the pair takes exactly the steps of the free one alone
        alone, calls_alone = self.counted(lambda y, t: -y)
        pinned, calls_pinned = self.counted(lambda y, t: np.array([-y[0], 1e3 * np.sin(50.0 * t)]))
        spec = IntegratorSpec(method="bs3", dt=0.1, t_end=5.0)
        a = integrate(alone, [1.0], spec)
        b = integrate(pinned, [1.0, 0.0], spec, poststep=lambda y: y * [1.0, 0.0])
        assert calls_alone == calls_pinned
        assert np.array_equal(a["y0"], b["y0"])
        assert np.all(b["y1"] == 0.0)

    def test_deterministic_bit_identical(self):
        spec = IntegratorSpec(method="bs3", dt=0.01, t_end=2.0)
        rhs = lambda y, t: np.array([np.sin(t) - 0.3 * y[0]])
        assert np.array_equal(integrate(rhs, [0.2], spec)["y0"], integrate(rhs, [0.2], spec)["y0"])

    def test_step_size_underflow_raises(self):
        # y' = 1/(1 - t) has no finite value at t = 1, so no step reaches it
        def rhs(y, t):
            with np.errstate(divide="ignore"):
                return np.array([np.float64(1.0) / (1.0 - t)])

        with pytest.raises(SimulationError, match="underflow"):
            integrate(rhs, [0.0], IntegratorSpec(method="bs3", dt=0.25, t_end=1.0))

    def test_divergence_names_time(self):
        spec = IntegratorSpec(method="bs3", dt=0.5, t_end=100.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationDivergedError) as exc:
                integrate(lambda y, t: y**2, [10.0], spec, poststep=lambda y: np.where(y > 1e6, np.inf, y))
        assert exc.value.time > 0


class TestLinearResponse:
    @pytest.mark.parametrize("rate", [0.1, 1.0, 2.0])
    def test_constant_forcing_is_the_exponential_charge(self, rate):
        spec = IntegratorSpec(dt=1e-3, t_end=4.0)
        t = spec.dt * np.arange(spec.n_steps + 1)
        y = linear_response(np.ones_like, rate, spec)
        want = -np.expm1(-rate * t) / rate
        assert y[0] == 0.0
        assert np.max(np.abs(y[1:] - want[1:]) / want[1:]) < 1e-13

    @pytest.mark.parametrize("rate", [0.0, 0.5, 20.0])
    def test_sine_convolution(self, rate):
        # int_0^t e^{-rate (t-x)} A sin(w x) dx
        #   = A (rate sin wt - w cos wt + w e^{-rate t}) / (rate^2 + w^2),
        # at rate 0 the flux A (1 - cos wt) / w
        amp, f = 2.0, 4.0
        w = 2.0 * np.pi * f
        spec = IntegratorSpec(dt=1.0 / (f * 4000), t_end=2.0 / f)
        t = spec.dt * np.arange(spec.n_steps + 1)
        y = linear_response(DriveSignal("sine", amplitude=amp, frequency=f), rate, spec)
        want = amp * (rate * np.sin(w * t) - w * np.cos(w * t) + w * np.exp(-rate * t)) / (rate**2 + w**2)
        assert np.max(np.abs(y - want)) < 1e-10 * np.max(np.abs(want))

    def test_bounded_where_the_scaled_sum_overflows(self):
        # e^{rate t} = e^{1000} overflows a float; the recurrence stays at 1/rate
        spec = IntegratorSpec(dt=1e-3, t_end=10.0)
        t = spec.dt * np.arange(spec.n_steps + 1)
        y = linear_response(np.ones_like, 100.0, spec)
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y - -np.expm1(-100.0 * t) / 100.0)) < 1e-7 / 100.0

    def test_forcing_called_twice_on_grid_and_midpoints(self):
        calls = []

        def g(t):
            calls.append(np.array(t))
            return np.sin(t)

        spec = IntegratorSpec(dt=0.1, t_end=1.0)
        y = linear_response(g, 0.0, spec)
        assert len(y) == spec.n_steps + 1
        assert len(calls) == 2
        assert np.array_equal(calls[0], 0.1 * np.arange(11))
        assert np.array_equal(calls[1], calls[0][:-1] + 0.05)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_non_finite_forcing_diverges_at_first_bad_sample(self, rate):
        # g is finite up to t = 0.5 and inf from the midpoint 0.55 on, which
        # enters the step ending at t = 0.6
        spec = IntegratorSpec(dt=0.1, t_end=1.0)
        with pytest.raises(IntegrationDivergedError) as exc:
            linear_response(lambda t: np.where(t > 0.52, np.inf, 1.0), rate, spec)
        assert exc.value.time == pytest.approx(0.6)


    def test_time_varying_rate_matches_closed_form(self):
        # rate a(t) = c + d sin t; the forcing g = Y' + a Y makes Y = cos 3t + 0.5
        # the exact solution from y0 = 1.5; the scheme is third order in dt
        c, d = 1.5, 1.2
        rate = lambda t: c + d * np.sin(t)
        g = lambda t: -3.0 * np.sin(3.0 * t) + rate(t) * (np.cos(3.0 * t) + 0.5)
        errs = []
        for dt in (1e-3, 5e-4):
            spec = IntegratorSpec(dt=dt, t_end=4.0)
            t = spec.dt * np.arange(spec.n_steps + 1)
            y = linear_response(g, rate, spec, y0=1.5)
            errs.append(np.max(np.abs(y - (np.cos(3.0 * t) + 0.5))))
        assert errs[0] < 3e-11
        assert errs[0] / errs[1] > 7.0

    def test_time_varying_rate_decay(self):
        # g = 0: y = y0 exp(-(c t + d (1 - cos t)))
        c, d = 0.7, 2.0
        spec = IntegratorSpec(dt=1e-3, t_end=5.0)
        t = spec.dt * np.arange(spec.n_steps + 1)
        y = linear_response(np.zeros_like, lambda t: c + d * np.sin(t), spec, y0=0.8)
        want = 0.8 * np.exp(-(c * t + d * (1.0 - np.cos(t))))
        assert np.max(np.abs(y - want)) < 1e-12

    def test_bounds_hold_the_path(self):
        # y = 0.2 + t until it reaches 0.5, held there after every later step
        spec = IntegratorSpec(dt=1e-2, t_end=1.0)
        t = spec.dt * np.arange(spec.n_steps + 1)
        y = linear_response(np.ones_like, 0.0, spec, y0=0.2, bounds=(0.0, 0.5))
        assert np.max(np.abs(y - np.minimum(0.2 + t, 0.5))) < 1e-14
        assert y.max() == 0.5


def savetxt_text(tr: Trace) -> str:
    """The CSV text of ``tr`` as ``np.savetxt`` writes it, as an oracle for ``Trace.to_csv``."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack([tr.times, *tr.channels.values()]), fmt="%.17g",
               delimiter=",", header="t," + ",".join(tr.names), comments="")
    return buf.getvalue()


@st.composite
def csv_traces(draw):
    """Traces whose row counts sit at, around and past ``to_csv``'s block size."""
    n_columns = draw(st.one_of(st.integers(2, 9), st.sampled_from(
        (1000, CSV_BLOCK_VALUES // 2, CSV_BLOCK_VALUES - 1, CSV_BLOCK_VALUES,
         CSV_BLOCK_VALUES + 1, CSV_BLOCK_VALUES + 3))), label="columns")
    block = max(1, CSV_BLOCK_VALUES // n_columns)
    n_rows = draw(st.one_of(st.just(1), st.sampled_from((block - 1, block, block + 1)).filter(bool),
                            st.integers(2, 3 * block + 1)), label="rows")
    pool = draw(st.lists(st.floats(), min_size=1, max_size=12), label="values")
    pool += [0.0, -0.0, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.choice(np.array(pool), size=(n_columns - 1, n_rows))
    t0 = draw(st.floats(-1e6, 1e6), label="t0")
    dt = draw(st.floats(1e-9, 1e3), label="dt")
    return Trace(t0=t0, dt=dt, channels={f"c{i}": v for i, v in enumerate(values)})


class TestTrace:
    def test_csv_roundtrip(self, tmp_path):
        tr = Trace(t0=0.0, dt=0.5, channels={"a": [1.0, 2.0, 3.0], "b": [0.1, 0.2, 0.3]})
        path = tmp_path / "t.csv"
        tr.to_csv(str(path))
        assert path.read_text().splitlines()[0] == "t,a,b"
        # %.17g round-trips every double, so the file reads back exactly
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back, np.column_stack([tr.times, tr["a"], tr["b"]]))

    @settings(max_examples=60, deadline=None)
    @given(tr=csv_traces())
    def test_bytes_match_savetxt(self, tr, tmp_path_factory):
        want = savetxt_text(tr)
        assert tr.to_csv_text() == want
        buf = io.StringIO()
        tr.to_csv(buf)
        assert buf.getvalue() == want
        path = tmp_path_factory.mktemp("csv") / "trace.csv"
        tr.to_csv(str(path))
        assert path.read_bytes() == want.encode()
        path.unlink()
        tr.to_csv(path)
        assert path.read_bytes() == want.encode()

    def test_writing_copies_no_whole_trace(self, tmp_path):
        rng = np.random.default_rng(5)
        tr = Trace(t0=0.0, dt=1e-3, channels={n: rng.standard_normal(100_000) for n in "abc"})
        tracemalloc.start()
        try:
            tr.to_csv(tmp_path / "big.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 100 000 x 4 stack alone would be 3.2 MB
        assert peak < 1.5e6
        assert (tmp_path / "big.csv").read_text().count("\n") == 100_001

    def test_cells_match_format_17g(self, tmp_path):
        vals = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308]
        tr = Trace(t0=-1.0, dt=0.1, channels={"x": vals, "y": vals[::-1]})
        want = "t,x,y\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in zip(tr.times, vals, vals[::-1]))
        buf = io.StringIO()
        tr.to_csv(buf)
        assert buf.getvalue() == want
        assert tr.to_csv_text() == want
        tr.to_csv(tmp_path / "x.csv")
        assert (tmp_path / "x.csv").read_text() == want

    def test_header_format(self):
        tr = Trace(t0=0.0, dt=1.0, channels={"x": [1.0]})
        assert tr.to_csv_text().splitlines()[0] == "t,x"

    def test_validation(self):
        with pytest.raises(ValueError):
            Trace(t0=0.0, dt=0.0, channels={"a": [1.0]})
        with pytest.raises(ValueError):
            Trace(t0=0.0, dt=1.0, channels={"a": [1.0], "b": [1.0, 2.0]})
        with pytest.raises(ValueError):
            Trace(t0=0.0, dt=1.0, channels={})


class TestLoopArea:
    def test_resistor_is_degenerate(self):
        t = np.linspace(0, 1, 400, endpoint=False)
        v = np.sin(2 * np.pi * t)
        assert loop_area(v, v / 3.0) < 1e-12

    def test_unit_circle(self):
        th = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
        assert loop_area(np.cos(th), np.sin(th)) == pytest.approx(np.pi, rel=0.01)

    def test_rotation_invariance(self):
        th = np.linspace(0, 2 * np.pi, 1500, endpoint=False)
        v = np.cos(th) + 0.3 * np.cos(2 * th)
        i = np.sin(th) - 0.2 * np.sin(3 * th)
        a0 = loop_area(v, i)
        for shift in (137, 512, 999):
            a1 = loop_area(np.roll(v, shift), np.roll(i, shift))
            assert abs(a1 - a0) <= 1e-6 * a0

    def test_figure_eight_lobes_add(self):
        # two symmetric lobes whose signed areas cancel must still count
        th = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        v = np.sin(th)
        i = np.sin(th) * np.cos(th)
        signed = 0.5 * abs(np.sum(v * np.roll(i, -1) - np.roll(v, -1) * i))
        assert signed < 1e-10
        assert loop_area(v, i) > 0.1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            loop_area([1.0, 2.0], [1.0, 2.0, 3.0])


class TestPowerSpectrumExponent:
    def test_white_noise_flat(self):
        rng = np.random.default_rng(7)
        n, dt = 4096, 1e-3
        tr = Trace(t0=0.0, dt=dt, channels={"x": rng.standard_normal(n)})
        slope = power_spectrum_exponent(tr, "x", (4 / (n * dt), 0.25 / dt))
        assert abs(slope) <= 0.2

    def test_inverse_time_relaxation(self):
        # t^gamma with gamma=-1 (regularized start): P(omega) ~ omega^(-(1-gamma))
        n, dt = 4096, 1e-3
        big_t = n * dt
        t = np.arange(n) * dt
        tr = Trace(t0=0.0, dt=dt, channels={"x": 1.0 / (t + 0.01 * big_t)})
        slope = power_spectrum_exponent(tr, "x", (10 / big_t, 0.1 / dt))
        assert abs(slope - (-2.0)) <= 0.3

    def test_log_uniform_exponential_mixture(self):
        # Lorentzian-mixture oracle: rates drawn log-uniform over 4 decades
        rng = np.random.default_rng(0)
        n, dt = 4096, 1e-3
        t = np.arange(n) * dt
        lam = np.exp(rng.uniform(np.log(1.0), np.log(1e4), 400))
        x = np.exp(-np.outer(t, lam)).mean(axis=1)
        tr = Trace(t0=0.0, dt=dt, channels={"x": x})
        slope = power_spectrum_exponent(tr, "x", (10 / (n * dt), 0.1 / dt))
        assert -2.0 < slope < -1.0

    def test_pure_line_rejected(self):
        # an exact-period sinusoid has a single spectral line: band empties out
        n, dt = 2048, 1e-3
        t = np.arange(n) * dt
        tr = Trace(t0=0.0, dt=dt, channels={"x": np.sin(2 * np.pi * 32 / (n * dt) * t / 32 * 32)})
        with pytest.raises(ValueError, match="empty"):
            power_spectrum_exponent(tr, "x", (60.0, 200.0))

    def test_preconditions(self):
        tr = Trace(t0=0.0, dt=1e-3, channels={"x": np.ones(512)})
        with pytest.raises(ValueError, match="1024"):
            power_spectrum_exponent(tr, "x", (1.0, 10.0))
        tr = Trace(t0=0.0, dt=1e-3, channels={"x": np.ones(2048)})
        with pytest.raises(ValueError, match="Nyquist"):
            power_spectrum_exponent(tr, "x", (10.0, 1e6))


class TestSimulationCostMetrics:
    def test_constant_trace(self):
        tr = Trace(t0=0.0, dt=0.1, channels={"x": np.full(10, 2.0)})
        r, eps = simulation_cost_metrics(tr, [5.0])
        assert r == 0.0
        assert eps == pytest.approx(3.0)

    def test_sine_curvature(self):
        t = np.arange(0, 10, 1e-4)
        tr = Trace(t0=0.0, dt=1e-4, channels={"x": np.sin(t)})
        r, _ = simulation_cost_metrics(tr, [np.sin(10.0)])
        assert r == pytest.approx(1.0, rel=0.01)

    def test_reference_at_final(self):
        t = np.arange(0, 1, 0.01)
        tr = Trace(t0=0.0, dt=0.01, channels={"x": t**2, "y": t})
        _, eps = simulation_cost_metrics(tr, [tr["x"][-1], tr["y"][-1]])
        assert eps == 0.0

    def test_too_few_samples(self):
        tr = Trace(t0=0.0, dt=0.1, channels={"x": [1.0, 2.0]})
        with pytest.raises(ValueError):
            simulation_cost_metrics(tr, [0.0])
