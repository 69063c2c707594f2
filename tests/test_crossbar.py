import numpy as np
import pytest

from memsim.core import IntegratorSpec, integrate
from memsim.devices import HpParams, hp_analytic_w, hp_resistance
from memsim.crossbar import (
    AmbiguousBitError,
    Crossbar,
    EnergyParams,
    PulseSpec,
    StdpKernel,
    UnreachableDeltaError,
    UnrealizableTargetError,
    UpdateRule,
    apply_update,
    energy_estimates,
    nodal_oracle,
    program_matrix,
    read_bit,
    read_mvm,
    stdp_program,
    switching_time,
    write_constants,
    write_pulse,
)

HP = HpParams(alpha=0.0, beta=3e-4, r_on=1000.0, r_off=100000.0)


def make_xb(m, r_out=None, hp=HP):
    m = np.asarray(m, dtype=float)
    if r_out is None:
        r_out = np.full(m.shape[0], 10000.0)
    return Crossbar(m=m, r_out=np.asarray(r_out, dtype=float), hp=hp)


class TestReadMvm:
    def test_single_cell_voltage_divider(self):
        xb = make_xb([[2000.0]], r_out=[500.0])
        xi = np.array([1.2])
        want = xi[0] * 500.0 / (500.0 + 2000.0)
        assert read_mvm(xb, xi)[0] == pytest.approx(want, rel=1e-12)

    def test_weak_coupling_limit(self):
        hp = HpParams(alpha=0.0, beta=1.0, r_on=1.0, r_off=1e12)
        xb = make_xb(np.full((2, 3), 1e12), r_out=[100.0, 100.0], hp=hp)
        eta = read_mvm(xb, np.array([1.0, 1.0, 1.0]))
        assert np.all(np.abs(eta) < 1e-8)

    def test_matches_nodal_oracle_4x5(self):
        rng = np.random.default_rng(0)
        xb = make_xb(rng.uniform(HP.r_on, HP.r_off, (4, 5)),
                     r_out=rng.uniform(1e3, 1e4, 4))
        xi = rng.uniform(-1, 1, 5)
        eta = read_mvm(xb, xi)
        ref = nodal_oracle(xb, xi)
        assert np.max(np.abs(eta - ref) / np.abs(ref)) < 1e-9

    def test_matches_nodal_oracle_100_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            xb = make_xb(rng.uniform(HP.r_on, HP.r_off, (rows, cols)),
                         r_out=rng.uniform(1e2, 1e4, rows))
            xi = rng.uniform(-1, 1, cols)
            eta = read_mvm(xb, xi)
            ref = nodal_oracle(xb, xi)
            denom = np.maximum(np.abs(ref), 1e-30)
            assert np.max(np.abs(eta - ref) / denom) < 1e-9

    def test_row_independence(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(HP.r_on, HP.r_off, (4, 4))
        xi = rng.uniform(-1, 1, 4)
        base = read_mvm(make_xb(m), xi)
        m2 = m.copy()
        m2[2, 1] = HP.r_on  # change a cell in row 2 only
        eta = read_mvm(make_xb(m2), xi)
        assert np.array_equal(eta[[0, 1, 3]], base[[0, 1, 3]])
        assert eta[2] != base[2]

    def test_dimension_mismatch(self):
        xb = make_xb(np.full((2, 3), 5000.0))
        with pytest.raises(ValueError):
            read_mvm(xb, np.ones(4))

    def test_read_is_non_destructive(self):
        xb = make_xb(np.full((2, 2), 5000.0))
        before = xb.m.copy()
        read_mvm(xb, np.ones(2))
        assert np.array_equal(xb.m, before)


class TestSwitchingTime:
    def test_inverse_proportionality(self):
        assert switching_time(HP, 2.0) == pytest.approx(0.5 * switching_time(HP, 1.0))

    def test_full_swing_under_closed_form(self):
        b = write_constants(HP)
        tau = switching_time(HP, 1.0)
        assert np.sqrt(b * 1.0 * tau) == pytest.approx(1.0)

    def test_consistent_with_ode_integration(self):
        # direct integration of the write ODE from w=0 to w=1 (RESET polarity)
        v = -1.0

        def rhs(y, t):
            w = float(np.clip(y[0], 0.0, 1.0))
            return np.array([-v / (HP.beta * hp_resistance(w, HP))])

        tau = switching_time(HP, v)
        spec = IntegratorSpec(method="rk4", dt=tau / 4000, t_end=1.2 * tau)
        w = integrate(rhs, [0.0], spec).rows[:, 0]
        crossing = spec.dt * np.searchsorted(w, 1.0)
        assert abs(crossing - tau) / tau < 0.05

    def test_zero_voltage_rejected(self):
        with pytest.raises(ValueError):
            switching_time(HP, 0.0)


class TestWritePulse:
    def test_zero_voltage_no_change(self):
        xb = make_xb(np.full((2, 2), 5000.0))
        tau = switching_time(HP, 1.0)
        with pytest.raises(ValueError):
            PulseSpec(v_write=0.0, duration=tau, v_read=0.0)

    def test_full_set_reaches_r_on(self):
        xb = make_xb(np.full((1, 1), 50000.0))
        tau = switching_time(HP, 1.0)
        out = write_pulse(xb, 0, 0, PulseSpec(v_write=1.0, duration=1.5 * tau, v_read=1e-3))
        assert out.m[0, 0] == pytest.approx(HP.r_on)
        assert out.w[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_full_reset_reaches_r_off(self):
        xb = make_xb(np.full((1, 1), 50000.0))
        tau = switching_time(HP, 1.0)
        out = write_pulse(xb, 0, 0, PulseSpec(v_write=-1.0, duration=1.5 * tau, v_read=1e-3))
        assert out.m[0, 0] == pytest.approx(HP.r_off)

    def test_half_pulse_matches_flux_solution(self):
        xb = make_xb(np.full((1, 1), HP.r_on))   # w = 0
        tau = switching_time(HP, 1.0)
        out = write_pulse(xb, 0, 0, PulseSpec(v_write=-1.0, duration=tau / 2, v_read=1e-3))
        want = hp_analytic_w(-1.0 * tau / 2, 0.0, HP)
        assert out.w[0, 0] == pytest.approx(want, abs=1e-6)
        # the sqrt(b V t) form neglects r_on; it should agree loosely here
        b = write_constants(HP)
        assert out.w[0, 0] == pytest.approx(np.sqrt(b * 1.0 * tau / 2), rel=0.05)

    @pytest.mark.parametrize("hp", [HP, HpParams(alpha=0.0, beta=1e-3, r_on=100.0, r_off=1600.0,
                                                 polarity=-1)])
    def test_closed_form_matches_rk4_reference(self, hp):
        # 4096-substep rk4 of dw/dt = -polarity*v/(beta*R(w)) with the state
        # clamped to [0, 1], vectorized over the cells of one row
        rng = np.random.default_rng(11)
        n = 200
        v = rng.choice([-1.0, 1.0], n) * rng.uniform(0.05, 2.0, n)
        duration = rng.uniform(0.0, 1.5, n) * np.array([switching_time(hp, vk) for vk in v])
        xb = make_xb(hp_resistance(rng.uniform(0.0, 1.0, (1, n)), hp), hp=hp)
        w = xb.w[0].copy()
        steps = 4096
        dt = duration / steps
        rate = lambda wv: -hp.polarity * v / (hp.beta * hp_resistance(np.clip(wv, 0.0, 1.0), hp))
        for _ in range(steps):
            k1 = rate(w)
            k2 = rate(w + 0.5 * dt * k1)
            k3 = rate(w + 0.5 * dt * k2)
            k4 = rate(w + dt * k3)
            w = np.clip(w + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4), 0.0, 1.0)
        for j in range(n):
            xb = write_pulse(xb, 0, j, PulseSpec(v_write=v[j], duration=duration[j], v_read=0.0))
        assert np.max(np.abs(xb.w[0] - w)) <= 1e-9
        assert np.count_nonzero((w == 0.0) | (w == 1.0)) >= 20  # saturating pulses included

    def test_snapshots_immutable(self):
        xb = make_xb(np.full((1, 1), 50000.0))
        tau = switching_time(HP, 1.0)
        write_pulse(xb, 0, 0, PulseSpec(v_write=1.0, duration=tau, v_read=1e-3))
        assert xb.m[0, 0] == 50000.0

    def test_bad_index(self):
        xb = make_xb(np.full((2, 2), 5000.0))
        with pytest.raises(IndexError):
            write_pulse(xb, 2, 0, PulseSpec(v_write=1.0, duration=1.0, v_read=1e-3))


class TestReadBit:
    def setup_method(self):
        self.tau = switching_time(HP, 1.0)
        self.pulse = PulseSpec(v_write=1.0, duration=1.2 * self.tau, v_read=1e-3)

    def test_set_then_read_one(self):
        xb = make_xb(np.full((1, 1), 50000.0))
        xb = write_pulse(xb, 0, 0, self.pulse)
        bit, _ = read_bit(xb, 0, 0, self.pulse)
        assert bit == 1

    def test_reset_then_read_zero(self):
        xb = make_xb(np.full((1, 1), 50000.0))
        xb = write_pulse(xb, 0, 0, PulseSpec(v_write=-1.0, duration=1.2 * self.tau, v_read=1e-3))
        bit, _ = read_bit(xb, 0, 0, self.pulse)
        assert bit == 0

    def test_guard_band_ambiguity(self):
        mid = 0.5 * (HP.r_on + HP.r_off)
        xb = make_xb(np.full((1, 1), mid))
        with pytest.raises(AmbiguousBitError):
            read_bit(xb, 0, 0, self.pulse)

    def test_read_disturbance_bounded(self):
        xb = make_xb(np.full((1, 1), HP.r_off))
        _, after = read_bit(xb, 0, 0, self.pulse)
        assert 0.0 < abs(after.w[0, 0] - xb.w[0, 0]) < 1e-3

    def test_hundred_reads_stable(self):
        xb = make_xb(np.full((1, 1), 50000.0))
        xb = write_pulse(xb, 0, 0, self.pulse)
        first, xb = read_bit(xb, 0, 0, self.pulse)
        for _ in range(99):
            bit, xb = read_bit(xb, 0, 0, self.pulse)
            assert bit == first

    def test_full_array_write_read(self):
        rng = np.random.default_rng(3)
        xb = make_xb(np.full((8, 8), 50000.0))
        bits = rng.integers(0, 2, (8, 8))
        reset = PulseSpec(v_write=-1.0, duration=1.2 * self.tau, v_read=1e-3)
        for i in range(8):
            for j in range(8):
                xb = write_pulse(xb, i, j, self.pulse if bits[i, j] else reset)
        for i in range(8):
            for j in range(8):
                bit, xb = read_bit(xb, i, j, self.pulse)
                assert bit == bits[i, j]


class TestVolatileDeviceRejected:
    HPV = HpParams(alpha=0.1, beta=3e-4, r_on=1000.0, r_off=100000.0)
    PULSE = PulseSpec(v_write=1.0, duration=1.0, v_read=1e-3)

    def test_write_pulse(self):
        with pytest.raises(ValueError, match="alpha=0"):
            write_pulse(make_xb([[HP.r_off]], hp=self.HPV), 0, 0, self.PULSE)

    def test_read_bit(self):
        with pytest.raises(ValueError, match="alpha=0"):
            read_bit(make_xb([[HP.r_off]], hp=self.HPV), 0, 0, self.PULSE)


class TestProgramMatrix:
    def test_round_trip_achievable_target(self):
        rng = np.random.default_rng(4)
        source = make_xb(rng.uniform(2 * HP.r_on, HP.r_off / 2, (4, 5)),
                         r_out=rng.uniform(1e3, 5e3, 4))
        target = (1.0 / source.m) / (1.0 / source.r_out[:, None]
                                     + (1.0 / source.m).sum(axis=1)[:, None])
        blank = make_xb(np.full((4, 5), 5000.0), r_out=source.r_out)
        programmed = program_matrix(blank, target)
        g = 1.0 / programmed.m
        achieved = g / (1.0 / programmed.r_out + g.sum(axis=1))[:, None]
        assert np.max(np.abs(achieved - target)) < 1e-6

    def test_zero_target_parks_at_r_off(self):
        xb = make_xb(np.full((2, 2), 5000.0))
        out = program_matrix(xb, np.zeros((2, 2)))
        assert np.all(out.m == HP.r_off)

    def test_single_cell_closed_form(self):
        xb = make_xb([[5000.0]], r_out=[2000.0])
        a = 0.25
        out = program_matrix(xb, np.array([[a]]))
        achieved = (1 / out.m[0, 0]) / (1 / 2000.0 + 1 / out.m[0, 0])
        assert abs(achieved - a) < 1e-6  # the iteration's own stopping tolerance
        # invert the voltage divider: A = R/(R+M) -> M = R(1-A)/A
        # (the 1e-6 tolerance on A maps to ~5e-6 relative on M)
        assert out.m[0, 0] == pytest.approx(2000.0 * (1 - a) / a, rel=2e-5)

    def test_row_sum_infeasible(self):
        xb = make_xb(np.full((1, 2), 5000.0))
        with pytest.raises(UnrealizableTargetError):
            program_matrix(xb, np.array([[0.6, 0.5]]))

    def test_entry_out_of_range_listed(self):
        xb = make_xb(np.full((1, 2), 5000.0), r_out=[1e9])
        # huge r_out makes required memristances tiny: infeasible
        with pytest.raises(UnrealizableTargetError) as exc:
            program_matrix(xb, np.array([[0.4, 0.4]]))
        assert (0, 0) in exc.value.entries

    def test_negative_target_rejected(self):
        xb = make_xb(np.full((1, 1), 5000.0))
        with pytest.raises(UnrealizableTargetError):
            program_matrix(xb, np.array([[-0.1]]))


class TestApplyUpdate:
    def test_zero_eta_identity(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 3))
        for kind, data in (
            ("generic", lambda m: np.ones_like(m)),
            ("adaline", rng.normal(size=3)),
            ("sanger", rng.normal(size=3)),
            ("gradient", (rng.normal(size=3), rng.normal(size=3))),
        ):
            out = apply_update(w, UpdateRule(kind, eta=0.0), data)
            assert np.array_equal(out, w)

    def test_generic_zero_function_identity(self):
        w = np.eye(3)
        out = apply_update(w, UpdateRule("generic", eta=1.0), lambda m: np.zeros_like(m))
        assert np.array_equal(out, w)

    def test_adaline_rank_one(self):
        x = np.array([1.0, -2.0, 0.5])
        w = np.zeros((3, 3))
        out = apply_update(w, UpdateRule("adaline", eta=0.3), x)
        assert np.allclose(out, 0.3 * np.outer(x, x), atol=1e-15)

    def test_gradient_step(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(2, 3))
        x = rng.normal(size=3)
        t = rng.normal(size=2)
        out = apply_update(w, UpdateRule("gradient", eta=0.1), (x, t))
        assert np.allclose(out, w + 0.2 * np.outer(t - w @ x, x), atol=1e-15)

    def test_sanger_converges_to_principal_axis(self):
        rng = np.random.default_rng(7)
        xs = rng.multivariate_normal([0, 0], np.diag([4.0, 1.0]), size=500)
        w = 0.1 * rng.standard_normal((2, 2))
        rule = UpdateRule("sanger", eta=0.02)
        for x in xs:
            w = apply_update(w, rule, x)
        evec = np.linalg.eigh(np.cov(xs.T))[1][:, -1]  # eigendecomposition oracle
        lead = w[0] / np.linalg.norm(w[0])
        angle = np.degrees(np.arccos(min(1.0, abs(float(lead @ evec)))))
        assert angle < 5.0

    def test_sanger_literal_form(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(2, 2))
        x = rng.normal(size=2)
        out = apply_update(w, UpdateRule("sanger", eta=0.1, literal=True), x)
        o = w @ x
        want = w + 0.2 * np.outer(o, x - (2 * w - np.eye(2)) @ o)
        assert np.allclose(out, want, atol=1e-15)

    def test_sanger_literal_requires_square(self):
        with pytest.raises(ValueError):
            apply_update(np.zeros((1, 2)), UpdateRule("sanger", eta=0.1, literal=True),
                         np.ones(2))

    @pytest.mark.parametrize("kind", ["generic", "adaline", "gradient"])
    def test_literal_form_is_sanger_only(self, kind):
        with pytest.raises(ValueError, match="sanger"):
            UpdateRule(kind, eta=0.1, literal=True)
        assert not UpdateRule(kind, eta=0.1).literal


class TestStdp:
    KERNEL = StdpKernel(a_plus=0.2, a_minus=0.2, tau_plus=0.02, tau_minus=0.02)

    def test_large_timing_gives_vanishing_pulse(self):
        for dt_spike in (1.0, -1.0):
            pulse = stdp_program(dt_spike, self.KERNEL, HP)
            assert pulse.duration < 1e-12

    def test_causal_pairing_is_set_polarity(self):
        pulse = stdp_program(0.0, self.KERNEL, HP)  # dt -> 0+ potentiates
        assert pulse.v_write > 0

    def test_anticausal_is_reset_polarity(self):
        pulse = stdp_program(-0.001, self.KERNEL, HP)
        assert pulse.v_write < 0

    def test_round_trip_through_write(self):
        for dt_spike in (-0.02, -0.005, 0.0, 0.005, 0.02):
            pulse = stdp_program(dt_spike, self.KERNEL, HP)
            xb = make_xb([[0.5 * (HP.r_on + HP.r_off)]])  # w = 0.5 anchor
            out = write_pulse(xb, 0, 0, pulse)
            achieved = out.w[0, 0] - 0.5
            want = -self.KERNEL(dt_spike)
            assert achieved == pytest.approx(want, rel=0.02)

    def test_unreachable_delta(self):
        kernel = StdpKernel(a_plus=0.9, a_minus=0.9, tau_plus=0.02, tau_minus=0.02)
        with pytest.raises(UnreachableDeltaError):
            stdp_program(0.0, kernel, HP)


class TestEnergyEstimates:
    def test_hand_substitution(self):
        est = energy_estimates(EnergyParams(p_err=np.exp(-1.0), l_bits=2, n=1, kt=1.0))
        assert est.e_gate == pytest.approx(2.0)
        assert est.e_dig == pytest.approx(24.0)
        assert est.e_memr == pytest.approx(1.0 / 6.0)

    def test_scaling_in_n(self):
        base = energy_estimates(EnergyParams(p_err=1e-9, l_bits=8, n=4, kt=1.0))
        doubled = energy_estimates(EnergyParams(p_err=1e-9, l_bits=8, n=8, kt=1.0))
        assert doubled.e_dig == pytest.approx(2.0 * base.e_dig)
        assert doubled.e_memr == pytest.approx(4.0 * base.e_memr)

    def test_error_free_limit(self):
        est = energy_estimates(EnergyParams(p_err=1.0 - 1e-12, l_bits=4, n=3, kt=1.0))
        assert abs(est.e_gate) < 1e-10
        assert abs(est.e_dig) < 1e-9
        assert abs(est.e_memr) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyParams(p_err=0.0, l_bits=2, n=1)
        with pytest.raises(ValueError):
            EnergyParams(p_err=0.5, l_bits=0, n=1)


class TestCrossbarValidation:
    def test_memristance_bounds_enforced(self):
        with pytest.raises(ValueError):
            make_xb(np.full((1, 1), HP.r_off * 2))

    def test_r_out_positive(self):
        with pytest.raises(ValueError):
            make_xb(np.full((1, 1), 5000.0), r_out=[0.0])
