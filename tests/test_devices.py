import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memsim.core import DriveSignal, IntegratorSpec, IntegrationDivergedError, integrate, loop_area
from memsim.devices import (
    ChangParams,
    FilmParams,
    HhParams,
    HpParams,
    PickettParams,
    SaturationError,
    SpinTorqueParams,
    ThresholdDeviceParams,
    WindowSpec,
    beta_from_film,
    chang_model,
    clamp01,
    clamped_rate,
    hh_model,
    hp_analytic_w,
    hp_flux_coordinate,
    hp_resistance,
    hp_rhs,
    hp_volatile_analytic,
    joglekar_window,
    pickett_rhs,
    simulate_hp_voltage_driven,
    spin_torque_model,
    threshold_device_rhs,
    threshold_f,
)

HP_FIG = HpParams(alpha=0.0, beta=3e-4, r_on=1000.0, r_off=6000.0)


class TestHpBasics:
    def test_rhs_no_drive_no_drift(self):
        assert hp_rhs(0.3, 0.0, HpParams(alpha=0.0, beta=1.0, r_on=1, r_off=2)) == 0.0

    def test_rhs_volatility_term(self):
        p = HpParams(alpha=0.1, beta=1.0, r_on=1, r_off=2)
        assert hp_rhs(0.2, 0.0, p) == pytest.approx(0.02)

    def test_rhs_current_scale(self):
        p = HpParams(alpha=0.0, beta=3e-4, r_on=1, r_off=2)
        assert hp_rhs(0.5, 3e-4, p) == pytest.approx(-1.0)

    def test_rhs_polarity_flag(self):
        p = HpParams(alpha=0.0, beta=3e-4, r_on=1, r_off=2, polarity=-1)
        assert hp_rhs(0.5, 3e-4, p) == pytest.approx(+1.0)

    def test_resistance_endpoints_and_midpoint(self):
        assert hp_resistance(0.0, HP_FIG) == 1000.0
        assert hp_resistance(1.0, HP_FIG) == 6000.0
        assert hp_resistance(0.5, HP_FIG) == pytest.approx(3500.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            HpParams(alpha=0.0, beta=1.0, r_on=2.0, r_off=1.0)
        with pytest.raises(ValueError):
            HpParams(alpha=-1.0, beta=1.0, r_on=1.0, r_off=2.0)
        with pytest.raises(ValueError):
            HpParams(alpha=0.0, beta=0.0, r_on=1.0, r_off=2.0)


class TestJoglekarWindow:
    def test_vanishes_at_ends(self):
        assert joglekar_window(0.0, 1) == 0.0
        assert joglekar_window(1.0, 3) == 0.0

    def test_peak_at_half(self):
        for p in (1, 2, 5):
            assert joglekar_window(0.5, p) == 1.0

    def test_quarter_point(self):
        assert joglekar_window(0.25, 1) == pytest.approx(0.75)

    def test_symmetry(self):
        w = np.linspace(0, 1, 101)
        for p in (1, 2, 4):
            assert np.allclose(joglekar_window(w, p), joglekar_window(1 - w, p), atol=1e-14)

    def test_windowed_rhs(self):
        p = HpParams(alpha=0.0, beta=1.0, r_on=1, r_off=2)
        win = WindowSpec(kind="joglekar", p=1)
        # at the boundary the window kills the drive term entirely
        assert hp_rhs(1.0, 5.0, p, win) == 0.0
        assert hp_rhs(0.5, 1.0, p, win) == pytest.approx(-1.0)


class TestHpAnalytic:
    def test_zero_flux_returns_w0(self):
        assert hp_analytic_w(0.0, 0.37, HP_FIG) == pytest.approx(0.37)

    def test_whole_periods_return_to_w0(self):
        # integral of a sinusoid over whole periods vanishes: resistor limit
        assert hp_analytic_w(0.0, 0.5, HP_FIG) == pytest.approx(0.5, abs=1e-12)
        f = 50.0
        phi_full = 1.0 * (1 - np.cos(2 * np.pi * f * (1.0 / f))) / (2 * np.pi * f)
        assert hp_analytic_w(phi_full, 0.5, HP_FIG) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("polarity", [1, -1])
    def test_matches_rk4_oracle_dc(self, polarity):
        p = HpParams(alpha=0.0, beta=3e-4, r_on=1000.0, r_off=6000.0, polarity=polarity)
        v0 = 0.5

        def rhs(y, t):
            w = float(np.clip(y[0], 0.0, 1.0))
            i = v0 / hp_resistance(w, p)
            return np.array([hp_rhs(w, i, p)])

        spec = IntegratorSpec(method="rk4", dt=1e-4, t_end=0.2)
        w = integrate(rhs, [0.5], spec)[:, 0]
        w_pred = hp_analytic_w(v0 * spec.dt * np.arange(len(w)), 0.5, p)
        assert np.max(np.abs(w_pred - w)) < 1e-6

    def test_matches_rk4_oracle_sinusoid(self):
        p = HP_FIG
        f = 2.0
        drive = DriveSignal("sine", amplitude=1.0, frequency=f)

        def rhs(y, t):
            w = float(np.clip(y[0], 0.0, 1.0))
            i = drive(t) / hp_resistance(w, p)
            return np.array([hp_rhs(w, i, p)])

        spec = IntegratorSpec(method="rk4", dt=1e-4, t_end=1.0)
        w = integrate(rhs, [0.5], spec)[:, 0]
        phi = 1.0 * (1 - np.cos(2 * np.pi * f * spec.dt * np.arange(len(w)))) / (2 * np.pi * f)
        w_pred = hp_analytic_w(phi, 0.5, p)
        rel = np.abs(w_pred - w) / np.abs(w)
        assert rel.max() < 1e-6

    def test_saturation_error(self):
        with pytest.raises(SaturationError):
            hp_analytic_w(1e3, 0.5, HP_FIG)  # enormous flux drives w out of [0,1]

    def test_requires_nonvolatile(self):
        p = HpParams(alpha=0.1, beta=1.0, r_on=1, r_off=2)
        with pytest.raises(ValueError):
            hp_analytic_w(0.0, 0.5, p)

    def test_degenerate_xi(self):
        p = HpParams(alpha=0.0, beta=1.0, r_on=100.0, r_off=100.0)
        # xi = 0: w = w0 - polarity*phi/(beta r_on)
        assert hp_analytic_w(5.0, 0.5, p) == pytest.approx(0.5 - 5.0 / 100.0)


class TestFluxCoordinate:
    def test_root_of_shifted_coordinate_is_the_analytic_memory(self):
        for w0, phi in ((0.5, 1e-4), (0.1, -2e-4), (0.9, 0.0)):
            w1 = hp_analytic_w(phi, w0, HP_FIG)
            assert hp_flux_coordinate(w1, HP_FIG) == pytest.approx(
                hp_flux_coordinate(w0, HP_FIG, phi), rel=1e-12, abs=1e-15)

    def test_bounds(self):
        assert hp_flux_coordinate(0.0, HP_FIG) == 0.0
        assert hp_flux_coordinate(1.0, HP_FIG) == pytest.approx(0.5 * HP_FIG.xi + 1.0)


class TestClampedRate:
    def test_zeroes_only_outward_rates_at_a_bound(self):
        y = np.array([0.0, 0.0, 1.0, 1.0, 0.5])
        dy = np.array([-1.0, 2.0, 3.0, -4.0, -5.0])
        assert list(clamped_rate(y, dy, 0.0, 1.0)) == [0.0, 2.0, 0.0, -4.0, -5.0]

    def test_general_bounds(self):
        # the amoeba's memristance lives in [r1, r2]
        assert clamped_rate(3.0, -0.5, 3.0, 20.0) == 0.0
        assert clamped_rate(20.0, 0.5, 3.0, 20.0) == 0.0
        assert clamped_rate(7.0, -0.5, 3.0, 20.0) == -0.5


class TestClamp01:
    @given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan])),
                    max_size=40))
    def test_bit_for_bit_np_clip(self, values):
        # floats() draws NaN, +-inf, +-0 and values far outside [0, 1]
        w = np.array(values, dtype=float)
        assert np.array_equal(clamp01(w).view(np.int64), np.clip(w, 0.0, 1.0).view(np.int64))
        for x in values[:4]:
            assert np.array_equal(np.float64(clamp01(x)).view(np.int64),
                                  np.float64(np.clip(x, 0.0, 1.0)).view(np.int64))


class TestHpVolatileAnalytic:
    def test_zero_current_decay_law(self):
        p = HpParams(alpha=0.5, beta=1.0, r_on=1, r_off=2)
        zero = DriveSignal("dc", amplitude=0.0)
        for t in (0.1, 0.5, 1.0):
            assert hp_volatile_analytic(zero, 0.3, p, t) == pytest.approx(0.3 * np.exp(0.5 * t))

    def test_t_zero(self):
        p = HpParams(alpha=0.5, beta=1.0, r_on=1, r_off=2)
        assert hp_volatile_analytic(DriveSignal("dc", amplitude=1.0), 0.3, p, 0.0) == 0.3

    @pytest.mark.parametrize("polarity", [1, -1])
    def test_matches_rk4_oracle_dc_current(self, polarity):
        p = HpParams(alpha=0.4, beta=2.0, r_on=1, r_off=2, polarity=polarity)
        i0 = 0.3
        spec = IntegratorSpec(method="rk4", dt=1e-4, t_end=1.0)
        rows = integrate(lambda y, t: np.array([hp_rhs(y[0], i0, p)]), [0.25], spec)
        pred = hp_volatile_analytic(DriveSignal("dc", amplitude=i0), 0.25, p, 1.0)
        assert abs(pred - rows[-1, 0]) < 1e-6


class TestBetaFromFilm:
    def test_doubling_thickness(self):
        f1 = FilmParams(mu_e=1e-10, d=1e-8, r_on=100.0)
        f2 = FilmParams(mu_e=1e-10, d=2e-8, r_on=100.0)
        # beta^-1 ~ mu_e r_on / d: doubling d halves beta^-1
        assert 1.0 / beta_from_film(f2) == pytest.approx(0.5 / beta_from_film(f1))

    def test_micro_to_nano_scaling(self):
        # charge coefficient mu_e r_on / d^2 grows by 1e6 from micrometer to nanometer
        coeff = lambda d: 1e-10 * 100.0 / d**2
        assert coeff(1e-9) / coeff(1e-6) == pytest.approx(1e6)

    def test_direct_substitution(self):
        f = FilmParams(mu_e=1e-10, d=1e-8, r_on=100.0)
        assert beta_from_film(f) == pytest.approx(1e-8 / (1e-10 * 100.0))
        assert 1.0 / beta_from_film(f) == pytest.approx(1.0)


class TestPickett:
    P = PickettParams()

    def test_zero_current(self):
        for w in (0.0, 0.3, 1.0):
            assert pickett_rhs(w, 0.0, self.P) == 0.0

    def test_branch_signs(self):
        assert pickett_rhs(0.5, 2e-3, self.P) > 0.0
        assert pickett_rhs(0.5, -2e-3, self.P) < 0.0

    def test_monotone_in_current_magnitude(self):
        # grid-evaluation oracle: |rhs| grows with |i| at fixed interior w
        for w in (0.2, 0.5, 0.8):
            mags = [abs(pickett_rhs(w, i, self.P)) for i in np.linspace(1e-4, 5e-3, 12)]
            assert all(b > a for a, b in zip(mags, mags[1:]))
            mags = [abs(pickett_rhs(w, -i, self.P)) for i in np.linspace(1e-4, 5e-3, 12)]
            assert all(b > a for a, b in zip(mags, mags[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            PickettParams(w_c=-1.0)


class TestChang:
    P = ChangParams(c_alpha=1e-4, c_beta=0.5, c_gamma=2e-4, c_delta=2.0,
                    c_lambda=0.1, c_eta1=1.5, c_eta2=1.0)

    def test_pinched_at_zero(self):
        i, dw = chang_model(0.4, 0.0, self.P)
        assert i == 0.0
        assert dw == 0.0

    def test_tunneling_dominated_at_w1(self):
        v = 0.3
        i, _ = chang_model(1.0, v, self.P)
        assert i == pytest.approx(self.P.c_gamma * np.sinh(self.P.c_delta * v))

    def test_schottky_linearization(self):
        # first-order Taylor oracle at w=0: i ~ -alpha*beta*v
        v = 1e-5
        i, _ = chang_model(0.0, v, self.P)
        lin = -self.P.c_alpha * self.P.c_beta * v
        assert i == pytest.approx(lin, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChangParams(c_alpha=0.0, c_beta=1, c_gamma=1, c_delta=1,
                        c_lambda=1, c_eta1=1, c_eta2=1)


class TestSpinTorque:
    P = SpinTorqueParams(damping=0.01, gyro=1.76e11, h_k=0.05, pol=1e3, r_a=2.0, r_b=1.0)

    def test_fixed_points_at_poles(self):
        d0, _ = spin_torque_model(0.0, 1e-3, self.P)
        assert d0 == 0.0
        # float pi leaves a ~1e-16 residue in sin, scaled by the rate constants
        dpi, _ = spin_torque_model(np.pi, 1e-3, self.P)
        scale = self.P.damping * self.P.gyro * self.P.h_k
        assert abs(dpi) <= 10 * scale * abs(np.sin(np.pi))

    def test_fixed_point_at_arccos_p(self):
        i = 0.5e-3  # p = 0.5
        th = np.arccos(self.P.pol * i)
        d, _ = spin_torque_model(th, i, self.P)
        assert d == pytest.approx(0.0, abs=1e-6)

    def test_resistance_at_quarter_turn(self):
        _, r = spin_torque_model(np.pi / 2, 0.0, self.P)
        assert r == pytest.approx(1.0 / self.P.r_a)

    def test_resistance_periodicity(self):
        th = np.linspace(-np.pi, np.pi, 50)
        _, r1 = spin_torque_model(th, 1e-3, self.P)
        _, r2 = spin_torque_model(th + 2 * np.pi, 1e-3, self.P)
        assert np.allclose(r1, r2, rtol=1e-12)

    def test_antisymmetry_at_zero_current(self):
        th = np.linspace(0.1, 3.0, 40)
        d1, _ = spin_torque_model(th, 0.0, self.P)
        d2, _ = spin_torque_model(-th, 0.0, self.P)
        assert np.allclose(d1, -d2, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpinTorqueParams(damping=0.01, gyro=1.0, h_k=1.0, pol=1.0, r_a=1.0, r_b=2.0)


class TestThresholdDevice:
    P = ThresholdDeviceParams(t_alpha=0.1, t_beta=100.0, v_t=2.5, r1=3.0, r2=20.0)

    def test_zero_voltage(self):
        assert threshold_device_rhs(10.0, 0.0, self.P) == 0.0

    def test_subthreshold_slope(self):
        for v in (0.5, -1.0, 2.0):
            assert threshold_f(v, self.P) == pytest.approx(-self.P.t_alpha * v)

    def test_above_threshold(self):
        for v in (3.0, 5.0):
            want = (self.P.t_beta - self.P.t_alpha) * self.P.v_t - self.P.t_beta * v
            assert threshold_f(v, self.P) == pytest.approx(want)

    def test_gates_block_at_bounds(self):
        # at M = r1 with positive drive the lower gate blocks (theta(0) = 0)
        assert threshold_device_rhs(self.P.r1, 1.0, self.P) == 0.0
        assert threshold_device_rhs(self.P.r2, -1.0, self.P) == 0.0
        # interior states move
        assert threshold_device_rhs(10.0, 1.0, self.P) != 0.0

    def test_gate_matches_heaviside_product_bitwise(self):
        # the gate as the displayed formula writes it: Heaviside products with theta(0) = 0
        def heaviside(x):
            return np.where(np.asarray(x, dtype=float) > 0, 1.0, 0.0)

        def reference(m, v):
            gate = heaviside(v) * heaviside(m - self.P.r1) + heaviside(-v) * heaviside(self.P.r2 - m)
            return threshold_f(v, self.P) * gate

        rng = np.random.default_rng(11)
        m = rng.uniform(0.0, 25.0, 10_000)
        v = rng.uniform(-6.0, 6.0, 10_000)
        m[:1000:4], m[1:1000:4] = self.P.r1, self.P.r2
        v[2:1000:4], v[3:1000:4] = 0.0, -0.0
        v[1000:1100] = [-self.P.v_t, self.P.v_t, np.inf, -np.inf] * 25
        m[1100:1200], v[1200:1300] = np.nan, np.nan
        m[1300:1400] = [np.inf, -np.inf] * 50
        with np.errstate(invalid="ignore"):  # f(+-inf) is inf - inf
            got = threshold_device_rhs(m, v, self.P)
            want = reference(m, v)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            for mi, vi in zip(m[::97], v[::97]):
                g, w = threshold_device_rhs(mi, vi, self.P), float(reference(mi, vi))
                assert type(g) is float and np.float64(g).view(np.int64) == np.float64(w).view(np.int64)

    def test_euler_stays_inside_with_clamp(self):
        rng = np.random.default_rng(3)
        m = 10.0
        dt = 0.1
        for _ in range(500):
            v = rng.uniform(-4, 4)
            m = m + dt * threshold_device_rhs(m, v, self.P)
            m = min(max(m, self.P.r1), self.P.r2)
            assert self.P.r1 <= m <= self.P.r2


class TestHhModel:
    P = HhParams(g_k=36e-3, g_na=120e-3, k1=1.0, k2=0.1, na1=1.0, na2=0.1,
                 na3=0.2, na4=-1.0, na5=0.0, na6=0.5, na7=-0.5, na8=0.0, na9=0.5)

    def test_closed_gate_kills_potassium_current(self):
        i_k, *_ = hh_model(0.0, 0.5, 0.5, 0.01, 0.01, self.P)
        assert i_k == 0.0

    def test_full_gate_stops_w1(self):
        _, _, dw1, _, _ = hh_model(1.0, 0.5, 0.5, 0.3, 0.3, self.P)
        assert dw1 == 0.0

    def test_direct_substitution(self):
        i_k, *_ = hh_model(0.5, 0.0, 0.0, 0.01, 0.0, self.P)
        assert i_k == pytest.approx(36e-3 * 0.5**4 * 0.01)

    def test_rate_limit_at_zero(self):
        # x/(e^x - 1) -> 1 as x -> 0: pick v_k so k1*v_k + k2 = 0
        p = self.P
        v_k = -p.k2 / p.k1
        _, _, dw1, _, _ = hh_model(0.0, 0.0, 0.0, v_k, 0.0, p)
        assert dw1 == pytest.approx(1.0)

    def test_current_power_scaling(self):
        i1, *_ = hh_model(0.3, 0.2, 0.5, 0.01, 0.01, self.P)
        i2, *_ = hh_model(0.6, 0.2, 0.5, 0.01, 0.01, self.P)
        assert i2 == pytest.approx(16.0 * i1)


class TestPinchedHysteresisInvariants:
    def test_zero_crossing_current_controlled(self):
        # i = 0 implies v = 0 exactly: v = i R(w) with finite R
        for w in (0.0, 0.5, 1.0):
            assert 0.0 * hp_resistance(w, HP_FIG) == 0.0
        _, r = spin_torque_model(1.0, 0.0, TestSpinTorque.P)
        assert 0.0 * r == 0.0

    def test_zero_crossing_chang(self):
        i, _ = chang_model(0.7, 0.0, TestChang.P)
        assert i == 0.0

    def test_trajectory_stays_in_unit_interval(self):
        rng = np.random.default_rng(11)
        p = HpParams(alpha=0.05, beta=3e-4, r_on=1000.0, r_off=6000.0)
        # strong erratic drive; clamping keeps w in [0, 1]
        drive = DriveSignal("square", amplitude=80.0, frequency=3.3, duty=0.37)
        spec = IntegratorSpec(method="euler", dt=1e-3, t_end=3.0)
        tr = simulate_hp_voltage_driven(p, drive, rng.uniform(0, 1), spec)
        assert tr["w"].min() >= 0.0
        assert tr["w"].max() <= 1.0
        assert np.all(tr["r"] >= p.r_on) and np.all(tr["r"] <= p.r_off)

    def test_saturating_nonvolatile_drive_matches_clamped_rk4(self):
        # 5 V at 2 Hz pushes w from 0.3 onto the w=0 bound every period
        p = HP_FIG
        drive = DriveSignal("sine", amplitude=5.0, frequency=2.0)
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=3.0)
        tr = simulate_hp_voltage_driven(p, drive, 0.3, spec)
        assert tr["w"].min() == 0.0 and tr["w"].max() <= 1.0

        def rate(w, t):
            w = min(max(w, 0.0), 1.0)
            return -5.0 * math.sin(4.0 * math.pi * t) / (p.beta * (p.r_on * (1.0 - w) + p.r_off * w))

        # dt 1e-4 agrees with a dt 1e-5 reference to 2e-12 here
        h, sub, w = 1e-4, 10, 0.3
        ref = [w]
        for k in range(spec.n_steps * sub):
            t = k * h
            k1 = rate(w, t)
            k2 = rate(w + 0.5 * h * k1, t + 0.5 * h)
            k3 = rate(w + 0.5 * h * k2, t + 0.5 * h)
            k4 = rate(w + h * k3, t + h)
            w = min(max(w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0), 1.0)
            if (k + 1) % sub == 0:
                ref.append(w)
        assert np.max(np.abs(tr["w"] - np.array(ref))) < 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    def test_non_finite_drive_diverges_at_first_step(self, alpha):
        # the direct (alpha=0) path checks the flux as the stepped path checks w
        p = HpParams(alpha=alpha, beta=3e-4, r_on=1000.0, r_off=6000.0)
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=0.01)
        with np.errstate(invalid="ignore"), pytest.raises(IntegrationDivergedError) as exc:
            simulate_hp_voltage_driven(p, DriveSignal("sine", amplitude=np.nan, frequency=1.0), 0.5, spec)
        assert exc.value.time == pytest.approx(1e-3)

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    def test_initial_memory_validated(self, alpha):
        # the direct (alpha=0) and stepped paths would start from different samples
        p = HpParams(alpha=alpha, beta=3e-4, r_on=1000.0, r_off=6000.0)
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=0.01)
        for w0 in (-0.1, 1.2, float("nan")):
            with pytest.raises(ValueError, match="w0"):
                simulate_hp_voltage_driven(p, DriveSignal("dc", amplitude=1.0), w0, spec)

    def test_frequency_collapse_ordering(self):
        areas = []
        for f in (1.0, 2.0, 4.0):
            spec = IntegratorSpec(method="rk4", dt=1.0 / (f * 2000), t_end=1.0 / f)
            tr = simulate_hp_voltage_driven(
                HP_FIG, DriveSignal("sine", amplitude=1.0, frequency=f), 0.5, spec)
            areas.append(loop_area(tr["v"][:-1], tr["i"][:-1]))
        assert areas[0] > areas[1] > areas[2]
