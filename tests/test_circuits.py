from dataclasses import replace

import numpy as np
import pytest
from scipy import special
from scipy.integrate import solve_ivp

from memsim.core import DriveSignal, IntegratorSpec, IntegrationDivergedError, SimulationError, loop_area
from memsim.circuits import (
    AmoebaParams,
    McParams,
    PlantDenominatorError,
    PlantParams,
    amoeba_effective_rhs,
    amoeba_simulate,
    hh_simulate,
    lambert_w,
    mc_analytic,
    mc_calibrate,
    mc_resistance,
    mc_simulate,
    plant_simulate,
)
from memsim.devices import HhParams, HpParams, ThresholdDeviceParams, hh_model
from memsim.presets import HH as HH_PRESET

MC_HP = HpParams(alpha=0.0, beta=3e-4, r_on=1000.0, r_off=6000.0)


def bisect_lambert(x, lo=-1.0, hi=100.0, iters=200):
    """Independent oracle: root of w e^w = x by bisection."""
    f = lambda w: w * np.exp(w) - x
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(np.e) == pytest.approx(1.0, rel=1e-14)

    def test_against_bisection_oracle(self):
        assert bisect_lambert(1.0) == pytest.approx(0.5671432904, abs=1e-9)
        assert lambert_w(1.0) == pytest.approx(0.5671432904, abs=1e-10)

    def test_defining_identity(self):
        for x in (-0.3, -0.1, 0.0, 0.5, 1.0, np.e, 10.0):
            w = lambert_w(x)
            assert abs(w * np.exp(w) - x) <= 1e-12 * max(abs(x), 1.0)

    def test_against_scipy(self):
        xs = np.concatenate([np.linspace(-1 / np.e + 1e-12, 2, 40), np.geomspace(2, 1e8, 20)])
        ours = lambert_w(xs)
        ref = special.lambertw(xs).real
        assert np.max(np.abs(ours - ref) / (1 + np.abs(ref))) < 1e-12

    def test_branch_point(self):
        assert lambert_w(-1 / np.e) == pytest.approx(-1.0, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w(-0.5)


class TestMcCircuit:
    def test_zero_charge_fixed_point(self):
        p = McParams(c=1e-3, hp=MC_HP)
        spec = IntegratorSpec(method="rk4", dt=1e-4, t_end=0.1)
        tr = mc_simulate(p, 0.0, spec)
        assert np.all(tr["q"] == 0.0)

    def test_monotone_decay(self):
        p = McParams(c=1e-3, hp=MC_HP)
        tau = MC_HP.r_on * p.c
        spec = IntegratorSpec(method="rk4", dt=tau / 100, t_end=10 * tau)
        tr = mc_simulate(p, 1e-4, spec)
        assert np.all(np.diff(tr["q"]) <= 0)
        assert np.all(tr["q"] >= 0)
        assert np.all(tr["r"] > 0)

    def test_analytic_matches_simulation_tail(self):
        p = McParams(c=1e-3, hp=MC_HP)
        tau = MC_HP.r_on * p.c
        spec = IntegratorSpec(method="rk4", dt=tau / 200, t_end=20 * tau)
        tr = mc_simulate(p, 1e-4, spec)
        p = mc_calibrate(p, 1e-4)
        pred = mc_analytic(tr.times, p)
        tail = tr.times > 5 * tau
        rel = np.abs(pred[tail] - tr["q"][tail]) / tr["q"][tail]
        assert rel.max() < 0.01

    def test_t_infinity_limit(self):
        p = mc_calibrate(McParams(c=1e-3, hp=MC_HP), 1e-4)
        assert mc_analytic(1e6 * MC_HP.r_on * 1e-3, p) == pytest.approx(0.0, abs=1e-200)

    def test_beta_infinity_is_pure_rc(self):
        hp = HpParams(alpha=0.0, beta=1e9, r_on=1000.0, r_off=6000.0)
        p = McParams(c=1e-3, hp=hp)
        tau = hp.r_on * p.c
        q0 = 1e-4
        spec = IntegratorSpec(method="rk4", dt=tau / 200, t_end=20 * tau)
        tr = mc_simulate(p, q0, spec)
        p = mc_calibrate(p, q0)
        window = tr.times > 5 * tau
        rc = q0 * np.exp(-tr.times / tau)
        rel_sim = np.abs(tr["q"][window] - rc[window]) / rc[window]
        rel_analytic = np.abs(mc_analytic(tr.times[window], p) - rc[window]) / rc[window]
        assert rel_sim.max() < 1e-3
        assert rel_analytic.max() < 1e-3

    @pytest.mark.parametrize("r_off", [6000.0, 1000.0])  # xi > 0 and xi = 0
    def test_calibrated_constant_reproduces_q0(self, r_off):
        hp = HpParams(alpha=0.0, beta=3e-4, r_on=1000.0, r_off=r_off)
        for q0 in (1e-6, 1e-4, 3e-4, 1e-3):
            p = mc_calibrate(McParams(c=1e-3, hp=hp), q0)
            assert mc_analytic(0.0, p) == pytest.approx(q0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("q0", [0.0, -1e-4, float("nan")])
    def test_calibration_needs_positive_charge(self, q0):
        with pytest.raises(SimulationError, match="q0"):
            mc_calibrate(McParams(c=1e-3, hp=MC_HP), q0)

    def test_requires_calibration(self):
        p = McParams(c=1e-3, hp=MC_HP)
        with pytest.raises(ValueError, match="c1"):
            mc_analytic(1.0, p)

    def test_resistance_parametrization(self):
        p = McParams(c=1e-3, hp=MC_HP)
        assert mc_resistance(0.0, p) == MC_HP.r_on
        assert mc_resistance(MC_HP.beta, p) == pytest.approx(MC_HP.r_off)

    def test_validation(self):
        with pytest.raises(ValueError):
            McParams(c=0.0, hp=MC_HP)
        with pytest.raises(ValueError):
            McParams(c=1.0, hp=HpParams(alpha=0.1, beta=1.0, r_on=1, r_off=2))


AMOEBA_DEV = ThresholdDeviceParams(t_alpha=0.1, t_beta=100.0, v_t=2.5, r1=3.0, r2=20.0)
AMOEBA = AmoebaParams(c=1.0, r=1.0, l=2.0, dev=AMOEBA_DEV)


class TestAmoeba:
    def test_figure_run_settles_and_stays_bounded(self):
        schedule = [
            (150.0, DriveSignal("dc", amplitude=0.5)),
            (300.0, DriveSignal("dc", amplitude=-2.0)),
        ]
        spec = IntegratorSpec(method="euler", dt=0.1, t_end=450.0)
        tr = amoeba_simulate(AMOEBA, [1.0, 1.0, 7.0], schedule, spec)
        assert tr["m"].min() >= 3.0
        assert tr["m"].max() <= 20.0
        n1 = int(round(150.0 / 0.1))
        for idx, v in ((n1, 0.5), (tr.n_samples - 1, -2.0)):
            state = np.array([tr["i"][idx], tr["v_c"][idx], tr["m"][idx]])
            assert np.max(np.abs(amoeba_effective_rhs(state, v, AMOEBA))) < 1e-3

    def test_adaptation_moves_the_memristance(self):
        schedule = [
            (150.0, DriveSignal("dc", amplitude=0.5)),
            (300.0, DriveSignal("dc", amplitude=-2.0)),
        ]
        spec = IntegratorSpec(method="euler", dt=0.1, t_end=450.0)
        tr = amoeba_simulate(AMOEBA, [1.0, 1.0, 7.0], schedule, spec)
        n1 = int(round(150.0 / 0.1))
        assert tr["m"][n1] == pytest.approx(3.0)   # positive drive pushes M to R1
        assert tr["m"][-1] == pytest.approx(20.0)  # negative drive pushes M to R2

    def test_zero_drive_decays(self):
        schedule = [(80.0, DriveSignal("dc", amplitude=0.0))]
        spec = IntegratorSpec(method="euler", dt=0.01, t_end=80.0)
        tr = amoeba_simulate(AMOEBA, [1.0, 1.0, 7.0], schedule, spec)
        assert abs(tr["i"][-1]) < 1e-6
        assert abs(tr["v_c"][-1]) < 1e-6
        # M stops once V_C has died away
        assert abs(tr["m"][-1] - tr["m"][-100]) < 1e-8

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_split_dc_schedule_gives_the_one_segment_rows(self, method):
        # each segment restarts the drive's clock and the stepping, which a
        # constant drive cannot tell apart from one run; M hits R1 on the way
        drive = DriveSignal("dc", amplitude=0.5)
        spec = IntegratorSpec(method=method, dt=0.1, t_end=450.0)
        one = amoeba_simulate(AMOEBA, [1.0, 1.0, 7.0], [(450.0, drive)], spec)
        two = amoeba_simulate(AMOEBA, [1.0, 1.0, 7.0], [(150.0, drive), (300.0, drive)], spec)
        assert one.n_samples == two.n_samples == spec.n_steps + 1
        assert one["m"].min() == 3.0
        for name in ("i", "v_c", "m", "v"):
            assert np.array_equal(one[name], two[name]), name

    def test_bs3_keeps_the_memristance_bounded(self):
        # bs3 clamps stacks of interpolated rows too, and must see the clamp
        # move M for its error norm; both went wrong with a clamp in place
        schedule = [
            (150.0, DriveSignal("dc", amplitude=0.5)),
            (300.0, DriveSignal("dc", amplitude=-2.0)),
        ]
        spec = IntegratorSpec(method="bs3", dt=0.1, t_end=450.0)
        tr = amoeba_simulate(AMOEBA, [1.0, 1.0, 7.0], schedule, spec)
        assert tr.n_samples == spec.n_steps + 1
        assert tr["m"].min() == 3.0 and tr["m"].max() == 20.0
        assert tr["m"][-1] == pytest.approx(20.0)

    def test_bounds_invariant_random_drive(self):
        schedule = [(30.0, DriveSignal("square", amplitude=4.0, frequency=0.2))]
        spec = IntegratorSpec(method="euler", dt=0.05, t_end=30.0)
        tr = amoeba_simulate(AMOEBA, [0.0, 0.0, 10.0], schedule, spec)
        assert tr["m"].min() >= 3.0 and tr["m"].max() <= 20.0

    def test_initial_m_validated(self):
        with pytest.raises(ValueError):
            amoeba_simulate(AMOEBA, [0.0, 0.0, 2.0],
                            [(1.0, DriveSignal("dc", amplitude=0.0))],
                            IntegratorSpec(method="euler", dt=0.1, t_end=1.0))


class TestPlant:
    def test_zero_drive_zero_current(self):
        p = PlantParams(p_beta=1.0, r_o=1.0, a_const=1.0)
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=1.0)
        tr = plant_simulate(p, DriveSignal("dc", amplitude=0.0), spec)
        assert np.all(tr["i_m"] == 0.0)

    def test_rc_disabled_total_equals_memristive(self):
        p = PlantParams(p_beta=1.0, r_o=1.0, a_const=1.0)
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=1.0)
        tr = plant_simulate(p, DriveSignal("sine", amplitude=1.0, frequency=2.0), spec)
        assert np.array_equal(tr["i"], tr["i_m"])

    def test_against_direct_quadrature_oracle(self):
        # i_m = e^{bt} V / (b R_o int_0^t h(V) e^{bx} dx + A), trapezoid quadrature
        p = PlantParams(p_beta=1.0, r_o=2.0, a_const=1.5, h_kind="exp", h_coeff=0.5)
        drive = DriveSignal("sine", amplitude=1.0, frequency=1.0)
        spec = IntegratorSpec(method="rk4", dt=1e-4, t_end=2.0)
        tr = plant_simulate(p, drive, spec)
        t = tr.times
        v = np.asarray(drive(t))
        integrand = p.h(v) * np.exp(p.p_beta * t)
        cumulative = np.concatenate([[0.0], np.cumsum(
            0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))])
        oracle = np.exp(p.p_beta * t) * v / (p.p_beta * p.r_o * cumulative + p.a_const)
        assert np.max(np.abs(tr["i_m"] - oracle)) < 1e-6 * np.max(np.abs(oracle))

    def test_small_beta_monotone_denominator(self):
        p = PlantParams(p_beta=1e-6, r_o=1.0, a_const=1.0)
        drive = DriveSignal("dc", amplitude=1.0)
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=5.0)
        tr = plant_simulate(p, drive, spec)
        denominators = np.asarray(drive(tr.times)) / tr["i_m"]
        # nondecreasing up to float noise (the initial growth rate is O(beta^2 t))
        assert np.all(np.diff(denominators) >= -1e-12 * denominators.max())

    def test_parasitic_rc_prevents_collapse(self):
        # a_const != r_o so the ideal memristance actually moves within a period
        freqs = (1.0, 16.0)
        areas = {}
        for tag, rc in (("ideal", None), ("rc", (0.5, 0.1))):
            for f in freqs:
                p = PlantParams(p_beta=1.0, r_o=1.0, a_const=3.0,
                                rc_r=rc[0] if rc else None, rc_c=rc[1] if rc else None)
                spec = IntegratorSpec(method="rk4", dt=1.0 / (f * 4000), t_end=2.0 / f)
                tr = plant_simulate(p, DriveSignal("sine", amplitude=1.0, frequency=f), spec)
                half = tr.n_samples // 2
                areas[tag, f] = loop_area(tr["v"][half:-1], tr["i"][half:-1])
        # the ideal loop collapses with frequency; the parasitic one persists
        assert areas["ideal", 16.0] < 0.2 * areas["ideal", 1.0]
        assert areas["rc", 16.0] > 0.5 * areas["rc", 1.0]

    @pytest.mark.parametrize("f", [1.0, 4.0, 16.0])
    def test_preset_currents_match_closed_forms(self, f):
        # h = 1 gives J = (1 - e^{-bt})/b; the sine-driven series RC branch has
        # q = C A [sin wt - w tau cos wt + w tau e^{-t/tau}] / (1 + (w tau)^2)
        b, r_o, a_const, amp, rc_r, rc_c = 1.0, 1.0, 3.0, 1.0, 0.5, 0.1
        p = PlantParams(p_beta=b, r_o=r_o, a_const=a_const, rc_r=rc_r, rc_c=rc_c)
        spec = IntegratorSpec(dt=1.0 / (f * 4000), t_end=2.0 / f)
        tr = plant_simulate(p, DriveSignal("sine", amplitude=amp, frequency=f), spec)
        t = tr.times
        w, tau = 2.0 * np.pi * f, rc_r * rc_c
        v = amp * np.sin(w * t)
        i_m = v / (r_o * -np.expm1(-b * t) + a_const * np.exp(-b * t))
        q = rc_c * amp * (np.sin(w * t) - w * tau * np.cos(w * t) + w * tau * np.exp(-t / tau)) / (
            1.0 + (w * tau) ** 2)
        i_rc = (v - q / rc_c) / rc_r
        assert np.max(np.abs(tr["i_m"] - i_m)) < 1e-11 * np.max(np.abs(i_m))
        assert np.max(np.abs(tr["i_rc"] - i_rc)) < 1e-11 * np.max(np.abs(i_rc))

    def test_denominator_crossing_error(self):
        # sinh nonlinearity with negative drive makes the integral negative
        p = PlantParams(p_beta=2.0, r_o=5.0, a_const=0.01, h_kind="sinh", h_coeff=1.0)
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=5.0)
        with pytest.raises(PlantDenominatorError):
            plant_simulate(p, DriveSignal("dc", amplitude=-1.0), spec)

    @pytest.mark.parametrize("kind", ["exp", "sinh"])
    def test_overflowing_nonlinearity_diverges(self, kind):
        # h(V) = exp/sinh(1000 V) overflows once 1000 sin(2 pi t) > ln(2 DBL_MAX)
        # ~ 710, i.e. from t ~ 0.1256; J would be inf (or nan) from there on
        p = PlantParams(p_beta=1.0, r_o=1.0, a_const=1.0, h_kind=kind, h_coeff=1000.0)
        spec = IntegratorSpec(dt=1e-3, t_end=1.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationDivergedError) as exc:
            plant_simulate(p, DriveSignal("sine", amplitude=1.0, frequency=1.0), spec)
        assert 0.125 <= exc.value.time <= 0.127


HH = HhParams(g_k=36e-3, g_na=120e-3, k1=1.0, k2=0.1, na1=1.0, na2=0.1,
              na3=0.2, na4=-1.0, na5=0.0, na6=0.5, na7=-0.5, na8=0.0, na9=0.5)


class TestHhSimulate:
    def test_zero_drive_zero_currents(self):
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=1.0)
        tr = hh_simulate(HH, DriveSignal("dc", amplitude=0.0), spec)
        assert np.all(tr["i_k"] == 0.0)
        assert np.all(tr["i_na"] == 0.0)

    def test_w1_saturates(self):
        spec = IntegratorSpec(method="rk4", dt=1e-2, t_end=30.0)
        tr = hh_simulate(HH, DriveSignal("dc", amplitude=0.0), spec)
        assert tr["w1"][-1] == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(tr["w1"]) >= -1e-15)

    def test_gates_stay_in_unit_interval(self):
        spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=5.0)
        tr = hh_simulate(HH, DriveSignal("sine", amplitude=0.5, frequency=1.0), spec)
        for k in ("w1", "w2", "w3"):
            assert tr[k].min() >= 0.0 and tr[k].max() <= 1.0

    def test_gate0_validation(self):
        with pytest.raises(ValueError):
            hh_simulate(HH, DriveSignal("dc", amplitude=0.0),
                        IntegratorSpec(method="rk4", dt=1e-3, t_end=0.1),
                        gates0=(1.5, 0.0, 0.0))

    @pytest.mark.parametrize("gates0", [(0.0, 0.0, 0.0), (0.3, 0.6, 0.9)])
    def test_preset_matches_dop853(self, gates0):
        p = HhParams(**{k: HH_PRESET[k] for k in (
            "g_k", "g_na", "k1", "k2", "na1", "na2", "na3", "na4", "na5", "na6", "na7", "na8", "na9")})
        drive = DriveSignal("sine", amplitude=HH_PRESET["amplitude"], frequency=HH_PRESET["frequency"])
        spec = IntegratorSpec(dt=HH_PRESET["dt"], t_end=HH_PRESET["t_end"])
        tr = hh_simulate(p, drive, spec, gates0=gates0)

        def rhs(t, y):
            v = drive(t)
            return hh_model(*y, v, v, p)[2:]

        ref = solve_ivp(rhs, (0.0, spec.t_end), gates0, method="DOP853", rtol=1e-13, atol=1e-15,
                        t_eval=tr.times)
        for k, name in enumerate(("w1", "w2", "w3")):
            assert tr[name][0] == gates0[k]
            assert np.max(np.abs(tr[name] - ref.y[k])) < 1e-12

    def test_gate_held_at_one_matches_clipped_rk4(self):
        # a strong w2 growth term drives the gate into the clamp at 1 near t = 0.41,
        # where it is held while the raw rate still points outward
        p = replace(HH, na3=3.0)
        drive = DriveSignal("sine", amplitude=0.5, frequency=1.0, phase=np.pi)
        spec = IntegratorSpec(dt=1e-3, t_end=0.6)
        tr = hh_simulate(p, drive, spec)
        held = tr["w2"] == 1.0
        assert 100 < np.count_nonzero(held) < spec.n_steps
        v = drive(tr.times[held])
        assert np.all(hh_model(1.0, 1.0, 1.0, v, v, p)[3] > 0)

        def rate(y, t):
            v = drive(t)
            return np.array(hh_model(*y, v, v, p)[2:])

        h, y, ref = spec.dt / 10, np.zeros(3), [np.zeros(3)]
        for k in range(10 * spec.n_steps):
            t = k * h
            k1 = rate(y, t)
            k2 = rate(y + 0.5 * h * k1, t + 0.5 * h)
            k3 = rate(y + 0.5 * h * k2, t + 0.5 * h)
            k4 = rate(y + h * k3, t + h)
            y = np.clip(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0, 1.0)
            ref.append(y)
        ref = np.array(ref[::10])
        for k, name in enumerate(("w1", "w2", "w3")):
            assert np.max(np.abs(tr[name] - ref[:, k])) < 1e-9
