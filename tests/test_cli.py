import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memsim
import memsim.circuits
import memsim.devices
import memsim.learning
from memsim.cli import (RUNNERS, build_parser, main, run_hh, run_hysteresis, run_nef_demo,
                        run_plant, run_rc_demo)
from memsim.presets import PRESETS, default_preset


def read(path):
    return path.read_bytes()


class _AllFieldsRead(Exception):
    pass


class _ReadRecorder(dict):
    """Preset fields that record which ones are read; the read of the last
    unread field stops the run, since nothing is left to learn from it."""

    def __init__(self, fields):
        super().__init__(fields)
        self.unread = set(fields)

    def __getitem__(self, key):
        self.unread.discard(key)
        if not self.unread:
            raise _AllFieldsRead
        return super().__getitem__(key)


class TestCliBasics:
    def test_energy_preset_runs(self, tmp_path, capsys):
        code = main(["energy", "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "energy"
        assert (out / "metrics.txt").exists()
        assert (out / "manifest.json").exists()
        assert (out / "energy.csv").exists()
        metrics = dict(line.split("=", 1) for line in
                       (out / "metrics.txt").read_text().splitlines())
        assert float(metrics["dig_scaling_ratio"]) == pytest.approx(1.0)
        assert float(metrics["memr_scaling_ratio"]) == pytest.approx(1.0)
        assert json.loads((out / "manifest.json").read_text())["preset"] == "landauer"

    def test_preset_flag_refused(self, tmp_path, capsys):
        # every experiment has exactly one preset, so there is nothing to choose
        with pytest.raises(SystemExit) as exc:
            main(["energy", "--preset", "landauer", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--preset" in capsys.readouterr().err

    def test_invalid_config_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"schema": 1, "experiment": "energy", "params": {"bogus_knob": 3}}))
        assert main(["energy", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema": 2, "experiment": "energy", "params": {}}))
        assert main(["energy", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_config_overrides_params(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"schema": 1, "experiment": "energy", "params": {"l_bits": 2}}))
        assert main(["energy", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "energy" / "manifest.json").read_text())
        assert manifest["params"]["l_bits"] == 2
        assert manifest["preset"] is None

    def test_experiment_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema": 1, "experiment": "maze", "params": {}}))
        assert main(["energy", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestConfigTypes:
    """A config value must have the type of the preset value it replaces."""

    @staticmethod
    def run(tmp_path, experiment, params):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema": 1, "experiment": experiment, "params": params}))
        return main([experiment, "--config", str(cfg), "--out", str(tmp_path)])

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_integer_field_needs_an_int(self, tmp_path, capsys, value):
        assert self.run(tmp_path, "crossbar-mvm", {"rows": value}) == 2
        assert capsys.readouterr().err == "error: config field 'rows' must be an integer\n"
        assert not (tmp_path / "crossbar-mvm").exists()

    @pytest.mark.parametrize("experiment,params,need", [
        ("plant", {"frequencies": ["a"]}, "a number"),
        ("plant", {"frequencies": [1.0, True]}, "a number"),
        ("stdp", {"timings": [0.0, None]}, "a number"),
        ("energy", {"n_values": [1, 2.5]}, "an integer"),
        ("energy", {"n_values": [False]}, "an integer"),
    ])
    def test_list_elements_have_the_preset_element_type(self, tmp_path, capsys, experiment, params, need):
        assert self.run(tmp_path, experiment, params) == 2
        (key,) = params
        assert capsys.readouterr().err == f"error: every element of config field '{key}' must be {need}\n"

    def test_ints_stand_in_for_floats(self, tmp_path):
        assert self.run(tmp_path, "crossbar-train", {"cov_diag": [4, 1], "n_samples": 50}) == 0
        manifest = json.loads((tmp_path / "crossbar-train" / "manifest.json").read_text())
        assert manifest["params"]["cov_diag"] == [4, 1]
        assert self.run(tmp_path, "energy", {"n_values": [1, 3]}) == 0

    @pytest.mark.parametrize("experiment", ["hysteresis", "plant"])
    @pytest.mark.parametrize("params,message", [
        ({"frequencies": [0]}, "drive frequencies must be > 0, got 0"),
        ({"frequencies": [4.0, -1.0]}, "drive frequencies must be > 0, got -1.0"),
        ({"frequencies": []}, "frequencies must hold at least one drive frequency"),
        ({"samples_per_period": 0}, "samples_per_period must be >= 1, got 0"),
    ])
    def test_sweep_needs_positive_frequencies_and_samples(self, tmp_path, capsys, experiment, params,
                                                          message):
        assert self.run(tmp_path, experiment, params) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


    @pytest.mark.parametrize("experiment,params", [
        ("energy", {"n_values": []}),
        ("crossbar-train", {"n_samples": 0}),
        ("crossbar-train", {"n_outputs": 0}),
        ("nef-demo", {"n_grid": 1}),
        ("network-soc", {"n_nodes": 1}),
    ])
    def test_degenerate_sizes_exit_2(self, tmp_path, capsys, experiment, params):
        # each of these ended in a traceback (exit 1, the maze oracle's code)
        assert self.run(tmp_path, experiment, params) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / experiment).exists()

    @pytest.mark.parametrize("experiment,params", [
        ("write-read", {"beta": 1e400}),
        ("write-read", {"r_off": 1e400}),
        ("crossbar-mvm", {"r_line": 1e400}),
        ("energy", {"kt": 0.0}),
        ("network-soc", {"edge_prob": 2.0}),
    ])
    def test_out_of_domain_values_exit_2(self, tmp_path, capsys, experiment, params):
        # each of these ended in a traceback (a division by zero, an overflow in
        # the rng), or ran on a complete graph without end (edge_prob 2)
        assert self.run(tmp_path, experiment, params) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / experiment).exists()

    def test_zero_length_amoeba_stage_runs(self, tmp_path):
        # the second stage adds no row; it ended in an IndexError
        assert self.run(tmp_path, "amoeba", {"t2": 0.0}) == 0
        p = PRESETS["amoeba"][default_preset("amoeba")]
        lines = (tmp_path / "amoeba" / "amoeba.csv").read_text().splitlines()
        assert len(lines) == 1 + round(p["t1"] / p["dt"]) + 1  # the header, then one row per step


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["hysteresis", "--seed", "3", "--out", str(out)]) == 0
        for name in (a / "hysteresis").iterdir():
            assert read(name) == read(b / "hysteresis" / name.name), name.name

    def test_seed_changes_hash(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["crossbar-mvm", "--seed", "1", "--out", str(a)]) == 0
        assert main(["crossbar-mvm", "--seed", "2", "--out", str(b)]) == 0
        ma = json.loads((a / "crossbar-mvm" / "manifest.json").read_text())
        mb = json.loads((b / "crossbar-mvm" / "manifest.json").read_text())
        assert ma["config_sha256"] != mb["config_sha256"]

    def test_config_change_changes_hash(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["energy", "--out", str(a)]) == 0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"schema": 1, "experiment": "energy", "params": {"p_err": 1e-6}}))
        assert main(["energy", "--config", str(cfg), "--out", str(b)]) == 0
        ma = json.loads((a / "energy" / "manifest.json").read_text())
        mb = json.loads((b / "energy" / "manifest.json").read_text())
        assert ma["config_sha256"] != mb["config_sha256"]


# ``memsim network-soc --seed k`` metrics.txt as recorded with one BLAS thread
# (the soc digits depend on the thread count), so that a change that moves a
# soc metric fails here
SOC_METRICS = {
    0: """gamma=-0.944052596811
spectrum_slope=-1.93555807029
slope_plus_one_minus_gamma=0.00849452652056
power_law=True
fit_r2=0.960078328681
n_rates=73
steady=False
n_unstable=60
stop_reason=t_end
clamped_fraction=0.145922746781
steps=234
rhs_calls=805
""",
    1: """gamma=-1.03661475343
spectrum_slope=-1.94037512782
slope_plus_one_minus_gamma=0.0962396256175
power_law=True
fit_r2=0.971174698887
n_rates=79
steady=False
n_unstable=57
stop_reason=t_end
clamped_fraction=0.257383966245
steps=210
rhs_calls=766
""",
    2: """gamma=-0.989611767339
spectrum_slope=-1.92337558087
slope_plus_one_minus_gamma=0.0662361864736
power_law=True
fit_r2=0.979081691702
n_rates=81
steady=False
n_unstable=58
stop_reason=t_end
clamped_fraction=0.292887029289
steps=234
rhs_calls=931
""",
}


@pytest.mark.parametrize("seed", sorted(SOC_METRICS))
def test_network_soc_metrics_are_pinned(seed, tmp_path):
    src = str(Path(memsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "memsim.cli", "network-soc", "--seed", str(seed),
                           "--out", str(tmp_path)], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    got = (tmp_path / "network-soc" / "metrics.txt").read_text().splitlines()
    assert got == SOC_METRICS[seed].splitlines()


class TestMazeCommand:
    def test_bundled_maze_matches_oracle(self, tmp_path):
        assert main(["maze", "--out", str(tmp_path)]) == 0
        out = tmp_path / "maze"
        assert (out / "path.txt").exists()
        metrics = dict(line.split("=", 1) for line in
                       (out / "metrics.txt").read_text().splitlines())
        assert metrics["path_matches_bfs"] == "True"
        assert float(metrics["contrast"]) > 1.0 or metrics["contrast"] == "inf"

    def test_run_record_is_deterministic(self, tmp_path):
        # bs3 at the preset: rows every dt = 0.1 until the steady stop, and
        # the steps and rate evaluations behind them in metrics.txt
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["maze", "--out", str(out)]) == 0
        for name in ("metrics.txt", "maze_w.csv", "path.txt"):
            assert read(a / "maze" / name) == read(b / "maze" / name), name
        metrics = dict(line.split("=", 1) for line in (a / "maze" / "metrics.txt").read_text().splitlines())
        steps, rhs_calls = int(metrics["steps"]), int(metrics["rhs_calls"])
        assert 0 < 3 * steps + 1 <= rhs_calls and (rhs_calls - 1) % 3 == 0
        rows = (a / "maze" / "maze_w.csv").read_text().splitlines()[1:]
        times = [float(row.split(",")[0]) for row in rows]
        assert np.allclose(np.diff(times), 0.1)
        assert len(rows) - 1 < 1000  # stopped before t_end

    def test_mean_w_is_the_row_mean_of_the_memories(self, tmp_path):
        assert main(["maze", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "maze" / "maze_w.csv").read_text().splitlines()
        header = lines[0].split(",")
        n_e = len(header) - 2
        assert header == ["t", *(f"w{i}" for i in range(n_e)), "mean_w"]
        # %.17g round-trips every double, so the columns read back bit for bit
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(data[:, -1], data[:, 1:-1].mean(axis=1))

    def test_maze_file_flag(self, tmp_path):
        mz = tmp_path / "m.txt"
        mz.write_text("S...\n###.\n...E\n")
        assert main(["maze", "--maze", str(mz), "--out", str(tmp_path)]) == 0

    @staticmethod
    def run_maze_file(tmp_path, text, *extra):
        mz = tmp_path / "m.txt"
        mz.write_text(text)
        code = main(["maze", "--maze", str(mz), "--out", str(tmp_path), *extra])
        metrics_path = tmp_path / "maze" / "metrics.txt"
        metrics = (dict(line.split("=", 1) for line in metrics_path.read_text().splitlines())
                   if code == 0 else None)
        return code, metrics

    def test_tied_paths_walk_one_route(self, tmp_path):
        # three tied shortest routes all conduct; the current walk takes one
        code, metrics = self.run_maze_file(tmp_path, "S...\n##..\n...E\n")
        assert code == 0
        assert metrics["path_matches_bfs"] == "True"
        assert metrics["path_edges"] == metrics["bfs_edges"] == "5"

    def test_tied_routes_that_all_conduct_exit_0(self, tmp_path):
        # every adjacency lies on one of the tied shortest routes, and all of
        # them conduct; the walk follows one
        code, metrics = self.run_maze_file(tmp_path, "S....\n.#.#.\n.....\n.#.#.\n....E\n")
        assert code == 0
        assert metrics["path_matches_bfs"] == "True"
        assert metrics["path_edges"] == metrics["bfs_edges"] == "8"

    def test_long_maze_with_split_arms(self, tmp_path):
        # one shortest route whose current splits over near-equal parallel
        # arms: no current cut isolates it, the walk does
        text = ("S..#...#.....#...#.\n.#.###.#.#.#.#.#.#.\n.#.......#.#.#.#...\n"
                ".#.#.#.###.#.#.###.\n.#...#.....#.#...#.\n.#.#####.###.#.#.#.\n"
                ".#.#.........#.#.#.\n.#.###.###.#####.#.\n.......#.........#E\n")
        code, metrics = self.run_maze_file(tmp_path, text)
        assert code == 0
        assert metrics["path_matches_bfs"] == "True"
        assert metrics["path_edges"] == metrics["bfs_edges"] == "46"

    @pytest.mark.parametrize("v_dc", [0.0, -100.0])
    def test_no_forward_drive_exits_3(self, tmp_path, capsys, v_dc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema": 1, "experiment": "maze", "params": {"v_dc": v_dc}}))
        assert main(["maze", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "no forward current" in capsys.readouterr().err

    def test_invalid_maze_exits_2(self, tmp_path, capsys):
        mz = tmp_path / "m.txt"
        mz.write_text("S#E\n")
        assert main(["maze", "--maze", str(mz), "--out", str(tmp_path)]) == 2


class TestQuickExperiments:
    def test_amoeba_preset_settles(self, tmp_path):
        assert main(["amoeba", "--out", str(tmp_path)]) == 0
        metrics = dict(line.split("=", 1) for line in
                       (tmp_path / "amoeba" / "metrics.txt").read_text().splitlines())
        assert metrics["stage1_settled"] == "True"
        assert metrics["stage2_settled"] == "True"
        assert float(metrics["m_min"]) >= 3.0
        assert float(metrics["m_max"]) <= 20.0

    def test_hysteresis_preset_areas(self, tmp_path):
        assert main(["hysteresis", "--out", str(tmp_path)]) == 0
        out = tmp_path / "hysteresis"
        metrics = dict(line.split("=", 1) for line in
                       (out / "metrics.txt").read_text().splitlines())
        assert metrics["areas_strictly_decreasing"] == "True"
        assert float(metrics["top_frequency_line_dev"]) < 0.02
        csvs = [p.name for p in out.iterdir() if p.suffix == ".csv"]
        assert len(csvs) == 3

    def test_mc_volatility(self, tmp_path):
        assert main(["mc-volatility", "--out", str(tmp_path)]) == 0
        metrics = dict(line.split("=", 1) for line in
                       (tmp_path / "mc-volatility" / "metrics.txt").read_text().splitlines())
        assert float(metrics["tail_max_rel_err"]) < 0.01

    def test_mc_volatility_zero_charge_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema": 1, "experiment": "mc-volatility", "params": {"q0": 0.0}}))
        assert main(["mc-volatility", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "q0" in capsys.readouterr().err

    def test_stdp(self, tmp_path):
        assert main(["stdp", "--out", str(tmp_path)]) == 0
        metrics = dict(line.split("=", 1) for line in
                       (tmp_path / "stdp" / "metrics.txt").read_text().splitlines())
        assert float(metrics["max_round_trip_rel_err"]) < 0.02

    def test_lca(self, tmp_path):
        assert main(["lca", "--out", str(tmp_path)]) == 0
        metrics = dict(line.split("=", 1) for line in
                       (tmp_path / "lca" / "metrics.txt").read_text().splitlines())
        assert float(metrics["recovery_max_err"]) < 1e-6
        assert metrics["energy_nonincreasing"] == "True"

    def test_crossbar_train_literal_flag(self, tmp_path):
        assert main(["crossbar-train", "--literal", "--seed", "5",
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("rule", ["adaline", "gradient"])
    def test_crossbar_train_literal_refused_without_sanger(self, tmp_path, capsys, rule):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema": 1, "experiment": "crossbar-train", "params": {"rule": rule}}))
        assert main(["crossbar-train", "--literal", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: the literal form exists for the sanger rule only")
        assert not (tmp_path / "crossbar-train").exists()

    def test_every_experiment_has_presets(self):
        # one preset per experiment, and its runner reads every field of it
        for name, presets in PRESETS.items():
            assert list(presets) == [default_preset(name)], name
            params = _ReadRecorder(presets[default_preset(name)])
            with contextlib.suppress(_AllFieldsRead):
                RUNNERS[name](params, np.random.default_rng(0))
            assert not params.unread, (name, params.unread)


class TestPrescribedDriveSolvedDirectly:
    def test_hysteresis_and_plant_never_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate called")

        monkeypatch.setattr(memsim.devices, "integrate", refuse)
        monkeypatch.setattr(memsim.circuits, "integrate", refuse)
        rng = np.random.default_rng(0)
        for runner, exp in ((run_hysteresis, "hysteresis"), (run_plant, "plant")):
            metrics, traces, _ = runner(PRESETS[exp][default_preset(exp)], rng)
            assert metrics and traces

    def test_hh_and_linear_reservoir_never_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate called")

        monkeypatch.setattr(memsim.circuits, "integrate", refuse)
        monkeypatch.setattr(memsim.learning, "integrate", refuse)
        rng = np.random.default_rng(0)
        for runner, exp in ((run_hh, "hh"), (run_rc_demo, "rc-demo")):
            metrics, traces, _ = runner(PRESETS[exp][default_preset(exp)], rng)
            assert metrics and traces


class TestNefDemo:
    @pytest.mark.parametrize("seed", range(20))
    def test_decodes_better_than_zero(self, seed):
        # the held-out cos(pi x) must be decoded better than by returning zero
        metrics, _, _ = run_nef_demo(PRESETS["nef-demo"][default_preset("nef-demo")],
                                     np.random.default_rng(seed))
        assert metrics["test_rms"] < metrics["zero_rms"]


class TestIntegratorFlags:
    def test_hysteresis_rejects_dt(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hysteresis", "--dt", "1e-3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--dt" in capsys.readouterr().err

    def test_hh_dt_overrides(self, tmp_path):
        assert main(["hh", "--dt", "1e-3", "--t-end", "0.05", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "hh" / "manifest.json").read_text())
        assert manifest["params"]["dt"] == 1e-3
        assert manifest["params"]["t_end"] == 0.05
        assert len((tmp_path / "hh" / "hh.csv").read_text().splitlines()) == 1 + 51

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_leave_no_argument_state(self, tmp_path):
        # each command's artifacts after the other ran in this process equal
        # those of the command run alone, on a parser built afresh for it
        mz = tmp_path / "m.txt"
        mz.write_text("S...\n###.\n...E\n")
        commands = {"maze": ["maze", "--maze", str(mz)], "crossbar-train": ["crossbar-train", "--literal"]}
        for argv in commands.values():
            build_parser.cache_clear()
            assert main([*argv, "--out", str(tmp_path / "alone")]) == 0
        for argv in commands.values():
            assert main([*argv, "--out", str(tmp_path / "both")]) == 0
        for name in commands:
            files = sorted(p.name for p in (tmp_path / "alone" / name).iterdir())
            assert files == sorted(p.name for p in (tmp_path / "both" / name).iterdir())
            for f in files:
                assert read(tmp_path / "both" / name / f) == read(tmp_path / "alone" / name / f), f

    def test_amoeba_accepts_dt_not_t_end(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["amoeba", "--dt", "0.2"]).dt == 0.2
        with pytest.raises(SystemExit):
            parser.parse_args(["amoeba", "--t-end", "5"])

    @pytest.mark.parametrize("flag,field", [("--dt", "dt"), ("--t-end", "t_end")])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, flag, field, value):
        offered = [name for name in PRESETS if field in PRESETS[name][default_preset(name)]]
        assert len(offered) >= 5
        for name in offered:
            assert main([name, f"{flag}={value}", "--out", str(tmp_path)]) == 2, name
            err = capsys.readouterr().err
            assert err.startswith(f"error: {field} must be finite"), (name, err)
            assert not (tmp_path / name).exists(), name

    def test_step_count_overflow_exits_2(self, tmp_path, capsys):
        # both values are finite, but t_end / dt is not: refused before any
        # sample is allocated.  A finite but huge step count is not tried here,
        # since it would allocate its samples.
        offered = [name for name in PRESETS
                   if {"dt", "t_end"} <= PRESETS[name][default_preset(name)].keys()]
        assert {"hh", "lca", "maze"} <= set(offered)
        for name in offered:
            assert main([name, "--dt", "1e-10", "--t-end", "1e308", "--out", str(tmp_path)]) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("error: t_end / dt must be finite"), (name, err)
            assert not (tmp_path / name).exists(), name

    @pytest.mark.parametrize("flag,field", [("--dt", "dt"), ("--t-end", "t_end")])
    def test_offered_exactly_where_the_preset_has_the_field(self, flag, field, capsys):
        parser = build_parser()
        for name in PRESETS:
            has_field = field in PRESETS[name][default_preset(name)]
            try:
                parser.parse_args([name, flag, "1"])
                accepted = True
            except SystemExit:
                accepted = False
            assert accepted == has_field, name
