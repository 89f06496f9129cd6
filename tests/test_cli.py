import configparser
import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from test_configio import drop_option
from voltsentry import boost, cli, datasets, pipeline, simkit
from voltsentry.configio import SimRunSpec, write_scenario, write_sim_config
from voltsentry.threatgen import AttackScenario
from voltsentry.transfer import norm_for_pack

MINI_CELL = simkit.CellParams(capacity_ah=2.0)


def mini_pack_config(seed=3):
    return simkit.PackConfig(
        name="mini", parallel_modules=3, branches_per_module=2,
        series_cells=4, capacity_ah=12.0, v_max_pack=17.0,
        heterogeneity_sigma=0.01, rng_seed=seed,
        interconnect_ohm=(0.15, 0.01, 0.0))


def write_mini_corpus(corpus_dir):
    corpus_dir.mkdir(exist_ok=True)
    runs = [("cell_c100_s010_r100", 1.0, 0.10, 0),
            ("cell_c100_s030_r100", 1.0, 0.30, 1),
            ("cell_c080_s050_r100", 0.8, 0.50, 2)]
    for name, c_rate, soc, seed in runs:
        trace = simkit.run_cccv_cell(
            MINI_CELL, simkit.CccvPolicy(c_rate=c_rate, duration_s=240),
            soc, simkit.NoiseSpec(), seed=seed, name=name)
        datasets.write_trace(corpus_dir / (name + ".csv"), trace)
    pipeline.write_corpus_manifest(corpus_dir, MINI_CELL)


def write_pack_configs(tmp_path):
    paths = {}
    for label, c_rate in (("c080", 0.8), ("c120", 1.2), ("c100", 1.0)):
        spec = SimRunSpec(
            kind="pack", cell=MINI_CELL,
            policy=simkit.CccvPolicy(c_rate=c_rate, duration_s=240),
            noise=simkit.NoiseSpec(), pack=mini_pack_config(),
            init_soc=0.25)
        path = tmp_path / f"mini_{label}.ini"
        write_sim_config(path, spec)
        paths[label] = path
    return paths


@pytest.fixture()
def mini_setup(tmp_path):
    corpus = tmp_path / "corpus"
    write_mini_corpus(corpus)
    train_cfg = tmp_path / "train.ini"
    train_cfg.write_text("[train]\nn_trees = 15\nmax_depth = 2\n"
                         "learning_rate = 0.3\n")
    recipe = tmp_path / "recipe.ini"
    recipe.write_text("[finetune]\nn_trees = 2\nmax_depth = 2\n"
                      "learning_rate = 0.05\n")
    return {"tmp": tmp_path, "corpus": corpus, "train_cfg": train_cfg,
            "recipe": recipe, "configs": write_pack_configs(tmp_path)}


def run_pipeline(setup, out):
    """Full mini pipeline via the CLI; returns key artifact paths."""
    tmp = setup["tmp"]
    assert cli.main(["train-base", "--corpus-dir", str(setup["corpus"]),
                     "--config", str(setup["train_cfg"]),
                     "--out-dir", str(out)]) == 0
    model = out / "model_base.json"
    for label in ("c080", "c120", "c100"):
        assert cli.main(["simulate", "--config", str(setup["configs"][label]),
                         "--out-dir", str(out)]) == 0
    traces = {label: out / f"mini_c{label[1:]}.csv" for label in ("c080", "c120", "c100")}
    assert cli.main(["finetune", "--model", str(model),
                     "--config", str(setup["configs"]["c100"]),
                     "--traces", str(traces["c080"]), str(traces["c120"]),
                     "--test-trace", str(traces["c100"]),
                     "--recipe", str(setup["recipe"]),
                     "--out-dir", str(out)]) == 0
    pack_model = out / "model_mini.json"
    assert cli.main(["calibrate", "--model", str(pack_model),
                     "--trace", str(traces["c100"]),
                     "--out-dir", str(out)]) == 0
    calib = json.loads((out / "report_calibrate_mini_c100.json").read_text())
    epsilon = calib["detection"]["epsilon_v"]
    scenario = setup["tmp"] / "swap.ini"
    write_scenario(scenario, AttackScenario(kind="swap_fdi", k0_s=60, kf_s=180))
    assert cli.main(["attack-eval", "--model", str(pack_model),
                     "--trace", str(traces["c100"]),
                     "--scenario", str(scenario),
                     "--epsilon", str(epsilon),
                     "--out-dir", str(out)]) == 0
    return {"model": model, "pack_model": pack_model, "traces": traces,
            "epsilon": epsilon}


class TestPipeline:
    def test_end_to_end(self, mini_setup, capsys):
        out = mini_setup["tmp"] / "out"
        art = run_pipeline(mini_setup, out)
        assert art["model"].exists()
        assert art["pack_model"].exists()
        assert (out / "detection_mini_c100_swap_fdi.csv").exists()
        assert (out / "events_mini_c100_swap_fdi.csv").exists()
        report = json.loads((out / "report_mini_c100_swap_fdi.json").read_text())
        assert report["command"] == "attack-eval"
        assert "onset_delay_samples" in report["detection"]
        prov = report["provenance"]
        assert set(prov) == {"package_version", "model_format_version",
                             "model_sha256", "trace_sha256", "scenario_sha256"}
        assert prov["model_format_version"] == 1
        # Reports never carry wall-clock content; timings live in sidecars.
        assert "runtime" not in json.dumps(report).lower()
        assert (out / "timings_train_base.json").exists()

        base = json.loads((out / "report_train_base.json").read_text())
        assert base["artifacts"]["loss_curve"] == "loss_curve_base.csv"
        curve = (out / "loss_curve_base.csv").read_text().splitlines()
        assert curve[0] == "round,train_mse,val_mse"
        assert len(curve) == 1 + 15
        last = curve[-1].split(",")
        assert last[0] == "15"
        assert float(last[1]) == base["model"]["final_train_mse"]
        assert float(last[2]) == base["model"]["final_val_mse"]

        assert cli.main(["report", str(out / "report_mini_c100_swap_fdi.json")]) == 0
        printed = capsys.readouterr().out
        assert "attack-eval" in printed

    def test_deterministic_outputs(self, mini_setup):
        out_a = mini_setup["tmp"] / "a"
        out_b = mini_setup["tmp"] / "b"
        run_pipeline(mini_setup, out_a)
        run_pipeline(mini_setup, out_b)
        for name in ("model_base.json", "loss_curve_base.csv", "model_mini.json",
                     "detection_mini_c100_swap_fdi.csv",
                     "report_mini_c100_swap_fdi.json",
                     "report_train_base.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestFinetuneNominalVoltage:
    def test_config_cell_sets_nominal_module_voltage(self, mini_setup):
        out = mini_setup["tmp"] / "out_vmax"
        art = run_pipeline(mini_setup, out)
        default = json.loads((out / "report_finetune_mini.json").read_text())
        assert default["model"]["nominal_module_v"] == 4 * 4.2

        spec = SimRunSpec(
            kind="pack", cell=replace(MINI_CELL, v_max=4.1),
            policy=simkit.CccvPolicy(c_rate=1.0, duration_s=240),
            noise=simkit.NoiseSpec(), pack=mini_pack_config(), init_soc=0.25)
        config = mini_setup["tmp"] / "mini_vmax41.ini"
        write_sim_config(config, spec)
        out_41 = mini_setup["tmp"] / "out_vmax41"
        traces = art["traces"]
        assert cli.main(["finetune", "--model", str(art["model"]),
                         "--config", str(config),
                         "--traces", str(traces["c080"]), str(traces["c120"]),
                         "--test-trace", str(traces["c100"]),
                         "--recipe", str(mini_setup["recipe"]),
                         "--out-dir", str(out_41)]) == 0
        info = json.loads((out_41 / "report_finetune_mini.json").read_text())["model"]
        assert info["nominal_module_v"] == 4 * 4.1
        assert info["test_max_abs_error_fraction"] == (
            info["test_max_abs_error_v"] / (4 * 4.1))
        assert info["test_max_abs_error_v"] == default["model"]["test_max_abs_error_v"]


class TestTrainBaseNominalVoltage:
    def test_corpus_manifest_sets_nominal_cell_voltage(self, tmp_path):
        cell = replace(simkit.default_cell(), v_max=4.1)
        config = tmp_path / "corpus_vmax41.ini"
        write_sim_config(config, SimRunSpec(
            kind="cell_corpus", cell=cell, policy=simkit.CccvPolicy(c_rate=1.0),
            noise=simkit.NoiseSpec(), init_soc=0.3, seed=1))
        corpus = tmp_path / "corpus"
        assert cli.main(["simulate", "--config", str(config),
                         "--out-dir", str(corpus)]) == 0
        assert pipeline.read_corpus_cell(corpus) == cell
        train_cfg = tmp_path / "train.ini"
        train_cfg.write_text("[train]\nn_trees = 3\nmax_depth = 2\n")
        assert cli.main(["train-base", "--corpus-dir", str(corpus),
                         "--config", str(train_cfg),
                         "--out-dir", str(tmp_path / "out")]) == 0
        model = json.loads((tmp_path / "out" / "report_train_base.json")
                           .read_text())["model"]
        assert model["val_max_abs_error_fraction"] == (
            model["val_max_abs_error_v"] / 4.1)

    def test_corpus_without_manifest_is_missing_file(self, mini_setup, capsys):
        (mini_setup["corpus"] / pipeline.CORPUS_MANIFEST).unlink()
        out = mini_setup["tmp"] / "out"
        assert cli.main(["train-base", "--corpus-dir", str(mini_setup["corpus"]),
                         "--out-dir", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "missing-file"
        assert pipeline.CORPUS_MANIFEST in err["message"]
        assert not (out / "report_train_base.json").exists()

    @pytest.mark.parametrize("text, code", [
        ('{"cell": {"v_max": 4.1}}', 5),
        ('{"cell": []}', 5),
        ('[]', 5),
        ('{"cell": {"v_max": 4.1', 4),
    ])
    def test_malformed_manifest_rejected(self, mini_setup, capsys, text, code):
        (mini_setup["corpus"] / pipeline.CORPUS_MANIFEST).write_text(text)
        assert cli.main(["train-base", "--corpus-dir", str(mini_setup["corpus"]),
                         "--out-dir", str(mini_setup["tmp"] / "out")]) == code
        capsys.readouterr()

    def test_manifest_with_bad_value_rejected(self, mini_setup, capsys):
        path = mini_setup["corpus"] / pipeline.CORPUS_MANIFEST
        doc = json.loads(path.read_text())
        doc["cell"]["v_max"] = "high"
        path.write_text(json.dumps(doc))
        assert cli.main(["train-base", "--corpus-dir", str(mini_setup["corpus"]),
                         "--out-dir", str(mini_setup["tmp"] / "out")]) == 5
        assert "not a corpus manifest" in json.loads(capsys.readouterr().err)["message"]


class TestErrorPaths:
    def test_missing_file_category(self, tmp_path, capsys):
        code = cli.main(["calibrate", "--model", str(tmp_path / "nope.json"),
                         "--trace", str(tmp_path / "nope.csv"),
                         "--out-dir", str(tmp_path)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "missing-file"

    def test_parse_error_category(self, mini_setup, tmp_path, capsys):
        out = mini_setup["tmp"] / "out_err"
        assert cli.main(["train-base", "--corpus-dir", str(mini_setup["corpus"]),
                         "--config", str(mini_setup["train_cfg"]),
                         "--out-dir", str(out)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,telemetry\n1,2,3\n")
        code = cli.main(["calibrate", "--model", str(out / "model_base.json"),
                         "--trace", str(bad), "--out-dir", str(tmp_path)])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "parse-error"

    def test_scale_mismatch_category(self, mini_setup, capsys):
        # Base cell model against a pack-scale trace.
        out = mini_setup["tmp"] / "out_mm"
        assert cli.main(["train-base", "--corpus-dir", str(mini_setup["corpus"]),
                         "--config", str(mini_setup["train_cfg"]),
                         "--out-dir", str(out)]) == 0
        assert cli.main(["simulate", "--config",
                         str(mini_setup["configs"]["c100"]),
                         "--out-dir", str(out)]) == 0
        code = cli.main(["calibrate", "--model", str(out / "model_base.json"),
                         "--trace", str(out / "mini_c100.csv"),
                         "--out-dir", str(out)])
        assert code == 5
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"

    @staticmethod
    def calibrate_with_tree(tmp_path, tree, corrupt=lambda doc: None) -> int:
        """Exit code of calibrate on a one-tree model document."""
        doc = {"version": 1, "base_score": 3.8,
               "norm": {"v_scale": 1.0, "i_scale": 1.0},
               "segments": [{"tag": "base", "learning_rate": 0.1,
                             "trees": [tree]}]}
        corrupt(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        trace = tmp_path / "cell.csv"
        datasets.write_trace(trace, simkit.TelemetryTrace(
            t_s=np.arange(3.0), i_pack_a=np.full(3, 5.0),
            v_modules=[[3.7], [3.8], [3.9]]))
        return cli.main(["calibrate", "--model", str(model), "--trace",
                         str(trace), "--out-dir", str(tmp_path)])

    def test_malformed_model_category(self, tmp_path, capsys):
        # Node 0 lists itself as its left child: a cycle, not a tree.
        tree = {"feature": [0, -1, -1], "threshold": [3.8, 0.0, 0.0],
                "left": [0, -1, -1], "right": [2, -1, -1],
                "weight": [0.0, -0.1, 0.1]}
        assert self.calibrate_with_tree(tmp_path, tree) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda doc: doc["segments"][0]["trees"][0].pop("weight"),
                     id="tree-without-weight"),
        pytest.param(lambda doc: doc.pop("norm"), id="no-norm"),
        pytest.param(lambda doc: doc["segments"][0]["trees"][0].update(
            threshold="3.8"), id="threshold-string"),
    ])
    def test_model_missing_field_is_parse_error(self, tmp_path, capsys, corrupt):
        tree = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                "weight": [0.1]}
        assert self.calibrate_with_tree(tmp_path, tree, corrupt) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "parse-error"

    @pytest.mark.parametrize("t2", ["3.000000", "1.000000", "0.000000"],
                             ids=["gap", "duplicate", "reversal"])
    @pytest.mark.parametrize("command", ["calibrate", "attack-eval"])
    def test_trace_cadence_break_is_parse_error(self, tmp_path, capsys, t2,
                                                command):
        trace = tmp_path / "gap.csv"
        trace.write_text("t_s,i_pack_a,v_m1\n0.000000,5.0,3.7\n"
                         f"1.000000,5.0,3.8\n{t2},5.0,3.9\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(
            {"version": 1, "base_score": 3.8,
             "norm": {"v_scale": 1.0, "i_scale": 1.0}, "segments": []}))
        scenario = tmp_path / "swap.ini"
        write_scenario(scenario, AttackScenario(kind="swap_fdi", k0_s=0, kf_s=1))
        argv = [command, "--model", str(model), "--trace", str(trace),
                "--out-dir", str(tmp_path / "out")]
        if command == "attack-eval":
            argv += ["--scenario", str(scenario), "--epsilon", "0.1"]
        assert cli.main(argv) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse-error"
        assert err["message"].startswith("line 4: t_s=")
        assert not (tmp_path / "out").exists()

    def test_bad_epsilon_rejected(self, mini_setup, capsys):
        out = mini_setup["tmp"] / "out_eps"
        art = run_pipeline(mini_setup, out)
        scenario = mini_setup["tmp"] / "swap2.ini"
        write_scenario(scenario,
                       AttackScenario(kind="swap_fdi", k0_s=60, kf_s=180))
        code = cli.main(["attack-eval", "--model", str(art["pack_model"]),
                         "--trace", str(art["traces"]["c100"]),
                         "--scenario", str(scenario), "--epsilon", "-1",
                         "--out-dir", str(out)])
        assert code == 5
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"

    @pytest.mark.parametrize("kind, section, values, field", [
        ("cell", "policy", {"duration_s": "inf"}, "duration_s"),
        ("cell", "policy", {"v_max": "nan"}, "v_max"),
        ("cell", "policy", {"c_rate": "inf"}, "c_rate"),
        ("cell", "cell", {"r1_ohm": "nan"}, "r1_ohm"),
        ("cell", "cell", {"ocv_soc": "0.0, 0.5, 1.0", "ocv_v": "3.0, nan, 4.2"},
         "ocv_knots"),
        ("cell", "noise", {"rel_sigma": "nan"}, "rel_sigma"),
        ("pack", "pack", {"heterogeneity_sigma": "inf"}, "heterogeneity_sigma"),
        ("pack", "pack", {"interconnect_ohm": "0.0, nan, 0.1"}, "interconnect_ohm"),
    ])
    def test_nonfinite_sim_parameter_rejected(self, tmp_path, capsys, kind,
                                              section, values, field):
        spec = SimRunSpec(kind=kind, cell=MINI_CELL,
                          policy=simkit.CccvPolicy(c_rate=1.0, duration_s=60),
                          noise=simkit.NoiseSpec(), init_soc=0.3,
                          pack=mini_pack_config() if kind == "pack" else None)
        cfg = tmp_path / "run.ini"
        write_sim_config(cfg, spec)
        parser = configparser.ConfigParser()
        parser.read(cfg)
        parser[section].update(values)
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert f"{field} must be finite" in err["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    @staticmethod
    def simulate_short_pack(tmp_path, capsys, link) -> str:
        """Message of the rejected simulate of a 2x1x2 pack whose cells have
        no resistance, with interconnects of ``link`` ohm."""
        spec = SimRunSpec(
            kind="pack", cell=simkit.CellParams(capacity_ah=2.0, r0_ohm=0.0),
            policy=simkit.CccvPolicy(c_rate=1.0, duration_s=60),
            noise=simkit.NoiseSpec(), init_soc=0.3,
            pack=simkit.PackConfig(name="short", parallel_modules=2,
                                   branches_per_module=1, series_cells=2,
                                   capacity_ah=4.0, v_max_pack=9.0,
                                   interconnect_ohm=link))
        cfg = tmp_path / "run.ini"
        write_sim_config(cfg, spec)
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]
        return err["message"]

    def test_zero_resistance_pack_rejected(self, tmp_path, capsys):
        # A pack whose cells and links have no resistance at all.
        message = self.simulate_short_pack(tmp_path, capsys, 0.0)
        assert "positive and finite" in message

    @pytest.mark.parametrize("link", [2.2e-313, sys.float_info.min])
    def test_overflowing_conductance_pack_rejected(self, tmp_path, capsys, link):
        message = self.simulate_short_pack(tmp_path, capsys, link)
        assert "overflow" in message

    @pytest.mark.parametrize("kind", ["cell", "pack"])
    def test_overflowing_voltage_drop_rejected(self, tmp_path, capsys, kind):
        spec = SimRunSpec(kind=kind, cell=replace(MINI_CELL, r1_ohm=1e308),
                          policy=simkit.CccvPolicy(c_rate=1.0, duration_s=60),
                          noise=simkit.NoiseSpec(), init_soc=0.3,
                          pack=mini_pack_config() if kind == "pack" else None)
        cfg = tmp_path / "run.ini"
        write_sim_config(cfg, spec)
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert "times r1_ohm 1e+308 overflows" in err["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


class TestMissingRequiredKey:
    """A config without a required key exits 4 with one JSON line, before
    the command writes anything."""

    @staticmethod
    def run(tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out-dir", str(out)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "parse-error"
        assert not out.exists()

    @staticmethod
    def tiny_model_and_trace(tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(
            {"version": 1, "base_score": 3.8,
             "norm": {"v_scale": 1.0, "i_scale": 1.0}, "segments": []}))
        trace = tmp_path / "cell.csv"
        datasets.write_trace(trace, simkit.TelemetryTrace(
            t_s=np.arange(3.0), i_pack_a=np.full(3, 5.0),
            v_modules=[[3.7], [3.8], [3.9]]))
        return str(model), str(trace)

    def test_simulate_pack_without_series_cells(self, tmp_path, capsys):
        cfg = write_pack_configs(tmp_path)["c100"]
        drop_option(cfg, "pack", "series_cells")
        self.run(tmp_path, capsys, ["simulate", "--config", str(cfg)])

    def test_finetune_recipe_without_learning_rate(self, tmp_path, capsys):
        model, trace = self.tiny_model_and_trace(tmp_path)
        recipe = tmp_path / "recipe.ini"
        recipe.write_text("[finetune]\nn_trees = 2\nmax_depth = 2\n")
        self.run(tmp_path, capsys, [
            "finetune", "--model", model,
            "--config", str(write_pack_configs(tmp_path)["c100"]),
            "--traces", trace, "--test-trace", trace, "--recipe", str(recipe)])

    def test_attack_eval_replay_without_record_end(self, tmp_path, capsys):
        model, trace = self.tiny_model_and_trace(tmp_path)
        scenario = tmp_path / "replay.ini"
        write_scenario(scenario, AttackScenario(
            kind="replay", k0_s=2, kf_s=3, record_start_s=0, record_end_s=1,
            target_modules=(1,)))
        drop_option(scenario, "attack", "record_end_s")
        self.run(tmp_path, capsys, [
            "attack-eval", "--model", model, "--trace", trace,
            "--scenario", str(scenario), "--epsilon", "0.1"])


class TestBoostingRecipes:
    """[train] and [finetune] are read into one TrainConfig: a fine-tune
    may have zero trees, base training may not, and bad values exit 5."""

    def test_zero_tree_finetune_is_base_under_pack_norm(self, mini_setup):
        out = mini_setup["tmp"] / "out"
        art = run_pipeline(mini_setup, out)
        recipe = mini_setup["tmp"] / "zero.ini"
        recipe.write_text("[finetune]\nn_trees = 0\nmax_depth = 2\n"
                          "learning_rate = 0.05\n")
        out_zero = mini_setup["tmp"] / "out_zero"
        traces = art["traces"]
        assert cli.main(["finetune", "--model", str(art["model"]),
                         "--config", str(mini_setup["configs"]["c100"]),
                         "--traces", str(traces["c080"]), str(traces["c120"]),
                         "--test-trace", str(traces["c100"]),
                         "--recipe", str(recipe), "--out-dir", str(out_zero)]) == 0
        tuned = boost.load_model(out_zero / "model_mini.json")
        base = boost.load_model(art["model"])
        assert tuned.tree_counts() == {"base": 15, "finetune": 0}
        under_norm = boost.Ensemble(base.base_score, base.segments,
                                    norm_for_pack(mini_pack_config()))
        test = datasets.read_trace(traces["c100"])
        x = np.column_stack([test.v_modules[:-1].ravel(),
                             np.repeat(test.i_pack_a[:-1], test.q)])
        assert np.array_equal(boost.predict_batch(tuned, x),
                              boost.predict_batch(under_norm, x))

    def test_bad_finetune_value_rejected_at_zero_trees(self, tmp_path, capsys):
        model, trace = TestMissingRequiredKey.tiny_model_and_trace(tmp_path)
        recipe = tmp_path / "recipe.ini"
        recipe.write_text("[finetune]\nn_trees = 0\nmax_depth = 2\n"
                          "learning_rate = 0.05\nlambda_l2 = -1\n")
        out = tmp_path / "out"
        assert cli.main([
            "finetune", "--model", model,
            "--config", str(write_pack_configs(tmp_path)["c100"]),
            "--traces", trace, "--test-trace", trace, "--recipe", str(recipe),
            "--out-dir", str(out)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert "regularizers" in err["message"]
        assert not out.exists()

    def test_zero_tree_base_training_rejected(self, mini_setup, capsys):
        train_cfg = mini_setup["tmp"] / "zero.ini"
        train_cfg.write_text("[train]\nn_trees = 0\n")
        out = mini_setup["tmp"] / "out"
        assert cli.main(["train-base", "--corpus-dir", str(mini_setup["corpus"]),
                         "--config", str(train_cfg), "--out-dir", str(out)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert "n_trees" in err["message"]
        assert not (out / "model_base.json").exists()


class TestOutDirResolution:
    def test_env_var_override(self, mini_setup, monkeypatch, tmp_path):
        target = tmp_path / "env_out"
        monkeypatch.setenv("VOLTSENTRY_OUT_DIR", str(target))
        assert cli.main(["simulate", "--config",
                         str(mini_setup["configs"]["c100"])]) == 0
        assert (target / "mini_c100.csv").exists()

    def test_flag_beats_env(self, mini_setup, monkeypatch, tmp_path):
        monkeypatch.setenv("VOLTSENTRY_OUT_DIR", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        assert cli.main(["simulate", "--config",
                         str(mini_setup["configs"]["c100"]),
                         "--out-dir", str(explicit)]) == 0
        assert (explicit / "mini_c100.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestSimulateKinds:
    def test_cell_kind(self, tmp_path):
        spec = SimRunSpec(kind="cell", cell=MINI_CELL,
                          policy=simkit.CccvPolicy(c_rate=1.0, duration_s=60),
                          noise=simkit.NoiseSpec(), init_soc=0.3, seed=5)
        cfg = tmp_path / "cell_run.ini"
        write_sim_config(cfg, spec)
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path)]) == 0
        trace = datasets.read_trace(tmp_path / "cell_run.csv")
        assert trace.q == 1
        assert trace.n_frames == 61
