import configparser
import json
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import canonical_config, write_sim_config
from test_configio import drop_option
from voltsentry import boost, cli, configio, datasets, pipeline, simkit
from voltsentry.configio import SimRunSpec, write_scenario
from voltsentry.threatgen import AttackScenario
from voltsentry.transfer import norm_for_pack

MINI_CELL = simkit.CellParams(capacity_ah=2.0)


def mini_pack_config(seed=3):
    return simkit.PackConfig(
        name="mini", parallel_modules=3, branches_per_module=2,
        series_cells=4, heterogeneity_sigma=0.01, rng_seed=seed,
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

        # Each report names every hyper-parameter its model was trained
        # with, and no report carries a seed.
        assert base["model"]["config"] == asdict(
            configio.read_train_config(mini_setup["train_cfg"]))
        finetune = json.loads((out / "report_finetune_mini.json").read_text())
        assert finetune["model"]["recipe"] == asdict(
            configio.resolve_recipe(mini_setup["recipe"]))
        assert sorted(finetune["model"]["recipe"]) == sorted(
            f.name for f in boost.TrainConfig.__dataclass_fields__.values())
        for path in out.glob("report_*.json"):
            assert "seed" not in json.loads(path.read_text())

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


class TestFinetuneDomainGuard:
    @pytest.fixture()
    def pack1_files(self, base_model, pack1_bundle, tmp_path):
        """(traces, their CSV paths, finetune(paths, out) -> exit code) for
        the canonical pack 1 charges, fine-tuned from the session base
        model with the pack 1 config and recipe."""
        model = tmp_path / "model_base.json"
        boost.save_model(model, base_model)
        traces = [*pack1_bundle["traces"]["train"], pack1_bundle["traces"]["test"]]
        paths = []
        for trace in traces:
            paths.append(tmp_path / f"{trace.name}.csv")
            datasets.write_trace(paths[-1], trace)

        def finetune(paths, out):
            return cli.main(["finetune", "--model", str(model),
                             "--config", canonical_config("pack1_c100"),
                             "--traces", str(paths[0]), str(paths[1]),
                             "--test-trace", str(paths[2]), "--recipe", "pack1",
                             "--out-dir", str(tmp_path / out)])

        return traces, paths, finetune

    def test_wrong_scale_trace_exits_5(self, pack1_files, tmp_path, capsys):
        """finetune checks every trace against the base model at the
        pack's v_scale before it builds a set: the canonical pack 1
        charges pass, and each of them with its module voltages ten times
        too large exits 5 and writes no model."""
        traces, paths, finetune = pack1_files
        assert finetune(paths, "ok") == 0
        capsys.readouterr()
        for k, trace in enumerate(traces):
            scaled = tmp_path / f"{trace.name}_x10.csv"
            datasets.write_trace(scaled, simkit.TelemetryTrace(
                t_s=trace.t_s, i_pack_a=trace.i_pack_a,
                v_modules=trace.v_modules * 10.0))
            out = f"x10_{k}"
            assert finetune(paths[:k] + [scaled] + paths[k + 1:], out) == 5
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "invalid-input"
            assert "model/trace mismatch" in err["message"]
            assert not (tmp_path / out / "model_pack1.json").exists()

    def test_trace_of_another_module_count_exits_5(self, pack1_files,
                                                   tmp_path, capsys):
        """Pack 1 has 4 modules: its charges with a fifth module (a copy of
        the fourth), all three or any one of them, exit 5 and write no
        model."""
        traces, paths, finetune = pack1_files
        wide = []
        for trace in traces:
            wide.append(tmp_path / f"{trace.name}_q5.csv")
            datasets.write_trace(wide[-1], simkit.TelemetryTrace(
                t_s=trace.t_s, i_pack_a=trace.i_pack_a,
                v_modules=trace.v_modules[:, [0, 1, 2, 3, 3]]))
        cases = [wide] + [paths[:k] + [wide[k]] + paths[k + 1:] for k in range(3)]
        for k, case in enumerate(cases):
            out = f"q5_{k}"
            assert finetune(case, out) == 5
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "invalid-input"
            assert "has 5 modules, pack 'pack1' has 4" in err["message"]
            assert not (tmp_path / out / "model_pack1.json").exists()


class TestReportCommand:
    @pytest.mark.parametrize("text", [
        "[]", "3", '"report"', "null", '{"model": [1]}', '{"detection": 2.5}',
        '{"command": "calibrate", "model": {}, "detection": null}'])
    def test_json_that_is_not_a_report_exits_4(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert cli.main(["report", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "parse-error", "message": f"{path}: not a report object"}

    def test_report_object_without_sections_is_summarized(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"command": "train-base"}')
        assert cli.main(["report", str(path)]) == 0
        assert capsys.readouterr().out == f"== {path} (train-base) ==\n"


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
        # The corpus charges hold CV at the cell's v_max, within the noise.
        for name in ("cell_c120_s050_r100", "cell_c050_s050_r100"):
            trace = datasets.read_trace(corpus / (name + ".csv"))
            i = trace.i_pack_a
            cv = (i < i[0]) & (i > 0)
            assert cv.sum() > 100, name
            assert abs(np.median(trace.v_modules[cv, 0]) - 4.1) <= 1e-3, name
        train_cfg = tmp_path / "train.ini"
        train_cfg.write_text("[train]\nn_trees = 3\nmax_depth = 2\n")
        assert cli.main(["train-base", "--corpus-dir", str(corpus),
                         "--config", str(train_cfg),
                         "--out-dir", str(tmp_path / "out")]) == 0
        model = json.loads((tmp_path / "out" / "report_train_base.json")
                           .read_text())["model"]
        assert model["val_max_abs_error_fraction"] == (
            model["val_max_abs_error_v"] / 4.1)

    def test_report_pins_its_corpus(self, mini_setup):
        """The provenance holds the manifest's digest and one digest of the
        CSVs' names and bytes, which changes when a CSV does."""
        corpus = mini_setup["corpus"]
        argv = ["train-base", "--corpus-dir", str(corpus),
                "--config", str(mini_setup["train_cfg"]), "--out-dir"]
        assert cli.main(argv + [str(mini_setup["tmp"] / "a")]) == 0
        # The same charge as write_mini_corpus's first run, another noise draw.
        redrawn = simkit.run_cccv_cell(
            MINI_CELL, simkit.CccvPolicy(c_rate=1.0, duration_s=240), 0.10,
            simkit.NoiseSpec(), seed=9)
        datasets.write_trace(corpus / "cell_c100_s010_r100.csv", redrawn)
        assert cli.main(argv + [str(mini_setup["tmp"] / "b")]) == 0
        a, b = (json.loads((mini_setup["tmp"] / d / "report_train_base.json")
                           .read_text())["provenance"] for d in "ab")
        assert a["corpus_manifest_sha256"] == configio.sha256_of(
            corpus / pipeline.CORPUS_MANIFEST)
        assert b["corpus_manifest_sha256"] == a["corpus_manifest_sha256"]
        assert b["corpus_csvs_sha256"] == pipeline.corpus_csvs_sha256(corpus)
        assert b["corpus_csvs_sha256"] != a["corpus_csvs_sha256"]

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

    @pytest.mark.parametrize("flag", ["--model", "--trace"])
    def test_directory_path_is_missing_file(self, mini_setup, capsys, flag):
        """A directory where a file is expected exits 3 naming it, not
        with a traceback."""
        out = mini_setup["tmp"] / "out_dir_path"
        assert cli.main(["train-base", "--corpus-dir", str(mini_setup["corpus"]),
                         "--config", str(mini_setup["train_cfg"]),
                         "--out-dir", str(out)]) == 0
        trace = mini_setup["corpus"] / "cell_c100_s010_r100.csv"
        argv = {"--model": str(out / "model_base.json"), "--trace": str(trace)}
        argv[flag] = str(mini_setup["corpus"])
        assert cli.main(["calibrate", "--model", argv["--model"],
                         "--trace", argv["--trace"],
                         "--out-dir", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "missing-file"
        assert str(mini_setup["corpus"]) in err["message"]

    def test_directory_config_is_missing_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(tmp_path),
                         "--out-dir", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "missing-file"
        assert str(tmp_path) in err["message"]
        assert not out.exists()

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
        ("cell", "cell", {"v_max": "nan"}, "v_max"),
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


class TestNonFiniteThreshold:
    """A NaN or infinite threshold exits 5 and writes no report: a NaN
    epsilon is never crossed and would score the attack missed, and JSON
    has no literal for either value."""

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_attack_eval_epsilon(self, tmp_path, capsys, epsilon):
        model, trace = TestMissingRequiredKey.tiny_model_and_trace(tmp_path)
        scenario = tmp_path / "replay.ini"
        write_scenario(scenario, AttackScenario(
            kind="replay", k0_s=2, kf_s=3, record_start_s=0, record_end_s=1,
            target_modules=(1,)))
        out = tmp_path / "out"
        assert cli.main(["attack-eval", "--model", model, "--trace", trace,
                         "--scenario", str(scenario), "--epsilon", epsilon,
                         "--out-dir", str(out)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert "--epsilon must be positive and finite" in err["message"]
        assert not out.exists()


class TestMissingRequiredKey:
    """A config without a required key exits 4 with one JSON line, before
    the command writes anything."""

    @staticmethod
    def run(tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out-dir", str(out)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "parse-error"
        assert not out.exists()
        return err["message"]

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


class TestConfigOverlays:
    """A config that names [run] base is read over that file: the CLI
    reads the pair as one config, and a report pins both files."""

    def test_finetune_on_an_overlay_records_its_base(self, mini_setup):
        out = mini_setup["tmp"] / "out"
        art = run_pipeline(mini_setup, out)
        overlay = mini_setup["tmp"] / "over" / "c100.ini"
        overlay.parent.mkdir()
        overlay.write_text("[run]\nbase = ../mini_c100.ini\n")
        out_over = mini_setup["tmp"] / "out_over"
        traces = art["traces"]
        assert cli.main(["finetune", "--model", str(art["model"]),
                         "--config", str(overlay),
                         "--traces", str(traces["c080"]), str(traces["c120"]),
                         "--test-trace", str(traces["c100"]),
                         "--recipe", str(mini_setup["recipe"]),
                         "--out-dir", str(out_over)]) == 0
        assert ((out_over / "model_mini.json").read_bytes()
                == (out / "model_mini.json").read_bytes())
        prov = json.loads((out_over / "report_finetune_mini.json")
                          .read_text())["provenance"]
        assert prov["config_sha256"] == configio.sha256_of(overlay)
        assert prov["config_base_sha256"] == configio.sha256_of(
            mini_setup["configs"]["c100"])
        plain = json.loads((out / "report_finetune_mini.json").read_text())
        assert "config_base_sha256" not in plain["provenance"]

    def test_misspelled_override_exits_4_naming_the_overlay(self, tmp_path,
                                                             capsys):
        write_pack_configs(tmp_path)
        overlay = tmp_path / "c080.ini"
        overlay.write_text("[run]\nbase = mini_c100.ini\n\n[policy]\nc_rat = 0.8\n")
        message = TestMissingRequiredKey.run(
            tmp_path, capsys, ["simulate", "--config", str(overlay)])
        assert message == f"{overlay}: unknown key 'c_rat' in section [policy]"

    def test_base_that_names_a_base_exits_4(self, tmp_path, capsys):
        write_pack_configs(tmp_path)
        (tmp_path / "middle.ini").write_text("[run]\nbase = mini_c100.ini\n")
        overlay = tmp_path / "top.ini"
        overlay.write_text("[run]\nbase = middle.ini\n")
        message = TestMissingRequiredKey.run(
            tmp_path, capsys, ["simulate", "--config", str(overlay)])
        assert "names a base" in message

    def test_missing_base_exits_3(self, tmp_path, capsys):
        overlay = tmp_path / "over.ini"
        overlay.write_text("[run]\nbase = absent.ini\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(overlay),
                         "--out-dir", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "missing-file"
        assert "absent.ini" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("base", [".", "sub"])
    def test_base_naming_a_directory_exits_3(self, tmp_path, capsys, base):
        (tmp_path / "sub").mkdir()
        overlay = tmp_path / "over.ini"
        overlay.write_text(f"[run]\nbase = {base}\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(overlay),
                         "--out-dir", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "missing-file"
        assert str(tmp_path / base) in err["message"]
        assert not out.exists()

    def test_empty_base_exits_3_naming_the_config(self, tmp_path, capsys):
        overlay = tmp_path / "over.ini"
        overlay.write_text("[run]\nbase =\n\n[policy]\nc_rate = 0.8\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(overlay),
                         "--out-dir", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "missing-file"
        assert err["message"] == f"{overlay}: [run] base names no file"
        assert not out.exists()


class TestIgnoredInputsRejected:
    """Config content that a command would not read is an error, not a
    silent no-op."""

    def test_corpus_config_with_policy_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "corpus.ini"
        write_sim_config(cfg, SimRunSpec(
            kind="cell_corpus", cell=MINI_CELL, policy=simkit.CccvPolicy(1.0),
            noise=simkit.NoiseSpec(), seed=1))
        cfg.write_text(cfg.read_text() + "\n[policy]\ntaper_cutoff_c = 0.1\n")
        message = TestMissingRequiredKey.run(
            tmp_path, capsys, ["simulate", "--config", str(cfg)])
        assert message == (f"{cfg}: a cell_corpus run reads no [policy] "
                           "or [run] init_soc")

    def test_swap_scenario_with_targets_exits_5(self, tmp_path, capsys):
        model, trace = TestMissingRequiredKey.tiny_model_and_trace(tmp_path)
        scenario = tmp_path / "swap.ini"
        scenario.write_text("[attack]\nkind = swap_fdi\nk0_s = 1\nkf_s = 2\n"
                            "target_modules = 1, 2\n")
        out = tmp_path / "out"
        assert cli.main(["attack-eval", "--model", model, "--trace", trace,
                         "--scenario", str(scenario), "--epsilon", "0.1",
                         "--out-dir", str(out)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert "swap takes no" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train-base", "--corpus-dir", "c"],
        ["finetune", "--model", "m", "--config", "c", "--traces", "t",
         "--test-trace", "t"],
        ["calibrate", "--model", "m", "--trace", "t"],
        ["attack-eval", "--model", "m", "--trace", "t", "--scenario", "s",
         "--epsilon", "1"]])
    def test_seed_is_a_simulate_option_only(self, argv, capsys):
        parser = cli.build_parser()
        parser.parse_args(argv)
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv + ["--seed", "1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_calibrate_has_no_margin_option(self, capsys):
        """The threshold's margin is sentinel.MARGIN, not a setting."""
        with pytest.raises(SystemExit) as info:
            cli.main(["calibrate", "--model", "m", "--trace", "t",
                      "--margin", "1.5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --margin 1.5" in capsys.readouterr().err


class TestUnknownKeyOrSection:
    """A misspelled or removed key, and then a section that no reader
    knows, each exit 4 with a message naming the file and the key or
    section, before the command writes anything; one test per reader."""

    @staticmethod
    def run(tmp_path, capsys, argv, path, section, key):
        text = path.read_text()
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
        message = TestMissingRequiredKey.run(tmp_path, capsys, argv)
        assert message == f"{path}: unknown key {key!r} in section [{section}]"
        path.write_text(text + "\n[polcy]\nc_rate = 1.2\n")
        message = TestMissingRequiredKey.run(tmp_path, capsys, argv)
        assert message == f"{path}: unknown section [polcy]"

    @pytest.mark.parametrize("section, key", [("policy", "c_rat"),
                                              ("pack", "rng_sed"),
                                              ("run", "sed"),
                                              ("policy", "v_max")])
    def test_sim_config(self, tmp_path, capsys, section, key):
        cfg = write_pack_configs(tmp_path)["c100"]
        self.run(tmp_path, capsys, ["simulate", "--config", str(cfg)],
                 cfg, section, key)

    def test_scenario(self, tmp_path, capsys):
        model, trace = TestMissingRequiredKey.tiny_model_and_trace(tmp_path)
        scenario = tmp_path / "swap.ini"
        write_scenario(scenario, AttackScenario(kind="swap_fdi", k0_s=1, kf_s=2))
        self.run(tmp_path, capsys, [
            "attack-eval", "--model", model, "--trace", trace,
            "--scenario", str(scenario), "--epsilon", "0.1"],
            scenario, "attack", "k0")

    def test_train_config(self, tmp_path, capsys):
        train_cfg = tmp_path / "train.ini"
        train_cfg.write_text("[train]\nn_trees = 3\n")
        self.run(tmp_path, capsys, [
            "train-base", "--corpus-dir", str(tmp_path / "corpus"),
            "--config", str(train_cfg)], train_cfg, "train", "ntrees")

    def test_finetune_recipe(self, tmp_path, capsys):
        model, trace = TestMissingRequiredKey.tiny_model_and_trace(tmp_path)
        recipe = tmp_path / "recipe.ini"
        recipe.write_text("[finetune]\nn_trees = 2\nmax_depth = 2\n"
                          "learning_rate = 0.05\n")
        self.run(tmp_path, capsys, [
            "finetune", "--model", model,
            "--config", str(write_pack_configs(tmp_path)["c100"]),
            "--traces", trace, "--test-trace", trace, "--recipe", str(recipe)],
            recipe, "finetune", "lamda_l2")

    def test_removed_boosting_keys(self, tmp_path, capsys):
        """The grower has no split penalty and no child-count limit, and
        its L2 weight is a constant."""
        model, trace = TestMissingRequiredKey.tiny_model_and_trace(tmp_path)
        train_cfg = tmp_path / "train.ini"
        train = ["train-base", "--corpus-dir", str(tmp_path / "corpus"),
                 "--config", str(train_cfg)]
        for key in ("gamma_leaf", "lambda_l2"):
            train_cfg.write_text("[train]\nn_trees = 3\n")
            self.run(tmp_path, capsys, train, train_cfg, "train", key)
        recipe = tmp_path / "recipe.ini"
        finetune = ["finetune", "--model", model,
                    "--config", str(write_pack_configs(tmp_path)["c100"]),
                    "--traces", trace, "--test-trace", trace,
                    "--recipe", str(recipe)]
        for key in ("min_child_weight", "lambda_l2"):
            recipe.write_text("[finetune]\nn_trees = 2\nmax_depth = 2\n"
                              "learning_rate = 0.05\n")
            self.run(tmp_path, capsys, finetune, recipe, "finetune", key)


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
                          "learning_rate = 1.5\n")
        out = tmp_path / "out"
        assert cli.main([
            "finetune", "--model", model,
            "--config", str(write_pack_configs(tmp_path)["c100"]),
            "--traces", trace, "--test-trace", trace, "--recipe", str(recipe),
            "--out-dir", str(out)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert "learning_rate" in err["message"]
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
    @pytest.mark.parametrize("run_seed, flag", [(7, []), (0, ["--seed", "7"])])
    def test_pack_seed_rejected(self, tmp_path, capsys, run_seed, flag):
        """Pack noise is seeded from [pack] rng_seed: a nonzero effective
        seed, from [run] seed or --seed, exits 5 and writes nothing, and
        --seed 0 overrides [run] seed."""
        cfg = tmp_path / "pack.ini"
        write_sim_config(cfg, SimRunSpec(
            kind="pack", cell=MINI_CELL,
            policy=simkit.CccvPolicy(c_rate=1.0, duration_s=60),
            noise=simkit.NoiseSpec(), pack=mini_pack_config(), seed=run_seed))
        argv = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv + flag) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert "[pack] rng_seed" in err["message"]
        assert not (tmp_path / "out").exists()
        assert cli.main(argv + ["--seed", "0"]) == 0
        assert (tmp_path / "out" / "mini_c100.csv").exists()

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
