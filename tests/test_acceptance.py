"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS line.  Run with `pytest tests/test_acceptance.py -v -s`.

The heavyweight inputs (canonical corpus, base model, pack bundles) come
from session fixtures in conftest.py, so the criteria score the same
artifacts a user would build with the shipped configs.
"""

import json
import time

import numpy as np

from boost_reference import tree_depth
from conftest import canonical_config
from test_boost import brute_force_best_split, grow_tree, numeric_leaf_weight
from voltsentry import cli, configio, pipeline, simkit, threatgen
from voltsentry.boost import TrainConfig, leaf_weight
from voltsentry.sentinel import calibrate_threshold
from voltsentry.simkit import CccvPolicy, NoiseSpec

SWAP = threatgen.AttackScenario(kind="swap_fdi", k0_s=300, kf_s=700)
REPLAY = threatgen.AttackScenario(kind="replay", k0_s=400, kf_s=700,
                                  record_start_s=100, record_end_s=400,
                                  target_modules=(1, 2))


def ok(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}")


def test_01_boosting_oracle_equivalence():
    """Exact greedy split equals brute force; leaf weights match numeric
    minimization within 1e-9; 200 datasets under 10 s."""
    cfg = TrainConfig(n_trees=1, max_depth=1, learning_rate=1.0,
                      lambda_l2=1.0)
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(200):
        n = int(rng.integers(2, 33))
        # Grid-valued data keeps every partial sum exact in binary floats,
        # so mathematically tied gains (same induced partition via either
        # feature) resolve through the documented tie-break on both sides
        # instead of through summation-order rounding.
        x = rng.integers(-8, 9, size=(n, 2)) * 0.25
        y = rng.integers(-8, 9, size=n) * 0.5
        tree = grow_tree(x, y, np.zeros(n), cfg)
        oracle = brute_force_best_split(x, -y, np.ones(n), cfg)
        if oracle is None or oracle[0] <= 0.0:
            assert list(tree.feature) == [-1], \
                f"case {case}: tree split where oracle saw no gain"
        else:
            assert (tree.feature[0], tree.threshold[0]) == (oracle[1], oracle[2]), \
                f"case {case}: split mismatch"

        g = rng.normal(size=int(rng.integers(1, 9))) * 3
        lam = float(rng.uniform(0.01, 5))
        w = leaf_weight(g.sum(), float(len(g)), lam)
        w_ref = numeric_leaf_weight(g, np.ones_like(g), lam)
        assert abs(w - w_ref) <= 1e-9, f"case {case}: leaf weight off"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f} s"
    ok("1 boosting-oracle-equivalence", f"(200 datasets in {elapsed:.2f} s)")


def test_02_monotone_base_training(base_bundle, corpus_dir):
    """Per-round training loss nonincreasing over all 400 rounds; base
    training finishes within the 60 s desk budget on the >= 80k-pair corpus."""
    ens, seconds, train_set, val_set = base_bundle
    losses = ens.history.train_mse
    assert len(losses) == 400
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-9 * losses[0]), \
        f"loss increased at round {int(np.argmax(diffs > 1e-9 * losses[0]))}"
    assert seconds <= 60.0, f"base training took {seconds:.1f} s"
    assert len(train_set) + len(val_set) >= 80_000
    ok("2 monotone-base-training",
       f"(400 rounds, {seconds:.1f} s, {len(train_set)} train pairs)")


def test_03_finetune_budget_speed_improvement(base_bundle, pack1_bundle,
                                              pack2_bundle):
    """Table-2 fine-tune budgets complete within 3 s and strictly reduce the
    validation max-abs residual of the frozen base on the same pack data."""
    base_seconds = base_bundle[1]
    for bundle, n_trees, depth in ((pack1_bundle, 3, 2), (pack2_bundle, 2, 8)):
        info = bundle["info"]
        seg = bundle["model"].segments[-1]
        assert seg.tag == "finetune"
        assert len(seg.trees) == n_trees
        assert max(tree_depth(t) for t in seg.trees) <= depth
        assert (info["train_size"], info["val_size"]) in ((1800, 900), (2700, 900))
        assert bundle["finetune_s"] <= 3.0
        assert bundle["finetune_s"] * 10 <= base_seconds
        assert info["val_max_abs_residual_tl_v"] < info["val_max_abs_residual_base_v"], \
            f"{info['pack']}: no strict validation improvement"
    ok("3 finetune-budget-speed-improvement",
       "(pack1 %.0f ms %+0.1f mV, pack2 %.0f ms %+0.1f mV)" % (
           pack1_bundle["finetune_s"] * 1e3,
           1e3 * (pack1_bundle["info"]["val_max_abs_residual_base_v"]
                  - pack1_bundle["info"]["val_max_abs_residual_tl_v"]),
           pack2_bundle["finetune_s"] * 1e3,
           1e3 * (pack2_bundle["info"]["val_max_abs_residual_base_v"]
                  - pack2_bundle["info"]["val_max_abs_residual_tl_v"])))


def test_04_prediction_quality(pack1_bundle, pack2_bundle):
    """Held-out test-module one-step max-abs error at most 0.5% of the
    nominal module voltage; nominal residual stays below epsilon."""
    for bundle in (pack1_bundle, pack2_bundle):
        info = bundle["info"]
        assert info["test_max_abs_error_fraction"] <= 0.005, \
            f"{info['pack']}: {info['test_max_abs_error_fraction']:.4%}"
        assert float(np.max(bundle["nominal_det"].r)) < bundle["epsilon"]
        assert np.all(bundle["nominal_det"].flag == 0)
    ok("4 prediction-quality", "(pack1 %.3f%%, pack2 %.3f%%)" % (
        100 * pack1_bundle["info"]["test_max_abs_error_fraction"],
        100 * pack2_bundle["info"]["test_max_abs_error_fraction"]))


def test_05_threshold_calibration(pack1_bundle, pack2_bundle):
    """epsilon = (4/3) * max nominal residual; 1.5 V maps to exactly 2.0 V."""
    assert calibrate_threshold([0.3, 1.5, 0.8]) == 2.0
    for r_max in (0.9, 1.2, 1.5, 2.4):
        assert calibrate_threshold([r_max]) == (4.0 / 3.0) * r_max
    for bundle in (pack1_bundle, pack2_bundle):
        observed = float(np.max(bundle["nominal_det"].r))
        assert bundle["epsilon"] == (4.0 / 3.0) * observed
    ok("5 threshold-calibration", "(pack1 eps %.3f V, pack2 eps %.3f V)" % (
        pack1_bundle["epsilon"], pack2_bundle["epsilon"]))


def _attack_checks(bundle, scenario, name):
    model = bundle["model"]
    trace = bundle["traces"]["test"]
    epsilon = bundle["epsilon"]
    corrupted, det, metrics = pipeline.evaluate_attack(
        model, trace, scenario, epsilon)
    assert metrics.onset_delay is not None and abs(metrics.onset_delay) <= 1, \
        f"{name}: onset delay {metrics.onset_delay}"
    assert metrics.withdrawal_delay is not None and abs(metrics.withdrawal_delay) <= 1, \
        f"{name}: withdrawal delay {metrics.withdrawal_delay}"
    assert metrics.false_alarms == 0
    assert metrics.crossings == 2
    inside = det.r[(det.t_s > scenario.k0_s) & (det.t_s < scenario.kf_s)]
    assert np.all(inside < epsilon), f"{name}: residual crossed inside window"
    outside = det.r[(det.t_s < scenario.k0_s) | (det.t_s > scenario.kf_s)]
    assert np.all(outside < epsilon), f"{name}: nominal-region crossing"
    flag_window = det.flag[(det.t_s >= scenario.k0_s) & (det.t_s < scenario.kf_s)]
    assert np.all(flag_window == 1)
    return metrics


def test_06_swap_fdi_detection(pack1_bundle):
    """Pack-1 swap over [300, 700): crossings within 1 sample of both edges,
    quiet in between, zero false alarms over the full trace."""
    metrics = _attack_checks(pack1_bundle, SWAP, "pack1-swap")
    ok("6 swap-fdi-detection",
       f"(onset +{metrics.onset_delay}, withdrawal +{metrics.withdrawal_delay}, "
       f"0 false alarms)")


def test_07_replay_detection(pack2_bundle):
    """Pack-2 replay of modules 1-2, record [100, 400) played over
    [400, 700): same crossing pattern, zero false alarms."""
    metrics = _attack_checks(pack2_bundle, REPLAY, "pack2-replay")
    ok("7 replay-detection",
       f"(onset +{metrics.onset_delay}, withdrawal +{metrics.withdrawal_delay}, "
       f"0 false alarms)")


def test_08_simulator_conservation(pack1_bundle):
    """SOC bookkeeping exact pre-clamp, CC monotone, CV within 1e-3 V of the
    setpoint, Kirchhoff balance within 1e-9 relative."""
    cell = simkit.default_cell()
    rng = np.random.default_rng(99)
    for _ in range(200):
        soc = float(rng.uniform(0.05, 0.95))
        i = float(rng.uniform(-6, 6))
        dt = float(rng.uniform(0.01, 10))
        rc_decay, diff_decay = simkit._decays(cell, dt)
        out, _, _ = simkit._cell_update(soc, 0.0, soc, i, dt, cell.capacity_ah,
                                        cell.r1_ohm, rc_decay, cell.diff_tau_s,
                                        diff_decay)
        assert out == min(max(soc + i * dt / 3600.0 / cell.capacity_ah, 0.0), 1.0)

    # CC monotonicity on the canonical nominal pack trace (noise-free twin).
    config = pack1_bundle["config"]
    spec = configio.read_sim_config(canonical_config("pack1_c100"))
    trace = simkit.run_cccv_pack(config, cell, spec.policy, spec.init_soc,
                                 NoiseSpec(0.0))
    cc = trace.i_pack_a == trace.i_pack_a[0]
    assert np.all(np.diff(trace.v_modules[cc], axis=0) >= 0)

    # Kirchhoff balance from the logged per-module currents.
    total = trace.i_modules.sum(axis=1)
    scale = np.maximum(np.abs(trace.i_pack_a), 1.0)
    kirchhoff = float(np.max(np.abs(total - trace.i_pack_a) / scale))
    assert kirchhoff <= 1e-9

    # CV regulation: start near full so the CV phase engages.
    cv_trace = simkit.run_cccv_pack(config, cell,
                                    CccvPolicy(c_rate=1.0, duration_s=600),
                                    0.85, NoiseSpec(0.0))
    setpoint = config.series_cells * 4.2
    i = cv_trace.i_pack_a
    cv = (i < i[0]) & (i > 0)
    assert cv.sum() > 30
    bus = cv_trace.v_modules[cv] + cv_trace.i_modules[cv] * np.array(
        config.interconnect_ohm)
    assert np.max(np.abs(bus - setpoint)) <= 1e-3
    ok("8 simulator-conservation",
       f"(kirchhoff {kirchhoff:.1e}, CV |dv| {np.max(np.abs(bus - setpoint)):.1e} V)")


def test_09_determinism_suite(tmp_path):
    """Two full pack-1 pipeline runs with identical seeds produce
    byte-identical model files, detection CSVs, and reports."""
    configs = {name: canonical_config(name)
               for name in ("cell_corpus", "pack1_c080", "pack1_c120",
                            "pack1_c100", "swap_pack1")}

    def run(out):
        out.mkdir()
        assert cli.main(["simulate", "--config", configs["cell_corpus"],
                         "--out-dir", str(out / "corpus")]) == 0
        assert cli.main(["train-base", "--corpus-dir", str(out / "corpus"),
                         "--out-dir", str(out)]) == 0
        for label in ("pack1_c080", "pack1_c120", "pack1_c100"):
            assert cli.main(["simulate", "--config", configs[label],
                             "--out-dir", str(out)]) == 0
        assert cli.main(["finetune", "--model", str(out / "model_base.json"),
                         "--config", configs["pack1_c100"],
                         "--traces", str(out / "pack1_c080.csv"),
                         str(out / "pack1_c120.csv"),
                         "--test-trace", str(out / "pack1_c100.csv"),
                         "--recipe", "pack1", "--out-dir", str(out)]) == 0
        assert cli.main(["calibrate", "--model", str(out / "model_pack1.json"),
                         "--trace", str(out / "pack1_c100.csv"),
                         "--out-dir", str(out)]) == 0
        report = json.loads((out / "report_calibrate_pack1_c100.json").read_text())
        epsilon = report["detection"]["epsilon_v"]
        assert cli.main(["attack-eval", "--model", str(out / "model_pack1.json"),
                         "--trace", str(out / "pack1_c100.csv"),
                         "--scenario", configs["swap_pack1"],
                         "--epsilon", str(epsilon),
                         "--out-dir", str(out)]) == 0

    run(tmp_path / "run_a")
    run(tmp_path / "run_b")

    compared = []
    for name in ("model_base.json", "loss_curve_base.csv", "model_pack1.json",
                 "detection_nominal_pack1_c100.csv",
                 "detection_pack1_c100_swap_fdi.csv",
                 "trace_pack1_c100_swap_fdi.csv",
                 "events_pack1_c100_swap_fdi.csv",
                 "predictions_pack1_c100.csv",
                 "report_train_base.json",
                 "report_finetune_pack1.json",
                 "report_calibrate_pack1_c100.json",
                 "report_pack1_c100_swap_fdi.json"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    ok("9 determinism-suite", f"({len(compared)} artifacts byte-identical)")
