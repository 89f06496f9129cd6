"""End-to-end experiment orchestration shared by the CLI, scripts, and tests.

The flow mirrors the study design: build a cell-level corpus over varied
charging conditions, train the base predictor on it, generate limited pack
telemetry (two short training charges plus one test charge per pack),
fine-tune per pack, calibrate the residual threshold on the nominal test
charge, and score attack scenarios against it.

All model-building steps read telemetry from CSV files, so the recorded
6-decimal values are the single source of truth for every downstream
artifact.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np

from . import boost, datasets, sentinel, simkit, threatgen, transfer
from .datasets import SplitSpec, SupervisedSet
from .simkit import CccvPolicy, CellParams, NoiseSpec, PackConfig, TelemetryTrace

CELL_C_RATES = (0.5, 0.8, 1.0, 1.2)
CELL_INIT_SOCS = (0.1, 0.3, 0.5)
CELL_R0_SCALES = (0.95, 1.0, 1.05)
CELL_DURATIONS = {0.5: 3600.0, 0.8: 3000.0, 1.0: 2600.0, 1.2: 2200.0}

PACK_TRAIN_C_RATES = (0.8, 1.2)
PACK_TEST_C_RATE = 1.0
PACK_INIT_SOC = 0.25
PACK_TRACE_DURATION_S = 900.0

# Seed of the canonical cell corpus used by the shipped experiment configs.
CANONICAL_CORPUS_SEED = 1

# Validation slice of the corpus: the mid init-SOC runs at nominal r0.
_VAL_TAG = "_s030_r100"


def corpus_trace_name(c_rate: float, init_soc: float, r0_scale: float) -> str:
    return (f"cell_c{int(round(c_rate * 100)):03d}"
            f"_s{int(round(init_soc * 100)):03d}"
            f"_r{int(round(r0_scale * 100)):03d}")


def generate_cell_corpus(out_dir, cell: CellParams | None = None,
                         seed: int = 0, noise: NoiseSpec = NoiseSpec()) -> list:
    """Simulate the cell charging grid and write one CSV per run."""
    cell = cell or simkit.default_cell()
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    run_index = 0
    for c_rate in CELL_C_RATES:
        for init_soc in CELL_INIT_SOCS:
            for r0_scale in CELL_R0_SCALES:
                params = replace(cell, r0_ohm=cell.r0_ohm * r0_scale)
                policy = CccvPolicy(c_rate=c_rate,
                                    duration_s=CELL_DURATIONS[c_rate])
                name = corpus_trace_name(c_rate, init_soc, r0_scale)
                trace = simkit.run_cccv_cell(
                    params, policy, init_soc, noise,
                    seed=seed + run_index, name=name)
                path = os.path.join(out_dir, name + ".csv")
                datasets.write_trace(path, trace)
                paths.append(path)
                run_index += 1
    return paths


def load_cell_corpus(corpus_dir):
    """Read corpus CSVs back into pooled (train, val) supervised sets."""
    files = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".csv"))
    if not files:
        raise FileNotFoundError(f"no corpus CSVs in {corpus_dir}")
    train_parts, val_parts = [], []
    for fname in files:
        trace = datasets.read_trace(os.path.join(corpus_dir, fname))
        part = datasets.build_supervised(trace, 1)
        (val_parts if _VAL_TAG in fname else train_parts).append(part)
    if not train_parts or not val_parts:
        raise ValueError("corpus must contain both train and validation runs")
    return datasets.concat(train_parts), datasets.concat(val_parts)


def train_base(corpus_dir, cfg: boost.TrainConfig = boost.BASE_RECIPE):
    """Train the cell-level base model; returns (ensemble, seconds)."""
    train_set, val_set = load_cell_corpus(corpus_dir)
    t0 = time.perf_counter()
    ens = boost.train(train_set, val_set, cfg)
    return ens, time.perf_counter() - t0


def pack_policy(c_rate: float) -> CccvPolicy:
    return CccvPolicy(c_rate=c_rate, duration_s=PACK_TRACE_DURATION_S)


def generate_pack_traces(config: PackConfig, cell: CellParams | None = None,
                         out_dir=None, noise: NoiseSpec = NoiseSpec()) -> dict:
    """Two short training charges plus the nominal test charge for one pack.

    Returns {"train": [trace, trace], "test": trace}; writes CSVs when
    out_dir is given (the returned traces are then the CSV-loaded ones).
    """
    cell = cell or simkit.default_cell()
    result = {"train": [], "test": None}

    def run(c_rate):
        name = f"{config.name}_c{int(round(c_rate * 100)):03d}"
        trace = simkit.run_cccv_pack(
            config, cell, pack_policy(c_rate), PACK_INIT_SOC, noise, name=name)
        if out_dir is not None:
            path = os.path.join(out_dir, name + ".csv")
            datasets.write_trace(path, trace)
            trace = datasets.read_trace(path)
        return trace

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for c_rate in PACK_TRAIN_C_RATES:
        result["train"].append(run(c_rate))
    result["test"] = run(PACK_TEST_C_RATE)
    return result


def build_pack_sets(train_traces: list, test_trace: TelemetryTrace,
                    split: SplitSpec, norm: boost.NormSpec):
    """Pack supervised sets at the study's budgeted sizes.

    Training modules are assigned round-robin over the training traces, so
    both charge rates contribute while each module appears exactly once.
    Validation pairs come from the first training trace, test pairs from the
    test trace.
    """
    split.validate_for(test_trace.q)
    train_parts = [
        datasets.build_supervised(train_traces[j % len(train_traces)], m, norm)
        for j, m in enumerate(split.train_modules)
    ]
    train = datasets.concat(train_parts)
    val = datasets.concat([
        datasets.build_supervised(train_traces[0], m, norm)
        for m in split.val_modules
    ])
    test = datasets.concat([
        datasets.build_supervised(test_trace, m, norm)
        for m in split.test_modules
    ])
    datasets.check_no_leakage(train, val, test)
    return train, val, test


def max_abs_residual(model: boost.Ensemble, data: SupervisedSet) -> float:
    """Largest absolute prediction error on a normalized set, model space."""
    preds = boost.predict_model_space(model, data.x)
    return float(np.max(np.abs(data.y - preds)))


def finetune_pack(base: boost.Ensemble, config: PackConfig, train_traces: list,
                  test_trace: TelemetryTrace, recipe: transfer.FinetuneConfig,
                  split: SplitSpec | None = None, cell: CellParams | None = None):
    """Fine-tune the base model for one pack; returns (model, info, seconds).

    info carries the validation max-abs residual before and after the
    fine-tune (physical volts) and the test-module error fraction relative
    to the nominal module voltage, series_cells * cell.v_max (the default
    cell when ``cell`` is None).
    """
    cell = cell or simkit.default_cell()
    split = split or SplitSpec.default_for(config.q)
    norm = transfer.norm_for_pack(config)
    train_set, val_set, test_set = build_pack_sets(
        train_traces, test_trace, split, norm)

    val_before = max_abs_residual(base_with_norm(base, norm), val_set)
    t0 = time.perf_counter()
    tl = transfer.finetune(base, train_set, val_set, recipe, norm)
    seconds = time.perf_counter() - t0

    nominal_v = config.series_cells * cell.v_max
    test_err = max_abs_residual(tl, test_set) * norm.v_scale
    info = {
        "pack": config.name,
        "train_size": len(train_set),
        "val_size": len(val_set),
        "test_size": len(test_set),
        "val_max_abs_residual_base_v": val_before * norm.v_scale,
        "val_max_abs_residual_tl_v": max_abs_residual(tl, val_set) * norm.v_scale,
        "test_max_abs_error_v": test_err,
        "test_max_abs_error_fraction": test_err / nominal_v,
        "nominal_module_v": nominal_v,
    }
    return tl, info, seconds


def base_with_norm(base: boost.Ensemble, norm: boost.NormSpec) -> boost.Ensemble:
    """The frozen base model viewed through a pack normalization."""
    return boost.Ensemble(base_score=base.base_score, segments=base.segments,
                          norm=norm)


def calibrate_on_trace(model: boost.Ensemble, trace: TelemetryTrace,
                       margin: float = 4.0 / 3.0):
    """Nominal-run residuals and the resulting threshold, from one
    prediction pass over the trace.

    Returns (epsilon, nominal detection trace run at that epsilon,
    per-module predictions for plot data).
    """
    preds, residuals = sentinel.one_step_residuals(
        model, trace.v_modules, trace.i_pack_a)
    epsilon = sentinel.calibrate_threshold(residuals, margin)
    det = sentinel.DetectionTrace.from_residuals(trace.t_s[1:], residuals,
                                                 epsilon)
    return epsilon, det, preds


def evaluate_attack(model: boost.Ensemble, trace: TelemetryTrace,
                    scenario: threatgen.AttackScenario, epsilon: float):
    """Corrupt a nominal trace, run detection, score against the mask."""
    from .reports import score_detection

    corrupted, mask = threatgen.apply_scenario(trace, scenario)
    det = sentinel.run_detector(corrupted, model, epsilon)
    metrics = score_detection(det, mask, corrupted.t_s)
    return corrupted, det, metrics


def write_canonical_configs(out_dir) -> dict:
    """Write the shipped experiment configs; returns {label: path}.

    Covers the cell corpus, the three charge rates per pack, and the two
    attack scenarios (module-voltage swap on pack 1, partial replay on
    pack 2).
    """
    from . import configio, threatgen

    os.makedirs(out_dir, exist_ok=True)
    cell = simkit.default_cell()
    paths = {}

    spec = configio.SimRunSpec(
        kind="cell_corpus", cell=cell, policy=CccvPolicy(c_rate=1.0),
        noise=NoiseSpec(), init_soc=0.3, seed=CANONICAL_CORPUS_SEED)
    paths["cell_corpus"] = os.path.join(out_dir, "cell_corpus.ini")
    configio.write_sim_config(paths["cell_corpus"], spec)

    for config in (simkit.pack1_config(), simkit.pack2_config()):
        for c_rate in PACK_TRAIN_C_RATES + (PACK_TEST_C_RATE,):
            label = f"{config.name}_c{int(round(c_rate * 100)):03d}"
            spec = configio.SimRunSpec(
                kind="pack", cell=cell, policy=pack_policy(c_rate),
                noise=NoiseSpec(), pack=config, init_soc=PACK_INIT_SOC)
            paths[label] = os.path.join(out_dir, label + ".ini")
            configio.write_sim_config(paths[label], spec)

    swap = threatgen.AttackScenario(kind="swap_fdi", k0_s=300, kf_s=700)
    paths["swap_pack1"] = os.path.join(out_dir, "swap_pack1.ini")
    configio.write_scenario(paths["swap_pack1"], swap)
    replay = threatgen.AttackScenario(
        kind="replay", k0_s=400, kf_s=700, record_start_s=100,
        record_end_s=400, target_modules=(1, 2))
    paths["replay_pack2"] = os.path.join(out_dir, "replay_pack2.ini")
    configio.write_scenario(paths["replay_pack2"], replay)
    return paths


def write_prediction_csv(path, trace: TelemetryTrace, preds: np.ndarray,
                         residuals: np.ndarray) -> None:
    """Plot data for the nominal prediction figure: measured, predicted, r."""
    q = trace.q
    cols = (["t_s"] + [f"v_m{m}" for m in range(1, q + 1)]
            + [f"vhat_m{m}" for m in range(1, q + 1)] + ["r_v"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(preds.shape[0]):
            row = [f"{trace.t_s[k + 1]:.6f}"]
            row += [f"{v:.6f}" for v in trace.v_modules[k + 1]]
            row += [f"{v:.6f}" for v in preds[k]]
            row.append(f"{residuals[k]:.6f}")
            fh.write(",".join(row) + "\n")
