"""The study's steps, run by the CLI commands.

The study builds a cell-level corpus over varied charging conditions,
trains the base predictor on it, simulates limited pack telemetry (two
short training charges plus one test charge per pack, named by
pack_trace_name), fine-tunes per pack, calibrates the residual threshold
on the nominal test charge, and scores attack scenarios against it.
scripts/run_attack_studies.py runs that flow through the CLI.

All model-building steps read telemetry from CSV files, so the recorded
6-decimal values are the single source of truth for every downstream
artifact.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import asdict, fields, replace

import numpy as np

from . import boost, datasets, sentinel, simkit, threatgen, transfer
from .datasets import SupervisedSet
from .reports import score_detection
from .simkit import CccvPolicy, CellParams, NoiseSpec, PackConfig, TelemetryTrace

CELL_C_RATES = (0.5, 0.8, 1.0, 1.2)
CELL_INIT_SOCS = (0.1, 0.3, 0.5)
CELL_R0_SCALES = (0.95, 1.0, 1.05)
CELL_DURATIONS = {0.5: 3600.0, 0.8: 3000.0, 1.0: 2600.0, 1.2: 2200.0}

# Length of the shipped pack charges (configs/pack*_c*.ini), which the
# benchmark workloads read.
PACK_TRACE_DURATION_S = 900.0

# Seed of the canonical cell corpus used by the shipped experiment configs.
CANONICAL_CORPUS_SEED = 1

# Validation slice of the corpus: the mid init-SOC runs at nominal r0.
_VAL_TAG = "_s030_r100"
# The corpus's cell parameters, written beside its CSVs.
CORPUS_MANIFEST = "corpus.json"


def corpus_trace_name(c_rate: float, init_soc: float, r0_scale: float) -> str:
    return (f"cell_c{int(round(c_rate * 100)):03d}"
            f"_s{int(round(init_soc * 100)):03d}"
            f"_r{int(round(r0_scale * 100)):03d}")


def pack_trace_name(pack_name: str, c_rate: float) -> str:
    return f"{pack_name}_c{int(round(c_rate * 100)):03d}"


def cell_corpus_runs(cell: CellParams | None = None, seed: int = 0,
                     noise: NoiseSpec = NoiseSpec()):
    """Simulate the cell charging grid: yields one run_cccv_cell trace per
    run, named by corpus_trace_name, the k-th of them seeded seed + k."""
    cell = cell or simkit.default_cell()
    grid = itertools.product(CELL_C_RATES, CELL_INIT_SOCS, CELL_R0_SCALES)
    for k, (c_rate, init_soc, r0_scale) in enumerate(grid):
        yield simkit.run_cccv_cell(
            replace(cell, r0_ohm=cell.r0_ohm * r0_scale),
            CccvPolicy(c_rate=c_rate, duration_s=CELL_DURATIONS[c_rate]),
            init_soc, noise, seed=seed + k,
            name=corpus_trace_name(c_rate, init_soc, r0_scale))


def generate_cell_corpus(out_dir, cell: CellParams | None = None,
                         seed: int = 0, noise: NoiseSpec = NoiseSpec()) -> list:
    """Write one CSV per cell_corpus_runs trace, then the corpus manifest
    (write_corpus_manifest); returns the paths written."""
    cell = cell or simkit.default_cell()
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for trace in cell_corpus_runs(cell, seed, noise):
        paths.append(os.path.join(out_dir, trace.name + ".csv"))
        datasets.write_trace(paths[-1], trace)
    paths.append(write_corpus_manifest(out_dir, cell))
    return paths


def write_corpus_manifest(corpus_dir, cell: CellParams) -> str:
    """Write ``corpus.json`` beside the corpus CSVs: the corpus's cell
    parameters, with sorted keys, so equal cells give equal bytes."""
    path = os.path.join(corpus_dir, CORPUS_MANIFEST)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"cell": asdict(cell)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def read_corpus_cell(corpus_dir) -> CellParams:
    """The cell parameters recorded in a corpus's manifest.

    Raises FileNotFoundError without a manifest and ValueError unless its
    "cell" holds every field of a valid CellParams and nothing else.
    """
    path = os.path.join(corpus_dir, CORPUS_MANIFEST)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        cell = doc["cell"]
        if cell.keys() != {f.name for f in fields(CellParams)}:
            raise KeyError(sorted(cell))
        knots = tuple(map(tuple, cell["ocv_knots"]))
        return CellParams(**{**cell, "ocv_knots": knots})
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a corpus manifest ({exc!r})") from None


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


def build_pack_sets(train_traces: list, test_trace: TelemetryTrace,
                    norm: boost.NormSpec):
    """Pack supervised sets at the study's budgeted sizes, split by module.

    With q the test trace's module count (ValueError if q < 3), modules
    1..q-2 train, assigned round-robin over the training traces so that
    both charge rates contribute while each module appears exactly once;
    module q-1 validates, from the first training trace; module q tests,
    from the test trace.
    """
    q = test_trace.q
    if q < 3:
        raise ValueError(f"a pack split needs at least 3 modules, got {q}")
    train = datasets.concat([
        datasets.build_supervised(train_traces[j % len(train_traces)], m, norm)
        for j, m in enumerate(range(1, q - 1))])
    val = datasets.build_supervised(train_traces[0], q - 1, norm)
    test = datasets.build_supervised(test_trace, q, norm)
    datasets.check_no_leakage(train, val, test)
    return train, val, test


def max_abs_residual(model: boost.Ensemble, data: SupervisedSet) -> float:
    """Largest absolute prediction error on a normalized set, model space."""
    preds = boost.predict_model_space(model, data.x)
    return float(np.max(np.abs(data.y - preds)))


def finetune_pack(base: boost.Ensemble, config: PackConfig, train_traces: list,
                  test_trace: TelemetryTrace, recipe: boost.TrainConfig,
                  cell: CellParams | None = None):
    """Fine-tune the base model for one pack; returns (model, info, seconds).

    Every trace must have config.q modules (ValueError otherwise).
    build_pack_sets splits the modules: 1..q-2 train, q-1 validates, q
    tests.  info carries the validation max-abs residual before and after
    the fine-tune (physical volts), read off the fine-tune's history, and
    the test-module error fraction relative to the nominal module voltage,
    series_cells * cell.v_max (the default cell when ``cell`` is None).
    """
    for trace in (*train_traces, test_trace):
        if trace.q != config.q:
            raise ValueError(f"trace {trace.name!r} has {trace.q} modules, "
                             f"pack {config.name!r} has {config.q}")
    cell = cell or simkit.default_cell()
    norm = transfer.norm_for_pack(config)
    train_set, val_set, test_set = build_pack_sets(train_traces, test_trace,
                                                   norm)

    t0 = time.perf_counter()
    tl = transfer.finetune(base, train_set, val_set, recipe)
    seconds = time.perf_counter() - t0

    history = tl.history
    nominal_v = config.series_cells * cell.v_max
    test_err = max_abs_residual(tl, test_set) * norm.v_scale
    info = {
        "pack": config.name,
        "train_size": len(train_set),
        "val_size": len(val_set),
        "test_size": len(test_set),
        "val_max_abs_residual_base_v": history.val_max_abs_start * norm.v_scale,
        "val_max_abs_residual_tl_v": history.val_max_abs_end * norm.v_scale,
        "test_max_abs_error_v": test_err,
        "test_max_abs_error_fraction": test_err / nominal_v,
        "nominal_module_v": nominal_v,
    }
    return tl, info, seconds


def calibrate_on_trace(model: boost.Ensemble, trace: TelemetryTrace,
                       margin: float = 4.0 / 3.0):
    """Nominal-run residuals and the resulting threshold, from one
    prediction pass over the trace.

    Nothing is memoized on the trace: the first evaluate_attack on it
    builds the memo that later attacks with the same model reuse.  Returns
    (epsilon, nominal detection trace run at that epsilon, per-module
    predictions for plot data).
    """
    preds, residuals = sentinel.one_step_residuals(
        model, trace.v_modules, trace.i_pack_a)
    epsilon = sentinel.calibrate_threshold(residuals, margin)
    det = sentinel.DetectionTrace._of_residuals(trace.t_s[1:], residuals,
                                                epsilon)
    return epsilon, det, preds


def evaluate_attack(model: boost.Ensemble, trace: TelemetryTrace,
                    scenario: threatgen.AttackScenario, epsilon: float):
    """Corrupt a nominal trace, run detection, score against the mask.

    The nominal trace's predictions are memoized on it per model, and the
    corrupted trace, gathered from it, reuses them (sentinel).
    """
    corrupted = threatgen.apply_scenario(trace, scenario)
    det = sentinel.run_detector(corrupted, model, epsilon)
    return corrupted, det, score_detection(det, corrupted.attack_mask)


def write_prediction_csv(path, trace: TelemetryTrace, preds: np.ndarray,
                         residuals: np.ndarray) -> None:
    """Plot data for the nominal prediction figure: measured, predicted, r."""
    q = trace.q
    cols = (["t_s"] + [f"v_m{m}" for m in range(1, q + 1)]
            + [f"vhat_m{m}" for m in range(1, q + 1)] + ["r_v"])
    datasets.write_csv(path, cols, ",".join(["%.6f"] * (2 * q + 2)),
                       [trace.t_s[1:].tolist(), *trace.v_modules[1:].T.tolist(),
                        *preds.T.tolist(), residuals.tolist()])
