"""Command-line entry points.

Subcommands: simulate | train-base | finetune | calibrate | attack-eval |
report.  Every command exits 0 on success; failures print a one-line JSON
object {"error": <category>, "message": ...} to stderr and exit nonzero:

    3  missing-file      referenced file does not exist
    4  parse-error       config / CSV / model / report file malformed
    5  invalid-input     values violate a contract (ranges, q mismatch, ...)
    6  runtime-error     solver or training abort

The output directory resolves as --out-dir, else $VOLTSENTRY_OUT_DIR, else
./out.  With fixed seeds every run writes byte-identical artifacts; wall
clock timings go to a timings sidecar, never into reports.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, boost, configio, datasets, pipeline, sentinel, transfer
from .boost import ModelParseError, TrainingError
from .datasets import TraceParseError
from .reports import (ReportParseError, RunReport, read_report,
                      write_loss_curve, write_report, write_timings)
from .simkit import SolverError


def _name(path) -> str:
    """Reports reference files by name: artifacts sit beside the report and
    inputs are identified by their provenance hash, so reports stay
    byte-identical across output directories."""
    return os.path.basename(str(path))


def _out_dir(args) -> str:
    path = args.out_dir or os.environ.get("VOLTSENTRY_OUT_DIR") or "out"
    os.makedirs(path, exist_ok=True)
    return path


def _provenance(**file_paths) -> dict:
    prov = {"package_version": __version__,
            "model_format_version": boost.MODEL_FORMAT_VERSION}
    for label, path in file_paths.items():
        if path is not None:
            prov[f"{label}_sha256"] = configio.sha256_of(path)
    return prov


def _with_base(label: str, path) -> dict:
    """A config file and the base file it names, as label_base."""
    return {label: path, f"{label}_base": path and configio.base_of(path)}


# Per-cell volts by which a trace may pass the outermost voltage thresholds
# of its model.  Thresholds are midpoints between neighbouring training
# voltages, so the training extremes lie just beyond them, and measurement
# noise (0.1 % of 4.2 V, about 4 mV a cell) moves a trace a little further.
DOMAIN_TOLERANCE_V = 0.05


def check_model_trace_compat(model: boost.Ensemble, trace, v_scale: float) -> None:
    """Domain guard: the trace's per-cell voltages (module voltages over
    v_scale, the scale the model will read the trace at) must lie within
    the span of the model's feature-0 thresholds, widened by
    DOMAIN_TOLERANCE_V.  Outside that span every tree is flat, so
    predictions there are extrapolation, and a trace of the wrong scale
    lands far outside it.  A model that never splits on voltage has no
    span and accepts every trace."""
    thresholds = np.concatenate([t.threshold[t.feature == 0]
                                 for s in model.segments for t in s.trees]
                                or [np.empty(0)])
    if not thresholds.size:
        return
    lo = thresholds.min() - DOMAIN_TOLERANCE_V
    hi = thresholds.max() + DOMAIN_TOLERANCE_V
    per_cell = trace.v_modules / v_scale
    if per_cell.min() < lo or per_cell.max() > hi:
        raise ValueError(
            "model/trace mismatch: per-cell voltages "
            f"{per_cell.min():.3f}..{per_cell.max():.3f} V outside the "
            f"model's domain {lo:.3f}..{hi:.3f} V")


def cmd_simulate(args) -> int:
    spec = configio.read_sim_config(args.config)
    seed = args.seed if args.seed is not None else spec.seed
    if spec.kind == "pack" and seed != 0:
        raise ValueError(f"seed {seed} given for a pack run: pack noise is "
                         "seeded from [pack] rng_seed, so the seed must be 0")
    out_dir = _out_dir(args)
    if spec.kind == "cell_corpus":
        written = pipeline.generate_cell_corpus(
            out_dir, cell=spec.cell, seed=seed, noise=spec.noise)
    else:
        if spec.kind == "cell":
            from .simkit import run_cccv_cell
            stem = os.path.splitext(os.path.basename(args.config))[0]
            trace = run_cccv_cell(spec.cell, spec.policy, spec.init_soc,
                                  spec.noise, seed=seed, name=stem)
        else:
            from .simkit import run_cccv_pack
            name = pipeline.pack_trace_name(spec.pack.name, spec.policy.c_rate)
            trace = run_cccv_pack(spec.pack, spec.cell, spec.policy,
                                  spec.init_soc, spec.noise, name=name)
        written = [os.path.join(out_dir, trace.name + ".csv")]
        datasets.write_trace(written[0], trace)
    for path in written:
        print(path)
    return 0


def cmd_train_base(args) -> int:
    cfg = configio.read_train_config(args.config) if args.config else boost.BASE_RECIPE
    out_dir = _out_dir(args)
    manifest = os.path.join(args.corpus_dir, pipeline.CORPUS_MANIFEST)
    cell = pipeline.read_corpus_cell(args.corpus_dir)
    train_set, val_set = pipeline.load_cell_corpus(args.corpus_dir)
    t0 = time.perf_counter()
    model = boost.train(train_set, val_set, cfg)
    train_s = time.perf_counter() - t0

    model_path = os.path.join(out_dir, "model_base.json")
    boost.save_model(model_path, model)
    curve_path = os.path.join(out_dir, "loss_curve_base.csv")
    write_loss_curve(curve_path, model.history)
    val_err = model.history.val_max_abs_end
    report = RunReport(
        command="train-base",
        inputs={"corpus_dir": _name(args.corpus_dir),
                "n_train": len(train_set), "n_val": len(val_set)},
        model={
            "tree_counts": model.tree_counts(),
            "config": asdict(cfg),
            "final_train_mse": model.history.train_mse[-1],
            "final_val_mse": model.history.val_mse[-1],
            "val_max_abs_error_v": val_err,
            "val_max_abs_error_fraction": val_err / cell.v_max,
        },
        artifacts={"model": _name(model_path),
                   "loss_curve": _name(curve_path)},
        provenance={**_provenance(**_with_base("config", args.config),
                                  corpus_manifest=manifest),
                    "corpus_csvs_sha256": pipeline.corpus_csvs_sha256(args.corpus_dir)})
    report_path = os.path.join(out_dir, "report_train_base.json")
    write_report(report_path, report)
    write_timings(os.path.join(out_dir, "timings_train_base.json"),
                  {"train_s": train_s})
    print(report_path)
    return 0


def cmd_finetune(args) -> int:
    base = boost.load_model(args.model)
    spec = configio.read_sim_config(args.config)
    if spec.pack is None:
        raise ValueError("finetune needs a pack config ([run] kind = pack)")
    recipe = configio.resolve_recipe(args.recipe)
    out_dir = _out_dir(args)
    train_traces = [datasets.read_trace(p) for p in args.traces]
    test_trace = datasets.read_trace(args.test_trace)
    # The fine-tune reads the traces at the pack's cell scale.
    v_scale = transfer.norm_for_pack(spec.pack).v_scale
    for trace in (*train_traces, test_trace):
        check_model_trace_compat(base, trace, v_scale)
    model, info, seconds = pipeline.finetune_pack(
        base, spec.pack, train_traces, test_trace, recipe, cell=spec.cell)

    model_path = os.path.join(out_dir, f"model_{spec.pack.name}.json")
    boost.save_model(model_path, model)
    report = RunReport(
        command="finetune",
        inputs={"base_model": _name(args.model),
                "traces": [_name(p) for p in args.traces],
                "test_trace": _name(args.test_trace)},
        model={
            "tree_counts": model.tree_counts(),
            "recipe": asdict(recipe),
            **info,
        },
        artifacts={"model": _name(model_path)},
        provenance=_provenance(**_with_base("config", args.config),
                               base_model=args.model))
    report_path = os.path.join(out_dir, f"report_finetune_{spec.pack.name}.json")
    write_report(report_path, report)
    write_timings(os.path.join(out_dir, f"timings_finetune_{spec.pack.name}.json"),
                  {"finetune_s": seconds})
    print(report_path)
    return 0


def cmd_calibrate(args) -> int:
    model = boost.load_model(args.model)
    trace = datasets.read_trace(args.trace)
    check_model_trace_compat(model, trace, model.norm.v_scale)
    out_dir = _out_dir(args)
    epsilon, det, preds = pipeline.calibrate_on_trace(model, trace, args.margin)

    pred_path = os.path.join(out_dir, f"predictions_{trace.name}.csv")
    pipeline.write_prediction_csv(pred_path, trace, preds, det.r)
    det_path = os.path.join(out_dir, f"detection_nominal_{trace.name}.csv")
    sentinel.write_detection(det_path, det)
    report = RunReport(
        command="calibrate",
        inputs={"model": _name(args.model), "trace": _name(args.trace)},
        detection={
            "epsilon_v": epsilon,
            "margin": args.margin,
            "max_nominal_residual_v": float(np.max(det.r)),
            "nominal_crossings": det.crossings,
        },
        artifacts={"predictions": _name(pred_path), "detection": _name(det_path)},
        provenance=_provenance(model=args.model, trace=args.trace))
    report_path = os.path.join(out_dir, f"report_calibrate_{trace.name}.json")
    write_report(report_path, report)
    print(report_path)
    return 0


def cmd_attack_eval(args) -> int:
    model = boost.load_model(args.model)
    trace = datasets.read_trace(args.trace)
    check_model_trace_compat(model, trace, model.norm.v_scale)
    scenario = configio.read_scenario(args.scenario)
    if not 0.0 < args.epsilon < math.inf:
        raise ValueError("--epsilon must be positive and finite")
    out_dir = _out_dir(args)

    corrupted, det, metrics = pipeline.evaluate_attack(
        model, trace, scenario, args.epsilon)
    stem = corrupted.name or "attack"
    corrupted_path = os.path.join(out_dir, f"trace_{stem}.csv")
    datasets.write_trace(corrupted_path, corrupted)
    det_path = os.path.join(out_dir, f"detection_{stem}.csv")
    sentinel.write_detection(det_path, det)
    events_path = os.path.join(out_dir, f"events_{stem}.csv")
    sentinel.write_events(events_path, det)

    report = RunReport(
        command="attack-eval",
        inputs={"model": _name(args.model), "trace": _name(args.trace),
                "scenario": _name(args.scenario), "epsilon_v": args.epsilon},
        detection={
            "kind": scenario.kind,
            "window_s": [scenario.k0_s, scenario.kf_s],
            **metrics.as_dict(),
        },
        artifacts={"corrupted_trace": _name(corrupted_path),
                   "detection": _name(det_path), "events": _name(events_path)},
        provenance=_provenance(model=args.model, trace=args.trace,
                               **_with_base("scenario", args.scenario)))
    report_path = os.path.join(out_dir, f"report_{stem}.json")
    write_report(report_path, report)
    print(report_path)
    return 0


def cmd_report(args) -> int:
    for path in args.reports:
        doc = read_report(path)
        print(f"== {path} ({doc.get('command', '?')}) ==")
        for section in ("model", "detection"):
            for key, value in sorted(doc.get(section, {}).items()):
                print(f"  {section}.{key} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltsentry",
        description="CCCV telemetry simulation and boosted-tree "
                    "voltage-sensor attack detection")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=None,
                       help="output directory (default $VOLTSENTRY_OUT_DIR or ./out)")

    p = sub.add_parser("simulate", help="generate telemetry CSVs from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-base", help="train the cell-level base model")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--config", default=None, help="INI with a [train] section")
    common(p)
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("finetune", help="fine-tune the base model for a pack")
    p.add_argument("--model", required=True, help="base model JSON")
    p.add_argument("--config", required=True, help="pack simulator config")
    p.add_argument("--traces", nargs="+", required=True,
                   help="pack training trace CSVs")
    p.add_argument("--test-trace", required=True)
    p.add_argument("--recipe", default="pack1",
                   help="pack1 | pack2 | INI with a [finetune] section")
    common(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("calibrate", help="threshold from a nominal run")
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--margin", type=float, default=4.0 / 3.0)
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("attack-eval", help="score detection on a corrupted run")
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True, help="nominal trace CSV")
    p.add_argument("--scenario", required=True, help="attack scenario INI")
    p.add_argument("--epsilon", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_attack_eval)

    p = sub.add_parser("report", help="print a summary of report JSONs")
    p.add_argument("reports", nargs="+")
    p.set_defaults(func=cmd_report)

    return parser


_ERROR_EXITS = (
    ((FileNotFoundError, IsADirectoryError), "missing-file", 3),
    ((TraceParseError, ModelParseError, ReportParseError, configparser.Error,
      json.JSONDecodeError), "parse-error", 4),
    ((SolverError, TrainingError), "runtime-error", 6),
    (ValueError, "invalid-input", 5),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit categories
        for types, category, code in _ERROR_EXITS:
            if isinstance(exc, types):
                print(json.dumps({"error": category, "message": str(exc)}),
                      file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
