"""Checks of the benchmark's own tracing.

    python3 -m pytest perfbench -q

Every workload runs for real (each set-up trains the 400-tree base model),
so this takes about two minutes on a 2-core machine.
"""

import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONFIGS = os.path.join(ROOT, "configs")

# Spans each workload must record, after the layer table in README.md: the
# CLI set-up fires the same layers in both, the timed phase its own.
SETUP = {"cli.main", "simkit.run_cccv_cell", "simkit.run_cccv_pack",
         "boost.train", "boost.predict_model_space", "boost.save_model",
         "boost.load_model", "transfer.finetune", "datasets.write_trace",
         "datasets.read_trace", "datasets.build_supervised", "datasets.concat",
         "sentinel.run_detector", "threatgen.apply_scenario",
         "reports.score_detection", "reports.write_report",
         "configio.read_sim_config", "configio.read_scenario",
         "configio.resolve_recipe", "pipeline.generate_cell_corpus",
         "pipeline.load_cell_corpus", "pipeline.finetune_pack",
         "pipeline.calibrate_on_trace", "pipeline.evaluate_attack"}
EXPECTED = {
    "stream": SETUP | {"sentinel.step_detector", "boost.predict_batch"},
    "sweep": SETUP | {"boost.predict_batch"},
}
SMALL = {"stream": {"min_frames": 20}, "sweep": {"min_ops": 15}}


def bindings() -> dict:
    """Every module attribute holding a public voltsentry function."""
    import voltsentry

    functions = {id(fn) for short in spans.MODULES
                 for fn in spans.public_functions(getattr(voltsentry, short)).values()}
    return {(module.__name__, attr): obj
            for module in spans.package_modules()
            for attr, obj in vars(module).items() if id(obj) in functions}


def run(name, tracer, tmp_path):
    workdir = tmp_path / name
    workdir.mkdir()
    return workloads.WORKLOADS[name](1, 0.01, tracer, str(workdir), CONFIGS,
                                     time.perf_counter(), **SMALL[name])


def test_install_patches_every_binding():
    from voltsentry import boost, sentinel, transfer
    import voltsentry

    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr in before:
            assert getattr(sys.modules[module], attr).__wrapped__ is before[module, attr]
        assert sentinel.predict_batch.__wrapped__ is before["voltsentry.boost",
                                                            "predict_batch"]
        assert transfer.predict_model_space is boost.predict_model_space
        assert voltsentry.run_detector is sentinel.run_detector
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_spans_fire_in_each_workload(name, tmp_path):
    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run(name, tracer, tmp_path)
    finally:
        tracer.uninstall()
    assert result.failed == 0
    missing = EXPECTED[name] - tracer.names()
    assert not missing, f"{name}: no spans for {sorted(missing)}"
    assert all(span[2] >= span[1] for span in tracer.spans)
    layers = bench.per_layer(tracer, bench.end_to_end(result), 0.0)
    assert layers["boost.train_rows"][0] > 0 and layers["simkit.records"][0] > 0
    for command in ("simulate", "train_base", "finetune", "calibrate",
                    "attack_eval"):
        assert layers[f"cli.{command}_s"][0] > 0
    assert layers["cli.exit_nonzero"][0] == 0
    if name == "stream":
        assert layers["sentinel.steps"][0] >= SMALL["stream"]["min_frames"]
    # Every declared per-layer metric is measured, in its declared unit,
    # and none of the declared times is zero on this workload.
    declared = bench.select(layers, bench.declared("per_layer"))
    assert all(m["value"] > 0 for m in declared.values() if m["unit"] == "s")
    assert all(bindings()[key] is before[key] for key in before)


def test_untraced_run_leaves_bindings_identical(tmp_path):
    before = bindings()
    tracer = spans.Tracer()
    result = run("stream", tracer, tmp_path)
    assert result.failed == 0 and not tracer.spans
    metrics = bench.select(bench.end_to_end(result),
                           bench.declared("end_to_end"))
    assert all(m["value"] > 0 for m in metrics.values())
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
