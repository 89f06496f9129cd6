#!/usr/bin/env python3
"""Per-layer timing medians for a BENCH_<n>.json file.

Times the simulation layer, model loading and the prediction layer on
the canonical inputs and models of the README's CLI flow (seed 1):

- ``simulate_cell_corpus_s``: the 36 ``run_cccv_cell`` calls of the
  canonical cell corpus, without writing CSVs
- ``run_cccv_pack_{pack1,pack2}_ms``: each pack's c100 charge
  (``configs/pack*_c100.ini``)
- ``load_model_base_ms``: ``boost.load_model`` on the 400-tree base model
- ``predict_batch`` at N = 4 (one pack 1 frame), 3 600 (pack 1's test
  trace, one row per module and step) and 91 200 (the cell corpus's
  training pairs, on the base model)
- ``sentinel.step_detector`` per frame, over each pack's test trace

Each figure is the median of repeated calls, in milliseconds unless its
name ends in ``_s``.  One run records one label, so before/after pairs come
from two runs on the same machine, for example:

    python scripts/bench.py --src ../parent/src --label before --out BENCH_5.json
    python scripts/bench.py --label after --out BENCH_5.json

``--src`` picks the voltsentry sources to time (default: this checkout's).
The canonical artifacts are built into ``--artifacts`` with the CLI of the
sources under test unless that directory already holds them; prediction
outputs do not depend on which bit-exact version built the models.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
PACKS = ("pack1", "pack2")


def build_artifacts(cli, out: str) -> None:
    """The README's CLI flow up to fine-tuning, at the canonical seed."""
    corpus = os.path.join(out, "corpus")
    commands = [["simulate", "--config", os.path.join(CONFIGS, "cell_corpus.ini"),
                 "--seed", "1", "--out-dir", corpus],
                ["train-base", "--corpus-dir", corpus, "--out-dir", out]]
    for pack in PACKS:
        for rate in ("c080", "c120", "c100"):
            commands.append(["simulate", "--config",
                             os.path.join(CONFIGS, f"{pack}_{rate}.ini"),
                             "--out-dir", out])
    for pack in PACKS:
        commands.append(["finetune", "--model", os.path.join(out, "model_base.json"),
                         "--config", os.path.join(CONFIGS, f"{pack}_c100.ini"),
                         "--traces", os.path.join(out, f"{pack}_c080.csv"),
                         os.path.join(out, f"{pack}_c120.csv"),
                         "--test-trace", os.path.join(out, f"{pack}_c100.csv"),
                         "--recipe", pack, "--out-dir", out])
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"bench: voltsentry {argv[0]} failed")


def simulate_cell_corpus(pipeline, simkit) -> None:
    """The canonical corpus's run_cccv_cell calls, as generate_cell_corpus
    makes them, without the CSV writes."""
    cell = simkit.default_cell()
    run_index = 0
    for c_rate in pipeline.CELL_C_RATES:
        for init_soc in pipeline.CELL_INIT_SOCS:
            for r0_scale in pipeline.CELL_R0_SCALES:
                simkit.run_cccv_cell(
                    replace(cell, r0_ohm=cell.r0_ohm * r0_scale),
                    simkit.CccvPolicy(c_rate=c_rate,
                                      duration_s=pipeline.CELL_DURATIONS[c_rate]),
                    init_soc, simkit.NoiseSpec(),
                    seed=pipeline.CANONICAL_CORPUS_SEED + run_index)
                run_index += 1


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def step_detector_ms(sentinel, model, trace) -> float:
    """Median time of one step_detector call over a whole trace."""
    frames = [trace.frame(k) for k in range(trace.n_frames)]
    # An epsilon no residual reaches: the flag never toggles.
    state = sentinel.DetectorState.initial(1e9, frames[0])
    times = []
    for frame in frames[1:]:
        t0 = time.perf_counter()
        state, _, _ = sentinel.step_detector(state, frame, model)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def measure(art: str) -> dict:
    import numpy as np

    from voltsentry import boost, cli, configio, datasets, pipeline, sentinel, simkit

    if not all(os.path.exists(os.path.join(art, f"model_{name}.json"))
               for name in ("base",) + PACKS):
        build_artifacts(cli, art)
    layers = {"simulate_cell_corpus_s": median_ms(
        lambda: simulate_cell_corpus(pipeline, simkit), 3) / 1e3}
    for p in PACKS:
        spec = configio.read_sim_config(os.path.join(CONFIGS, f"{p}_c100.ini"))
        layers[f"run_cccv_pack_{p}_ms"] = median_ms(
            lambda: simkit.run_cccv_pack(spec.pack, spec.cell, spec.policy,
                                         spec.init_soc, spec.noise), 5)
    base_path = os.path.join(art, "model_base.json")
    layers["load_model_base_ms"] = median_ms(lambda: boost.load_model(base_path), 30)
    base = boost.load_model(base_path)
    models = {p: boost.load_model(os.path.join(art, f"model_{p}.json")) for p in PACKS}
    traces = {p: datasets.read_trace(os.path.join(art, f"{p}_c100.csv")) for p in PACKS}
    corpus_train, _ = pipeline.load_cell_corpus(os.path.join(art, "corpus"))
    test = traces["pack1"]
    pack_x = np.column_stack([test.v_modules[:-1].reshape(-1),
                              np.repeat(test.i_pack_a[:-1], test.v_modules.shape[1])])
    for n, model, x, repeats in ((4, models["pack1"], pack_x, 500),
                                 (3600, models["pack1"], pack_x, 20),
                                 (91200, base, corpus_train.x, 5)):
        if x.shape[0] < n:
            raise SystemExit(f"bench: only {x.shape[0]} rows for N = {n}")
        x = x[:n]
        boost.predict_batch(model, x)  # warm-up
        layers[f"predict_batch_n{n}_ms"] = median_ms(
            lambda: boost.predict_batch(model, x), repeats)
    for p in PACKS:
        layers[f"step_detector_{p}_frame_ms"] = step_detector_ms(
            sentinel, models[p], traces[p])
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, choices=("before", "after"))
    parser.add_argument("--out", required=True, help="BENCH JSON to update")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="voltsentry sources to time")
    parser.add_argument("--artifacts", default=os.path.join(ROOT, ".bench_build", "bench"),
                        help="directory of the canonical CLI outputs (built if absent)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    layers = measure(args.artifacts)
    doc = {"layers": {}, "env": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    for name, value in layers.items():
        doc["layers"].setdefault(name, {})[args.label] = round(value, 4)
    doc["env"][args.label] = {"nproc": len(os.sched_getaffinity(0)),
                              "python": platform.python_version(),
                              "numpy": np.__version__}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({args.label: layers}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
