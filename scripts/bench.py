#!/usr/bin/env python3
"""Per-layer timing medians for a BENCH_<n>.json file.

Times the simulation layer, model loading and the prediction layer on
the canonical inputs and models of the README's CLI flow (seed 1):

- ``simulate_cell_corpus_s``: the 36 ``run_cccv_cell`` calls of the
  canonical cell corpus (``pipeline.cell_corpus_runs``), without writing
  CSVs
- ``run_cccv_pack_{pack1,pack2}_ms``: each pack's c100 charge
  (``configs/pack*_c100.ini``)
- ``load_model_base_ms``: ``boost.load_model`` on the 400-tree base model
- ``predict_batch`` at N = 4 (one pack 1 frame), 3 600 (pack 1's test
  trace, one row per module and step) and 91 200 (the cell corpus's
  training pairs, on the base model)
- ``sentinel.step_detector`` per frame, over each pack's test trace
- ``calibrate_on_trace_{pack1,pack2}_ms``: calibration on a fresh copy of
  each pack's test trace, so nothing is memoized on it yet
- ``evaluate_attack_{cold,warm}_{pack1,pack2}_ms``: the pack's canonical
  scenario (``configs/swap_pack1.ini``, ``configs/replay_pack2.ini``) at its
  calibrated threshold, on a fresh copy of the test trace (cold) or
  repeated on one trace (warm, as a sweep over one trace runs)
- ``evaluate_attack_warm_cv_replay_pack2_ms``: the worst case of the warm
  path.  A replay of every module into the middle half of the CV phase of
  a phased pack 2 charge (SOC 0.8, 1 C, cut-off 0.3 C, as in the
  benchmark's sweep), recorded from the frames just before it.  The CV
  current tapers frame by frame, so no replayed row meets its recorded
  current again, and each of them is predicted.

Each figure is the median of repeated calls, in milliseconds unless its
name ends in ``_s``.  One run records one label, so before/after pairs come
from runs on the same machine.  Runs of a label accumulate in the output
file: each layer keeps every run's figure under ``<label>_runs`` and their
median under ``<label>``.  Alternate the labels, for example:

    for k in 1 2 3; do
        python scripts/bench.py --src ../parent/src --label before --out BENCH_8.json
        python scripts/bench.py --label after --out BENCH_8.json
    done

``--src`` picks the voltsentry sources to time (default: this checkout's).
The canonical artifacts are built into ``--artifacts`` by the study driver
(``scripts/run_attack_studies.py``) through the CLI of the sources under
test unless that directory already holds them; prediction outputs do not
depend on which bit-exact version built the models.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
PACKS = ("pack1", "pack2")


def median_ms(fn, repeats: int, make=lambda: ()) -> float:
    """Median time of ``fn(*make())``; ``make`` runs outside the timing."""
    times = []
    for _ in range(repeats):
        args = make()
        t0 = time.perf_counter()
        fn(*args)
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

    from voltsentry import (boost, configio, datasets, pipeline, sentinel,
                            simkit, threatgen)

    if not all(os.path.exists(os.path.join(art, f"model_{name}.json"))
               for name in ("base",) + PACKS):
        # Imported here, after --src is on the path, so that the CLI
        # under test builds the artifacts.
        import run_attack_studies

        if run_attack_studies.run_study(art):
            raise SystemExit("bench: the study driver failed")
    layers = {"simulate_cell_corpus_s": median_ms(
        lambda: list(pipeline.cell_corpus_runs(
            seed=pipeline.CANONICAL_CORPUS_SEED)), 3) / 1e3}
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
    for p, ini in zip(PACKS, ("swap_pack1.ini", "replay_pack2.ini")):
        model, trace = models[p], traces[p]
        scenario = configio.read_scenario(os.path.join(CONFIGS, ini))
        epsilon = pipeline.calibrate_on_trace(model, trace)[0]

        def fresh():
            return (trace.copy(),)

        def attack(t):
            pipeline.evaluate_attack(model, t, scenario, epsilon)

        layers[f"calibrate_on_trace_{p}_ms"] = median_ms(
            lambda t: pipeline.calibrate_on_trace(model, t), 20, fresh)
        layers[f"evaluate_attack_cold_{p}_ms"] = median_ms(attack, 20, fresh)
        layers[f"evaluate_attack_warm_{p}_ms"] = median_ms(
            attack, 20, lambda: (trace,))
    phased, scenario = cv_replay(pipeline, simkit, threatgen)
    epsilon = pipeline.calibrate_on_trace(models["pack2"], phased)[0]
    layers["evaluate_attack_warm_cv_replay_pack2_ms"] = median_ms(
        lambda: pipeline.evaluate_attack(models["pack2"], phased, scenario,
                                         epsilon), 20)
    return layers


def cv_replay(pipeline, simkit, threatgen):
    """A phased pack 2 charge and a replay of all its modules into the
    middle half of its CV phase, recorded from the frames just before."""
    import numpy as np

    policy = simkit.CccvPolicy(c_rate=1.0, taper_cutoff_c=0.3,
                               duration_s=pipeline.PACK_TRACE_DURATION_S)
    trace = simkit.run_cccv_pack(simkit.pack2_config(), simkit.default_cell(),
                                 policy, 0.8)
    i = trace.i_pack_a
    cv = int(np.flatnonzero(i < i[0])[0])
    span = int(np.flatnonzero(i == 0.0)[0]) - cv
    k0, length = cv + span // 4, span // 2
    scenario = threatgen.AttackScenario(
        "replay", k0, k0 + length, record_start_s=k0 - length,
        record_end_s=k0, target_modules=tuple(range(1, trace.q + 1)))
    return trace, scenario


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
        entry = doc["layers"].setdefault(name, {})
        runs = entry.setdefault(f"{args.label}_runs", [])
        runs.append(round(value, 4))
        entry[args.label] = round(statistics.median(runs), 4)
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
