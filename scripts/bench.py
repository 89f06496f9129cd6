#!/usr/bin/env python3
"""Per-layer timing medians for a BENCH_<n>.json file.

Times the simulation, CSV, training and prediction layers on the
canonical inputs and models of the README's CLI flow (seed 1):

- ``simulate_cell_corpus_s``: the 36 ``run_cccv_cell`` calls of the
  canonical cell corpus (``pipeline.cell_corpus_runs``), without writing
  CSVs
- ``run_cccv_pack_{pack1,pack2}_ms``: each pack's c100 charge
  (``configs/pack*_c100.ini``)
- ``read_trace_corpus_ms`` and ``write_trace_corpus_ms``: ``read_trace``
  of the 36 corpus CSVs, and ``write_trace`` of the 36 traces read
- ``train_base_s``: ``boost.train`` with ``BASE_RECIPE`` on the corpus
- ``finetune_{pack1,pack2}_ms``: each pack's fine-tune with its recipe,
  as ``pipeline.finetune_pack`` times it (``test_03``'s ``finetune_s``)
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
median under ``<label>``.  ``--paired`` alternates the two for you:

    python scripts/bench.py --paired ../parent/src --pairs 5 --out BENCH_13.json

runs this script ``--pairs`` times on the parent's sources (``before``) and
on ``--src`` (``after``), each in a fresh subprocess, the parent first in
the odd pairs and second in the even ones, and records every pair: each
layer also keeps ``pairs``, the [before, after] figures of each pair in
run order, and ``after_lower``, the number of pairs whose ``after`` figure
is the lower.  On a busy host a single run's figure moves by tens of
percent, so read a change off the pairs, not off one run.

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
import subprocess
import sys
import tempfile
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
    corpus = os.path.join(art, "corpus")
    csvs = sorted(os.path.join(corpus, f) for f in os.listdir(corpus)
                  if f.endswith(".csv"))
    layers["read_trace_corpus_ms"] = median_ms(
        lambda: [datasets.read_trace(f) for f in csvs], 5)
    corpus_traces = [datasets.read_trace(f) for f in csvs]
    with tempfile.TemporaryDirectory() as tmp:
        layers["write_trace_corpus_ms"] = median_ms(
            lambda: [datasets.write_trace(os.path.join(tmp, f"{k}.csv"), t)
                     for k, t in enumerate(corpus_traces)], 5)
    corpus_train, corpus_val = pipeline.load_cell_corpus(corpus)
    layers["train_base_s"] = median_ms(
        lambda: boost.train(corpus_train, corpus_val, boost.BASE_RECIPE), 3) / 1e3
    layers["load_model_base_ms"] = median_ms(lambda: boost.load_model(base_path), 30)
    base = boost.load_model(base_path)
    models = {p: boost.load_model(os.path.join(art, f"model_{p}.json")) for p in PACKS}
    traces = {p: datasets.read_trace(os.path.join(art, f"{p}_c100.csv")) for p in PACKS}
    for p in PACKS:
        config = configio.read_sim_config(os.path.join(CONFIGS, f"{p}_c100.ini")).pack
        train = [datasets.read_trace(os.path.join(art, f"{p}_{rate}.csv"))
                 for rate in ("c080", "c120")]
        recipe = configio.resolve_recipe(p)
        seconds = [pipeline.finetune_pack(base, config, train, traces[p], recipe)[2]
                   for _ in range(20)]
        layers[f"finetune_{p}_ms"] = 1e3 * statistics.median(seconds)
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
    phased, scenario = cv_replay(configio, simkit, threatgen)
    epsilon = pipeline.calibrate_on_trace(models["pack2"], phased)[0]
    layers["evaluate_attack_warm_cv_replay_pack2_ms"] = median_ms(
        lambda: pipeline.evaluate_attack(models["pack2"], phased, scenario,
                                         epsilon), 20)
    return layers


def cv_replay(configio, simkit, threatgen):
    """A phased pack 2 charge, as long as ``configs/pack2_c100.ini``'s, and
    a replay of all its modules into the middle half of its CV phase,
    recorded from the frames just before."""
    import numpy as np

    spec = configio.read_sim_config(os.path.join(CONFIGS, "pack2_c100.ini"))
    policy = simkit.CccvPolicy(c_rate=1.0, taper_cutoff_c=0.3,
                               duration_s=spec.policy.duration_s)
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


def load(path) -> dict:
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    return {"layers": {}, "env": {}}


def save(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record(doc: dict, label: str, layers: dict, env: dict) -> None:
    """Append one run's figures under ``label`` and update their medians."""
    for name, value in layers.items():
        entry = doc["layers"].setdefault(name, {})
        runs = entry.setdefault(f"{label}_runs", [])
        runs.append(round(value, 4))
        entry[label] = round(statistics.median(runs), 4)
    doc["env"][label] = env


def run_once(label: str, src: str, artifacts: str) -> tuple:
    """(layers, env) of one run of this script in a fresh subprocess."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run.json")
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--label", label, "--src", src, "--out", out,
                        "--artifacts", artifacts],
                       check=True, stdout=subprocess.DEVNULL)
        run = load(out)
    return ({name: e[f"{label}_runs"][0] for name, e in run["layers"].items()},
            run["env"][label])


def paired(args) -> int:
    """Alternate parent (before) and child (after) runs, recording each pair."""
    doc = load(args.out)
    for k in range(args.pairs):
        pair = {}
        sides = [("before", args.paired), ("after", args.src)]
        for label, src in sides if k % 2 == 0 else sides[::-1]:
            layers, env = run_once(label, os.path.abspath(src), args.artifacts)
            record(doc, label, layers, env)
            pair[label] = layers
        for name, before in pair["before"].items():
            entry = doc["layers"][name]
            entry.setdefault("pairs", []).append(
                [round(before, 4), round(pair["after"][name], 4)])
            entry["after_lower"] = sum(a < b for b, a in entry["pairs"])
        save(args.out, doc)
        print(f"pair {k + 1}/{args.pairs} recorded in {args.out}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", choices=("before", "after"),
                        help="record one run under this label")
    parser.add_argument("--paired", metavar="PARENT_SRC",
                        help="alternate runs of PARENT_SRC (before) and --src "
                             "(after) in subprocesses, recording each pair")
    parser.add_argument("--pairs", type=int, default=5,
                        help="number of pairs for --paired (default 5)")
    parser.add_argument("--out", required=True, help="BENCH JSON to update")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="voltsentry sources to time")
    parser.add_argument("--artifacts", default=os.path.join(ROOT, ".bench_build", "bench"),
                        help="directory of the canonical CLI outputs (built if absent)")
    args = parser.parse_args(argv)
    if (args.label is None) == (args.paired is None):
        parser.error("give exactly one of --label and --paired")
    if args.paired:
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        return paired(args)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    layers = measure(args.artifacts)
    doc = load(args.out)
    record(doc, args.label, layers,
           {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__})
    save(args.out, doc)
    print(json.dumps({args.label: layers}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
