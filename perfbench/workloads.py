"""The benchmark's workloads: ``stream`` and ``sweep``.

Both set up the same way, by the README's CLI flow for both packs (``build``),
and then time their own operations: ``stream`` single frames through
``sentinel.step_detector``, ``sweep`` whole scenarios through
``pipeline.evaluate_attack``.  Each workload checks every output and returns
a ``Result``.  The workload seed picks the cell-corpus noise seed and the
attack windows; seed 1 is the canonical corpus seed with the canonical
scenarios, so default-seed numbers compare with the acceptance suite.
Correctness checks and digests run with the tracer paused, so traced layer
times hold only the workload's own work.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from voltsentry import (boost, cli, configio, datasets, pipeline, sentinel,
                        simkit, threatgen)

CANONICAL_SEED = pipeline.CANONICAL_CORPUS_SEED
# Each pack's config and its canonical scenario.
PACKS = ((simkit.pack1_config, "swap_pack1.ini"),
         (simkit.pack2_config, "replay_pack2.ini"))
# Least operations timed, whatever --seconds says, so that a short run still
# has a median and a tail percentile with ten samples beyond it.
STREAM_MIN_FRAMES = 100
SWEEP_MIN_OPS = 25
WARMUP_FRAMES = 10
# A charge that passes CC, CV and rest within the 900 s trace length, so the
# sweep can place windows in every phase (the pack test charge is all CC).
SWEEP_PHASED_SOC = 0.8
SWEEP_PHASED_POLICY = simkit.CccvPolicy(
    c_rate=1.0, duration_s=pipeline.PACK_TRACE_DURATION_S, taper_cutoff_c=0.3)


@dataclass
class Result:
    setup_s: float
    latencies_s: list
    starts_s: list  # start of each timed operation, from the timed phase's start
    wall_s: float
    attempted: int
    failed: int
    test_err_pct: float
    digest: str
    notes: dict = field(default_factory=dict)


@dataclass
class Pack:
    name: str
    model: boost.Ensemble
    epsilon: float
    test: simkit.TelemetryTrace
    test_err: float


def settle() -> None:
    """Collect set-up garbage and exempt it from later GC passes."""
    gc.collect()
    gc.freeze()


@contextlib.contextmanager
def paused(tracer):
    """Run benchmark-side checks without recording spans."""
    was = tracer.active
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = was


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def canonical_scenarios(configs_dir) -> list:
    return [configio.read_scenario(os.path.join(configs_dir, ini))
            for _, ini in PACKS]


def seeded_scenarios(seed: int, n_frames: int, q_replay: int) -> list:
    """A swap for pack 1 and a replay for pack 2, inside the CC charge."""
    rng = np.random.default_rng([seed, 1])
    length = int(rng.integers(200, 501))
    k0 = int(rng.integers(100, n_frames - 100 - length))
    swap = threatgen.AttackScenario("swap_fdi", k0, k0 + length)
    length = int(rng.integers(150, 351))
    k0 = int(rng.integers(length + 50, n_frames - 50 - length))
    start = int(rng.integers(0, k0 - length + 1))
    size = int(rng.integers(1, q_replay))
    targets = tuple(int(m) + 1 for m in rng.choice(q_replay, size, replace=False))
    replay = threatgen.AttackScenario(
        "replay", k0, k0 + length, record_start_s=start,
        record_end_s=start + length, target_modules=targets)
    return [swap, replay]


def scenarios_for(seed: int, configs_dir) -> list:
    if seed == CANONICAL_SEED:
        return canonical_scenarios(configs_dir)
    n_frames = int(pipeline.PACK_TRACE_DURATION_S) + 1
    return seeded_scenarios(seed, n_frames, PACKS[1][0]().q)


# ---------------------------------------------------------------------------
# set-up shared by both workloads: the README's CLI flow, cold, in-process
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    packs: list
    scenarios: list
    command_s: dict
    attempted: int
    failed: int


def build(seed, tracer, workdir, configs_dir) -> Setup:
    """Run the 14 CLI commands for both packs and load what they wrote.

    Simulate the cell corpus, ``train-base``, simulate 3 traces per pack,
    ``finetune``, ``calibrate`` and ``attack-eval`` on the workload's
    scenarios, each through ``cli.main`` as in the README.  A command that
    exits nonzero, raises or fails its output check is a failed operation;
    a pack whose artifacts are missing raises.
    """
    out = os.path.join(workdir, "out")
    corpus = os.path.join(workdir, "corpus")
    os.makedirs(out)
    scenarios = scenarios_for(seed, configs_dir)
    names, scenario_paths = [], []
    for (make_config, _), scenario in zip(PACKS, scenarios):
        names.append(make_config().name)
        scenario_paths.append(os.path.join(workdir, f"scenario_{names[-1]}.ini"))
        configio.write_scenario(scenario_paths[-1], scenario)

    cfg = lambda name: os.path.join(configs_dir, name + ".ini")  # noqa: E731
    at = lambda name: os.path.join(out, name)  # noqa: E731
    last_corpus_run = pipeline.corpus_trace_name(
        pipeline.CELL_C_RATES[-1], pipeline.CELL_INIT_SOCS[-1],
        pipeline.CELL_R0_SCALES[-1])
    # (argv or a callable building it, file the command must write)
    commands = [
        (["simulate", "--config", cfg("cell_corpus"), "--seed", str(seed),
          "--out-dir", corpus], os.path.join(corpus, last_corpus_run + ".csv")),
        (["train-base", "--corpus-dir", corpus, "--out-dir", out],
         at("report_train_base.json")),
    ]
    for pack in names:
        for rate in ("c080", "c120", "c100"):
            commands.append((["simulate", "--config", cfg(f"{pack}_{rate}"),
                              "--out-dir", out], at(f"{pack}_{rate}.csv")))
    for pack in names:
        commands.append((
            ["finetune", "--model", at("model_base.json"),
             "--config", cfg(f"{pack}_c100"),
             "--traces", at(f"{pack}_c080.csv"), at(f"{pack}_c120.csv"),
             "--test-trace", at(f"{pack}_c100.csv"), "--recipe", pack,
             "--out-dir", out], at(f"report_finetune_{pack}.json")))
    for pack in names:
        commands.append((
            ["calibrate", "--model", at(f"model_{pack}.json"),
             "--trace", at(f"{pack}_c100.csv"), "--out-dir", out],
            at(f"report_calibrate_{pack}_c100.json")))
    for pack, path, scenario in zip(names, scenario_paths, scenarios):
        commands.append((
            lambda pack=pack, path=path: [
                "attack-eval", "--model", at(f"model_{pack}.json"),
                "--trace", at(f"{pack}_c100.csv"), "--scenario", path,
                "--epsilon", repr(_epsilon(at(f"report_calibrate_{pack}_c100.json"))),
                "--out-dir", out],
            at(f"report_{pack}_c100_{scenario.kind}.json")))

    command_s, failed, errs = {}, 0, []
    for j, (argv, expect) in enumerate(commands):
        if callable(argv):
            with paused(tracer):
                try:
                    argv = argv()
                except (OSError, ValueError, KeyError):
                    argv = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = None if argv is None else cli.main(argv)
        except Exception:  # noqa: BLE001 - an escaped error is a failed operation
            code = None
        label = f"{j:02d}_{argv[0] if argv else 'none'}"
        command_s[label] = time.perf_counter() - t0
        with paused(tracer):
            ok = code == 0 and _command_output_ok(argv[0], expect, seed, errs)
        failed += not ok

    packs = []
    for pack in names:
        with open(at(f"report_finetune_{pack}.json"), encoding="utf-8") as fh:
            test_err = json.load(fh)["model"]["test_max_abs_error_fraction"]
        packs.append(Pack(pack, boost.load_model(at(f"model_{pack}.json")),
                          _epsilon(at(f"report_calibrate_{pack}_c100.json")),
                          datasets.read_trace(at(f"{pack}_c100.csv")), test_err))
    return Setup(packs, scenarios, command_s, len(commands), failed)


def _epsilon(report_path) -> float:
    with open(report_path, encoding="utf-8") as fh:
        return float(json.load(fh)["detection"]["epsilon_v"])


def _command_output_ok(command, expect, seed, errs) -> bool:
    """The command wrote its file; acceptance bounds at the canonical seed."""
    if not os.path.isfile(expect):
        return False
    if command == "simulate":
        return True
    with open(expect, encoding="utf-8") as fh:
        doc = json.load(fh)
    if command == "train-base":
        return doc["model"]["tree_counts"] == {"base": boost.BASE_RECIPE.n_trees}
    if command == "finetune":
        errs.append(doc["model"]["test_max_abs_error_fraction"])
        return seed != CANONICAL_SEED or errs[-1] <= 0.005
    if command == "calibrate":
        return doc["detection"]["epsilon_v"] > 0
    det = doc["detection"]
    if seed != CANONICAL_SEED:
        return "onset_delay_samples" in det
    delays = (det["onset_delay_samples"], det["withdrawal_delay_samples"])
    return (all(d != "missed" and d <= 1 for d in delays)
            and det["false_alarms"] == 0)


def _tree_digest(root) -> str:
    """Digest of every artifact except the wall-clock timing sidecars."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.startswith("timings_"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _result(setup, setup_s, latencies, starts, wall_s, failed, digest,
            notes) -> Result:
    notes = {"setup": {"command_s": setup.command_s,
                       "failed": setup.failed}, **notes}
    return Result(setup_s, latencies, starts, wall_s,
                  setup.attempted + len(latencies),
                  setup.failed + failed,
                  100.0 * max(p.test_err for p in setup.packs), digest, notes)


# ---------------------------------------------------------------------------
# stream: one client monitoring both packs frame by frame
# ---------------------------------------------------------------------------

def stream(seed, seconds, tracer, workdir, configs_dir, t_start,
           min_frames=STREAM_MIN_FRAMES) -> Result:
    """Closed loop: each 1 Hz tick feeds one attacked frame of each pack."""
    setup = build(seed, tracer, workdir, configs_dir)
    setup_s = time.perf_counter() - t_start

    feeds = []
    for pack, scenario in zip(setup.packs, setup.scenarios):
        corrupted, ref, outcome = pipeline.evaluate_attack(
            pack.model, pack.test, scenario, pack.epsilon)
        frames = [corrupted.frame(k) for k in range(corrupted.n_frames)]
        feeds.append((pack, frames, ref, outcome))
        state = sentinel.DetectorState.initial(pack.epsilon, frames[0])
        for frame in frames[1:1 + WARMUP_FRAMES]:
            state, _, _ = sentinel.step_detector(state, frame, pack.model)

    latencies, starts, failed = [], [], 0
    states = [None] * len(feeds)
    settle()
    t_run = time.perf_counter()
    for k in itertools.cycle(range(1, min(len(f[1]) for f in feeds))):
        for j, (pack, frames, ref, _) in enumerate(feeds):
            if k == 1:
                states[j] = sentinel.DetectorState.initial(pack.epsilon, frames[0])
            tracer.op = len(latencies)
            t0 = time.perf_counter()
            states[j], r, flag = sentinel.step_detector(states[j], frames[k], pack.model)
            latencies.append(time.perf_counter() - t0)
            starts.append(t0 - t_run)
            failed += not (r == ref.r[k - 1] and flag == ref.flag[k - 1])
        if len(latencies) >= min_frames and time.perf_counter() - t_run >= seconds:
            break
    wall_s = time.perf_counter() - t_run

    with paused(tracer):
        digest = _sha(_tree_digest(workdir), *[
            (ref.r.tobytes(), ref.flag.tobytes(), ref.events,
             sorted(outcome.as_dict().items()))
            for _, _, ref, outcome in feeds])
    notes = {f"{pack.name}_batch_outcome": outcome.as_dict()
             for pack, _, _, outcome in feeds}
    return _result(setup, setup_s, latencies, starts, wall_s, failed, digest,
                   notes)


# ---------------------------------------------------------------------------
# sweep: seed-chosen scenario grid scored in batch
# ---------------------------------------------------------------------------

def phases(trace) -> dict:
    """Frame spans of the CC, CV and rest phases, read off the pack current."""
    i = trace.i_pack_a
    n = trace.n_frames
    below = np.flatnonzero(i < i[0])
    cv = int(below[0]) if below.size else n
    idle = np.flatnonzero(i == 0.0)
    rest = int(idle[0]) if idle.size else n
    return {"cc": (0, cv), "cv": (cv, rest), "rest": (rest, n), "end": (0, n)}


# (trace, phase, kind): the nominal test charge is all CC, the phased charge
# adds CV and rest; "end" windows end at the last frame of either trace.
SWEEP_CLASSES = tuple(
    (trace, phase, kind)
    for trace, phase_list in (("test", ("cc", "end")),
                              ("phased", ("cc", "cv", "rest", "end")))
    for phase in phase_list for kind in ("swap_fdi", "replay"))


def sweep_scenarios(seed, targets):
    """Endless deterministic sequence of operations, round-robin over the
    classes; each operation is one scenario of a class on every pack.

    ``targets`` is a list of (pack, {trace label: trace}, canonical
    scenario); the canonical scenarios come first.  Yields lists of (pack,
    trace, label, scenario), one per pack.
    """
    rng = np.random.default_rng([seed, 2])
    yield [(pack, traces["test"], f"canonical/{scenario.kind}", scenario)
           for pack, traces, scenario in targets]
    while True:
        for trace_label, phase, kind in SWEEP_CLASSES:
            op = []
            for pack, traces, _ in targets:
                trace = traces[trace_label]
                lo, hi = phases(trace)[phase]
                label = f"{trace_label}/{phase}/{kind}"
                op.append((pack, trace, label,
                           _window(rng, trace, lo, hi, phase, kind)))
            yield op


def _window(rng, trace, lo, hi, phase, kind):
    n = trace.n_frames
    span = hi - lo
    length = int(rng.integers(max(2, span // 8), max(3, span // 2) + 1))
    if phase == "end":
        k0 = n - length
    else:
        first = lo if kind == "swap_fdi" else max(lo, length)
        k0 = int(rng.integers(first, max(first, hi - length) + 1))
    kf = min(k0 + length, n)
    if kind == "swap_fdi":
        return threatgen.AttackScenario("swap_fdi", k0, kf)
    size = int(rng.integers(1, trace.q + 1))
    targets = tuple(int(m) + 1 for m in rng.choice(trace.q, size, replace=False))
    start = int(rng.integers(0, k0 - (kf - k0) + 1))
    return threatgen.AttackScenario(
        "replay", k0, kf, record_start_s=start, record_end_s=start + kf - k0,
        target_modules=targets)


def attack_output_ok(trace, scenario, corrupted, det) -> bool:
    """Current and out-of-window frames untouched; mask equals the window."""
    t = trace.t_s
    inside = (t >= scenario.k0_s) & (t < scenario.kf_s)
    v, w = trace.v_modules, corrupted.v_modules
    if not (np.array_equal(corrupted.attack_mask, inside.astype(int))
            and np.array_equal(corrupted.t_s, t)
            and np.array_equal(corrupted.i_pack_a, trace.i_pack_a)
            and np.array_equal(w[~inside], v[~inside])
            and det.r.shape == (trace.n_frames - 1,)):
        return False
    if scenario.kind == "swap_fdi":
        return np.array_equal(w[inside], -np.sort(-v[inside], axis=1))
    rows = np.flatnonzero(inside)
    start = int(np.searchsorted(t, scenario.record_start_s))
    cols = [m - 1 for m in scenario.target_modules]
    others = [c for c in range(trace.q) if c not in cols]
    return (np.array_equal(w[rows][:, cols],
                           v[start:start + rows.size][:, cols])
            and np.array_equal(w[rows][:, others], v[rows][:, others]))


def sweep(seed, seconds, tracer, workdir, configs_dir, t_start,
          min_ops=SWEEP_MIN_OPS) -> Result:
    """Offline exploration: evaluate_attack over a seed-chosen grid.

    An operation scores one scenario class on both packs, so every
    operation does the same amount of prediction (3 600 + 4 500 rows).
    """
    setup = build(seed, tracer, workdir, configs_dir)
    setup_s = time.perf_counter() - t_start

    targets = []
    for (make_config, _), pack, scenario in zip(
            PACKS, setup.packs, canonical_scenarios(configs_dir)):
        phased = simkit.run_cccv_pack(
            make_config(), simkit.default_cell(), SWEEP_PHASED_POLICY,
            SWEEP_PHASED_SOC, name=f"{pack.name}_phased")
        targets.append((pack, {"test": pack.test, "phased": phased}, scenario))
        pipeline.evaluate_attack(pack.model, pack.test, scenario, pack.epsilon)

    latencies, starts, failed, outcomes = [], [], 0, {}
    digest = hashlib.sha256()
    settle()
    t_run = time.perf_counter()
    for op in sweep_scenarios(seed, targets):
        tracer.op = len(latencies)
        t0 = time.perf_counter()
        scored = [pipeline.evaluate_attack(pack.model, trace, scenario, pack.epsilon)
                  for pack, trace, _, scenario in op]
        latencies.append(time.perf_counter() - t0)
        starts.append(t0 - t_run)
        with paused(tracer):
            ok = True
            for (pack, trace, label, scenario), (corrupted, det, metrics) in zip(
                    op, scored):
                ok = ok and attack_output_ok(trace, scenario, corrupted, det)
                _tally(outcomes, f"{pack.name}/{label}", metrics)
                if len(latencies) <= min_ops:
                    digest.update(_sha(scenario, det.r.tobytes(), det.flag.tobytes(),
                                       sorted(metrics.as_dict().items())).encode())
            failed += not ok
        if len(latencies) >= min_ops and time.perf_counter() - t_run >= seconds:
            break
    wall_s = time.perf_counter() - t_run

    with paused(tracer):
        final = _sha(_tree_digest(workdir), digest.hexdigest())
    return _result(setup, setup_s, latencies, starts, wall_s, failed, final,
                   {"outcomes": outcomes})


def _tally(outcomes, label, metrics) -> None:
    """Detection outcomes per class: these are results, not failures."""
    row = outcomes.setdefault(
        label, {"n": 0, "onset_missed": 0, "withdrawal_missed": 0,
                "late": 0, "false_alarm_runs": 0})
    row["n"] += 1
    row["onset_missed"] += metrics.onset_delay is None
    row["withdrawal_missed"] += metrics.withdrawal_delay is None
    row["late"] += any(d is not None and d > 1
                       for d in (metrics.onset_delay, metrics.withdrawal_delay))
    row["false_alarm_runs"] += metrics.false_alarms > 0


WORKLOADS = {"stream": stream, "sweep": sweep}
