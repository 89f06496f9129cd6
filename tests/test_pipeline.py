import json
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (canonical_config, gather, make_trace, same_trace,
                      write_sim_config)
from reports_reference import reference_score_detection
from test_boost import GRID, random_tree
from voltsentry import boost, cli, configio, datasets, pipeline, sentinel, simkit
from voltsentry.boost import Ensemble, Segment
from voltsentry.cli import check_model_trace_compat
from voltsentry.reports import RunReport, score_detection, write_report
from voltsentry.sentinel import DetectionTrace, run_detector
from voltsentry.threatgen import AttackScenario, apply_scenario
from voltsentry.transfer import norm_for_pack


class TestCorpusRecipe:
    def test_trace_naming(self):
        assert pipeline.corpus_trace_name(0.5, 0.1, 0.95) == "cell_c050_s010_r095"
        assert pipeline.corpus_trace_name(1.2, 0.3, 1.0) == "cell_c120_s030_r100"
        assert pipeline.pack_trace_name("pack1", 0.8) == "pack1_c080"

    def test_grid_covers_design(self, corpus_dir):
        import os
        files = sorted(os.listdir(corpus_dir))
        assert len(files) == 36 + 1
        assert files.count(pipeline.CORPUS_MANIFEST) == 1
        assert pipeline.read_corpus_cell(corpus_dir) == simkit.default_cell()
        train, val = pipeline.load_cell_corpus(corpus_dir)
        # Validation slice: mid init-SOC at nominal r0, one run per C-rate.
        assert len(val) == int(sum(pipeline.CELL_DURATIONS.values()))
        assert val.norm == boost.NormSpec()
        names = {src[0] for src in val.sources}
        assert all("_s030_r100" in n for n in names)
        assert len(names) == 4


class TestPackSets:
    def test_round_robin_uses_both_rates(self, pack1_bundle):
        config = pack1_bundle["config"]
        traces = pack1_bundle["traces"]
        train, val, test = pipeline.build_pack_sets(
            traces["train"], traces["test"], norm_for_pack(config))
        train_traces = {src[0] for src in train.sources}
        assert train_traces == {"pack1_c080", "pack1_c120"}
        assert {src[0] for src in val.sources} == {"pack1_c080"}
        assert {src[0] for src in test.sources} == {"pack1_c100"}
        assert (len(train), len(val), len(test)) == (1800, 900, 900)

    def test_trace_of_another_module_count_rejected(self):
        """finetune_pack rejects a training or test trace whose module
        count differs from the pack's before it builds any set."""
        config = simkit.pack1_config()
        good = make_trace(np.full((5, config.q), 380.0), name="good")
        wide = make_trace(np.full((5, config.q + 1), 380.0), name="wide")
        narrow = make_trace(np.full((5, config.q - 1), 380.0), name="narrow")
        with mock.patch.object(pipeline, "build_pack_sets",
                               side_effect=AssertionError("built")):
            for train, test in (([wide, good], good), ([good, narrow], good),
                                ([good, good], wide)):
                with pytest.raises(ValueError, match="modules, pack 'pack1' has 4"):
                    pipeline.finetune_pack(Ensemble(3.7, ()), config, train,
                                           test, boost.TrainConfig(n_trees=1))

    def test_traces_written_and_reloaded(self, tmp_path):
        config = simkit.PackConfig(
            name="tiny", parallel_modules=3, branches_per_module=1,
            series_cells=2, heterogeneity_sigma=0.0, rng_seed=0)
        ini = tmp_path / "run.ini"
        for rate in ("c080", "c120", "c100"):
            spec = configio.read_sim_config(canonical_config(f"pack1_{rate}"))
            write_sim_config(ini, replace(spec, pack=config))
            assert cli.main(["simulate", "--config", str(ini),
                             "--out-dir", str(tmp_path)]) == 0
        assert (sorted(p.name for p in tmp_path.glob("tiny_*.csv"))
                == ["tiny_c080.csv", "tiny_c100.csv", "tiny_c120.csv"])
        test = datasets.read_trace(tmp_path / "tiny_c100.csv")
        assert test.name == "tiny_c100"
        assert test.n_frames == 901


class TestCanonicalConfigs:
    def test_files_parse_back(self):
        """The shipped configs/ hold the canonical packs, corpus seed and
        attack scenarios; the study driver and the fixtures read them."""
        cell = simkit.default_cell()
        for config in (simkit.pack1_config(), simkit.pack2_config()):
            for rate, c_rate in (("c080", 0.8), ("c120", 1.2), ("c100", 1.0)):
                spec = configio.read_sim_config(
                    canonical_config(f"{config.name}_{rate}"))
                assert spec.kind == "pack"
                assert (spec.pack, spec.cell) == (config, cell)
                assert spec.policy == simkit.CccvPolicy(
                    c_rate=c_rate, duration_s=pipeline.PACK_TRACE_DURATION_S)
                assert spec.noise == simkit.NoiseSpec()
                assert spec.init_soc == 0.25
        corpus = configio.read_sim_config(canonical_config("cell_corpus"))
        assert (corpus.kind, corpus.cell) == ("cell_corpus", cell)
        assert corpus.seed == pipeline.CANONICAL_CORPUS_SEED
        assert configio.read_scenario(canonical_config("swap_pack1")) == (
            AttackScenario(kind="swap_fdi", k0_s=300, kf_s=700))
        assert configio.read_scenario(canonical_config("replay_pack2")) == (
            AttackScenario(kind="replay", k0_s=400, kf_s=700,
                           record_start_s=100, record_end_s=400,
                           target_modules=(1, 2)))


def detection(flags, t0=1.0):
    """A detection trace whose residuals cross epsilon where flags change."""
    flags = np.asarray(flags, dtype=int)
    t = np.arange(t0, t0 + len(flags))
    r = np.where(np.diff(np.concatenate([[0], flags])) != 0, 5.0, 0.1)
    det = DetectionTrace(t_s=t, r=r, epsilon=2.0)
    assert np.array_equal(det.flag, flags)
    return det


class TestScoreDetection:
    def mask(self, n, k0, kf):
        m = np.zeros(n, dtype=int)
        m[k0:kf] = 1
        return m

    def test_clean_detection(self):
        n, k0, kf = 20, 5, 12
        flags = np.zeros(n - 1, dtype=int)
        flags[k0 - 1:kf - 1] = 1  # detection trace starts at t=1
        det = detection(flags)
        m = score_detection(det, self.mask(n, k0, kf))
        assert m.onset_delay == 0
        assert m.withdrawal_delay == 0
        assert m.false_alarms == 0
        assert m.crossings == 2

    def test_delayed_onset(self):
        n, k0, kf = 20, 5, 12
        flags = np.zeros(n - 1, dtype=int)
        flags[k0 + 1:kf + 1] = 1
        det = detection(flags)
        m = score_detection(det, self.mask(n, k0, kf))
        assert m.onset_delay == 2
        assert m.withdrawal_delay == 2

    def test_missed_detection(self):
        n, k0, kf = 20, 5, 12
        det = detection(np.zeros(n - 1, dtype=int))
        m = score_detection(det, self.mask(n, k0, kf))
        assert m.onset_delay is None
        assert m.withdrawal_delay is None
        assert m.as_dict()["onset_delay_samples"] == "missed"

    def test_false_alarm_counted(self):
        n, k0, kf = 20, 10, 15
        flags = np.zeros(n - 1, dtype=int)
        flags[2:4] = 1   # a rise at t=3 in the nominal region
        flags[k0 - 1:kf - 1] = 1
        det = detection(flags)
        m = score_detection(det, self.mask(n, k0, kf))
        assert m.false_alarms == 1

    def test_mask_without_window_rejected(self):
        det = detection(np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            score_detection(det, np.zeros(6, dtype=int))


class TestCrossingScorer:
    """score_detection reads rises and falls off the crossings; the
    flag-based scorer it replaced (reports_reference) is its oracle."""

    @staticmethod
    def both(r, epsilon, k0, kf):
        det = DetectionTrace(t_s=np.arange(1.0, len(r) + 1.0), r=r,
                             epsilon=epsilon)
        mask = np.zeros(len(r) + 1, dtype=int)
        mask[k0:kf] = 1
        got = score_detection(det, mask)
        assert got == reference_score_detection(det, mask)
        return det, got

    @given(rs=st.lists(st.tuples(st.floats(0, 5), st.booleans()), min_size=1,
                       max_size=60),
           eps=st.floats(0.5, 4.5), a=st.integers(0, 60), b=st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_equals_flag_scorer(self, rs, eps, a, b):
        """Random residuals (a third of them exactly on epsilon), epsilon
        and attack windows [k0, kf) anywhere in the trace's n frames."""
        r = np.array([eps if tie else x for x, tie in rs])
        n = r.size + 1
        k0 = a % n
        kf = k0 + 1 + b % (n - k0)
        self.both(r, eps, k0, kf)

    def test_window_ending_at_last_frame(self):
        """A window up to the last frame has no frame to withdraw at."""
        det, m = self.both(np.array([0.1, 0.1, 3.0, 0.1, 0.1]), 2.0, 3, 6)
        assert (m.onset_delay, m.withdrawal_delay) == (0, None)
        assert det.flag[-1] == 1

    def test_no_crossings(self):
        det, m = self.both(np.full(6, 0.5), 2.0, 2, 4)
        assert det.crossed.size == 0 and det.events == ()
        assert (m.onset_delay, m.withdrawal_delay, m.false_alarms,
                m.crossings) == (None, None, 0, 0)

    def test_crossing_at_first_residual(self):
        """Residual 0 belongs to frame 1: a rise there before the window
        is a false alarm, the withdrawal-side crossing resets it."""
        det, m = self.both(np.array([2.0, 0.1, 2.5, 0.1, 0.1]), 2.0, 3, 5)
        assert list(det.crossed) == [0, 2] and det.flag[0] == 1
        assert (m.onset_delay, m.false_alarms) == (None, 1)

    def test_odd_crossing_count_leaves_flag_set(self):
        """Crossings at frames 2, 4 and 6: a rise in the window, a fall
        inside it, and a rise after it that is never reset."""
        det, m = self.both(np.array([0.1, 3.0, 0.1, 3.0, 0.1, 3.0, 0.1]),
                           2.0, 2, 5)
        assert det.crossings == 3 and det.flag[-1] == 1
        assert (m.onset_delay, m.withdrawal_delay, m.false_alarms) == (0, None, 1)

    def test_flags_and_events_follow_the_residuals(self):
        """A detection trace's crossings are where r >= epsilon, its flags
        their parity and its events their (t_s, r), all held read-only."""
        r = np.array([0.1, 2.0, 2.0, 0.3, 5.0, 1.9])
        det = DetectionTrace(t_s=np.arange(1.0, 7.0), r=r, epsilon=2.0)
        assert list(det.crossed) == [1, 2, 4]
        assert list(det.flag) == [0, 1, 0, 0, 1, 1]
        assert det.events == ((2.0, 2.0), (3.0, 2.0), (5.0, 5.0))
        for a in (det.r, det.flag, det.crossed):
            assert not a.flags.writeable
        r[4] = 0.0  # the trace holds its own copy
        assert det.r[4] == 5.0
        with pytest.raises(FrozenInstanceError):
            det.flag = np.zeros(6, dtype=int)


class TestReports:
    def test_deterministic_serialization(self, tmp_path):
        report = RunReport(command="x", inputs={"b": 2, "a": 1})
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(p1, report)
        write_report(p2, RunReport(command="x", inputs={"a": 1, "b": 2}))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_value_rejected(self, tmp_path, bad):
        """JSON has no literal for NaN or infinity: a report holding one
        raises instead of writing a file that is not JSON."""
        report = RunReport(command="x", detection={"epsilon_v": bad})
        with pytest.raises(ValueError):
            write_report(tmp_path / "r.json", report)


class TestModelTraceGuard:
    @staticmethod
    def model(thresholds):
        """Voltage stumps at the given per-cell thresholds."""
        trees = tuple(boost.Tree([0, -1, -1], [t, 0.0, 0.0], [1, -1, -1],
                                 [2, -1, -1], [0.0, -0.1, 0.1])
                      for t in thresholds)
        return boost.Ensemble(base_score=3.7,
                              segments=(Segment("base", 0.1, trees),))

    def test_pack_model_on_cell_trace_rejected(self):
        ens = self.model((3.6, 3.9))
        with pytest.raises(ValueError, match="mismatch"):
            check_model_trace_compat(ens, make_trace([3.7, 3.8]), 100.0)

    def test_matching_scales_accepted(self):
        """The trace is read at the scale given, not at the model's norm."""
        ens = self.model((3.6, 3.9))
        assert ens.norm == boost.NormSpec()
        check_model_trace_compat(ens, make_trace([[370.0], [380.0]]), 100.0)
        with pytest.raises(ValueError, match="mismatch"):
            check_model_trace_compat(ens, make_trace([[370.0], [380.0]]), 1.0)

    def test_span_widened_by_tolerance(self):
        tol = cli.DOMAIN_TOLERANCE_V
        ens = self.model((3.6, 3.9))
        check_model_trace_compat(
            ens, make_trace([3.6 - 0.9 * tol, 3.9 + 0.9 * tol]), 1.0)
        for v in (3.6 - 1.1 * tol, 3.9 + 1.1 * tol):
            with pytest.raises(ValueError, match="domain"):
                check_model_trace_compat(ens, make_trace([3.7, v]), 1.0)

    def test_current_thresholds_ignored(self):
        stump = boost.Tree([1, -1, -1], [50.0, 0.0, 0.0], [1, -1, -1],
                           [2, -1, -1], [0.0, -0.1, 0.1])
        ens = boost.Ensemble(3.7, (Segment("base", 0.1, (stump,)),))
        check_model_trace_compat(ens, make_trace([3.7, 380.0]), 1.0)

    def test_canonical_and_phased_charges_accepted(self, pack1_bundle):
        model = pack1_bundle["model"]
        v_scale = model.norm.v_scale
        check_model_trace_compat(model, pack1_bundle["traces"]["test"], v_scale)
        phased = simkit.run_cccv_pack(
            pack1_bundle["config"], simkit.default_cell(),
            simkit.CccvPolicy(c_rate=1.0, taper_cutoff_c=0.3,
                              duration_s=pipeline.PACK_TRACE_DURATION_S), 0.8)
        assert phased.v_modules.max() / 100.0 > 4.2149
        check_model_trace_compat(model, phased, v_scale)

    def test_charge_below_the_corpus_exits_5(self, pack1_bundle, tmp_path,
                                             capsys):
        """A pack 1 charge from SOC 0.05 starts below every voltage the
        corpus holds; calibrate rejects it, as it does a wrong-scale trace."""
        model_path = tmp_path / "model_pack1.json"
        boost.save_model(model_path, pack1_bundle["model"])
        spec = configio.read_sim_config(canonical_config("pack1_c100"))
        low = simkit.run_cccv_pack(spec.pack, spec.cell, spec.policy, 0.05,
                                   spec.noise, name="pack1_low")
        assert low.v_modules.min() / 100.0 < 3.3
        test = pack1_bundle["traces"]["test"]
        cell_scale = simkit.TelemetryTrace(
            t_s=test.t_s, i_pack_a=test.i_pack_a,
            v_modules=test.v_modules / 100.0, name="cell_scale")
        for trace in (low, cell_scale):
            path = tmp_path / f"{trace.name}.csv"
            datasets.write_trace(path, trace)
            assert cli.main(["calibrate", "--model", str(model_path),
                             "--trace", str(path),
                             "--out-dir", str(tmp_path / "out")]) == 5
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "invalid-input"
            assert "outside the model's domain" in err["message"]


class TestBaseModelCellQuality:
    def test_val_max_abs_error_within_half_percent_of_nominal(self, base_bundle):
        ens, _, _, val_set = base_bundle
        err = pipeline.max_abs_residual(ens, val_set)
        assert err <= 0.005 * 4.2


class TestValidationMaximaFromBoosting:
    """The reports' validation max-abs errors come from the predictions
    that boosting keeps; they equal a re-prediction bit for bit."""

    def test_base_training(self, base_bundle):
        ens, _, _, val_set = base_bundle
        assert ens.history.val_max_abs_end == pipeline.max_abs_residual(
            ens, val_set)

    @pytest.mark.parametrize("bundle", ["pack1_bundle", "pack2_bundle"])
    def test_finetune_pack(self, request, base_model, bundle):
        b = request.getfixturevalue(bundle)
        norm = norm_for_pack(b["config"])
        _, val_set, _ = pipeline.build_pack_sets(
            b["traces"]["train"], b["traces"]["test"], norm)
        for key, model in (("val_max_abs_residual_base_v", base_model),
                           ("val_max_abs_residual_tl_v", b["model"])):
            assert b["info"][key] == (pipeline.max_abs_residual(model, val_set)
                                      * norm.v_scale)


def random_model(rng, n_trees, depth):
    trees = tuple(random_tree(rng, depth) for _ in range(n_trees))
    return Ensemble(float(rng.normal()),
                    (Segment("base", float(rng.uniform(0.01, 1.0)), trees),))


def random_trace(rng, n, q):
    """A 1 Hz trace of mostly GRID values, so rows often repeat exactly."""
    v = np.where(rng.random((n, q)) < 0.7, rng.choice(GRID, (n, q)),
                 rng.uniform(-1.2, 1.2, (n, q)))
    return make_trace(v, i=rng.choice(GRID, n))


def draw_scenario(data, n, q):
    """A swap (q >= 2) or replay window of at least one frame, which may
    end at the last frame; replays on a random target subset."""
    if q < 2 or data.draw(st.booleans()):
        if n < 3:
            return None
        span = data.draw(st.integers(1, (n - 1) // 2))
        k0 = data.draw(st.integers(span, n - span))
        start = data.draw(st.integers(0, k0 - span))
        end = data.draw(st.integers(start + span, k0))
        targets = data.draw(st.sets(st.integers(1, q), min_size=1))
        return AttackScenario("replay", k0, k0 + span, record_start_s=start,
                              record_end_s=end, target_modules=tuple(targets))
    k0 = data.draw(st.integers(0, n - 1))
    return AttackScenario("swap_fdi", k0, data.draw(st.integers(k0 + 1, n)))


def full_prediction(model, trace, scenario, epsilon):
    """evaluate_attack without the nominal trace's predictions: the
    corrupted trace's copy has no origin, so every row is predicted."""
    corrupted = apply_scenario(trace, scenario)
    det = run_detector(corrupted.copy(), model, epsilon)
    return corrupted, det, score_detection(det, corrupted.attack_mask)


def assert_same_outcome(got, want):
    (c1, d1, m1), (c2, d2, m2) = got, want
    assert same_trace(c1, c2)
    assert d1.r.tobytes() == d2.r.tobytes()
    assert d1.flag.tobytes() == d2.flag.tobytes()
    assert d1.events == d2.events
    assert m1 == m2


def unserved_rows(trace):
    """The predictor rows (v_m(k), i(k)) of a gathered trace that the row
    of its origin at their source (a flat index into the origin's
    voltages) does not serve, module-major: the source row is in the last
    frame or differs in voltage or current.  A loop over the source rule,
    for the tests."""
    nominal, source = trace._origin
    n, q = trace.v_modules.shape
    rows = []
    for m in range(q):
        for k in range(n - 1):
            ks, ms = divmod(int(source[k, m]), q)
            row = (trace.v_modules[k, m], trace.i_pack_a[k])
            if not (ks < n - 1 and row == (nominal.v_modules[ks, ms],
                                           nominal.i_pack_a[ks])):
                rows.append(row)
    return rows


def assert_full_prediction_bytes(model, trace):
    """run_detector of a gathered trace, through its origin's memo, has
    the residual and prediction bytes of a full prediction."""
    want = sentinel.one_step_residuals(model, trace.v_modules, trace.i_pack_a)
    assert run_detector(trace, model, 0.5).r.tobytes() == want[1].tobytes()
    assert sentinel._reuse(model, trace).T.tobytes() == want[0].tobytes()


def counting_predictions(monkeypatch):
    """Rows passed to each predict_batch call of the residual function."""
    rows = []

    def counting(model, x):
        rows.append(len(x))
        return boost.predict_batch(model, x)

    monkeypatch.setattr(sentinel, "predict_batch", counting)
    return rows


def recording_predictions(monkeypatch):
    """The (v, i) rows of each predict_batch call of the residual function."""
    calls = []

    def recording(model, x):
        calls.append([tuple(row) for row in x.tolist()])
        return boost.predict_batch(model, x)

    monkeypatch.setattr(sentinel, "predict_batch", recording)
    return calls


class TestAttackReuse:
    """evaluate_attack takes, for each predictor row of the corrupted
    trace, the memoized prediction of the nominal row that the attack
    gathered it from, when the current equals that row's, and predicts
    only the other rows; the outcome equals a full prediction of the
    corrupted trace bit for bit."""

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1),
           n_trees=st.integers(0, 5), depth=st.integers(0, 4),
           q=st.integers(1, 5), n=st.integers(2, 60))
    @settings(max_examples=150, deadline=None)
    def test_equals_full_prediction_property(self, data, seed, n_trees, depth,
                                             q, n):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_trees, depth)
        trace = random_trace(rng, n, q)
        for _ in range(data.draw(st.integers(1, 4))):
            scenario = draw_scenario(data, n, q)
            if scenario is None:
                return
            epsilon = float(rng.uniform(0.01, 2.0))
            want = full_prediction(model, trace, scenario, epsilon)
            if data.draw(st.booleans()):  # epsilon on one of the residuals
                positive = want[1].r[want[1].r > 0]
                if positive.size:
                    epsilon = float(rng.choice(positive))
                    want = full_prediction(model, trace, scenario, epsilon)
            got = pipeline.evaluate_attack(model, trace, scenario, epsilon)
            assert_same_outcome(got, want)
            assert trace._memo[0] is model

    def scenario(self):
        return AttackScenario("swap_fdi", 10, 30)

    def test_second_model_replaces_memo(self):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, 40, 3)
        first, second = random_model(rng, 5, 3), random_model(rng, 5, 3)
        scenario = self.scenario()
        pipeline.evaluate_attack(first, trace, scenario, 0.5)
        got = pipeline.evaluate_attack(second, trace, scenario, 0.5)
        assert_same_outcome(got, full_prediction(second, trace, scenario, 0.5))
        assert len(trace._memo) == 3 and trace._memo[0] is second

    def test_memo_is_the_model_and_its_predictions(self):
        """The memo is one slot: the model object, the nominal trace's
        immutable (n-1, q) predictions, those of a full prediction, and
        the immutable frame current of each of its n*q voltages, NaN over
        the last frame."""
        rng = np.random.default_rng(8)
        trace = random_trace(rng, 40, 3)
        model = random_model(rng, 5, 3)
        pipeline.evaluate_attack(model, trace, self.scenario(), 0.5)
        held, predicted, current = trace._memo
        assert held is model
        want = sentinel.one_step_residuals(model, trace.v_modules,
                                           trace.i_pack_a)[0]
        assert predicted.shape == (39, 3)
        assert predicted.tobytes() == want.tobytes()
        assert current.shape == (120,)
        assert np.array_equal(current[:117],
                              np.repeat(trace.i_pack_a[:-1], 3))
        assert np.isnan(current[117:]).all()
        for a in (predicted, current):
            with pytest.raises(ValueError):
                a.flags.writeable = True

    def test_trace_without_origin_predicts_every_row(self, monkeypatch):
        """A trace that was not gathered, even one whose rows are all the
        nominal's (a slice with its modules reordered, or the copy of an
        attacked trace), serves no row from a memo and builds none."""
        rng = np.random.default_rng(9)
        model = random_model(rng, 5, 3)
        nominal = random_trace(rng, 41, 3)
        # Frames 5..34 of the nominal trace, modules 3 and 1: no new row.
        inside = make_trace(nominal.v_modules[5:35, ::-2],
                            i=nominal.i_pack_a[5:35])
        copied = apply_scenario(nominal, self.scenario()).copy()
        rows = counting_predictions(monkeypatch)
        for trace in (inside, copied, nominal):
            want = sentinel.one_step_residuals(model, trace.v_modules,
                                               trace.i_pack_a)
            rows.clear()
            det = run_detector(trace, model, 0.5)
            assert rows == [want[0].size]
            assert det.r.tobytes() == want[1].tobytes()
            assert trace._origin is None and trace._memo is None

    def test_window_that_changes_no_row(self, monkeypatch):
        """A swap over frames already in descending order changes nothing:
        no row is predicted again."""
        model = random_model(np.random.default_rng(10), 5, 3)
        v = np.column_stack([np.linspace(1.0, 0.0, 30), np.zeros(30)])
        trace = make_trace(v, i=0.25)
        scenario = AttackScenario("swap_fdi", 5, 30)
        want = full_prediction(model, trace, scenario, 0.5)
        rows = counting_predictions(monkeypatch)
        got = pipeline.evaluate_attack(model, trace, scenario, 0.5)
        assert rows == [29 * 2]  # the nominal trace, into the memo
        assert_same_outcome(got, want)
        rows.clear()
        pipeline.evaluate_attack(model, trace, scenario, 0.5)
        assert rows == []

    def test_calibrate_then_attack_predicts_nominal_once(self, monkeypatch):
        rng = np.random.default_rng(11)
        model = random_model(rng, 5, 3)
        trace = random_trace(rng, 40, 3)
        scenario = AttackScenario("replay", 20, 30, record_start_s=2,
                                  record_end_s=12, target_modules=(2,))
        want = full_prediction(model, trace, scenario, 0.5)
        unserved = len(unserved_rows(want[0]))
        rows = counting_predictions(monkeypatch)
        _, _, preds = pipeline.calibrate_on_trace(model, trace)
        assert rows == [39 * 3]
        assert trace._memo is None
        rows.clear()
        got = pipeline.evaluate_attack(model, trace, scenario, 0.5)
        assert_same_outcome(got, want)
        assert rows == [39 * 3, unserved]
        assert 0 < unserved <= 10
        rows.clear()
        preds[:] = 0.0  # the caller's array, not the memo
        assert_same_outcome(pipeline.evaluate_attack(model, trace, scenario, 0.5),
                            want)
        assert rows == [unserved]

    def test_swap_predicts_nothing_after_memo(self, monkeypatch):
        rng = np.random.default_rng(13)
        model = random_model(rng, 5, 3)
        trace = make_trace(rng.uniform(-1.2, 1.2, (40, 3)),
                           i=rng.uniform(-1.2, 1.2, 40))
        scenario = AttackScenario("swap_fdi", 5, 40)
        want = full_prediction(model, trace, scenario, 0.5)
        pipeline.evaluate_attack(model, trace, scenario, 0.5)
        rows = counting_predictions(monkeypatch)
        got = pipeline.evaluate_attack(model, trace, scenario, 0.5)
        assert rows == []
        assert_same_outcome(got, want)
        assert not np.array_equal(got[0].v_modules, trace.v_modules)

    def test_replay_at_constant_current_predicts_nothing(self, monkeypatch):
        rng = np.random.default_rng(14)
        model = random_model(rng, 5, 3)
        trace = make_trace(rng.uniform(-1.2, 1.2, (40, 3)), i=0.25)
        scenario = AttackScenario("replay", 20, 35, record_start_s=0,
                                  record_end_s=15, target_modules=(1, 3))
        want = full_prediction(model, trace, scenario, 0.5)
        pipeline.evaluate_attack(model, trace, scenario, 0.5)
        rows = counting_predictions(monkeypatch)
        got = pipeline.evaluate_attack(model, trace, scenario, 0.5)
        assert rows == []
        assert_same_outcome(got, want)

    def test_replay_across_currents_predicts_absent_rows(self, monkeypatch):
        """Replayed voltages meet other currents: each such row is new,
        except where the recorded and the live current coincide."""
        rng = np.random.default_rng(15)
        model = random_model(rng, 5, 3)
        i = np.where(np.arange(40) % 4 == 0, 0.5, rng.uniform(-1.2, 1.2, 40))
        trace = make_trace(rng.uniform(-1.2, 1.2, (40, 3)), i=i)
        scenario = AttackScenario("replay", 20, 32, record_start_s=4,
                                  record_end_s=16, target_modules=(2,))
        want = full_prediction(model, trace, scenario, 0.5)
        pipeline.evaluate_attack(model, trace, scenario, 0.5)
        rows = counting_predictions(monkeypatch)
        got = pipeline.evaluate_attack(model, trace, scenario, 0.5)
        assert_same_outcome(got, want)
        # Frames 20, 24 and 28 replay frames 4, 8 and 12 at the same current.
        assert rows == [12 - 3]

    def test_negative_zero_takes_the_prediction_of_zero(self, monkeypatch):
        """A replayed row whose live current is -0.0 is served by its
        source row, recorded at 0.0: it takes that row's prediction and is
        not predicted."""
        rng = np.random.default_rng(16)
        model = random_model(rng, 5, 4)
        k = np.arange(30)
        i = np.where(k % 2, 0.5, np.where(k < 15, 0.0, -0.0))
        nominal = make_trace(rng.choice(GRID, (30, 2)), i=i)
        attacked = apply_scenario(nominal, AttackScenario(
            "replay", 16, 28, record_start_s=2, record_end_s=14,
            target_modules=(1, 2)))
        assert np.signbit(attacked.i_pack_a[16:28:2]).all()
        assert not np.signbit(attacked.i_pack_a[2:14]).any()
        assert unserved_rows(attacked) == []
        run_detector(attacked, model, 0.5)
        rows = counting_predictions(monkeypatch)
        assert_full_prediction_bytes(model, attacked)
        assert rows == [29 * 2]  # the full prediction only

    def test_negative_zero_reuses_through_its_source(self, monkeypatch):
        """A -0.0 voltage that a swap moved, beside the 0.0 it ties with,
        keeps its sign and takes the prediction made from it at its source:
        no row is predicted."""
        rng = np.random.default_rng(17)
        model = random_model(rng, 5, 4)
        v = np.where(rng.random((30, 3)) < 0.5, rng.choice([0.0, -0.0], (30, 3)),
                     rng.choice(GRID, (30, 3)))
        nominal = make_trace(v, i=np.where(np.arange(30) % 2, -0.0, 0.5))
        attacked = apply_scenario(nominal, AttackScenario("swap_fdi", 3, 27))
        source = attacked._origin[1]
        assert (source != np.arange(90).reshape(30, 3)).any()
        moved = np.signbit(nominal.v_modules.ravel().take(source))
        assert moved[3:27].any()
        assert np.array_equal(np.signbit(attacked.v_modules), moved)
        run_detector(attacked, model, 0.5)
        rows = counting_predictions(monkeypatch)
        assert_full_prediction_bytes(model, attacked)
        assert rows == [29 * 3]  # the full prediction only

    @pytest.mark.parametrize("scenario, modules", [
        (AttackScenario("swap_fdi", 10, 30), (1, 2)),
        (AttackScenario("swap_fdi", 25, 40), (1, 2)),  # ends at the last frame
        (AttackScenario("replay", 20, 32, record_start_s=4, record_end_s=16,
                        target_modules=(1, 2)), (1, 2)),
        (AttackScenario("replay", 28, 40, record_start_s=3, record_end_s=15,
                        target_modules=(2,)), (2,)),
    ])
    def test_only_rows_unserved_by_their_source_are_predicted(
            self, monkeypatch, scenario, modules):
        """An attack on frames [k0, kf) moves only entries of those frames
        in the attacked modules, and exactly the predictor rows whose
        source row differs from them are predicted, in one call."""
        rng = np.random.default_rng(17)
        model = random_model(rng, 5, 3)
        # Ascending module voltages, so a swap reverses every window frame,
        # and currents that differ from frame to frame, so that a replayed
        # row meets another current.
        trace = make_trace(np.sort(rng.uniform(-1.2, 1.2, (40, 2)), axis=1),
                           i=rng.uniform(-1.2, 1.2, 40))
        want = full_prediction(model, trace, scenario, 0.5)
        corrupted = apply_scenario(trace, scenario)
        source = corrupted._origin[1]
        k0, kf = scenario.k0_s, scenario.kf_s
        moved = np.argwhere(source != np.arange(80).reshape(40, 2))
        assert sorted(map(tuple, moved.tolist())) == [
            (k, m - 1) for k in range(k0, kf) for m in modules]
        pipeline.evaluate_attack(model, trace, scenario, 0.5)
        calls = recording_predictions(monkeypatch)
        got = pipeline.evaluate_attack(model, trace, scenario, 0.5)
        assert_same_outcome(got, want)
        unserved = unserved_rows(corrupted)
        if scenario.kind == "swap_fdi":
            assert unserved == []
        else:
            assert len(unserved) == len(modules) * (min(kf, 39) - k0)
        assert calls == ([unserved] if unserved else [])

    @given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4),
           n=st.integers(2, 40), p_v=st.floats(0.0, 1.0),
           p_i=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_same_shape_equals_full_prediction_property(self, seed, q, n,
                                                        p_v, p_i):
        """A trace gathered through any source map, whatever rows it points
        at, the last frame's included, from a nominal trace whose currents
        repeat and hold signed zeros, gets the full prediction's bytes and
        predicts exactly the rows that its source does not serve."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, 4, 3)
        nominal = random_trace(rng, n, q)
        i = np.where(rng.random(n) < p_i, rng.choice([0.0, -0.0, 0.5], n),
                     nominal.i_pack_a)
        nominal = replace(nominal, i_pack_a=i)
        source = np.where(rng.random((n, q)) < p_v,
                          rng.integers(0, n * q, (n, q)),
                          np.arange(n * q).reshape(n, q))
        trace = gather(nominal, source, np.zeros(n, int))
        assert_full_prediction_bytes(model, trace)
        unserved = unserved_rows(trace)
        with pytest.MonkeyPatch.context() as patch:
            calls = recording_predictions(patch)
            sentinel._reuse(model, trace)
        assert calls == ([unserved] if unserved else [])

    def test_changed_current_is_predicted(self, monkeypatch):
        """Rows gathered from a frame of another current are not served by
        their source row, although their voltages are its own: they are
        predicted."""
        rng = np.random.default_rng(19)
        model = random_model(rng, 5, 3)
        i = rng.uniform(-1.2, 1.2, 20)
        i[[4, 9]] = i[[9, 4]] + 1.5
        nominal = make_trace(rng.uniform(-1.2, 1.2, (20, 3)), i=i)
        source = np.arange(60).reshape(20, 3)
        source[[4, 9]] = source[[9, 4]]
        trace = gather(nominal, source, np.zeros(20, int))
        run_detector(trace, model, 0.5)
        calls = recording_predictions(monkeypatch)
        assert_full_prediction_bytes(model, trace)
        assert calls[1:] == [unserved_rows(trace)] * 2
        assert len(calls[1]) == 2 * 3

    def test_source_in_the_last_frame_is_predicted(self, monkeypatch):
        """The last nominal frame feeds no prediction, so a row gathered
        from it is predicted even though both its values equal that
        frame's."""
        rng = np.random.default_rng(22)
        model = random_model(rng, 5, 3)
        nominal = make_trace(rng.uniform(-1.2, 1.2, (10, 2)), i=0.25)
        source = np.arange(20).reshape(10, 2)
        source[3, 0] = 9 * 2 + 1
        trace = gather(nominal, source, np.zeros(10, int))
        run_detector(trace, model, 0.5)
        calls = recording_predictions(monkeypatch)
        assert_full_prediction_bytes(model, trace)
        assert calls[1:] == [[(nominal.v_modules[9, 1], 0.25)]] * 2

    def test_trace_equal_to_nominal_looks_nothing_up(self, monkeypatch):
        """An attack that moves nothing (a zero-length window) takes every
        row from the memo; its copy, equal but with no origin, is
        predicted in full and gets no memo."""
        rng = np.random.default_rng(18)
        model = random_model(rng, 5, 3)
        trace = random_trace(rng, 40, 3)
        equal = apply_scenario(trace, AttackScenario("swap_fdi", 10, 10))
        assert same_trace(equal, replace(trace, attack_mask=np.zeros(40, int)))
        want = sentinel.one_step_residuals(model, trace.v_modules,
                                           trace.i_pack_a)
        run_detector(equal, model, 0.5)
        rows = counting_predictions(monkeypatch)
        assert run_detector(equal, model, 0.5).r.tobytes() == want[1].tobytes()
        assert rows == []
        copied = equal.copy()
        assert run_detector(copied, model, 0.5).r.tobytes() == want[1].tobytes()
        assert rows == [39 * 3]
        assert copied._memo is None and equal._memo is None

    def test_copy_does_not_carry_memo(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, 5, 3)
        trace = random_trace(rng, 20, 2)
        attacked = pipeline.evaluate_attack(
            model, trace, AttackScenario("swap_fdi", 5, 15), 0.5)[0]
        assert trace._memo[0] is model and trace.copy()._memo is None
        assert attacked._origin[0] is trace and attacked.copy()._origin is None


def assert_same_arrays(got, want):
    """Equal bytes, dtype and shape, and neither array can be written."""
    assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
    assert got.shape == want.shape
    assert not got.flags.writeable and not want.flags.writeable


class TestAttackPathBuildsFromCheckedValues:
    """apply_scenario and run_detector build the attacked trace and its
    detection trace without the checks of the TelemetryTrace and
    DetectionTrace constructors, since validate_for and _residuals have
    checked what they start from.  What those checks would test holds by
    construction, and the values equal those the checked paths build."""

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1),
           q=st.integers(2, 5), n=st.integers(2, 60),
           half_second=st.booleans(), i_modules=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_checked_build_property(self, data, seed, q, n,
                                           half_second, i_modules):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 4, 3)
        trace = random_trace(rng, n, q)
        if half_second:  # window bounds fall between the frame times
            trace = replace(trace, t_s=trace.t_s + 0.5)
        if i_modules:
            trace = replace(trace, i_modules=rng.uniform(0.0, 25.0, (n, q)))
        scenario = draw_scenario(data, n, q)
        if scenario is None:
            return
        try:
            scenario.validate_for(trace)
        except ValueError:
            return
        got = apply_scenario(trace, scenario)

        origin, source = got._origin
        assert origin is trace
        assert source.dtype.kind in "iu" and source.shape == (n, q)
        assert 0 <= source.min() and source.max() < n * q
        window = (scenario.k0_s <= trace.t_s) & (trace.t_s < scenario.kf_s)
        assert got.attack_mask.tolist() == window.astype(int).tolist()

        checked = simkit.TelemetryTrace(
            trace.t_s, trace.i_pack_a,
            v_modules=trace.v_modules.ravel().take(source),
            i_modules=trace.i_modules, attack_mask=window.astype(int),
            name=got.name)
        for name in ("t_s", "i_pack_a", "v_modules", "attack_mask"):
            assert_same_arrays(getattr(got, name), getattr(checked, name))
        assert got.i_modules is trace.i_modules
        assert not source.flags.writeable
        assert same_trace(got, checked)

        epsilon = float(rng.uniform(0.01, 2.0))
        r = sentinel.one_step_residuals(model, checked.v_modules,
                                        checked.i_pack_a)[1]
        if data.draw(st.booleans()) and (r > 0).any():
            epsilon = float(rng.choice(r[r > 0]))  # epsilon on a residual
        det = run_detector(got, model, epsilon)
        want = DetectionTrace(checked.t_s[1:], r, epsilon)
        for name in ("t_s", "r", "crossed", "flag"):
            assert_same_arrays(getattr(det, name), getattr(want, name))
        assert det.epsilon == want.epsilon and det.events == want.events
        for view in (det.t_s, det.t_s[1:]):
            with pytest.raises(ValueError):
                view.flags.writeable = True
