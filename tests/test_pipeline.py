import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_config, make_trace, write_sim_config
from test_boost import GRID, random_tree
from voltsentry import boost, cli, configio, datasets, pipeline, sentinel, simkit
from voltsentry.boost import Ensemble, Segment
from voltsentry.cli import check_model_trace_compat
from voltsentry.datasets import SplitSpec
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
        split = SplitSpec.default_for(config.q)
        train, val, test = pipeline.build_pack_sets(
            traces["train"], traces["test"], split, norm_for_pack(config))
        train_traces = {src[0] for src in train.sources}
        assert train_traces == {"pack1_c080", "pack1_c120"}
        assert {src[0] for src in val.sources} == {"pack1_c080"}
        assert {src[0] for src in test.sources} == {"pack1_c100"}
        assert (len(train), len(val), len(test)) == (1800, 900, 900)

    def test_traces_written_and_reloaded(self, tmp_path):
        config = simkit.PackConfig(
            name="tiny", parallel_modules=3, branches_per_module=1,
            series_cells=2, capacity_ah=15.0, v_max_pack=8.5,
            heterogeneity_sigma=0.0, rng_seed=0)
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
    flags = np.asarray(flags, dtype=int)
    t = np.arange(t0, t0 + len(flags))
    r = np.where(np.diff(np.concatenate([[0], flags])) != 0, 5.0, 0.1)
    events = tuple((float(t[k]), 5.0)
                   for k in np.flatnonzero(np.diff(np.concatenate([[0], flags]))))
    return DetectionTrace(t_s=t, r=r, flag=flags, epsilon=2.0, events=events)


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


class TestReports:
    def test_deterministic_serialization(self, tmp_path):
        report = RunReport(command="x", seed=1, inputs={"b": 2, "a": 1})
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(p1, report)
        write_report(p2, RunReport(command="x", seed=1, inputs={"a": 1, "b": 2}))
        assert p1.read_bytes() == p2.read_bytes()


class TestModelTraceGuard:
    @staticmethod
    def model(thresholds, norm):
        """Voltage stumps at the given per-cell thresholds."""
        trees = tuple(boost.Tree([0, -1, -1], [t, 0.0, 0.0], [1, -1, -1],
                                 [2, -1, -1], [0.0, -0.1, 0.1])
                      for t in thresholds)
        return boost.Ensemble(base_score=3.7, norm=norm,
                              segments=(Segment("base", 0.1, trees),))

    def test_pack_model_on_cell_trace_rejected(self):
        ens = self.model((3.6, 3.9), boost.NormSpec(v_scale=100.0, i_scale=20.0))
        with pytest.raises(ValueError, match="mismatch"):
            check_model_trace_compat(ens, make_trace([3.7, 3.8]))

    def test_matching_scales_accepted(self):
        ens = self.model((3.6, 3.9), boost.NormSpec(v_scale=100.0, i_scale=20.0))
        check_model_trace_compat(ens, make_trace([[370.0], [380.0]]))

    def test_span_widened_by_tolerance(self):
        tol = cli.DOMAIN_TOLERANCE_V
        ens = self.model((3.6, 3.9), boost.NormSpec())
        check_model_trace_compat(ens, make_trace([3.6 - 0.9 * tol, 3.9 + 0.9 * tol]))
        for v in (3.6 - 1.1 * tol, 3.9 + 1.1 * tol):
            with pytest.raises(ValueError, match="domain"):
                check_model_trace_compat(ens, make_trace([3.7, v]))

    def test_current_thresholds_ignored(self):
        stump = boost.Tree([1, -1, -1], [50.0, 0.0, 0.0], [1, -1, -1],
                           [2, -1, -1], [0.0, -0.1, 0.1])
        ens = boost.Ensemble(3.7, (Segment("base", 0.1, (stump,)),))
        check_model_trace_compat(ens, make_trace([3.7, 380.0]))

    def test_canonical_and_phased_charges_accepted(self, pack1_bundle):
        model = pack1_bundle["model"]
        check_model_trace_compat(model, pack1_bundle["traces"]["test"])
        phased = simkit.run_cccv_pack(
            pack1_bundle["config"], simkit.default_cell(),
            simkit.CccvPolicy(c_rate=1.0, taper_cutoff_c=0.3,
                              duration_s=pipeline.PACK_TRACE_DURATION_S), 0.8)
        assert phased.v_modules.max() / 100.0 > 4.2149
        check_model_trace_compat(model, phased)

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
    """evaluate_attack without the nominal trace's predictions."""
    corrupted, mask, _ = apply_scenario(trace, scenario)
    det = run_detector(corrupted, model, epsilon)
    return corrupted, det, score_detection(det, mask)


def assert_same_outcome(got, want):
    (c1, d1, m1), (c2, d2, m2) = got, want
    assert c1 == c2
    assert d1.r.tobytes() == d2.r.tobytes()
    assert d1.flag.tobytes() == d2.flag.tobytes()
    assert d1.events == d2.events
    assert m1 == m2


def unserved_rows(trace, nominal, source=None):
    """The predictor rows (v_m(k), i(k)) of ``trace`` that the nominal row
    at their source does not serve, module-major: the source row (by flat
    index into the nominal voltages; (k, m) itself without a source) is in
    the last frame or differs in voltage or current.  A loop over the
    source rule, for the tests."""
    n, q = trace.v_modules.shape
    rows = []
    for m in range(q):
        for k in range(n - 1):
            ks, ms = divmod(k * q + m if source is None else int(source[k, m]), q)
            row = (trace.v_modules[k, m], trace.i_pack_a[k])
            if not (ks < n - 1 and row == (nominal.v_modules[ks, ms],
                                           nominal.i_pack_a[ks])):
                rows.append(row)
    return rows


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
    trace, the nominal trace's memoized prediction of the row that the
    attack's source map copied it from, when both values equal that row's,
    and predicts only the other rows; the outcome equals a full prediction
    of the corrupted trace bit for bit."""

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
        assert len(trace._memo) == 2 and trace._memo[0] is second

    def test_memo_is_the_model_and_its_predictions(self):
        """The memo is one slot: the model object and the nominal trace's
        read-only (n-1, q) predictions, those of a full prediction."""
        rng = np.random.default_rng(8)
        trace = random_trace(rng, 40, 3)
        model = random_model(rng, 5, 3)
        pipeline.evaluate_attack(model, trace, self.scenario(), 0.5)
        held, predicted = trace._memo
        assert held is model
        want = sentinel.one_step_residuals(model, trace.v_modules,
                                           trace.i_pack_a)[0]
        assert predicted.shape == (39, 3)
        assert predicted.tobytes() == want.tobytes()
        assert not predicted.flags.writeable

    def test_nominal_of_another_shape_predicts_every_row(self, monkeypatch):
        """A nominal trace of another shape serves no row, even one whose
        rows are all the nominal's, and gets no memo."""
        rng = np.random.default_rng(9)
        model = random_model(rng, 5, 3)
        other = random_trace(rng, 41, 3)
        # Frames 5..34 of the nominal trace, modules 3 and 1: no new row.
        inside = make_trace(other.v_modules[5:35, ::-2], i=other.i_pack_a[5:35])
        want = run_detector(inside, model, 0.5)
        rows = counting_predictions(monkeypatch)
        det = run_detector(inside, model, 0.5, nominal=other)
        assert rows == [29 * 2]
        assert det.r.tobytes() == want.r.tobytes()
        assert other._memo is None
        rows.clear()
        one_frame = make_trace(other.v_modules[:1], i=other.i_pack_a[:1])
        det = run_detector(inside, model, 0.5, nominal=one_frame)
        assert rows == [29 * 2]
        assert det.r.tobytes() == want.r.tobytes()

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
        source = apply_scenario(trace, scenario)[2]
        unserved = len(unserved_rows(want[0], trace, source))
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

    @staticmethod
    def residuals_of_signed_zeros(monkeypatch, swap):
        """Residuals of a 30-frame trace whose zeros are -0.0 against a
        nominal trace with 0.0, at their position or, with ``swap``, through
        the source map of a swap of frames 3..26: checks their bytes and
        returns the predicted row count."""
        rng = np.random.default_rng(16)
        model = random_model(rng, 5, 4)
        v = np.where(rng.random((30, 2)) < 0.5, 0.0, rng.choice(GRID, (30, 2)))
        nominal = make_trace(v, i=np.where(np.arange(30) % 2, 0.0, 0.5))
        source = None
        if swap:
            attacked, _, source = apply_scenario(
                nominal, AttackScenario("swap_fdi", 3, 27))
            assert (source != np.arange(60).reshape(30, 2)).any()
            v = attacked.v_modules
        flipped = make_trace(np.where(v == 0.0, -0.0, v),
                             i=np.where(np.arange(30) % 2, -0.0, 0.5))
        assert np.signbit(flipped.v_modules[:-1]).any()
        assert np.signbit(flipped.i_pack_a[:-1]).any()
        want = sentinel.one_step_residuals(model, flipped.v_modules,
                                           flipped.i_pack_a)
        sentinel.one_step_residuals(model, nominal.v_modules, nominal.i_pack_a,
                                    nominal)
        rows = counting_predictions(monkeypatch)
        got = sentinel.one_step_residuals(model, flipped.v_modules,
                                          flipped.i_pack_a, nominal, source)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        return sum(rows)

    def test_negative_zero_takes_the_prediction_of_zero(self, monkeypatch):
        """A -0.0 at its position equals the nominal 0.0: it takes the
        positional prediction and is not predicted."""
        assert self.residuals_of_signed_zeros(monkeypatch, swap=False) == 0

    def test_negative_zero_reuses_through_its_source(self, monkeypatch):
        """A -0.0 that a swap moved equals the nominal 0.0 at its source:
        it takes that row's prediction and is not predicted."""
        assert self.residuals_of_signed_zeros(monkeypatch, swap=True) == 0

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
        corrupted, _, source = apply_scenario(trace, scenario)
        k0, kf = scenario.k0_s, scenario.kf_s
        moved = np.argwhere(source != np.arange(80).reshape(40, 2))
        assert sorted(map(tuple, moved.tolist())) == [
            (k, m - 1) for k in range(k0, kf) for m in modules]
        pipeline.evaluate_attack(model, trace, scenario, 0.5)
        calls = recording_predictions(monkeypatch)
        got = pipeline.evaluate_attack(model, trace, scenario, 0.5)
        assert_same_outcome(got, want)
        unserved = unserved_rows(corrupted, trace, source)
        if scenario.kind == "swap_fdi":
            assert unserved == []
        else:
            assert len(unserved) == len(modules) * (min(kf, 39) - k0)
        assert calls == ([unserved] if unserved else [])

    @given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4),
           n=st.integers(2, 40), p_v=st.floats(0.0, 1.0),
           p_i=st.floats(0.0, 1.0), with_source=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_same_shape_equals_full_prediction_property(self, seed, q, n,
                                                        p_v, p_i,
                                                        with_source):
        """A trace of the nominal's shape whose voltages and currents are
        changed anywhere, to values of other nominal rows, new values or
        signed zeros, gets the full prediction's bytes, with no source or
        with any source map, whatever rows it points at."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, 4, 3)
        nominal = random_trace(rng, n, q)
        fresh = random_trace(rng, n, q)
        source = None
        if with_source:
            source = np.where(rng.random((n, q)) < p_v,
                              rng.integers(0, n * q, (n, q)),
                              np.arange(n * q).reshape(n, q))
        v = np.where(rng.random((n, q)) < p_v,
                     rng.permutation(nominal.v_modules.ravel()).reshape(n, q),
                     nominal.v_modules)
        if with_source:
            v = np.where(rng.random((n, q)) < 0.5,
                         nominal.v_modules.ravel().take(source), v)
        v = np.where(rng.random((n, q)) < p_v / 2, fresh.v_modules, v)
        i = np.where(rng.random(n) < p_i, rng.permutation(nominal.i_pack_a),
                     nominal.i_pack_a)
        i = np.where(rng.random(n) < p_i / 2, fresh.i_pack_a, i)
        i = np.where(i == 0.0, -0.0, i)
        want = sentinel.one_step_residuals(model, v, i)
        got = sentinel.one_step_residuals(model, v, i, nominal, source)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_without_source_reuse_is_by_position(self, monkeypatch):
        """Without a source map, a row takes only the prediction of the
        nominal row at its own position: permuted voltages that the
        nominal trace holds elsewhere are predicted."""
        rng = np.random.default_rng(20)
        model = random_model(rng, 5, 3)
        nominal = make_trace(np.sort(rng.uniform(-1.2, 1.2, (20, 3)), axis=1),
                             i=rng.uniform(-1.2, 1.2, 20))
        v = nominal.v_modules.copy()
        v[5:9] = v[5:9, ::-1]  # module 2 stays in place
        want = sentinel.one_step_residuals(model, v, nominal.i_pack_a)
        sentinel.one_step_residuals(model, nominal.v_modules,
                                    nominal.i_pack_a, nominal)
        calls = recording_predictions(monkeypatch)
        got = sentinel.one_step_residuals(model, v, nominal.i_pack_a, nominal)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        trace = make_trace(v, i=nominal.i_pack_a)
        assert calls == [unserved_rows(trace, nominal)]
        assert len(calls[0]) == 4 * 2

    def test_changed_current_is_predicted(self, monkeypatch):
        """Rows whose voltage is unchanged but whose current moved are not
        served by the nominal row at their position: they are predicted."""
        rng = np.random.default_rng(19)
        model = random_model(rng, 5, 3)
        nominal = random_trace(rng, 20, 3)
        i = nominal.i_pack_a.copy()
        i[[4, 9]] = i[[9, 4]] + 1.5
        want = sentinel.one_step_residuals(model, nominal.v_modules, i)
        sentinel.one_step_residuals(model, nominal.v_modules,
                                    nominal.i_pack_a, nominal)
        rows = counting_predictions(monkeypatch)
        got = sentinel.one_step_residuals(model, nominal.v_modules, i, nominal)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert rows == [2 * 3]

    def test_source_in_the_last_frame_is_predicted(self, monkeypatch):
        """The last nominal frame feeds no prediction, so a row copied from
        it is predicted even though both its values equal that frame's."""
        rng = np.random.default_rng(22)
        model = random_model(rng, 5, 3)
        nominal = make_trace(rng.uniform(-1.2, 1.2, (10, 2)),
                             i=rng.uniform(-1.2, 1.2, 10))
        v, i = nominal.v_modules.copy(), nominal.i_pack_a.copy()
        source = np.arange(20).reshape(10, 2)
        v[3, 0], i[3], source[3, 0] = v[9, 1], i[9], 9 * 2 + 1
        want = sentinel.one_step_residuals(model, v, i)
        sentinel.one_step_residuals(model, nominal.v_modules,
                                    nominal.i_pack_a, nominal)
        calls = recording_predictions(monkeypatch)
        got = sentinel.one_step_residuals(model, v, i, nominal, source)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        # Module 2 of frame 3 meets the new current at its own position.
        assert calls == [[(v[3, 0], i[3]), (v[3, 1], i[3])]]

    @pytest.mark.parametrize("source, match", [
        (np.zeros((20, 2), dtype=float), "integer"),
        (np.zeros((19, 2), dtype=int), "shape"),
        (np.full((20, 2), -1), "index"),
        (np.full((20, 2), 40), "index"),
    ])
    def test_bad_source_rejected(self, source, match):
        rng = np.random.default_rng(21)
        model = random_model(rng, 5, 3)
        nominal = random_trace(rng, 20, 2)
        with pytest.raises(ValueError, match=match):
            sentinel.one_step_residuals(model, nominal.v_modules,
                                        nominal.i_pack_a, nominal, source)

    def test_trace_equal_to_nominal_looks_nothing_up(self, monkeypatch):
        rng = np.random.default_rng(18)
        model = random_model(rng, 5, 3)
        trace = random_trace(rng, 40, 3)
        want = sentinel.one_step_residuals(model, trace.v_modules,
                                           trace.i_pack_a)
        sentinel.one_step_residuals(model, trace.v_modules, trace.i_pack_a,
                                    trace)
        rows = counting_predictions(monkeypatch)
        equal = trace.copy()
        for checked in (trace, equal):
            got = sentinel.one_step_residuals(model, checked.v_modules,
                                              checked.i_pack_a, trace)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        assert rows == []
        assert equal._memo is None

    def test_copy_does_not_carry_memo(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, 5, 3)
        trace = random_trace(rng, 20, 2)
        pipeline.evaluate_attack(model, trace, AttackScenario("swap_fdi", 5, 15), 0.5)
        assert trace._memo[0] is model and trace.copy()._memo is None
