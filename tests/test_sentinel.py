import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace
from test_boost import GRID, random_tree
from voltsentry import boost, pipeline, sentinel
from voltsentry.boost import Ensemble, NormSpec, Segment, Tree, TrainConfig, train
from voltsentry.datasets import build_supervised
from voltsentry.sentinel import (DetectorState, apply_toggle,
                                 calibrate_threshold, one_step_residuals,
                                 run_detector, step_detector)
from voltsentry.simkit import TelemetryFrame


def constant_model(v, v_scale=1.0):
    """Predicts v for every module whatever the inputs."""
    return Ensemble(v / v_scale, (), NormSpec(v_scale=v_scale))


def offset_model():
    """Predicts v(k-1) + 0.2 below 351 V and v(k-1) + 0.4 from there."""
    stump = Tree([0, -1, -1], [351.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                 [0.0, 0.2, 0.4])
    return Ensemble(350.0, (Segment("base", 1.0, (stump,)),))


class TestResidual:
    def test_zero_when_prediction_matches(self):
        v = [[3.75, 3.75], [3.75, 3.75]]
        predicted, r = one_step_residuals(constant_model(3.75), v, [5.0, 5.0])
        assert np.array_equal(predicted, [[3.75, 3.75]])
        assert np.array_equal(r, [0.0])

    def test_definition(self):
        v = [[399.0, 399.0], [400.0, 401.0]]
        predicted, r = one_step_residuals(constant_model(400.0, 100.0), v,
                                          [5.0, 5.0])
        assert np.array_equal(predicted, [[400.0, 400.0]])
        assert np.array_equal(r, [1.0])

    def test_permutation_invariant(self):
        v = np.array([[350.0, 351.0, 352.0], [350.3, 351.2, 352.5],
                      [350.1, 351.7, 352.2]])
        perm = [2, 0, 1]
        model = offset_model()
        predicted, r = one_step_residuals(model, v, [1.0, 1.0, 1.0])
        predicted_p, r_p = one_step_residuals(model, v[:, perm], [1.0, 1.0, 1.0])
        assert np.array_equal(predicted_p, predicted[:, perm])
        assert np.array_equal(r_p, r)

    def test_calibration_predicts_trace_once(self, monkeypatch):
        rows = []

        def counting(model, x):
            rows.append(len(x))
            return boost.predict_batch(model, x)

        monkeypatch.setattr(sentinel, "predict_batch", counting)
        trace = make_trace([[350.0, 351.0], [350.3, 351.2], [350.1, 351.7]],
                           i=1.0)
        epsilon, det, preds = pipeline.calibrate_on_trace(offset_model(), trace)
        assert rows == [4]
        assert preds.shape == (2, 2)
        assert epsilon == 4.0 / 3.0 * float(np.max(det.r))


class TestCalibration:
    def test_paper_rule_exact(self):
        residuals = [0.2, 1.5, 0.9]
        assert calibrate_threshold(residuals) == 2.0

    def test_margin_one_returns_observed_max(self):
        assert calibrate_threshold([0.4, 0.7], margin=1.0) == 0.7

    def test_degenerate_all_zero(self):
        with pytest.raises(ValueError, match="degenerate"):
            calibrate_threshold([0.0, 0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_threshold([])


def toggle_loop(residuals, epsilon):
    """The sequential set/reset loop that apply_toggle replaced (its oracle)."""
    flags = np.empty(len(residuals), dtype=int)
    flag = 0
    for k, r in enumerate(residuals):
        if r >= epsilon:
            flag = 1 - flag
        flags[k] = flag
    return flags


class TestToggle:
    def test_worked_sequence(self):
        flags = apply_toggle([0.5, 3.0, 0.1, 2.5, 0.2], epsilon=2.0)
        assert list(flags) == [0, 1, 1, 0, 0]

    @given(rs=st.lists(st.floats(0, 5), min_size=1, max_size=60),
           eps=st.floats(0.5, 4.5))
    @settings(max_examples=80, deadline=None)
    def test_flag_flips_iff_crossing(self, rs, eps):
        flags = apply_toggle(rs, eps)
        prev = 0
        for r, f in zip(rs, flags):
            if r >= eps:
                assert f == 1 - prev
            else:
                assert f == prev
            prev = f

    @given(rs=st.lists(st.tuples(st.floats(0, 5), st.booleans()), max_size=60),
           eps=st.floats(0.5, 4.5))
    @settings(max_examples=150, deadline=None)
    def test_equals_sequential_loop(self, rs, eps):
        # Half of the residuals sit exactly on epsilon.
        residuals = [eps if tie else r for r, tie in rs]
        new, old = apply_toggle(residuals, eps), toggle_loop(residuals, eps)
        assert new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            apply_toggle([1.0], 0.0)


def ramp_model_and_trace(attack_delta=0.0, k0=30, kf=60, n=100):
    """Tiny trained one-step model of a linear ramp plus optional offset.

    The offset keeps corrupted values inside the model's training range, as
    real swap or replay values would be, so the predictor tracks them
    between the two boundary crossings.
    """
    v = 100.0 + 0.01 * np.arange(n)
    nominal = make_trace(v, i=0.0)
    ds = build_supervised(nominal, 1)
    model = train(ds, None, TrainConfig(n_trees=60, max_depth=3,
                                        learning_rate=0.3))
    corrupted = v.copy()
    corrupted[k0:kf] += attack_delta
    return model, make_trace(corrupted, i=0.0), nominal


class TestStepDetector:
    def test_streaming_equals_batch_bitwise(self):
        model, trace, _ = ramp_model_and_trace(attack_delta=0.3)
        det = run_detector(trace, model, epsilon=0.1)
        state = DetectorState.initial(0.1, trace.frame(0))
        rs, flags = [], []
        for k in range(1, trace.n_frames):
            state, r, flag = step_detector(state, trace.frame(k), model)
            rs.append(r)
            flags.append(flag)
        assert np.array_equal(np.array(rs), det.r)
        assert np.array_equal(np.array(flags), det.flag)
        assert tuple(state.events) == det.events

    @given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(0, 5),
           depth=st.integers(0, 4), q=st.integers(1, 5), n=st.integers(2, 60),
           tie=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_streaming_equals_batch_property(self, seed, n_trees, depth, q, n,
                                             tie):
        """Random small ensembles on random traces: step_detector's
        residuals, flags and events equal run_detector's bit for bit, with
        epsilon set on one of the residuals in half of the draws."""
        rng = np.random.default_rng(seed)
        trees = tuple(random_tree(rng, depth) for _ in range(n_trees))
        model = Ensemble(float(rng.normal()),
                         (Segment("base", float(rng.uniform(0.01, 1.0)), trees),))
        # Mostly threshold values, so many residuals repeat exactly.
        v = np.where(rng.random((n, q)) < 0.7, rng.choice(GRID, (n, q)),
                     rng.uniform(-1.2, 1.2, (n, q)))
        trace = make_trace(v, i=rng.choice(GRID, n))
        _, r = one_step_residuals(model, trace.v_modules, trace.i_pack_a)
        positive = r[r > 0]
        epsilon = (float(rng.choice(positive)) if tie and positive.size
                   else float(rng.uniform(0.01, 2.0)))
        det = run_detector(trace, model, epsilon)
        state = DetectorState.initial(epsilon, trace.frame(0))
        rs, flags = [], []
        for k in range(1, n):
            state, r_k, flag = step_detector(state, trace.frame(k), model)
            rs.append(r_k)
            flags.append(flag)
        assert np.array(rs).tobytes() == det.r.tobytes()
        assert np.array_equal(np.array(flags), det.flag)
        assert state.events == det.events
        assert det.flag.tobytes() == toggle_loop(det.r, epsilon).tobytes()

    def test_step_change_crossings_at_onset_and_withdrawal(self):
        model, trace, _ = ramp_model_and_trace(attack_delta=0.3, k0=30, kf=60)
        det = run_detector(trace, model, epsilon=0.1)
        above = det.t_s[det.r >= 0.1]
        assert list(above) == [30.0, 60.0]
        assert np.all(det.flag[(det.t_s >= 30) & (det.t_s < 60)] == 1)
        assert np.all(det.flag[det.t_s >= 60] == 0)

    def test_nominal_run_never_flags(self):
        model, _, nominal = ramp_model_and_trace()
        det = run_detector(nominal, model, epsilon=1.0)
        assert det.crossings == 0
        assert np.all(det.flag == 0)

    def test_causality(self):
        model, trace, _ = ramp_model_and_trace(attack_delta=0.3)
        det_full = run_detector(trace, model, epsilon=0.1)
        half = make_trace(trace.v_modules[:50, 0], i=0.0)
        det_half = run_detector(half, model, epsilon=0.1)
        assert np.array_equal(det_half.r, det_full.r[:49])
        assert np.array_equal(det_half.flag, det_full.flag[:49])

    def test_uninitialized_state_rejected(self):
        model, trace, _ = ramp_model_and_trace()
        state = DetectorState(epsilon=1.0)
        with pytest.raises(ValueError):
            step_detector(state, trace.frame(1), model)

    def test_module_count_change_rejected(self):
        model, trace, _ = ramp_model_and_trace()
        state = DetectorState.initial(1.0, trace.frame(0))
        with pytest.raises(ValueError):
            step_detector(state, TelemetryFrame(1.0, 0.0, (100.0, 101.0)), model)

    @pytest.mark.parametrize("dt", [2.0, 0.0, -1.0],
                             ids=["gap", "duplicate", "reversal"])
    def test_cadence_break_rejected_stream_continues(self, dt):
        model, trace, _ = ramp_model_and_trace(attack_delta=0.3)
        det = run_detector(trace, model, epsilon=0.1)
        state, _, _ = step_detector(DetectorState.initial(0.1, trace.frame(0)),
                                    trace.frame(1), model)
        good = trace.frame(2)
        bad = TelemetryFrame(trace.frame(1).t_s + dt, good.i_pack_a,
                             good.v_modules)
        with pytest.raises(ValueError, match="by 1 s"):
            step_detector(state, bad, model)
        state, r, flag = step_detector(state, good, model)
        assert (r, flag) == (det.r[1], det.flag[1])

    def test_events_record_crossing_residuals(self):
        model, trace, _ = ramp_model_and_trace(attack_delta=0.3)
        det = run_detector(trace, model, epsilon=0.1)
        assert len(det.events) == 2
        for t, r in det.events:
            assert r >= 0.1
        assert det.events[0][0] == 30.0
        assert det.events[1][0] == 60.0


class TestNonFiniteInput:
    """A non-finite frame or trace is rejected where it is built, before
    the detector can turn it into a NaN residual that never flags."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["voltage", "current"])
    def test_step_detector_input_rejected_stream_continues(self, bad, field):
        model, trace, _ = ramp_model_and_trace(attack_delta=0.3)
        det = run_detector(trace, model, epsilon=0.1)
        state = DetectorState.initial(0.1, trace.frame(0))
        good = trace.frame(1)
        with pytest.raises(ValueError, match="finite"):
            v = (bad,) if field == "voltage" else good.v_modules
            i = bad if field == "current" else good.i_pack_a
            step_detector(state, TelemetryFrame(good.t_s, i, v), model)
        state, r, flag = step_detector(state, good, model)
        assert (r, flag) == (det.r[0], det.flag[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_detector_input_rejected(self, bad):
        model, trace, _ = ramp_model_and_trace(attack_delta=0.3)
        v = trace.v_modules[:, 0].copy()
        v[-1] = bad  # the last frame is never a predictor input
        with pytest.raises(ValueError, match="finite"):
            run_detector(make_trace(v, i=0.0), model, epsilon=0.1)
        i = np.zeros(trace.n_frames)
        i[5] = bad
        with pytest.raises(ValueError, match="finite"):
            run_detector(make_trace(trace.v_modules[:, 0], i=i), model,
                         epsilon=0.1)


def refused_write(array, index, value):
    """A write into a trace array after construction is refused, and the
    array cannot be made writable; returns a writable copy holding
    ``value`` at ``index``, a raw array for one_step_residuals."""
    with pytest.raises(ValueError, match="read-only"):
        array[index] = value
    with pytest.raises(ValueError):
        array.flags.writeable = True
    raw = array.copy()
    raw[index] = value
    return raw


class TestNonFiniteResidual:
    """A non-finite residual raises in the one residual function, so stream,
    batch and calibration never read it as "no crossing".  No trace can
    come to hold a non-finite value (simkit.TelemetryTrace), but raw arrays
    given to one_step_residuals can, and a prediction can overflow."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_detector_array_written_after_construction(self, bad):
        model, trace, _ = ramp_model_and_trace(attack_delta=0.3)
        want = run_detector(trace, model, epsilon=0.1).r.tobytes()
        v = refused_write(trace.v_modules, (-1, 0), bad)
        assert run_detector(trace, model, epsilon=0.1).r.tobytes() == want
        with pytest.raises(ValueError, match="finite"):
            one_step_residuals(model, v, trace.i_pack_a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_calibrate_array_written_after_construction(self, bad):
        model, _, nominal = ramp_model_and_trace()
        want = pipeline.calibrate_on_trace(model, nominal)[0]
        v = refused_write(nominal.v_modules, (0, 0), bad)
        assert pipeline.calibrate_on_trace(model, nominal)[0] == want
        with pytest.raises(ValueError, match="finite"):
            one_step_residuals(model, v, nominal.i_pack_a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("row", [0, -1])
    def test_memoized_nominal_written_after_construction(self, bad, row):
        """The memo stays that of the trace as built, and a raw array
        checked against it raises: a non-finite predictor input in the
        walk, the last frame as a non-finite residual."""
        model, _, nominal = ramp_model_and_trace()
        run_detector(nominal, model, epsilon=0.1, nominal=nominal)
        memo = nominal._memo
        assert memo[0] is model
        v = refused_write(nominal.v_modules, (row, 0), bad)
        run_detector(nominal, model, epsilon=0.1, nominal=nominal)
        assert nominal._memo is memo
        with pytest.raises(ValueError, match="finite"):
            one_step_residuals(model, v, nominal.i_pack_a, nominal)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_step_detector_overflowing_prediction(self):
        huge = Tree([-1], [0.0], [-1], [-1], [1e308])
        model = Ensemble(1e308, (Segment("base", 1.0, (huge,)),))
        trace = make_trace([3.7, 3.8, 3.9])
        state = DetectorState.initial(0.1, trace.frame(0))
        with pytest.raises(ValueError, match="finite"):
            step_detector(state, trace.frame(1), model)
        with pytest.raises(ValueError, match="finite"):
            run_detector(trace, model, epsilon=0.1)


class TestWriters:
    def test_detection_csv(self, tmp_path):
        model, trace, _ = ramp_model_and_trace(attack_delta=0.3)
        det = run_detector(trace, model, epsilon=0.1)
        path = tmp_path / "det.csv"
        sentinel.write_detection(path, det)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,r_v,flag"
        assert len(lines) == 1 + len(det.r)

    def test_events_csv(self, tmp_path):
        model, trace, _ = ramp_model_and_trace(attack_delta=0.3)
        det = run_detector(trace, model, epsilon=0.1)
        path = tmp_path / "ev.csv"
        sentinel.write_events(path, det)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,residual,transition"
        assert lines[1].endswith("set")
        assert lines[2].endswith("reset")
