import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace
from voltsentry import boost, sentinel
from voltsentry.boost import TrainConfig, train
from voltsentry.datasets import build_supervised
from voltsentry.sentinel import (DetectorState, apply_toggle,
                                 calibrate_threshold, residual, run_detector,
                                 step_detector)
from voltsentry.simkit import TelemetryFrame


class TestResidual:
    def test_zero_when_prediction_matches(self):
        frame = TelemetryFrame(0.0, 5.0, (3.7, 3.8))
        assert residual(frame, np.array([3.7, 3.8])) == 0.0

    def test_definition(self):
        frame = TelemetryFrame(0.0, 5.0, (400.0, 401.0))
        assert residual(frame, np.array([400.0, 400.0])) == 1.0

    def test_permutation_invariant(self):
        measured = (350.0, 351.0, 352.0)
        predicted = np.array([350.2, 350.9, 352.4])
        base = residual(TelemetryFrame(0.0, 1.0, measured), predicted)
        perm = [2, 0, 1]
        permuted = residual(
            TelemetryFrame(0.0, 1.0, tuple(measured[j] for j in perm)),
            predicted[perm])
        assert base == permuted

    def test_length_mismatch(self):
        frame = TelemetryFrame(0.0, 5.0, (3.7, 3.8))
        with pytest.raises(ValueError):
            residual(frame, np.array([3.7]))


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

    def test_debounce_suppresses_chatter(self):
        rs = [3.0, 3.0, 3.0, 0.0, 0.0]
        assert list(apply_toggle(rs, 2.0)) == [1, 0, 1, 1, 1]
        assert list(apply_toggle(rs, 2.0, debounce=3)) == [1, 1, 1, 1, 1]

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
