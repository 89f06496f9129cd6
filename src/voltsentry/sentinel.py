"""Online residual generation, threshold calibration, and the toggle flag.

The detection statistic at step k is the largest absolute one-step voltage
prediction error over the modules,

    r(k) = max_m |v_m(k) - vhat_m(k)|,

where vhat_m(k) is predicted from the received frame at k-1 (corrupted or
not).  Every threshold crossing r >= epsilon flips the attack flag, marking
attack onset and withdrawal.  The first frame only initializes the
predictor; the first residual appears at k = 1.

Frames and traces reject NaN and infinite values when they are built, so
the detector is never handed a non-finite measurement.

The pure toggle is fragile by construction: a single nominal spike at or
above epsilon inverts the flag for good.  An optional debounce (minimum
dwell in samples between toggles) is available but off by default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .boost import Ensemble, predict_batch
from .simkit import TelemetryFrame, TelemetryTrace


def residual(measured: TelemetryFrame, predicted) -> float:
    """Largest absolute module voltage error for one frame."""
    predicted = np.asarray(predicted, dtype=float)
    if predicted.shape != (measured.q,):
        raise ValueError(
            f"predicted has shape {predicted.shape}, expected ({measured.q},)")
    return float(np.max(np.abs(np.array(measured.v_modules) - predicted)))


def calibrate_threshold(nominal_residuals, margin: float = 4.0 / 3.0) -> float:
    """Threshold as margin times the largest attack-free residual."""
    r = np.asarray(nominal_residuals, dtype=float)
    if r.size == 0:
        raise ValueError("cannot calibrate on an empty nominal run")
    epsilon = margin * float(np.max(r))
    if epsilon <= 0.0:
        raise ValueError("degenerate calibration: nominal residuals are all zero")
    return epsilon


def apply_toggle(residuals, epsilon: float, debounce: int = 0) -> np.ndarray:
    """Flag sequence from a residual sequence under the set/reset rule."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    flags = np.empty(len(residuals), dtype=int)
    flag = 0
    last_toggle = -1
    for k, r in enumerate(residuals):
        if r >= epsilon and (debounce <= 0 or last_toggle < 0
                             or k - last_toggle >= debounce):
            flag = 1 - flag
            last_toggle = k
        flags[k] = flag
    return flags


@dataclass(frozen=True)
class DetectorState:
    """Immutable detector state threaded through step_detector."""

    epsilon: float
    flag: int = 0
    last_frame: TelemetryFrame | None = None
    events: tuple = ()
    debounce: int = 0
    last_toggle_k: int = -1
    k: int = 0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.flag not in (0, 1):
            raise ValueError("flag must be 0 or 1")

    @classmethod
    def initial(cls, epsilon: float, first_frame: TelemetryFrame,
                debounce: int = 0) -> "DetectorState":
        return cls(epsilon=epsilon, last_frame=first_frame, debounce=debounce, k=1)


def step_detector(state: DetectorState, measured: TelemetryFrame,
                  model: Ensemble):
    """Advance the detector by one frame; returns (state, residual, flag)."""
    if state.last_frame is None:
        raise ValueError("detector state must be initialized with a first frame")
    prev = state.last_frame
    if measured.q != prev.q:
        raise ValueError("module count changed mid-stream")
    x = np.column_stack([np.array(prev.v_modules),
                         np.full(prev.q, prev.i_pack_a)])
    predicted = predict_batch(model, x)
    r = residual(measured, predicted)
    flag = state.flag
    events = state.events
    last_toggle = state.last_toggle_k
    if r >= state.epsilon and (state.debounce <= 0 or last_toggle < 0
                               or state.k - last_toggle >= state.debounce):
        flag = 1 - flag
        last_toggle = state.k
        events = events + ((measured.t_s, r),)
    new_state = replace(state, flag=flag, last_frame=measured, events=events,
                        last_toggle_k=last_toggle, k=state.k + 1)
    return new_state, r, flag


@dataclass
class DetectionTrace:
    """Residual/flag series for frames 1..n-1 of a telemetry trace."""

    t_s: np.ndarray
    r: np.ndarray
    flag: np.ndarray
    epsilon: float
    events: tuple = ()

    def __post_init__(self):
        if np.any(self.r < 0):
            raise ValueError("residuals must be nonnegative")

    @property
    def crossings(self) -> int:
        return len(self.events)


def run_detector(trace: TelemetryTrace, model: Ensemble, epsilon: float,
                 debounce: int = 0) -> DetectionTrace:
    """Batch detection pass over a trace; bit-equal to streaming step calls.

    Predictions are evaluated in one vectorized call; the flag recursion is
    inherently sequential.
    """
    if trace.n_frames < 2:
        raise ValueError("trace must have at least 2 frames")
    x = np.column_stack([
        trace.v_modules[:-1].reshape(-1),
        np.repeat(trace.i_pack_a[:-1], trace.q),
    ])
    predicted = predict_batch(model, x).reshape(-1, trace.q)
    r = np.max(np.abs(trace.v_modules[1:] - predicted), axis=1)
    flags = apply_toggle(r, epsilon, debounce)
    toggles = np.flatnonzero(np.diff(np.concatenate([[0], flags])) != 0)
    events = tuple((float(trace.t_s[k + 1]), float(r[k])) for k in toggles)
    return DetectionTrace(t_s=trace.t_s[1:].copy(), r=r, flag=flags,
                          epsilon=epsilon, events=events)


def predictions_for_trace(trace: TelemetryTrace, model: Ensemble) -> np.ndarray:
    """One-step predictions vhat(k) for k = 1..n-1, shape (n-1, q)."""
    x = np.column_stack([
        trace.v_modules[:-1].reshape(-1),
        np.repeat(trace.i_pack_a[:-1], trace.q),
    ])
    return predict_batch(model, x).reshape(-1, trace.q)


def write_detection(path, det: DetectionTrace) -> None:
    """Detection CSV: t_s,r_v,flag rows at 6 decimal places."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s,r_v,flag\n")
        for k in range(len(det.r)):
            fh.write(f"{det.t_s[k]:.6f},{det.r[k]:.6f},{det.flag[k]:d}\n")


def write_events(path, det: DetectionTrace) -> None:
    """Events log: one t_s,residual,transition line per threshold crossing."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s,residual,transition\n")
        flag = 0
        for t, r in det.events:
            transition = "set" if flag == 0 else "reset"
            flag = 1 - flag
            fh.write(f"{t:.6f},{r:.6f},{transition}\n")
