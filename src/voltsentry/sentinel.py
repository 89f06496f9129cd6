"""Online residual generation, threshold calibration, and the toggle flag.

The detection statistic at step k is the largest absolute one-step voltage
prediction error over the modules,

    r(k) = max_m |v_m(k) - vhat_m(k)|,

where vhat_m(k) is predicted from the received frame at k-1 (corrupted or
not).  Every threshold crossing r >= epsilon flips the attack flag, marking
attack onset and withdrawal.  The first frame only initializes the
predictor; the first residual appears at k = 1.

one_step_residuals is the only place residuals are computed: streaming
(step_detector, one row per module), batch detection (run_detector) and
calibration all call it.  Frames and traces reject NaN and infinite values
when they are built, and one_step_residuals raises ValueError on a
non-finite residual, such as one from a value written into a trace's
arrays afterwards, so a NaN never reaches the toggle as "no crossing".

The toggle is the paper's pure set/reset rule: the flag is the parity of
the crossings so far.  It is fragile by construction, since a single
nominal spike at or above epsilon inverts the flag for good.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .boost import Ensemble, predict_batch
from .simkit import TelemetryFrame, TelemetryTrace


def one_step_residuals(model: Ensemble, v_modules, i_pack_a):
    """Predictions vhat(k) from frame k-1 and residuals r(k), k = 1..n-1.

    ``v_modules`` is (n, q) and ``i_pack_a`` (n,) over n consecutive frames.
    Returns (predictions of shape (n-1, q), r of shape (n-1,)); raises
    ValueError if a residual is not finite.
    """
    v = np.asarray(v_modules, dtype=float)
    q = v.shape[1]
    x = np.column_stack([v[:-1].reshape(-1),
                         np.repeat(np.asarray(i_pack_a, dtype=float)[:-1], q)])
    predicted = predict_batch(model, x).reshape(-1, q)
    r = np.max(np.abs(v[1:] - predicted), axis=1)
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    return predicted, r


def calibrate_threshold(nominal_residuals, margin: float = 4.0 / 3.0) -> float:
    """Threshold as margin times the largest attack-free residual."""
    r = np.asarray(nominal_residuals, dtype=float)
    if r.size == 0:
        raise ValueError("cannot calibrate on an empty nominal run")
    epsilon = margin * float(np.max(r))
    if epsilon <= 0.0:
        raise ValueError("degenerate calibration: nominal residuals are all zero")
    return epsilon


def apply_toggle(residuals, epsilon: float) -> np.ndarray:
    """Flag sequence from a residual sequence: the parity of the crossings
    r >= epsilon up to and including each step."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return np.cumsum(np.asarray(residuals) >= epsilon) & 1


@dataclass(frozen=True)
class DetectorState:
    """Immutable detector state threaded through step_detector."""

    epsilon: float
    flag: int = 0
    last_frame: TelemetryFrame | None = None
    events: tuple = ()

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.flag not in (0, 1):
            raise ValueError("flag must be 0 or 1")

    @classmethod
    def initial(cls, epsilon: float, first_frame: TelemetryFrame) -> "DetectorState":
        return cls(epsilon=epsilon, last_frame=first_frame)


def step_detector(state: DetectorState, measured: TelemetryFrame,
                  model: Ensemble):
    """Advance the detector by one frame; returns (state, residual, flag)."""
    if state.last_frame is None:
        raise ValueError("detector state must be initialized with a first frame")
    prev = state.last_frame
    if measured.q != prev.q:
        raise ValueError("module count changed mid-stream")
    _, r = one_step_residuals(model, (prev.v_modules, measured.v_modules),
                              (prev.i_pack_a, measured.i_pack_a))
    r = float(r[0])
    flag = state.flag
    events = state.events
    if r >= state.epsilon:
        flag = 1 - flag
        events = events + ((measured.t_s, r),)
    return replace(state, flag=flag, last_frame=measured, events=events), r, flag


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

    @classmethod
    def from_residuals(cls, t_s, r, epsilon: float) -> "DetectionTrace":
        """Flags and crossing events of residuals r at frame times t_s."""
        flags = apply_toggle(r, epsilon)
        events = tuple((float(t_s[k]), float(r[k]))
                       for k in np.flatnonzero(r >= epsilon))
        return cls(t_s=np.array(t_s), r=r, flag=flags, epsilon=epsilon,
                   events=events)

    @property
    def crossings(self) -> int:
        return len(self.events)


def run_detector(trace: TelemetryTrace, model: Ensemble,
                 epsilon: float) -> DetectionTrace:
    """Batch detection pass over a trace; bit-equal to streaming step calls.

    Predictions are evaluated in one vectorized call, and the flags are a
    cumulative count of the crossings.
    """
    if trace.n_frames < 2:
        raise ValueError("trace must have at least 2 frames")
    _, r = one_step_residuals(model, trace.v_modules, trace.i_pack_a)
    return DetectionTrace.from_residuals(trace.t_s[1:], r, epsilon)


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
