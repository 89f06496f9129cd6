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
non-finite residual, such as one from a raw array it is given or from an
overflowing prediction, so a NaN never reaches the toggle as "no
crossing".  step_detector also rejects a frame whose t_s is not the
previous frame's plus 1 s; the caller's state is unchanged, so the stream
continues from the last good frame.

Scoring attacks against a nominal trace reuses its predictions through
the attack's source map.  Given a ``nominal`` trace of the checked
trace's shape, one_step_residuals keeps a memo on that trace: the model
object and its predictions, frame-major, so that a flat index into the
voltages addresses the prediction made from that value.  Predictor row
(k, m), the input (v_m(k), i(k)), takes the memoized prediction of the
nominal predictor row at ``source[k, m]`` (threatgen.apply_scenario's
map; without a source, the row at (k, m) itself) when both values equal
that row's and its frame is below n-1.  Every other row is predicted,
all of them in one call; r is then computed over every row as before.
A swap takes every moved value from a row of the same frame, so it
predicts nothing; a replay predicts only the replayed rows whose
recorded current differs from the live one.  A nominal trace of another
shape reuses nothing.  The memo serves only the same model object, and
a trace never changes (simkit.TelemetryTrace), so its predictions never
go stale.  The source map is only a hint, since every reused row is
compared by value.  Calibration passes no nominal trace, so it predicts
its trace once and builds no memo; the first attack scored against the
trace builds it.  The reuse is bit-exact because a prediction depends
only on the row's two values: predict_batch scales each element on its
own and the node-table walk compares ``x >= t`` and adds each row's
leaves in its own column, in tree order.  Rows compare by value, so a
-0.0 takes the prediction made for 0.0, whose branches it takes too
(-0.0 >= t exactly when 0.0 >= t).  A NaN equals no row, so it still
reaches the walk, which rejects it.

Predictor rows are module-major, so the predictions form a contiguous
(q, n-1) array and r is one reduction along its first axis.

The toggle is the paper's pure set/reset rule: the flag is the parity of
the crossings so far.  It is fragile by construction, since a single
nominal spike at or above epsilon inverts the flag for good.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .boost import Ensemble, predict_batch
from .datasets import write_csv
from .simkit import TelemetryFrame, TelemetryTrace


def _features(v: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Predictor inputs: one (v_m(k), i(k)) row per module m and frame
    k < n-1, module-major."""
    q, n = v.shape[1], v.shape[0] - 1
    x = np.empty((q, n, 2))
    x[:, :, 0] = v[:-1].T
    x[:, :, 1] = i[:-1]
    return x.reshape(q * n, 2)


def _nominal_predictions(model: Ensemble, trace: TelemetryTrace) -> np.ndarray:
    """The trace's predictions under ``model`` as a read-only (n-1, q)
    array, frame-major, so that a flat index into the voltages addresses
    the prediction made from that value.

    Memoized on the trace in one slot, (model, predictions), which serves
    only the same model object.
    """
    memo = trace._memo
    if memo is None or memo[0] is not model:
        v = trace.v_modules
        predicted = predict_batch(model, _features(v, trace.i_pack_a))
        predicted = predicted.reshape(v.shape[1], -1).T.copy()
        predicted.flags.writeable = False
        memo = (model, predicted)
        object.__setattr__(trace, "_memo", memo)  # the trace is frozen
    return memo[1]


def _reuse(model: Ensemble, nominal: TelemetryTrace, v: np.ndarray,
           i: np.ndarray, source) -> np.ndarray:
    """(q, n-1) predictions of the rows of (v, i): the nominal prediction
    of each row's source row where both values equal that row's, the
    others predicted in one call."""
    known = _nominal_predictions(model, nominal)
    n, q = v.shape
    if source is None:
        src = np.arange((n - 1) * q).reshape(n - 1, q)
    else:
        source = np.asarray(source)
        if source.shape != v.shape or source.dtype.kind not in "iu":
            raise ValueError("source must be an integer array of the "
                             "trace's (n, q) shape")
        src = source[:-1]
        if src.min() < 0 or src.max() >= n * q:
            raise ValueError("source indices must index the nominal voltages")
    # need[k, m]: row (k, m) is not served by its source row, whose
    # voltage, current or prediction (none for the last frame) differs.
    need = v[:-1] != nominal.v_modules.ravel().take(src)
    need |= i[:-1, None] != np.repeat(nominal.i_pack_a, q).take(src)
    need |= src >= (n - 1) * q
    predicted = known.ravel().take(src.T, mode="clip")
    if need.any():
        m, k = np.nonzero(need.T)
        x = np.empty((m.size, 2))
        x[:, 0] = v[k, m]
        x[:, 1] = i[k]
        predicted[m, k] = predict_batch(model, x)
    return predicted


def one_step_residuals(model: Ensemble, v_modules, i_pack_a,
                       nominal: TelemetryTrace | None = None, source=None):
    """Predictions vhat(k) from frame k-1 and residuals r(k), k = 1..n-1.

    ``v_modules`` is (n, q) and ``i_pack_a`` (n,) over n consecutive frames.
    Returns (predictions of shape (n-1, q), r of shape (n-1,)); raises
    ValueError if a residual is not finite.

    Given a ``nominal`` trace of the same shape, every predictor input row
    equal to the nominal row at its source (``source[k, m]``, a flat index
    into the nominal voltages; (k, m) itself without a source) takes that
    row's memoized prediction, and only the other rows are predicted.
    ``source`` is ignored without such a nominal trace.
    """
    v = np.asarray(v_modules, dtype=float)
    i = np.asarray(i_pack_a, dtype=float)
    if (nominal is None or nominal.n_frames < 2
            or nominal.v_modules.shape != v.shape):  # no nominal rows to reuse
        predicted = predict_batch(model, _features(v, i)).reshape(v.shape[1], -1)
    else:
        predicted = _reuse(model, nominal, v, i, source)
    r = np.abs(v[1:].T - predicted).max(axis=0)
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    return predicted.T, r


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
    if measured.t_s != prev.t_s + 1.0:
        raise ValueError(f"frame at t_s={measured.t_s} does not follow the "
                         f"frame at t_s={prev.t_s} by 1 s")
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


def run_detector(trace: TelemetryTrace, model: Ensemble, epsilon: float,
                 nominal: TelemetryTrace | None = None,
                 source=None) -> DetectionTrace:
    """Batch detection pass over a trace; bit-equal to streaming step calls.

    Predictions are evaluated in one vectorized call (only of the rows
    that ``nominal``'s rows at their ``source`` do not serve, when given;
    see one_step_residuals), and the flags are a cumulative count of the
    crossings.
    """
    if trace.n_frames < 2:
        raise ValueError("trace must have at least 2 frames")
    _, r = one_step_residuals(model, trace.v_modules, trace.i_pack_a, nominal,
                              source)
    return DetectionTrace.from_residuals(trace.t_s[1:], r, epsilon)


def write_detection(path, det: DetectionTrace) -> None:
    """Detection CSV: t_s,r_v,flag rows at 6 decimal places."""
    write_csv(path, ["t_s", "r_v", "flag"], "%.6f,%.6f,%d",
              [det.t_s.tolist(), det.r.tolist(), det.flag.tolist()])


def write_events(path, det: DetectionTrace) -> None:
    """Events log: one t_s,residual,transition line per threshold crossing;
    the crossings alternately set and reset the flag."""
    events = det.events
    write_csv(path, ["t_s", "residual", "transition"], "%.6f,%.6f,%s",
              [[t for t, _ in events], [r for _, r in events],
               [("set", "reset")[j % 2] for j in range(len(events))]])
