"""Online residual generation, threshold calibration, and the toggle flag.

The detection statistic at step k is the largest absolute one-step voltage
prediction error over the modules,

    r(k) = max_m |v_m(k) - vhat_m(k)|,

where vhat_m(k) is predicted from the received frame at k-1 (corrupted or
not).  Every threshold crossing r >= epsilon flips the attack flag, marking
attack onset and withdrawal.  The first frame only initializes the
predictor; the first residual appears at k = 1.

Residuals are computed in one place, _residuals, which raises ValueError
on a non-finite residual, such as one from a raw array or an overflowing
prediction, so a NaN never reaches the toggle as "no crossing".
one_step_residuals, the one public residual function, predicts every row
of the arrays it is given.  step_detector rejects a frame whose t_s is not
the previous frame's plus 1 s and leaves the caller's state unchanged, so
the stream continues from the last good frame.

An attacked trace carries the nominal trace and a source map, in range by
construction, as its ``_origin``, and run_detector reuses the nominal's
predictions through it.  They are memoized on the nominal trace in one
slot: the model object, the predictions, frame-major, so that a flat
index into the voltages addresses the prediction made from that value,
and each voltage entry's frame current in the same flat order, NaN over
the last frame, which feeds no prediction.  Row (k, m) holds the nominal
value at ``source[k, m]`` by construction, so it takes that value's
prediction when its current equals the memoized one; every other row is
predicted, in one call.  A gathered trace shares its origin's
``i_pack_a``, so row (k, m)'s own current is the memo's entry at k*q + m,
and no current is broadcast over the rows.  A trace never changes, so the
memo never goes stale; it serves only the same model object, and
calibration builds none.  The reuse is bit-exact because a prediction
depends only on the row's two values: predict_batch scales each element
on its own and the node-table walk compares ``x >= t`` and adds each
row's leaves in its own column, in tree order.  A row at current -0.0
takes the prediction made at 0.0, whose branches it takes too.

Predictor rows are module-major, so the predictions form a contiguous
(q, n-1) array and r is one reduction along its first axis.

The toggle is the paper's pure set/reset rule: the flag is the parity of
the crossings so far.  It is fragile by construction, since a single
nominal spike at or above epsilon inverts the flag for good.  A
DetectionTrace is built from its residuals alone: one comparison
r >= epsilon gives the crossings, and the flags and events are derived
from them.  Its constructor checks what a caller gives it; run_detector
and pipeline.calibrate_on_trace build theirs (DetectionTrace._of_residuals)
from residuals that _residuals has just checked, so they check only the
caller's epsilon.  Either way r is copied once, into the immutable buffer
it is kept in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .boost import Ensemble, predict_batch
from .datasets import write_csv
from .simkit import TelemetryFrame, TelemetryTrace, _frozen


def _features(v: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Predictor inputs: one (v_m(k), i(k)) row per module m and frame
    k < n-1, module-major."""
    q, n = v.shape[1], v.shape[0] - 1
    x = np.empty((q, n, 2))
    x[:, :, 0] = v[:-1].T
    x[:, :, 1] = i[:-1]
    return x.reshape(q * n, 2)


def _nominal_predictions(model: Ensemble, trace: TelemetryTrace):
    """The trace's predictions under ``model`` and the current of each
    voltage entry's frame, for the reuse in _reuse.

    The predictions are an (n-1, q) array, frame-major, so that a flat
    index into the voltages addresses the prediction made from that value.
    The currents are an (n*q,) array in the same flat order, NaN over the
    last frame, which is never a predictor input: a NaN equals no current,
    so a row whose source lies in that frame is predicted.  Both are
    immutable.  Memoized on the trace in one slot, (model, predictions,
    currents), which serves only the same model object.
    """
    memo = trace._memo
    if memo is None or memo[0] is not model:
        v = trace.v_modules
        n, q = v.shape
        predicted = predict_batch(model, _features(v, trace.i_pack_a))
        current = np.repeat(trace.i_pack_a, q)
        current[(n - 1) * q:] = np.nan
        memo = (model, _frozen(predicted.reshape(q, -1).T),
                _frozen(current))
        object.__setattr__(trace, "_memo", memo)  # the trace is frozen
    return memo[1], memo[2]


def _reuse(model: Ensemble, trace: TelemetryTrace) -> np.ndarray:
    """(q, n-1) predictions of the rows of a gathered trace: the memoized
    prediction of each row's source where the current equals the one it
    was made with, the other rows predicted in one call."""
    origin, source = trace._origin
    known, current = _nominal_predictions(model, origin)
    n, q = source.shape
    rows = source.ravel()[:(n - 1) * q]
    # need[j]: flat row j's source prediction was made at another current
    # than row j's own, which is current[j], since a gathered trace shares
    # its origin's i_pack_a; a source in the last frame has current NaN, as
    # it has no prediction.
    need = current.take(rows) != current[:rows.size]
    predicted = known.ravel().take(source[:-1].T, mode="clip")
    if need.any():
        m, k = np.nonzero(need.reshape(n - 1, q).T)
        x = np.empty((m.size, 2))
        x[:, 0] = trace.v_modules[k, m]
        x[:, 1] = trace.i_pack_a[k]
        predicted[m, k] = predict_batch(model, x)
    return predicted


def _residuals(v: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """r(k) = max_m |v_m(k) - vhat_m(k)| for k = 1..n-1, from (n, q)
    voltages and (q, n-1) predictions; raises ValueError if one is not
    finite."""
    r = np.abs(v[1:].T - predicted).max(axis=0)
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    return r


def one_step_residuals(model: Ensemble, v_modules, i_pack_a):
    """Predictions vhat(k) from frame k-1 and residuals r(k), k = 1..n-1.

    ``v_modules`` is (n, q) and ``i_pack_a`` (n,) over n consecutive frames.
    Returns (predictions of shape (n-1, q), r of shape (n-1,)); raises
    ValueError for arrays of other shapes or a residual that is not finite.
    """
    v = np.asarray(v_modules, dtype=float)
    i = np.asarray(i_pack_a, dtype=float)
    if v.ndim != 2 or i.shape != v.shape[:1]:
        raise ValueError(f"voltages must be (n, q) and currents (n,), got "
                         f"shapes {v.shape} and {i.shape}")
    predicted = predict_batch(model, _features(v, i)).reshape(v.shape[1], -1)
    return predicted.T, _residuals(v, predicted)


def _positive_finite(name: str, value: float) -> None:
    """Raise ValueError unless value is positive and finite; a NaN
    threshold would never be crossed, an infinite one could not be."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_residuals(r: np.ndarray) -> None:
    """Raise ValueError unless every residual is finite and nonnegative."""
    if not (np.isfinite(r).all() and (r >= 0).all()):
        raise ValueError("residuals must be finite and nonnegative")


# The threshold's margin over the largest attack-free residual.
MARGIN = 4.0 / 3.0


def calibrate_threshold(nominal_residuals) -> float:
    """Threshold as MARGIN times the largest attack-free residual; the
    residuals must be finite and nonnegative."""
    r = np.asarray(nominal_residuals, dtype=float)
    if r.size == 0:
        raise ValueError("cannot calibrate on an empty nominal run")
    _check_residuals(r)
    epsilon = MARGIN * float(np.max(r))
    if epsilon <= 0.0:
        raise ValueError("degenerate calibration: nominal residuals are all zero")
    return epsilon


@dataclass(frozen=True)
class DetectorState:
    """Immutable state of step_detector: epsilon, the last frame and the
    crossings as events (t_s, r); the flag is their parity."""

    epsilon: float
    last_frame: TelemetryFrame | None = None
    events: tuple = ()

    def __post_init__(self):
        _positive_finite("epsilon", self.epsilon)

    @property
    def flag(self) -> int:
        return len(self.events) % 2

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
    crossed = ((measured.t_s, r),) if r >= state.epsilon else ()
    state = replace(state, last_frame=measured, events=state.events + crossed)
    return state, r, state.flag


@dataclass(frozen=True)
class DetectionTrace:
    """Residuals r >= 0 of frames 1..n-1 of a telemetry trace, at their
    times t_s, and what their threshold crossings make of them.

    Built from (t_s, r, epsilon) alone, so its flags and events cannot
    disagree with its residuals.  One comparison r >= epsilon finds the
    crossings, kept as ``crossed`` (ascending indices into r).  The flag
    is their parity up to and including each step: crossings 0, 2, 4, ...
    set it and crossings 1, 3, 5, ... reset it.  Each crossing is one
    event (t_s, r).  The flags and events are derived from the crossings
    when first read, since scoring needs only the crossings.  The
    constructor checks what a caller gives it: epsilon must be positive
    and finite, r one-dimensional, finite and nonnegative, and t_s of r's
    shape (ValueError otherwise).  t_s, r, the crossings and the flags are
    immutable copies backed by ``bytes``, as simkit._frozen makes them, so
    no later write to a caller's array reaches them and none of them can
    be made writable.  run_detector and pipeline.calibrate_on_trace build theirs
    with ``_of_residuals``, which checks epsilon only.  No field can be
    reassigned.
    """

    t_s: np.ndarray
    r: np.ndarray
    epsilon: float
    crossed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _positive_finite("epsilon", self.epsilon)
        r = np.asarray(self.r, dtype=float)
        t_s = _frozen(self.t_s, float)
        if r.ndim != 1 or t_s.shape != r.shape:
            raise ValueError("r must be one-dimensional, with one t_s per "
                             "residual")
        _check_residuals(r)
        self._cross(t_s, r)

    @classmethod
    def _of_residuals(cls, t_s: np.ndarray, r: np.ndarray,
                      epsilon: float) -> "DetectionTrace":
        """The detection trace of residuals that _residuals has just
        computed, finite and nonnegative by construction, at their times,
        a read-only slice of a telemetry trace's; only epsilon, which the
        caller gives, is checked."""
        _positive_finite("epsilon", epsilon)
        out = object.__new__(cls)
        object.__setattr__(out, "epsilon", epsilon)
        out._cross(t_s, r)
        return out

    def _cross(self, t_s: np.ndarray, r: np.ndarray) -> None:
        """Set t_s, and r and its crossings at epsilon, each backed by
        ``bytes`` as simkit._frozen's arrays are.  r, one-dimensional
        float64, is copied once; _frozen's shape and dtype handling would
        double the cost on the warm attack path."""
        put = object.__setattr__  # the one way to set a frozen field
        put(self, "t_s", t_s)
        put(self, "r", np.frombuffer(r.tobytes()))
        put(self, "crossed", np.frombuffer(
            (r >= self.epsilon).nonzero()[0].tobytes(), np.intp))

    @cached_property
    def flag(self) -> np.ndarray:
        flag = np.zeros(self.r.size, dtype=np.intp)
        flag[self.crossed[0::2]] = 1
        flag[self.crossed[1::2]] = -1
        np.cumsum(flag, out=flag)
        return _frozen(flag)

    @cached_property
    def events(self) -> tuple:
        return tuple(zip(self.t_s[self.crossed].tolist(),
                         self.r[self.crossed].tolist()))

    @property
    def crossings(self) -> int:
        return self.crossed.size


def run_detector(trace: TelemetryTrace, model: Ensemble,
                 epsilon: float) -> DetectionTrace:
    """Batch detection pass over a trace; bit-equal to streaming step calls.

    Predictions are evaluated in one vectorized call (for an attacked
    trace, only of the rows that its origin's memo does not serve; see the
    module docstring), and the flags are the parity of the crossings
    (DetectionTrace).
    """
    if trace.n_frames < 2:
        raise ValueError("trace must have at least 2 frames")
    if trace._origin is None:
        r = one_step_residuals(model, trace.v_modules, trace.i_pack_a)[1]
    else:
        r = _residuals(trace.v_modules, _reuse(model, trace))
    return DetectionTrace._of_residuals(trace.t_s[1:], r, epsilon)


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
