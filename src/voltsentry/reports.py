"""Run reports and detection scoring.

Reports serialize deterministically: sorted keys, fixed float repr, and no
wall-clock content.  Timings are real but non-reproducible, so they go to a
sidecar file next to the report instead of into it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .boost import BoostHistory
from .sentinel import DetectionTrace


@dataclass
class DetectionMetrics:
    """Scores of a detection run against the ground-truth attack mask.

    Delays are in samples and nonnegative; a missed transition is None.
    A false alarm is a flag rise at a step whose mask is 0.
    """

    onset_delay: int | None
    withdrawal_delay: int | None
    false_alarms: int
    crossings: int

    def as_dict(self) -> dict:
        return {
            "onset_delay_samples": "missed" if self.onset_delay is None else self.onset_delay,
            "withdrawal_delay_samples": ("missed" if self.withdrawal_delay is None
                                         else self.withdrawal_delay),
            "false_alarms": self.false_alarms,
            "threshold_crossings": self.crossings,
        }


def score_detection(det: DetectionTrace, mask: np.ndarray,
                    trace_t: np.ndarray) -> DetectionMetrics:
    """Score flags against the mask; both indexed by trace time."""
    mask = np.asarray(mask)
    active = np.flatnonzero(mask == 1)
    if active.size == 0:
        raise ValueError("mask contains no attack window")
    k0_t = float(trace_t[active[0]])
    kf_t = float(trace_t[active[-1]]) + 1.0

    flags = det.flag
    prev = np.concatenate([[0], flags[:-1]])
    rises = np.flatnonzero((flags == 1) & (prev == 0))
    falls = np.flatnonzero((flags == 0) & (prev == 1))
    rise_t = det.t_s[rises]
    fall_t = det.t_s[falls]

    onset = None
    on_candidates = rise_t[rise_t >= k0_t]
    if on_candidates.size:
        onset = int(on_candidates[0] - k0_t)
    withdrawal = None
    off_candidates = fall_t[fall_t >= kf_t]
    if off_candidates.size:
        withdrawal = int(off_candidates[0] - kf_t)

    # Map each rise time back to the mask index to spot nominal-window rises.
    false_alarms = 0
    for t in rise_t:
        k = int(np.searchsorted(trace_t, t))
        if k >= len(mask) or mask[k] == 0:
            false_alarms += 1
    return DetectionMetrics(onset, withdrawal, false_alarms, det.crossings)


@dataclass
class RunReport:
    """Deterministic record of one CLI command run."""

    command: str
    seed: int | None = None
    inputs: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    detection: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def write_report(path, report: RunReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_loss_curve(path, history: BoostHistory) -> None:
    """Loss curve CSV: ``round,train_mse,val_mse``, one row per boosting
    round (round r holds the losses after r trees).  Losses are written as
    ``%.16e``, which round-trips every float64 exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,train_mse,val_mse\n")
        rows = zip(history.train_mse, history.val_mse, strict=True)
        for rnd, (train_mse, val_mse) in enumerate(rows, start=1):
            fh.write(f"{rnd:d},{train_mse:.16e},{val_mse:.16e}\n")


def write_timings(path, timings: dict) -> None:
    """Wall-clock sidecar; intentionally not part of the report."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: float(v) for k, v in timings.items()}, fh, sort_keys=True,
                  indent=2)
        fh.write("\n")
