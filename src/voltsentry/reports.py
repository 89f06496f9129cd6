"""Run reports and detection scoring.

Reports serialize deterministically: sorted keys, fixed float repr, and no
wall-clock content.  Timings are real but non-reproducible, so they go to a
sidecar file next to the report instead of into it.

Detection scoring reads a DetectionTrace's threshold crossings: the flag
rises at crossings 0, 2, 4, ... and falls at crossings 1, 3, 5, ..., one
frame after the residual's index, so no flag sequence is scanned.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import asdict, dataclass, field

import numpy as np

from .boost import BoostHistory
from .datasets import write_csv
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


def score_detection(det: DetectionTrace, mask: np.ndarray) -> DetectionMetrics:
    """Score the flags against the mask by frame index.

    ``mask`` has one entry per trace frame and ``det`` covers frames 1..n-1,
    so residual j belongs to frame j + 1.  The flag rises at the frames of
    the even crossings (0, 2, 4, ... of det.crossed) and falls at those of
    the odd ones.  Delays count frames from the first masked frame (onset)
    and from the first frame after the window (withdrawal).
    """
    mask = np.asarray(mask)
    if mask.shape != (len(det.r) + 1,):
        raise ValueError("mask must have one entry per trace frame")
    active = (mask == 1).nonzero()[0]
    if active.size == 0:
        raise ValueError("mask contains no attack window")
    k0, kf = int(active[0]), int(active[-1]) + 1

    frames = (det.crossed + 1).tolist()
    rises, falls = frames[0::2], frames[1::2]
    on, off = bisect_left(rises, k0), bisect_left(falls, kf)
    onset = rises[on] - k0 if on < len(rises) else None
    withdrawal = falls[off] - kf if off < len(falls) else None
    false_alarms = int(np.count_nonzero(mask[rises] == 0))
    return DetectionMetrics(onset, withdrawal, false_alarms, det.crossings)


@dataclass
class RunReport:
    """Deterministic record of one CLI command run."""

    command: str
    inputs: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    detection: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Strict JSON: a NaN or infinite value raises ValueError, since
        JSON has no literal for it."""
        return json.dumps(asdict(self), sort_keys=True, indent=2,
                          allow_nan=False)


def write_report(path, report: RunReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")


class ReportParseError(ValueError):
    """A JSON file that is not a report object."""


def read_report(path) -> dict:
    """A report object; its model and detection sections, if any, are
    objects (ReportParseError otherwise)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if type(doc) is not dict or any(type(doc.get(s, {})) is not dict
                                    for s in ("model", "detection")):
        raise ReportParseError(f"{path}: not a report object")
    return doc


def write_loss_curve(path, history: BoostHistory) -> None:
    """Loss curve CSV: ``round,train_mse,val_mse``, one row per boosting
    round (round r holds the losses after r trees).  Losses are written as
    ``%.16e``, which round-trips every float64 exactly."""
    rounds = range(1, len(history.train_mse) + 1)
    write_csv(path, ["round", "train_mse", "val_mse"], "%d,%.16e,%.16e",
              [rounds, history.train_mse, history.val_mse])


def write_timings(path, timings: dict) -> None:
    """Wall-clock sidecar; intentionally not part of the report."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: float(v) for k, v in timings.items()}, fh, sort_keys=True,
                  indent=2)
        fh.write("\n")
