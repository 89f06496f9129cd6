"""Reference detection scoring that ``voltsentry.reports`` must match.

``reference_score_detection`` is the flag-based ``score_detection`` that
the crossing-based one replaced, kept verbatim but for its name and the
window-at-the-last-frame field: it rebuilds the flag's rises and falls by
comparing each flag with the one before it.
"""

import numpy as np

from voltsentry.reports import DetectionMetrics
from voltsentry.sentinel import DetectionTrace


def reference_score_detection(det: DetectionTrace,
                              mask: np.ndarray) -> DetectionMetrics:
    mask = np.asarray(mask)
    if mask.shape != (len(det.flag) + 1,):
        raise ValueError("mask must have one entry per trace frame")
    active = np.flatnonzero(mask == 1)
    if active.size == 0:
        raise ValueError("mask contains no attack window")
    k0, kf = int(active[0]), int(active[-1]) + 1

    flags = det.flag
    prev = np.concatenate([[0], flags[:-1]])
    rises = np.flatnonzero((flags == 1) & (prev == 0)) + 1
    falls = np.flatnonzero((flags == 0) & (prev == 1)) + 1

    on = rises[rises >= k0]
    off = falls[falls >= kf]
    onset = int(on[0] - k0) if on.size else None
    withdrawal = int(off[0] - kf) if off.size else None
    false_alarms = int(np.count_nonzero(mask[rises] == 0))
    return DetectionMetrics(onset, withdrawal, false_alarms, det.crossings,
                            bool(mask[-1] == 1))
