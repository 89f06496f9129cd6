"""Sensor attack injection: module-voltage swap FDI and partial replay.

Both attacks corrupt only recorded voltages inside the active window
[k0, kf); the current channel and everything outside the window stay
untouched.  The swap reorders each frame's module voltages so the slot of
module 1 receives the largest value and the last slot the smallest
(descending sort, ties kept in original module order).  The replay plays a
previously recorded window of the same trace back over the target modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simkit import TelemetryTrace

ATTACK_KINDS = ("swap_fdi", "replay")


@dataclass(frozen=True)
class AttackScenario:
    """Declarative corruption of a trace; times in seconds, modules 1-based."""

    kind: str
    k0_s: int
    kf_s: int
    record_start_s: int | None = None
    record_end_s: int | None = None
    target_modules: tuple | None = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"kind must be one of {ATTACK_KINDS}")
        if self.k0_s > self.kf_s:
            raise ValueError("active window must satisfy k0 <= kf")
        if self.kind == "replay":
            if self.record_start_s is None or self.record_end_s is None:
                raise ValueError("replay needs a record window")
            if self.record_start_s >= self.record_end_s:
                raise ValueError("record window must be nonempty")
            if self.record_end_s - self.record_start_s < self.kf_s - self.k0_s:
                raise ValueError("record window shorter than active window")
            if self.record_end_s > self.k0_s:
                raise ValueError("record window must precede the active window")
            if not self.target_modules:
                raise ValueError("replay needs a nonempty target module set")
            mods = tuple(sorted(set(int(m) for m in self.target_modules)))
            if any(m < 1 for m in mods):
                raise ValueError("module indices are 1-based")
            object.__setattr__(self, "target_modules", mods)

    def validate_for(self, trace: TelemetryTrace) -> None:
        t0, t_end = trace.t_s[0], trace.t_s[-1]
        if not (t0 <= self.k0_s and self.kf_s <= t_end + 1):
            raise ValueError(
                f"active window [{self.k0_s},{self.kf_s}) outside trace span")
        if self.kind == "replay":
            if not (t0 <= self.record_start_s and self.record_end_s <= t_end + 1):
                raise ValueError("record window outside trace span")
            if any(m > trace.q for m in self.target_modules):
                raise ValueError(f"target module beyond q={trace.q}")


def _swap_rows(v: np.ndarray) -> np.ndarray:
    order = np.argsort(-v, axis=1, kind="stable")
    return np.take_along_axis(v, order, axis=1)


def apply_replay(trace: TelemetryTrace, scenario: AttackScenario) -> TelemetryTrace:
    """Replay recorded voltages over the target modules inside the window."""
    if scenario.kind != "replay":
        raise ValueError("scenario is not a replay")
    scenario.validate_for(trace)
    out = trace.copy()
    idx = np.searchsorted(trace.t_s, [scenario.k0_s, scenario.kf_s,
                                      scenario.record_start_s])
    a, b, rec = int(idx[0]), int(idx[1]), int(idx[2])
    cols = [m - 1 for m in scenario.target_modules]
    span = b - a
    for c in cols:
        out.v_modules[a:b, c] = trace.v_modules[rec:rec + span, c]
    return out


def apply_scenario(trace: TelemetryTrace, scenario: AttackScenario):
    """Corrupt a trace per scenario; returns (corrupted trace, 0/1 mask).

    The input trace is never modified.  The mask is 1 exactly on [k0, kf)
    and is also attached to the returned trace for CSV emission.
    """
    scenario.validate_for(trace)
    if scenario.kind == "swap_fdi":
        if trace.q < 2:
            raise ValueError("swap needs at least 2 modules")
        out = trace.copy()
        idx = np.searchsorted(trace.t_s, [scenario.k0_s, scenario.kf_s])
        a, b = int(idx[0]), int(idx[1])
        out.v_modules[a:b] = _swap_rows(trace.v_modules[a:b])
    else:
        out = apply_replay(trace, scenario)
        idx = np.searchsorted(trace.t_s, [scenario.k0_s, scenario.kf_s])
        a, b = int(idx[0]), int(idx[1])
    mask = np.zeros(trace.n_frames, dtype=int)
    mask[a:b] = 1
    out.attack_mask = mask
    out.name = (trace.name + "_" + scenario.kind) if trace.name else scenario.kind
    return out, mask
