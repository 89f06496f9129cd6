"""Sensor attack injection: module-voltage swap FDI and partial replay.

Both attacks corrupt only recorded voltages inside the active window
[k0, kf); the current channel and everything outside the window stay
untouched.  The swap reorders each frame's module voltages so the slot of
module 1 receives the largest value and the last slot the smallest
(descending sort, ties kept in original module order).  The replay plays a
previously recorded window of the same trace back over the target modules.

Both are a gather.  apply_scenario builds the attack's source map: one
flat index into the nominal (n, q) voltages per corrupted entry, the
identity outside the window.  A swap permutes a window frame's indices,
in the order the trace computes once (TelemetryTrace.descending_order); a
replay copies the recorded frames' indices into the target columns.  The
corrupted trace is the gather of the nominal trace through that map: its
voltages are the nominal voltages taken at the map, it shares the nominal
trace's time, current and module-current arrays, and it carries the
nominal trace and the map as its origin, from which sentinel reuses the
nominal prediction of each row the attack moved.

The checks run where the values come in.  AttackScenario checks its own
fields and validate_for checks them against the trace; the map and the
mask built from them are then in range and 0 or 1 by construction, so
apply_scenario freezes each once and hands them to the gather
(TelemetryTrace._gather), which does not re-check them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simkit import TelemetryTrace, _frozen

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
        elif (self.record_start_s, self.record_end_s,
              self.target_modules) != (None, None, None):
            raise ValueError("a swap takes no record window or target modules")

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


def _window(trace: TelemetryTrace, scenario: AttackScenario) -> tuple:
    """Frame indices [a, b) of the scenario's active window."""
    a, b = np.searchsorted(trace.t_s, [scenario.k0_s, scenario.kf_s])
    return int(a), int(b)


def apply_scenario(trace: TelemetryTrace,
                   scenario: AttackScenario) -> TelemetryTrace:
    """Corrupt a trace per scenario; returns the corrupted trace.

    The input trace is never modified; the corrupted trace shares its
    ``t_s``, ``i_pack_a`` and ``i_modules`` arrays.  Its ``attack_mask``
    (read-only) is 1 exactly on [k0, kf).  It is gathered through the
    attack's source map, so that ``source[k, m]`` is the flat index into
    ``trace.v_modules`` of the value it holds at (k, m); the map and the
    mask, valid by construction once validate_for has passed, are not
    re-checked.
    """
    scenario.validate_for(trace)
    a, b = _window(trace, scenario)
    n, q = trace.v_modules.shape
    source = np.arange(n * q).reshape(n, q)
    if scenario.kind == "swap_fdi":
        if q < 2:
            raise ValueError("swap needs at least 2 modules")
        source[a:b] = trace.descending_order[a:b] + source[a:b, :1]
    else:
        rec = int(np.searchsorted(trace.t_s, scenario.record_start_s))
        cols = [m - 1 for m in scenario.target_modules]
        source[a:b, cols] = source[rec:rec + b - a, cols]
    mask = np.zeros(n, dtype=int)
    mask[a:b] = 1
    return trace._gather(
        _frozen(source), _frozen(mask),
        (trace.name + "_" + scenario.kind) if trace.name else scenario.kind)
