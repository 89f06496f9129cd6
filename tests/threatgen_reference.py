"""Reference attack injection that ``voltsentry.threatgen`` must match.

``reference_apply_scenario`` is the copy-based swap and replay that
``apply_scenario`` replaced with one gather through the attack's source
map, kept verbatim but for its name and its 2-tuple result: the swap
reorders a window copy with ``take_along_axis`` and the replay copies the
recorded frames' target columns over the window.
"""

from dataclasses import replace

import numpy as np

from voltsentry.simkit import TelemetryTrace
from voltsentry.threatgen import AttackScenario


def _swap_rows(v: np.ndarray) -> np.ndarray:
    order = np.argsort(-v, axis=1, kind="stable")
    return np.take_along_axis(v, order, axis=1)


def _window(trace: TelemetryTrace, scenario: AttackScenario) -> tuple:
    """Frame indices [a, b) of the scenario's active window."""
    a, b = np.searchsorted(trace.t_s, [scenario.k0_s, scenario.kf_s])
    return int(a), int(b)


def reference_apply_scenario(trace: TelemetryTrace, scenario: AttackScenario):
    """Corrupt a trace per scenario; returns (corrupted trace, 0/1 mask)."""
    scenario.validate_for(trace)
    a, b = _window(trace, scenario)
    if scenario.kind == "swap_fdi":
        if trace.q < 2:
            raise ValueError("swap needs at least 2 modules")
        v = trace.v_modules.copy()
        v[a:b] = _swap_rows(trace.v_modules[a:b])
    else:
        rec = int(np.searchsorted(trace.t_s, scenario.record_start_s))
        cols = [m - 1 for m in scenario.target_modules]
        v = trace.v_modules.copy()
        v[a:b, cols] = trace.v_modules[rec:rec + b - a, cols]
    mask = np.zeros(trace.n_frames, dtype=int)
    mask[a:b] = 1
    out = replace(trace, v_modules=v, attack_mask=mask,
                  name=(trace.name + "_" + scenario.kind) if trace.name
                  else scenario.kind)
    return out, out.attack_mask
