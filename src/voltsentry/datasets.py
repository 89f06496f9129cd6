"""Telemetry persistence and supervised one-step-ahead set construction.

Telemetry CSV schema: header ``t_s,i_pack_a,v_m1,...,v_mq`` plus an optional
trailing ``attack_mask`` column, one row per second, every value formatted
with 6 decimal places.

Supervised pairs map the frame at step k to the voltage at step k+1 of the
same module: x = [v(k), i(k)], y = v(k+1).  Module indices are 1-based
throughout the public API, matching the CSV header.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .boost import NormSpec
from .simkit import TelemetryTrace


class TraceParseError(ValueError):
    """Malformed telemetry CSV; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class SupervisedSet:
    """Feature/target pairs for one-step-ahead voltage prediction.

    ``x`` has shape (N, 2) with columns (voltage, current); ``y`` has shape
    (N,).  When built with a non-identity NormSpec both are already in model
    space.  ``meta`` records provenance: the (trace name, module) keys the
    pairs came from and the normalization applied.
    """

    x: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2 or self.x.shape[1] != 2:
            raise ValueError("x must have shape (N, 2)")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("x and y lengths must match")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def norm(self) -> NormSpec:
        return self.meta.get("norm", NormSpec())

    @property
    def sources(self) -> set:
        return set(self.meta.get("sources", ()))


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint 1-based module index sets for train/validation/test."""

    train_modules: tuple
    val_modules: tuple
    test_modules: tuple

    def __post_init__(self):
        object.__setattr__(self, "train_modules", tuple(self.train_modules))
        object.__setattr__(self, "val_modules", tuple(self.val_modules))
        object.__setattr__(self, "test_modules", tuple(self.test_modules))
        groups = (self.train_modules, self.val_modules, self.test_modules)
        flat = [m for g in groups for m in g]
        if len(set(flat)) != len(flat):
            raise ValueError("split module sets must be disjoint")
        if any(m < 1 for m in flat):
            raise ValueError("module indices are 1-based")

    def validate_for(self, q: int) -> None:
        used = set(self.train_modules) | set(self.val_modules) | set(self.test_modules)
        if any(m > q for m in used):
            raise ValueError(f"split references module beyond q={q}")

    @classmethod
    def default_for(cls, q: int) -> "SplitSpec":
        """Lowest indices train, next one validates, highest one tests."""
        if q < 3:
            raise ValueError("default split needs at least 3 modules")
        return cls(tuple(range(1, q - 1)), (q - 1,), (q,))


def build_supervised(trace: TelemetryTrace, module: int,
                     normalization: NormSpec | None = None) -> SupervisedSet:
    """Consecutive-frame pairs for one module of a trace.

    Pairs never span an attack-window boundary: when the trace carries an
    attack mask, pairs whose two frames lie on different sides of a mask
    transition are dropped.
    """
    if trace.n_frames < 2:
        raise ValueError("trace must have at least 2 frames")
    if not 1 <= module <= trace.q:
        raise ValueError(f"module {module} out of range 1..{trace.q}")
    norm = normalization or NormSpec()
    v = trace.v_modules[:, module - 1]
    x = np.column_stack([v[:-1] / norm.v_scale, trace.i_pack_a[:-1] / norm.i_scale])
    y = v[1:] / norm.v_scale
    if trace.attack_mask is not None:
        keep = trace.attack_mask[:-1] == trace.attack_mask[1:]
        x, y = x[keep], y[keep]
    return SupervisedSet(
        x=x, y=y,
        meta={"norm": norm, "sources": ((trace.name, module),)})


def concat(sets: list) -> SupervisedSet:
    """Pool supervised sets; all inputs must share the same normalization."""
    if not sets:
        raise ValueError("nothing to concatenate")
    norm = sets[0].norm
    if any(s.norm != norm for s in sets):
        raise ValueError("cannot pool sets with different normalizations")
    sources = tuple(key for s in sets for key in s.meta.get("sources", ()))
    return SupervisedSet(
        x=np.concatenate([s.x for s in sets]),
        y=np.concatenate([s.y for s in sets]),
        meta={"norm": norm, "sources": sources})


def check_no_leakage(*sets: SupervisedSet) -> None:
    """Assert that no (trace, module) key appears in more than one set."""
    seen: set = set()
    for s in sets:
        keys = s.sources
        overlap = seen & keys
        if overlap:
            raise ValueError(f"leakage: {sorted(overlap)} in multiple sets")
        seen |= keys


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def write_trace(path, trace: TelemetryTrace) -> None:
    """Write a trace using the telemetry CSV schema (6 decimal places)."""
    q = trace.q
    cols = ["t_s", "i_pack_a"] + [f"v_m{m}" for m in range(1, q + 1)]
    mask = trace.attack_mask
    if mask is not None:
        cols.append("attack_mask")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(trace.n_frames):
            row = [f"{trace.t_s[k]:.6f}", f"{trace.i_pack_a[k]:.6f}"]
            row += [f"{v:.6f}" for v in trace.v_modules[k]]
            if mask is not None:
                row.append(str(int(mask[k])))
            fh.write(",".join(row) + "\n")


def read_trace(path) -> TelemetryTrace:
    """Parse a telemetry CSV, reporting schema violations with line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise TraceParseError("no header", 1)
    header = [c.strip() for c in lines[0].split(",")]
    has_mask = header and header[-1] == "attack_mask"
    vcols = header[2:-1] if has_mask else header[2:]
    if (header[:2] != ["t_s", "i_pack_a"] or not vcols
            or vcols != [f"v_m{m}" for m in range(1, len(vcols) + 1)]):
        raise TraceParseError(f"unexpected header {header!r}", 1)

    n_fields = len(header)
    t, i, v, mask = [], [], [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise TraceParseError(
                f"expected {n_fields} fields, got {len(parts)}", ln)
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise TraceParseError(f"unparseable value in {line!r}", ln) from None
        if not all(np.isfinite(values)):
            raise TraceParseError("non-finite value", ln)
        if t and values[0] != t[-1] + 1.0:
            raise TraceParseError(
                f"t_s={values[0]!r} does not follow t_s={t[-1]!r} by 1 s", ln)
        t.append(values[0])
        i.append(values[1])
        if has_mask:
            v.append(values[2:-1])
            m = values[-1]
            if m not in (0.0, 1.0):
                raise TraceParseError(f"attack_mask must be 0 or 1, got {m}", ln)
            mask.append(int(m))
        else:
            v.append(values[2:])
    if not t:
        raise TraceParseError("no data rows", 2)
    name = os.path.splitext(os.path.basename(str(path)))[0]
    try:
        return TelemetryTrace(
            t_s=np.array(t), i_pack_a=np.array(i), v_modules=np.array(v),
            attack_mask=np.array(mask, dtype=int) if has_mask else None,
            name=name)
    except ValueError as exc:
        raise TraceParseError(str(exc), 2) from None
