"""Telemetry persistence and supervised one-step-ahead set construction.

Telemetry CSV schema: header ``t_s,i_pack_a,v_m1,...,v_mq`` plus an optional
trailing ``attack_mask`` column, one row per second, every value formatted
with 6 decimal places.

Supervised pairs map the frame at step k to the voltage at step k+1 of the
same module: x = [v(k), i(k)], y = v(k+1).  Module indices are 1-based
throughout the public API, matching the CSV header.  A SupervisedSet
carries the NormSpec it was built with and the (trace name, module) keys
of its pairs as typed fields; boosting reads its normalization there.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat

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
    (N,).  ``norm`` is the normalization they were built with: under a
    non-identity NormSpec both are already in model space.  ``sources`` are
    the (trace name, module) keys the pairs came from.
    """

    x: np.ndarray
    y: np.ndarray
    norm: NormSpec = NormSpec()
    sources: tuple = ()

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2 or self.x.shape[1] != 2:
            raise ValueError("x must have shape (N, 2)")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("x and y lengths must match")

    def __len__(self) -> int:
        return self.x.shape[0]


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
    return SupervisedSet(x, y, norm, ((trace.name, module),))


def concat(sets: list) -> SupervisedSet:
    """Pool supervised sets; all inputs must share the same normalization."""
    if not sets:
        raise ValueError("nothing to concatenate")
    norm = sets[0].norm
    if any(s.norm != norm for s in sets):
        raise ValueError("cannot pool sets with different normalizations")
    return SupervisedSet(
        np.concatenate([s.x for s in sets]), np.concatenate([s.y for s in sets]),
        norm, tuple(key for s in sets for key in s.sources))


def check_no_leakage(*sets: SupervisedSet) -> None:
    """Assert that no (trace, module) key appears in more than one set."""
    seen: set = set()
    for s in sets:
        keys = set(s.sources)
        overlap = seen & keys
        if overlap:
            raise ValueError(f"leakage: {sorted(overlap)} in multiple sets")
        seen |= keys


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def write_csv(path, header: list, row: str, columns: list) -> None:
    """Write a CSV: the ``header`` line, then one line per position of the
    equally long ``columns``, formatted by the %-format ``row``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(map((row + "\n").__mod__, zip(*columns, strict=True))))


def write_trace(path, trace: TelemetryTrace) -> None:
    """Write a trace using the telemetry CSV schema (6 decimal places)."""
    q = trace.q
    cols = ["t_s", "i_pack_a"] + [f"v_m{m}" for m in range(1, q + 1)]
    columns = [trace.t_s.tolist(), trace.i_pack_a.tolist(), *trace.v_modules.T.tolist()]
    row = ",".join(["%.6f"] * (q + 2))
    if trace.attack_mask is not None:
        cols.append("attack_mask")
        columns.append(trace.attack_mask.tolist())
        row += ",%d"
    write_csv(path, cols, row, columns)


def _unparseable(row: str) -> bool:
    try:
        list(map(float, row.split(",")))
    except ValueError:
        return True
    return False


def _floats(rows: list, n_fields: int) -> np.ndarray:
    """The fields of rows of n_fields fields each, as an (n, n_fields) array."""
    tokens = ",".join(rows).split(",") if rows else []
    return np.fromiter(map(float, tokens), dtype=float,
                       count=len(tokens)).reshape(len(rows), n_fields)


def read_trace(path) -> TelemetryTrace:
    """Parse a telemetry CSV, reporting schema violations with line numbers.

    The body is parsed into one array and checked as a whole.  The first
    offending line is reported, with the first of its faults in this
    order: field count, an unparseable field, a non-finite value, a break
    in the 1 Hz cadence, a mask value other than 0 or 1.  Blank lines are
    skipped.
    """
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
    filled = np.fromiter(map(bool, map(str.strip, lines[1:])), dtype=bool,
                         count=len(lines) - 1)
    line_of = np.flatnonzero(filled) + 2  # 1-based line number of each row
    rows = list(filter(str.strip, lines[1:]))
    if not rows:
        raise TraceParseError("no data rows", 2)
    # rows[:n] are checked as arrays; rows[n], if any, raises fault.
    n, fault = len(rows), None
    # Counted per row, not in a fixed-width string array that one long
    # line would blow up to its width times the row count.
    fields = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.intp,
                         count=len(rows)) + 1
    ragged = np.flatnonzero(fields != n_fields)
    if ragged.size:
        n = int(ragged[0])
        fault = f"expected {n_fields} fields, got {fields[n]}"
    try:
        values = _floats(rows[:n], n_fields)
    except ValueError:
        # Only a scan of the rows finds the one with an unparseable field.
        n = next(k for k in range(n) if _unparseable(rows[k]))
        fault = f"unparseable value in {rows[n]!r}"
        values = _floats(rows[:n], n_fields)

    t = values[:, 0]
    nonfinite = ~np.isfinite(values).all(axis=1)
    gap = np.zeros(n, dtype=bool)
    gap[1:] = t[1:] != t[:-1] + 1.0
    bad_mask = np.zeros(n, dtype=bool)
    if has_mask:
        bad_mask = (values[:, -1] != 0.0) & (values[:, -1] != 1.0)
    bad = np.flatnonzero(nonfinite | gap | bad_mask)
    if bad.size:
        k = int(bad[0])
        if nonfinite[k]:
            fault = "non-finite value"
        elif gap[k]:
            fault = (f"t_s={float(t[k])!r} does not follow "
                     f"t_s={float(t[k - 1])!r} by 1 s")
        else:
            fault = f"attack_mask must be 0 or 1, got {float(values[k, -1])}"
        n = k
    if fault is not None:
        raise TraceParseError(fault, int(line_of[n]))
    name = os.path.splitext(os.path.basename(str(path)))[0]
    try:
        return TelemetryTrace(
            t_s=t, i_pack_a=values[:, 1],
            v_modules=values[:, 2:-1] if has_mask else values[:, 2:],
            attack_mask=values[:, -1].astype(int) if has_mask else None,
            name=name)
    except ValueError as exc:
        raise TraceParseError(str(exc), 2) from None
