"""Reference telemetry CSV reader and writer that ``voltsentry.datasets``
must match.

``reference_write_trace`` and ``reference_read_trace`` are the line-by-line
writer and reader that ``datasets`` replaced with array operations, kept
verbatim but for their names: the reader parses and checks one line at a
time and raises at the first offending one.
"""

import os

import numpy as np

from voltsentry.datasets import TraceParseError
from voltsentry.simkit import TelemetryTrace


def reference_write_trace(path, trace: TelemetryTrace) -> None:
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


def reference_read_trace(path) -> TelemetryTrace:
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
