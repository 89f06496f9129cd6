"""Reference CSV writers that ``datasets.write_csv``'s callers must match.

The per-row f-string writers that ``sentinel.write_detection``,
``sentinel.write_events``, ``pipeline.write_prediction_csv`` and
``reports.write_loss_curve`` replaced with ``datasets.write_csv``, kept
verbatim but for their names.
"""

import numpy as np

from voltsentry.boost import BoostHistory
from voltsentry.sentinel import DetectionTrace
from voltsentry.simkit import TelemetryTrace


def reference_write_detection(path, det: DetectionTrace) -> None:
    """Detection CSV: t_s,r_v,flag rows at 6 decimal places."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s,r_v,flag\n")
        for k in range(len(det.r)):
            fh.write(f"{det.t_s[k]:.6f},{det.r[k]:.6f},{det.flag[k]:d}\n")


def reference_write_events(path, det: DetectionTrace) -> None:
    """Events log: one t_s,residual,transition line per threshold crossing."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s,residual,transition\n")
        flag = 0
        for t, r in det.events:
            transition = "set" if flag == 0 else "reset"
            flag = 1 - flag
            fh.write(f"{t:.6f},{r:.6f},{transition}\n")


def reference_write_prediction_csv(path, trace: TelemetryTrace,
                                   preds: np.ndarray,
                                   residuals: np.ndarray) -> None:
    """Plot data for the nominal prediction figure: measured, predicted, r."""
    q = trace.q
    cols = (["t_s"] + [f"v_m{m}" for m in range(1, q + 1)]
            + [f"vhat_m{m}" for m in range(1, q + 1)] + ["r_v"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(preds.shape[0]):
            row = [f"{trace.t_s[k + 1]:.6f}"]
            row += [f"{v:.6f}" for v in trace.v_modules[k + 1]]
            row += [f"{v:.6f}" for v in preds[k]]
            row.append(f"{residuals[k]:.6f}")
            fh.write(",".join(row) + "\n")


def reference_write_loss_curve(path, history: BoostHistory) -> None:
    """Loss curve CSV: ``round,train_mse,val_mse``, one row per boosting
    round (round r holds the losses after r trees).  Losses are written as
    ``%.16e``, which round-trips every float64 exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,train_mse,val_mse\n")
        rows = zip(history.train_mse, history.val_mse, strict=True)
        for rnd, (train_mse, val_mse) in enumerate(rows, start=1):
            fh.write(f"{rnd:d},{train_mse:.16e},{val_mse:.16e}\n")
