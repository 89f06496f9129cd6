"""Warm-start fine-tuning of a cell-level ensemble on limited pack data.

Module voltages and pack currents are mapped to per-cell scale before they
reach the shared trees: v_scale is the series cell count, i_scale the number
of parallel strings (modules times branches).  Fine-tuning appends one
segment of freshly boosted trees to the frozen base segments and stamps the
pack normalization onto the returned ensemble.
"""

from __future__ import annotations

import numpy as np

from .boost import (Ensemble, NormSpec, TrainConfig, _boost_segment,
                    predict_model_space)
from .simkit import PackConfig


PACK1_RECIPE = TrainConfig(n_trees=3, max_depth=2, learning_rate=0.035)
PACK2_RECIPE = TrainConfig(n_trees=2, max_depth=8, learning_rate=0.02)


def norm_for_pack(config: PackConfig) -> NormSpec:
    """Per-cell normalization implied by the pack topology."""
    return NormSpec(
        v_scale=float(config.series_cells),
        i_scale=float(config.parallel_modules * config.branches_per_module))


def finetune(base: Ensemble, pack_train, pack_val, cfg: TrainConfig,
             norm: NormSpec) -> Ensemble:
    """Continue boosting from the base model's residuals on pack data.

    ``pack_train`` and ``pack_val`` must already be normalized with ``norm``
    (their meta records it).  The base segments are reused untouched; the
    result carries the pack normalization, so raw module voltages and pack
    currents feed the same trees at cell scale.  With ``cfg.n_trees == 0``
    the appended segment is empty: the base model under the pack's norm.
    """
    if len(pack_train) == 0:
        raise ValueError("pack training data is empty")
    for name, ds in (("train", pack_train), ("val", pack_val)):
        ds_norm = ds.meta.get("norm")
        if ds_norm is not None and ds_norm != norm:
            raise ValueError(f"pack {name} set normalized with {ds_norm}, expected {norm}")

    x = np.asarray(pack_train.x, dtype=float)
    y = np.asarray(pack_train.y, dtype=float)
    preds = predict_model_space(base, x)
    val_x = val_y = val_preds = None
    if pack_val is not None and len(pack_val):
        val_x = np.asarray(pack_val.x, dtype=float)
        val_y = np.asarray(pack_val.y, dtype=float)
        val_preds = predict_model_space(base, val_x)

    segment, history = _boost_segment(
        x, y, preds, cfg, "finetune", val_x, val_y, val_preds)
    return Ensemble(
        base_score=base.base_score,
        segments=base.segments + (segment,),
        norm=norm, history=history)
