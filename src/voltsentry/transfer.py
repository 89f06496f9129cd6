"""Warm-start fine-tuning of a cell-level ensemble on limited pack data.

Module voltages and pack currents are mapped to per-cell scale before they
reach the shared trees: v_scale is the series cell count, i_scale the number
of parallel strings (modules times branches).  Fine-tuning appends one
segment of freshly boosted trees to the frozen base segments and stamps the
pack normalization onto the returned ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boost import (Ensemble, NormSpec, Segment, TrainConfig, _boost_segment,
                    predict_model_space)
from .simkit import PackConfig


@dataclass(frozen=True)
class FinetuneConfig:
    """Hyper-parameters for the appended fine-tune segment."""

    n_trees: int
    max_depth: int
    learning_rate: float
    lambda_l2: float = 1.0
    gamma_leaf: float = 0.0
    min_child_weight: float = 1.0

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValueError("n_trees must be nonnegative")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")


PACK1_RECIPE = FinetuneConfig(n_trees=3, max_depth=2, learning_rate=0.035)
PACK2_RECIPE = FinetuneConfig(n_trees=2, max_depth=8, learning_rate=0.02)


def norm_for_pack(config: PackConfig) -> NormSpec:
    """Per-cell normalization implied by the pack topology."""
    return NormSpec(
        v_scale=float(config.series_cells),
        i_scale=float(config.parallel_modules * config.branches_per_module))


def finetune(base: Ensemble, pack_train, pack_val, cfg: FinetuneConfig,
             norm: NormSpec) -> Ensemble:
    """Continue boosting from the base model's residuals on pack data.

    ``pack_train`` and ``pack_val`` must already be normalized with ``norm``
    (their meta records it).  The base segments are reused untouched; the
    result carries the pack normalization, so raw module voltages and pack
    currents feed the same trees at cell scale.
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

    if cfg.n_trees == 0:
        segment = Segment("finetune", cfg.learning_rate, ())
        history = None
    else:
        seg_cfg = TrainConfig(
            n_trees=cfg.n_trees, max_depth=cfg.max_depth,
            learning_rate=cfg.learning_rate, lambda_l2=cfg.lambda_l2,
            gamma_leaf=cfg.gamma_leaf, min_child_weight=cfg.min_child_weight)
        segment, history = _boost_segment(
            x, y, preds, seg_cfg, "finetune", val_x, val_y, val_preds)

    return Ensemble(
        base_score=base.base_score,
        segments=base.segments + (segment,),
        norm=norm, history=history)
