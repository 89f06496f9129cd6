"""Warm-start fine-tuning of a cell-level ensemble on limited pack data.

Module voltages and pack currents are mapped to per-cell scale before they
reach the shared trees: v_scale is the series cell count, i_scale the number
of parallel strings (modules times branches).  Fine-tuning is boost's one
boosting entry run on the base model: it appends one segment of freshly
boosted trees to the frozen base segments, and the returned ensemble takes
the normalization the pack's supervised sets carry.
"""

from __future__ import annotations

from .boost import Ensemble, NormSpec, TrainConfig, _boost_onto
# Unused here; perfbench's test_install_patches_every_binding checks that
# its tracer rebinds this imported binding.
from .boost import predict_model_space  # noqa: F401
from .simkit import PackConfig


PACK1_RECIPE = TrainConfig(n_trees=3, max_depth=2, learning_rate=0.035)
PACK2_RECIPE = TrainConfig(n_trees=2, max_depth=8, learning_rate=0.02)


def norm_for_pack(config: PackConfig) -> NormSpec:
    """Per-cell normalization implied by the pack topology."""
    return NormSpec(
        v_scale=float(config.series_cells),
        i_scale=float(config.parallel_modules * config.branches_per_module))


def finetune(base: Ensemble, pack_train, pack_val, cfg: TrainConfig) -> Ensemble:
    """Continue boosting from the base model's predictions on pack data.

    ``pack_train`` and ``pack_val`` are supervised sets built with the
    pack's normalization (``norm_for_pack``), which they carry and the
    result takes; a validation set of another normalization is rejected.
    The base segments are reused untouched, so raw module voltages and pack
    currents feed the same trees at cell scale.  With ``cfg.n_trees == 0``
    the appended segment is empty: the base model under the pack's norm.
    Without ``pack_val`` (None or no rows) it trains without validation, as
    ``boost.train`` does: the history's val_mse is empty, its maxima None.
    """
    if len(pack_train) == 0:
        raise ValueError("pack training data is empty")
    return _boost_onto(base, pack_train, pack_val, cfg, "finetune")
