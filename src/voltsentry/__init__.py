"""voltsentry: CCCV charging telemetry and boosted-tree attack detection."""

__version__ = "0.1.0"

from .boost import (BASE_RECIPE, Ensemble, NormSpec, TrainConfig, load_model,
                    predict_batch, save_model, train)
from .datasets import SupervisedSet, build_supervised, read_trace, write_trace
from .sentinel import (DetectionTrace, DetectorState, calibrate_threshold,
                       one_step_residuals, run_detector, step_detector)
from .simkit import (CccvPolicy, CellParams, NoiseSpec, PackConfig,
                     TelemetryFrame, TelemetryTrace, default_cell, pack1_config,
                     pack2_config, run_cccv_cell, run_cccv_pack)
from .threatgen import AttackScenario, apply_scenario
from .transfer import PACK1_RECIPE, PACK2_RECIPE, finetune, norm_for_pack
