"""Shared fixtures: the canonical corpus, base model, and pack bundles.

These are session-scoped because base training takes tens of seconds; the
acceptance suite and a few integration tests share them.
"""

import time

import numpy as np
import pytest

from voltsentry import boost, pipeline, simkit, transfer


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    pipeline.generate_cell_corpus(path, seed=pipeline.CANONICAL_CORPUS_SEED)
    return path


@pytest.fixture(scope="session")
def base_bundle(corpus_dir):
    """(ensemble, train seconds, train set, val set) for the canonical corpus."""
    train_set, val_set = pipeline.load_cell_corpus(corpus_dir)
    t0 = time.perf_counter()
    ens = boost.train(train_set, val_set, boost.BASE_RECIPE)
    seconds = time.perf_counter() - t0
    return ens, seconds, train_set, val_set


@pytest.fixture(scope="session")
def base_model(base_bundle):
    return base_bundle[0]


def _pack_bundle(base, config, recipe):
    cell = simkit.default_cell()

    def run(c_rate):
        return simkit.run_cccv_pack(
            config, cell, pipeline.pack_policy(c_rate), pipeline.PACK_INIT_SOC,
            name=pipeline.pack_trace_name(config.name, c_rate))

    traces = {"train": [run(c) for c in pipeline.PACK_TRAIN_C_RATES],
              "test": run(pipeline.PACK_TEST_C_RATE)}
    model, info, seconds = pipeline.finetune_pack(
        base, config, traces["train"], traces["test"], recipe)
    epsilon, nominal_det, preds = pipeline.calibrate_on_trace(model, traces["test"])
    return {
        "config": config,
        "traces": traces,
        "model": model,
        "info": info,
        "finetune_s": seconds,
        "epsilon": epsilon,
        "nominal_det": nominal_det,
    }


@pytest.fixture(scope="session")
def pack1_bundle(base_model):
    return _pack_bundle(base_model, simkit.pack1_config(), transfer.PACK1_RECIPE)


@pytest.fixture(scope="session")
def pack2_bundle(base_model):
    return _pack_bundle(base_model, simkit.pack2_config(), transfer.PACK2_RECIPE)


@pytest.fixture
def fast_cell():
    """Cell with short time constants, handy for quick CV entry."""
    return simkit.default_cell()


def make_trace(v, i=None, t=None, **kwargs):
    """Small trace builder for unit tests; v is (n, q) or (n,) for q=1."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    n = v.shape[0]
    if t is None:
        t = np.arange(n, dtype=float)
    if i is None:
        i = np.full(n, 5.0)
    elif np.ndim(i) == 0:
        i = np.full(n, float(i))
    return simkit.TelemetryTrace(t_s=np.asarray(t, float),
                                 i_pack_a=np.asarray(i, float),
                                 v_modules=v, **kwargs)
