"""Shared fixtures: the canonical corpus, base model, and pack bundles.

These are session-scoped because base training takes tens of seconds; the
acceptance suite and a few integration tests share them.  The pack traces
are simulated from the shipped configs/ specs, as the study driver's are.
"""

import os
import time
import warnings

import numpy as np
import pytest

from voltsentry import boost, configio, pipeline, simkit, transfer

# Hypothesis imports this module to report a falsifying example.  Its
# dependencies raise a DeprecationWarning on import, which pyproject.toml's
# filterwarnings = ["error"] would turn into an INTERNALERROR in place of
# the example; imported here once, the module is cached without it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def canonical_config(name: str) -> str:
    """Path of a shipped config, by its file stem (``pack1_c100``)."""
    return os.path.join(CONFIGS, name + ".ini")


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
    def run(rate):
        spec = configio.read_sim_config(canonical_config(f"{config.name}_{rate}"))
        assert spec.pack == config
        return simkit.run_cccv_pack(
            spec.pack, spec.cell, spec.policy, spec.init_soc, spec.noise,
            name=pipeline.pack_trace_name(config.name, spec.policy.c_rate))

    traces = {"train": [run("c080"), run("c120")], "test": run("c100")}
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
