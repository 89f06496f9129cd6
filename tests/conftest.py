"""Shared fixtures: the canonical corpus, base model, and pack bundles.

These are session-scoped because base training takes tens of seconds; the
acceptance suite and a few integration tests share them.  The pack traces
are simulated from the shipped configs/ specs, as the study driver's are.
write_sim_config writes a simulator INI for tests that need one of their
own, gather builds an attacked trace from a source map of their own, and
same_trace compares two traces' values.
"""

import configparser
import importlib.machinery
import os
import sys
import time
import warnings

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The voltsentry that PYTHONPATH names, else this checkout's own, ahead of
# any installed copy (an editable install of another checkout, say).
_PYTHONPATH = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if importlib.machinery.PathFinder.find_spec("voltsentry", _PYTHONPATH) is None:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from voltsentry import boost, configio, pipeline, simkit, transfer  # noqa: E402

# Hypothesis imports this module to report a falsifying example.  Its
# dependencies raise a DeprecationWarning on import, which pyproject.toml's
# filterwarnings = ["error"] would turn into an INTERNALERROR in place of
# the example; imported here once, the module is cached without it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

CONFIGS = os.path.join(ROOT, "configs")


def canonical_config(name: str) -> str:
    """Path of a shipped config, by its file stem (``pack1_c100``)."""
    return os.path.join(CONFIGS, name + ".ini")


def write_sim_config(path, spec: configio.SimRunSpec) -> None:
    """Write a simulator run as the INI that configio.read_sim_config reads:
    a cell_corpus run without the [policy] and init_soc it never reads."""
    corpus = spec.kind == "cell_corpus"
    parser = configparser.ConfigParser()
    parser["run"] = {"kind": spec.kind, "seed": str(spec.seed)}
    if not corpus:
        parser["run"]["init_soc"] = repr(spec.init_soc)
    parser["cell"] = {
        "capacity_ah": repr(spec.cell.capacity_ah),
        "r0_ohm": repr(spec.cell.r0_ohm),
        "r1_ohm": repr(spec.cell.r1_ohm),
        "c1_f": repr(spec.cell.c1_f),
        "diff_tau_s": repr(spec.cell.diff_tau_s),
        "v_max": repr(spec.cell.v_max),
        "ocv_soc": ", ".join(repr(s) for s, _ in spec.cell.ocv_knots),
        "ocv_v": ", ".join(repr(v) for _, v in spec.cell.ocv_knots),
    }
    if not corpus:
        parser["policy"] = {
            "c_rate": repr(spec.policy.c_rate),
            "taper_cutoff_c": repr(spec.policy.taper_cutoff_c),
            "duration_s": repr(spec.policy.duration_s),
        }
    parser["noise"] = {"rel_sigma": repr(spec.noise.rel_sigma)}
    if spec.pack is not None:
        parser["pack"] = {
            "name": spec.pack.name,
            "parallel_modules": str(spec.pack.parallel_modules),
            "branches_per_module": str(spec.pack.branches_per_module),
            "series_cells": str(spec.pack.series_cells),
            "heterogeneity_sigma": repr(spec.pack.heterogeneity_sigma),
            "rng_seed": str(spec.pack.rng_seed),
            "interconnect_ohm": ", ".join(repr(r) for r in spec.pack.interconnect_ohm),
        }
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


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


def same_trace(a, b) -> bool:
    """Whether two traces hold equal t_s, i_pack_a, v_modules and
    attack_mask (None on both, or equal arrays)."""
    if (a.attack_mask is None) != (b.attack_mask is None):
        return False
    names = ("t_s", "i_pack_a", "v_modules")
    if a.attack_mask is not None:
        names += ("attack_mask",)
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)


def gather(trace, source, attack_mask, name="x"):
    """The trace gathered from ``trace`` through an integer ``source`` map
    of its (n, q) shape, with a 0/1 mask: ``TelemetryTrace._gather``, which
    threatgen.apply_scenario calls, on frozen copies of the two arrays."""
    return trace._gather(simkit._frozen(source), simkit._frozen(attack_mask),
                         name)
