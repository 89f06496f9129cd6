"""INI-style config files for simulator runs, attack scenarios, and recipes.

Simulator config sections (all keys optional unless stated):

    [cell]    capacity_ah r0_ohm r1_ohm c1_f diff_tau_s v_max v_min
              ocv_soc ocv_v           (comma lists, same length)
    [pack]    parallel_modules branches_per_module series_cells
              capacity_ah v_max_pack (required for pack runs)
              name heterogeneity_sigma rng_seed
              interconnect_ohm       (scalar or comma list, one per module)
    [policy]  c_rate v_max taper_cutoff_c duration_s
    [noise]   rel_sigma
    [run]     kind = cell | pack | cell_corpus   (required)
              init_soc seed
              (cell_corpus runs sweep the built-in charging grid; [policy]
              and init_soc apply to single cell/pack runs, and pack noise
              is seeded from the pack's rng_seed rather than [run] seed)

Scenario files have a single [attack] section with kind, k0_s, kf_s and,
for replays, record_start_s, record_end_s, target_modules (comma list,
1-based); all but target_modules are required.  Train and fine-tune
recipes are one boost.TrainConfig, read by one reader from a [train] or
[finetune] section of its six keys (n_trees max_depth learning_rate
lambda_l2 gamma_leaf min_child_weight); [finetune] requires the first
three, and other omitted keys take TrainConfig's defaults.  A missing
required key raises configparser.NoOptionError (CLI exit 4, parse-error).
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

from .boost import TrainConfig
from .simkit import CccvPolicy, CellParams, NoiseSpec, PackConfig
from .threatgen import AttackScenario
from .transfer import PACK1_RECIPE, PACK2_RECIPE


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _floats(text: str) -> tuple:
    return tuple(float(p) for p in text.replace(",", " ").split())


def _ints(text: str) -> tuple:
    return tuple(int(p) for p in text.replace(",", " ").split())


@dataclass
class SimRunSpec:
    """Everything a simulate command needs."""

    kind: str
    cell: CellParams
    policy: CccvPolicy
    noise: NoiseSpec
    pack: PackConfig | None = None
    init_soc: float = 0.25
    seed: int = 0


def _parse(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    return parser


def read_sim_config(path) -> SimRunSpec:
    parser = _parse(path)
    if not parser.has_section("run") or not parser.has_option("run", "kind"):
        raise ValueError(f"{path}: missing [run] kind")
    kind = parser.get("run", "kind").strip()
    if kind not in ("cell", "pack", "cell_corpus"):
        raise ValueError(f"{path}: unknown run kind {kind!r}")

    cell_kwargs: dict = {}
    if parser.has_section("cell"):
        sec = parser["cell"]
        for key in ("capacity_ah", "r0_ohm", "r1_ohm", "c1_f", "diff_tau_s",
                    "v_max", "v_min"):
            if key in sec:
                cell_kwargs[key] = sec.getfloat(key)
        if "ocv_soc" in sec or "ocv_v" in sec:
            socs = _floats(sec.get("ocv_soc", ""))
            volts = _floats(sec.get("ocv_v", ""))
            if len(socs) != len(volts):
                raise ValueError(f"{path}: ocv_soc and ocv_v length mismatch")
            cell_kwargs["ocv_knots"] = tuple(zip(socs, volts))
    cell = CellParams(**cell_kwargs)

    policy_kwargs: dict = {}
    if parser.has_section("policy"):
        sec = parser["policy"]
        for key in ("c_rate", "v_max", "taper_cutoff_c", "duration_s"):
            if key in sec:
                policy_kwargs[key] = sec.getfloat(key)
    if "c_rate" not in policy_kwargs:
        policy_kwargs.setdefault("c_rate", 1.0)
    policy = CccvPolicy(**policy_kwargs)

    noise = NoiseSpec()
    if parser.has_section("noise") and parser.has_option("noise", "rel_sigma"):
        noise = NoiseSpec(rel_sigma=parser.getfloat("noise", "rel_sigma"))

    pack = None
    if kind == "pack":
        if not parser.has_section("pack"):
            raise ValueError(f"{path}: pack run needs a [pack] section")
        sec = parser["pack"]
        link = sec.get("interconnect_ohm", "0")
        values = _floats(link)
        pack = PackConfig(
            name=sec.get("name", "pack"),
            parallel_modules=parser.getint("pack", "parallel_modules"),
            branches_per_module=parser.getint("pack", "branches_per_module"),
            series_cells=parser.getint("pack", "series_cells"),
            capacity_ah=parser.getfloat("pack", "capacity_ah"),
            v_max_pack=parser.getfloat("pack", "v_max_pack"),
            heterogeneity_sigma=sec.getfloat("heterogeneity_sigma", fallback=0.01),
            rng_seed=sec.getint("rng_seed", fallback=0),
            interconnect_ohm=values[0] if len(values) == 1 else values)

    run = parser["run"]
    return SimRunSpec(
        kind=kind, cell=cell, policy=policy, noise=noise, pack=pack,
        init_soc=run.getfloat("init_soc", fallback=0.25),
        seed=run.getint("seed", fallback=0))


def write_sim_config(path, spec: SimRunSpec) -> None:
    parser = configparser.ConfigParser()
    parser["run"] = {"kind": spec.kind, "init_soc": repr(spec.init_soc),
                     "seed": str(spec.seed)}
    parser["cell"] = {
        "capacity_ah": repr(spec.cell.capacity_ah),
        "r0_ohm": repr(spec.cell.r0_ohm),
        "r1_ohm": repr(spec.cell.r1_ohm),
        "c1_f": repr(spec.cell.c1_f),
        "diff_tau_s": repr(spec.cell.diff_tau_s),
        "v_max": repr(spec.cell.v_max),
        "v_min": repr(spec.cell.v_min),
        "ocv_soc": ", ".join(repr(s) for s, _ in spec.cell.ocv_knots),
        "ocv_v": ", ".join(repr(v) for _, v in spec.cell.ocv_knots),
    }
    parser["policy"] = {
        "c_rate": repr(spec.policy.c_rate),
        "v_max": repr(spec.policy.v_max),
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
            "capacity_ah": repr(spec.pack.capacity_ah),
            "v_max_pack": repr(spec.pack.v_max_pack),
            "heterogeneity_sigma": repr(spec.pack.heterogeneity_sigma),
            "rng_seed": str(spec.pack.rng_seed),
            "interconnect_ohm": ", ".join(repr(r) for r in spec.pack.interconnect_ohm),
        }
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def read_scenario(path) -> AttackScenario:
    parser = _parse(path)
    if not parser.has_section("attack"):
        raise ValueError(f"{path}: missing [attack] section")
    sec = parser["attack"]
    kind = sec.get("kind", "").strip()
    kwargs: dict = {"kind": kind, "k0_s": parser.getint("attack", "k0_s"),
                    "kf_s": parser.getint("attack", "kf_s")}
    if kind == "replay":
        kwargs["record_start_s"] = parser.getint("attack", "record_start_s")
        kwargs["record_end_s"] = parser.getint("attack", "record_end_s")
        kwargs["target_modules"] = _ints(sec.get("target_modules", ""))
    return AttackScenario(**kwargs)


def write_scenario(path, scenario: AttackScenario) -> None:
    parser = configparser.ConfigParser()
    sec = {"kind": scenario.kind, "k0_s": str(scenario.k0_s),
           "kf_s": str(scenario.kf_s)}
    if scenario.kind == "replay":
        sec["record_start_s"] = str(scenario.record_start_s)
        sec["record_end_s"] = str(scenario.record_end_s)
        sec["target_modules"] = ", ".join(str(m) for m in scenario.target_modules)
    parser["attack"] = sec
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def _read_boosting(path, section: str, required=()) -> TrainConfig:
    """The TrainConfig of a [train] or [finetune] section; keys it omits
    take TrainConfig's defaults, except the ``required`` ones."""
    parser = _parse(path)
    if not parser.has_section(section):
        raise ValueError(f"{path}: missing [{section}] section")
    kwargs = {}
    for key, get in (("n_trees", parser.getint), ("max_depth", parser.getint),
                     ("learning_rate", parser.getfloat),
                     ("lambda_l2", parser.getfloat),
                     ("gamma_leaf", parser.getfloat),
                     ("min_child_weight", parser.getfloat)):
        if key in required or parser.has_option(section, key):
            kwargs[key] = get(section, key)
    return TrainConfig(**kwargs)


def read_train_config(path) -> TrainConfig:
    return _read_boosting(path, "train")


def resolve_recipe(name_or_path) -> TrainConfig:
    """Named fine-tune recipe or a config file with a [finetune] section."""
    text = str(name_or_path)
    if text == "pack1":
        return PACK1_RECIPE
    if text == "pack2":
        return PACK2_RECIPE
    return _read_boosting(text, "finetune",
                          required=("n_trees", "max_depth", "learning_rate"))
