"""INI-style config files for simulator runs, attack scenarios, and recipes.

SCHEMA lists every section a config file may hold, its keys and the parser
of each value.  Every reader parses its file through _read, which raises
configparser.Error (CLI exit 4, parse-error) for a section or a key that
SCHEMA does not list; a file may hold other readers' sections.  A file may
name [run] base = <path>, relative to its own directory: the base is read
first, then the file's keys win, key by key.  Each file is checked on its
own, so an error names the file that holds the bad key; a base that names
a base raises configparser.Error, a missing or empty base
FileNotFoundError (exit 3), one that names a directory IsADirectoryError
(also exit 3).

Required: [run] kind (cell | pack | cell_corpus); for a pack run, [pack]
parallel_modules branches_per_module series_cells; [attack] kind k0_s kf_s,
and for a replay record_start_s record_end_s; [finetune] n_trees max_depth
learning_rate.  A missing one raises configparser.NoOptionError (exit 4);
other keys default as their dataclass does, a [pack] name to "pack" and a
[policy] c_rate to 1.0.  ocv_soc and ocv_v are comma lists of one length,
interconnect_ohm one value or one per module, target_modules a comma list
of 1-based modules.  A cell_corpus run sweeps the built-in charging grid,
so [policy] or [run] init_soc in it raises configparser.Error, as does
[pack] outside a pack run.  Pack noise is seeded from [pack] rng_seed, so
simulate rejects a nonzero seed for a pack run.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import asdict, dataclass

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


def _float_or_floats(text: str):
    values = _floats(text)
    return values[0] if len(values) == 1 else values


_BOOSTING = {"n_trees": int, "max_depth": int, "learning_rate": float,
             "lambda_l2": float, "gamma_leaf": float, "min_child_weight": float}

# Every section a config file may hold: its keys and the parser of each.
SCHEMA = {
    "run": {"kind": str, "init_soc": float, "seed": int, "base": str},
    "cell": {"capacity_ah": float, "r0_ohm": float, "r1_ohm": float,
             "c1_f": float, "diff_tau_s": float, "v_max": float,
             "ocv_soc": _floats, "ocv_v": _floats},
    "pack": {"name": str, "parallel_modules": int, "branches_per_module": int,
             "series_cells": int, "heterogeneity_sigma": float, "rng_seed": int,
             "interconnect_ohm": _float_or_floats},
    "policy": {"c_rate": float, "v_max": float, "taper_cutoff_c": float,
               "duration_s": float},
    "noise": {"rel_sigma": float},
    "attack": {"kind": str, "k0_s": int, "kf_s": int, "record_start_s": int,
               "record_end_s": int, "target_modules": _ints},
    "train": _BOOSTING,
    "finetune": _BOOSTING,
}


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


def _parse(path) -> dict:
    """{section: {key: text}} of one INI file whose every section and key
    SCHEMA lists (configparser.Error otherwise)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    for section in parser.sections():
        if section not in SCHEMA:
            raise configparser.Error(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise configparser.Error(
                    f"{path}: unknown key {key!r} in section [{section}]")
    return {section: dict(parser[section]) for section in parser.sections()}


def _base(path, ini: dict) -> str | None:
    """Path of the base file a parsed file names, popped from [run];
    FileNotFoundError naming the file if it names an empty path."""
    base = ini.get("run", {}).pop("base", None)
    if base == "":
        raise FileNotFoundError(f"{path}: [run] base names no file")
    return base and os.path.join(os.path.dirname(str(path)), base)


def base_of(path) -> str | None:
    """Path of the base file a config file names, or None."""
    return _base(path, _parse(path))


def _read(path) -> dict:
    """_parse of a file, laid over _parse of the base file it names."""
    ini = _parse(path)
    base = _base(path, ini)
    if base is not None:
        under = _parse(base)
        if _base(base, under) is not None:
            raise configparser.Error(f"{base}: base file of {path} names a base")
        ini = {s: {**under.get(s, {}), **ini.get(s, {})} for s in {**under, **ini}}
    return ini


def _values(ini: dict, section: str, required=()) -> dict:
    """The keys a section gives, parsed as SCHEMA says; an absent section
    gives none."""
    text = ini.get(section, {})
    for key in required:
        if key not in text:
            raise configparser.NoOptionError(key, section)
    return {key: SCHEMA[section][key](value) for key, value in text.items()}


def _section(ini: dict, path, section: str, required=()) -> dict:
    """_values of a section the file must hold (ValueError otherwise)."""
    if section not in ini:
        raise ValueError(f"{path}: missing [{section}] section")
    return _values(ini, section, required)


def read_sim_config(path) -> SimRunSpec:
    ini = _read(path)
    run = _values(ini, "run", ("kind",))
    if run["kind"] not in ("cell", "pack", "cell_corpus"):
        raise ValueError(f"{path}: unknown run kind {run['kind']!r}")
    if run["kind"] != "pack" and "pack" in ini:
        raise configparser.Error(f"{path}: a {run['kind']} run reads no [pack]")
    if run["kind"] == "cell_corpus" and ("policy" in ini or "init_soc" in run):
        raise configparser.Error(
            f"{path}: a cell_corpus run reads no [policy] or [run] init_soc")

    cell = _values(ini, "cell")
    if "ocv_soc" in cell or "ocv_v" in cell:
        socs, volts = cell.pop("ocv_soc", ()), cell.pop("ocv_v", ())
        if len(socs) != len(volts):
            raise ValueError(f"{path}: ocv_soc and ocv_v length mismatch")
        cell["ocv_knots"] = tuple(zip(socs, volts))
    cell = CellParams(**cell)
    policy = CccvPolicy(**{"c_rate": 1.0, **_values(ini, "policy")})
    noise = NoiseSpec(**_values(ini, "noise"))
    pack = None
    if run["kind"] == "pack":
        pack = PackConfig(**{"name": "pack", **_section(
            ini, path, "pack", ("parallel_modules", "branches_per_module",
                                "series_cells"))})
    return SimRunSpec(cell=cell, policy=policy, noise=noise, pack=pack, **run)


def read_scenario(path) -> AttackScenario:
    ini = _read(path)
    required = ("kind", "k0_s", "kf_s")
    if ini.get("attack", {}).get("kind") == "replay":
        required += ("record_start_s", "record_end_s")
    return AttackScenario(**_section(ini, path, "attack", required))


def write_scenario(path, scenario: AttackScenario) -> None:
    """Write every field the scenario sets, as read_scenario reads them."""
    parser = configparser.ConfigParser()
    parser["attack"] = {
        key: ", ".join(map(str, value)) if key == "target_modules" else str(value)
        for key, value in asdict(scenario).items() if value is not None}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def read_train_config(path) -> TrainConfig:
    return TrainConfig(**_section(_read(path), path, "train"))


def resolve_recipe(name_or_path) -> TrainConfig:
    """Named fine-tune recipe or a config file with a [finetune] section."""
    text = str(name_or_path)
    return {"pack1": PACK1_RECIPE, "pack2": PACK2_RECIPE}.get(text) or TrainConfig(
        **_section(_read(text), text, "finetune",
                   ("n_trees", "max_depth", "learning_rate")))
