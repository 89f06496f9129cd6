import configparser
import os
from dataclasses import fields, replace

import pytest

from conftest import canonical_config, write_sim_config
from voltsentry import configio, simkit
from voltsentry.boost import TrainConfig
from voltsentry.configio import (SimRunSpec, read_scenario, read_sim_config,
                                 read_train_config, resolve_recipe,
                                 write_scenario)
from voltsentry.simkit import CccvPolicy, CellParams, NoiseSpec, PackConfig
from voltsentry.threatgen import AttackScenario
from voltsentry.transfer import PACK1_RECIPE, PACK2_RECIPE


def drop_option(path, section, key):
    """Rewrite an INI file without one of its keys."""
    parser = configparser.ConfigParser()
    parser.read(path)
    assert parser.remove_option(section, key)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


class TestSchema:
    def test_keys_are_the_dataclass_fields(self):
        """Each section's keys are the fields of the dataclass it sets, so
        no field is left unreadable: ocv_soc and ocv_v stand for ocv_knots,
        and [run] holds SimRunSpec's fields other than its four parts, and
        base, the file a config overlays, which no dataclass holds."""
        def names(cls, *others):
            return {f.name for f in fields(cls)} - set(others)

        assert {section: set(keys) for section, keys in configio.SCHEMA.items()} == {
            "run": names(SimRunSpec, "cell", "policy", "noise", "pack") | {"base"},
            "cell": names(CellParams, "ocv_knots") | {"ocv_soc", "ocv_v"},
            "pack": names(PackConfig),
            "policy": names(CccvPolicy),
            "noise": names(NoiseSpec),
            "attack": names(AttackScenario),
            "train": names(TrainConfig),
            "finetune": names(TrainConfig),
        }

    def test_other_readers_sections_allowed(self, tmp_path):
        path = tmp_path / "recipe.ini"
        path.write_text("[train]\nn_trees = 5\n[finetune]\nn_trees = 4\n"
                        "max_depth = 3\nlearning_rate = 0.05\n")
        assert read_train_config(path) == TrainConfig(n_trees=5)
        assert resolve_recipe(path) == TrainConfig(4, 3, 0.05)


class TestSimConfig:
    def test_pack_round_trip(self, tmp_path):
        spec = SimRunSpec(
            kind="pack", cell=simkit.default_cell(),
            policy=simkit.CccvPolicy(c_rate=1.0, duration_s=900),
            noise=simkit.NoiseSpec(), pack=simkit.pack1_config(),
            init_soc=0.25, seed=7)
        path = tmp_path / "pack1.ini"
        write_sim_config(path, spec)
        back = read_sim_config(path)
        assert back.kind == "pack"
        assert back.pack == spec.pack
        assert back.cell == spec.cell
        assert back.policy == spec.policy
        assert back.init_soc == 0.25
        assert back.seed == 7

    def test_cell_round_trip(self, tmp_path):
        spec = SimRunSpec(kind="cell", cell=simkit.default_cell(),
                          policy=simkit.CccvPolicy(c_rate=0.8),
                          noise=simkit.NoiseSpec(0.0), init_soc=0.4, seed=1)
        path = tmp_path / "cell.ini"
        write_sim_config(path, spec)
        back = read_sim_config(path)
        assert back.kind == "cell"
        assert back.noise.rel_sigma == 0.0
        assert back.policy.c_rate == 0.8

    def test_missing_run_kind(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[cell]\ncapacity_ah = 5.0\n")
        with pytest.raises(configparser.NoOptionError, match="kind"):
            read_sim_config(path)

    def test_pack_run_needs_pack_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nkind = pack\n")
        with pytest.raises(ValueError, match="pack"):
            read_sim_config(path)

    @pytest.mark.parametrize("key", ["parallel_modules", "branches_per_module",
                                     "series_cells"])
    def test_missing_required_pack_key(self, tmp_path, key):
        path = tmp_path / "pack.ini"
        write_sim_config(path, SimRunSpec(
            kind="pack", cell=simkit.default_cell(),
            policy=simkit.CccvPolicy(c_rate=1.0), noise=simkit.NoiseSpec(),
            pack=simkit.pack1_config()))
        drop_option(path, "pack", key)
        with pytest.raises(configparser.NoOptionError, match=key):
            read_sim_config(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nkind = helicopter\n")
        with pytest.raises(ValueError, match="kind"):
            read_sim_config(path)

    @pytest.mark.parametrize("kind, section, key, unread", [
        ("cell_corpus", "policy", "v_max", "[policy]"),
        ("cell_corpus", "run", "init_soc", "[run] init_soc"),
        ("cell_corpus", "pack", "series_cells", "[pack]"),
        ("cell", "pack", "series_cells", "[pack]")])
    def test_section_the_run_never_reads_rejected(self, tmp_path, kind,
                                                  section, key, unread):
        """A run kind that never reads [pack], or for a cell_corpus run
        [policy] and [run] init_soc, rejects a file that holds them rather
        than ignoring them."""
        path = tmp_path / "run.ini"
        write_sim_config(path, SimRunSpec(
            kind=kind, cell=simkit.default_cell(),
            policy=CccvPolicy(c_rate=1.0), noise=NoiseSpec()))
        read_sim_config(path)
        parser = configparser.ConfigParser()
        parser.read(path)
        parser.read_dict({section: {key: "4"}})
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        with pytest.raises(configparser.Error) as info:
            read_sim_config(path)
        assert f"a {kind} run reads no" in str(info.value)
        assert unread in str(info.value)


class TestOverlays:
    """A file that names [run] base is read over that file, its own keys
    winning; each file is checked against SCHEMA on its own."""

    @staticmethod
    def write_base(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        write_sim_config(path, SimRunSpec(
            kind="pack", cell=simkit.default_cell(),
            policy=CccvPolicy(c_rate=1.0), noise=NoiseSpec(),
            pack=simkit.pack1_config()))
        return path

    def test_overlay_key_wins_over_base(self, tmp_path):
        base = read_sim_config(self.write_base(tmp_path / "pack.ini"))
        overlay = tmp_path / "pack_c080.ini"
        overlay.write_text("[run]\nbase = pack.ini\n\n[policy]\nc_rate = 0.8\n"
                           "\n[pack]\nrng_seed = 5\n")
        spec = read_sim_config(overlay)
        assert spec == replace(base, policy=replace(base.policy, c_rate=0.8),
                               pack=simkit.pack1_config(rng_seed=5))
        assert configio.base_of(overlay) == str(tmp_path / "pack.ini")
        assert configio.base_of(tmp_path / "pack.ini") is None

    @pytest.mark.parametrize("bad_file", ["overlay", "base"])
    def test_misspelled_key_names_its_file(self, tmp_path, bad_file):
        base = self.write_base(tmp_path / "pack.ini")
        overlay = tmp_path / "pack_c080.ini"
        overlay.write_text("[run]\nbase = pack.ini\n\n[policy]\nc_rate = 0.8\n")
        path = overlay if bad_file == "overlay" else base
        path.write_text(path.read_text().replace("[policy]\n", "[policy]\nc_rat = 1\n"))
        with pytest.raises(configparser.Error, match=(
                f"^{path}: unknown key 'c_rat' in section \\[policy\\]$")):
            read_sim_config(overlay)

    def test_base_that_names_a_base_rejected(self, tmp_path):
        self.write_base(tmp_path / "pack.ini")
        (tmp_path / "middle.ini").write_text("[run]\nbase = pack.ini\n")
        (tmp_path / "top.ini").write_text("[run]\nbase = middle.ini\n")
        with pytest.raises(configparser.Error, match="names a base"):
            read_sim_config(tmp_path / "top.ini")
        (tmp_path / "self.ini").write_text("[run]\nbase = self.ini\n")
        with pytest.raises(configparser.Error, match="names a base"):
            read_sim_config(tmp_path / "self.ini")

    def test_missing_base(self, tmp_path):
        path = tmp_path / "overlay.ini"
        path.write_text("[run]\nbase = absent.ini\n")
        with pytest.raises(FileNotFoundError, match="absent.ini"):
            read_sim_config(path)

    def test_base_is_relative_to_the_naming_file(self, tmp_path, monkeypatch):
        self.write_base(tmp_path / "packs" / "pack.ini")
        overlay = tmp_path / "charges" / "c080.ini"
        overlay.parent.mkdir()
        overlay.write_text("[run]\nbase = ../packs/pack.ini\n\n"
                           "[policy]\nc_rate = 0.8\n")
        monkeypatch.chdir(tmp_path / "packs")
        want = read_sim_config("pack.ini")
        for cwd, path in ((tmp_path, os.path.join("charges", "c080.ini")),
                          (tmp_path / "packs", str(overlay))):
            monkeypatch.chdir(cwd)
            spec = read_sim_config(path)
            assert spec == replace(want, policy=replace(want.policy, c_rate=0.8))

    def test_every_reader_reads_overlays(self, tmp_path):
        (tmp_path / "swap.ini").write_text(
            "[attack]\nkind = swap_fdi\nk0_s = 300\nkf_s = 700\n")
        (tmp_path / "late.ini").write_text(
            "[run]\nbase = swap.ini\n\n[attack]\nk0_s = 500\n")
        assert read_scenario(tmp_path / "late.ini") == AttackScenario(
            "swap_fdi", 500, 700)
        (tmp_path / "train.ini").write_text("[train]\nn_trees = 5\n")
        (tmp_path / "deep.ini").write_text(
            "[run]\nbase = train.ini\n\n[train]\nmax_depth = 2\n")
        assert read_train_config(tmp_path / "deep.ini") == TrainConfig(
            n_trees=5, max_depth=2)

    def test_shipped_charges_overlay_their_pack(self):
        """Each shipped charge is its pack's file with one charge rate."""
        for pack in ("pack1", "pack2"):
            base = read_sim_config(canonical_config(pack))
            for rate, c_rate in (("c080", 0.8), ("c100", 1.0), ("c120", 1.2)):
                path = canonical_config(f"{pack}_{rate}")
                assert configio.base_of(path) == canonical_config(pack)
                assert read_sim_config(path) == replace(
                    base, policy=replace(base.policy, c_rate=c_rate))


class TestScenarioConfig:
    def test_swap_round_trip(self, tmp_path):
        scenario = AttackScenario(kind="swap_fdi", k0_s=300, kf_s=700)
        path = tmp_path / "swap.ini"
        write_scenario(path, scenario)
        assert read_scenario(path) == scenario

    def test_replay_round_trip(self, tmp_path):
        scenario = AttackScenario(kind="replay", k0_s=400, kf_s=700,
                                  record_start_s=100, record_end_s=400,
                                  target_modules=(1, 2))
        path = tmp_path / "replay.ini"
        write_scenario(path, scenario)
        assert read_scenario(path) == scenario

    def test_invalid_scenario_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[attack]\nkind = replay\nk0_s = 400\nkf_s = 700\n"
                        "record_start_s = 100\nrecord_end_s = 400\n"
                        "target_modules =\n")
        with pytest.raises(ValueError):
            read_scenario(path)

    @pytest.mark.parametrize("kind, key", [
        ("swap_fdi", "kind"), ("swap_fdi", "k0_s"), ("swap_fdi", "kf_s"),
        ("replay", "k0_s"),
        ("replay", "kf_s"), ("replay", "record_start_s"),
        ("replay", "record_end_s")])
    def test_missing_required_key(self, tmp_path, kind, key):
        path = tmp_path / "scenario.ini"
        replay = dict(record_start_s=100, record_end_s=400, target_modules=(1,))
        write_scenario(path, AttackScenario(kind, 400, 700,
                                            **(replay if kind == "replay" else {})))
        drop_option(path, "attack", key)
        with pytest.raises(configparser.NoOptionError, match=key):
            read_scenario(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nkind = cell\n")
        with pytest.raises(ValueError, match="attack"):
            read_scenario(path)

    @pytest.mark.parametrize("key, value", [
        ("record_start_s", "100"), ("record_end_s", "200"),
        ("target_modules", "1, 2")])
    def test_swap_with_a_replay_key_rejected(self, tmp_path, key, value):
        """Every key read reaches AttackScenario, so a swap that names a
        replay's record window or targets is rejected, not read as a bare
        swap."""
        path = tmp_path / "swap.ini"
        path.write_text(f"[attack]\nkind = swap_fdi\nk0_s = 300\nkf_s = 700\n"
                        f"{key} = {value}\n")
        with pytest.raises(ValueError, match="swap takes no"):
            read_scenario(path)


class TestRecipes:
    def test_named_recipes(self):
        assert resolve_recipe("pack1") == PACK1_RECIPE
        assert resolve_recipe("pack2") == PACK2_RECIPE

    def test_recipe_file(self, tmp_path):
        path = tmp_path / "ft.ini"
        path.write_text("[finetune]\nn_trees = 4\nmax_depth = 3\n"
                        "learning_rate = 0.05\n")
        recipe = resolve_recipe(path)
        assert (recipe.n_trees, recipe.max_depth, recipe.learning_rate) == (4, 3, 0.05)

    def test_recipe_file_reads_every_boosting_key(self, tmp_path):
        keys = ("n_trees = 0\nmax_depth = 3\nlearning_rate = 0.05\n"
                "lambda_l2 = 2.0\ngamma_leaf = 0.1\nmin_child_weight = 4.0\n")
        expected = TrainConfig(n_trees=0, max_depth=3, learning_rate=0.05,
                               lambda_l2=2.0, gamma_leaf=0.1,
                               min_child_weight=4.0)
        (tmp_path / "ft.ini").write_text("[finetune]\n" + keys)
        (tmp_path / "train.ini").write_text("[train]\n" + keys)
        assert resolve_recipe(tmp_path / "ft.ini") == expected
        assert read_train_config(tmp_path / "train.ini") == expected

    @pytest.mark.parametrize("key", ["n_trees", "max_depth", "learning_rate"])
    def test_recipe_file_missing_required_key(self, tmp_path, key):
        path = tmp_path / "ft.ini"
        path.write_text("[finetune]\nn_trees = 4\nmax_depth = 3\n"
                        "learning_rate = 0.05\n")
        drop_option(path, "finetune", key)
        with pytest.raises(configparser.NoOptionError, match=key):
            resolve_recipe(path)

    def test_train_config_file(self, tmp_path):
        path = tmp_path / "train.ini"
        path.write_text("[train]\nn_trees = 25\nmax_depth = 3\n"
                        "learning_rate = 0.2\nlambda_l2 = 0.5\n")
        cfg = read_train_config(path)
        assert cfg == TrainConfig(n_trees=25, max_depth=3, learning_rate=0.2,
                                  lambda_l2=0.5)

    def test_sha256(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"abc")
        assert configio.sha256_of(path).startswith("ba7816bf")
