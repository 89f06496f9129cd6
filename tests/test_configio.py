import configparser

import pytest

from voltsentry import configio, simkit
from voltsentry.boost import TrainConfig
from voltsentry.configio import (SimRunSpec, read_scenario, read_sim_config,
                                 read_train_config, resolve_recipe,
                                 write_scenario, write_sim_config)
from voltsentry.threatgen import AttackScenario
from voltsentry.transfer import PACK1_RECIPE, PACK2_RECIPE


def drop_option(path, section, key):
    """Rewrite an INI file without one of its keys."""
    parser = configparser.ConfigParser()
    parser.read(path)
    assert parser.remove_option(section, key)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


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
        with pytest.raises(ValueError, match="kind"):
            read_sim_config(path)

    def test_pack_run_needs_pack_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nkind = pack\n")
        with pytest.raises(ValueError, match="pack"):
            read_sim_config(path)

    @pytest.mark.parametrize("key", ["parallel_modules", "branches_per_module",
                                     "series_cells", "capacity_ah", "v_max_pack"])
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
        ("swap_fdi", "k0_s"), ("swap_fdi", "kf_s"), ("replay", "k0_s"),
        ("replay", "kf_s"), ("replay", "record_start_s"),
        ("replay", "record_end_s")])
    def test_missing_required_key(self, tmp_path, kind, key):
        path = tmp_path / "scenario.ini"
        write_scenario(path, AttackScenario(kind, 400, 700, record_start_s=100,
                                            record_end_s=400, target_modules=(1,)))
        drop_option(path, "attack", key)
        with pytest.raises(configparser.NoOptionError, match=key):
            read_scenario(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nkind = cell\n")
        with pytest.raises(ValueError, match="attack"):
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
