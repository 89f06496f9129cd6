import numpy as np
import pytest

from voltsentry import boost, simkit, transfer
from voltsentry.boost import NormSpec, TrainConfig, train
from voltsentry.datasets import SupervisedSet
from voltsentry.transfer import finetune, norm_for_pack


def dataset(x, y, norm=None):
    meta = {"norm": norm} if norm else {}
    return SupervisedSet(x=np.asarray(x, float), y=np.asarray(y, float),
                         meta=meta)


class TestNormSpec:
    def test_pack1_arithmetic(self):
        norm = norm_for_pack(simkit.pack1_config())
        assert norm.v_scale == 100.0
        assert norm.i_scale == 20.0
        assert 420.0 / norm.v_scale == 4.2

    def test_pack2_arithmetic(self):
        norm = norm_for_pack(simkit.pack2_config())
        assert norm.v_scale == 80.0
        assert norm.i_scale == 25.0
        assert 100.0 / norm.i_scale == 4.0

    def test_scales_positive(self):
        with pytest.raises(ValueError):
            NormSpec(v_scale=0.0)


def small_base(norm=NormSpec()):
    rng = np.random.default_rng(4)
    x = np.column_stack([rng.uniform(3.0, 4.2, 400), rng.uniform(2, 6, 400)])
    y = x[:, 0] + 0.001 * x[:, 1]
    ens = train(dataset(x, y, norm), None,
                TrainConfig(n_trees=10, max_depth=3, learning_rate=0.4))
    return ens


class TestFinetune:
    def test_zero_trees_is_identity(self):
        norm = NormSpec()
        base = small_base(norm)
        rng = np.random.default_rng(5)
        x = np.column_stack([rng.uniform(3.0, 4.2, 50), rng.uniform(2, 6, 50)])
        pack = dataset(x, x[:, 0], norm)
        tl = finetune(base, pack, pack,
                      TrainConfig(n_trees=0, max_depth=2, learning_rate=0.1),
                      norm)
        pts = np.column_stack([rng.uniform(3.0, 4.2, 30), rng.uniform(2, 6, 30)])
        assert np.array_equal(boost.predict_batch(tl, pts),
                              boost.predict_batch(base, pts))
        assert tl.segments[-1].trees == ()
        assert tl.tree_counts() == {"base": 10, "finetune": 0}

    def test_base_segments_frozen(self):
        base = small_base()
        before = boost.model_to_json(base)
        rng = np.random.default_rng(6)
        x = np.column_stack([rng.uniform(3.0, 4.2, 200), rng.uniform(2, 6, 200)])
        norm = NormSpec(v_scale=100.0, i_scale=20.0)
        pack = dataset(x, x[:, 0] + 0.005, norm)
        tl = finetune(base, pack, pack, transfer.PACK1_RECIPE, norm)
        assert boost.model_to_json(base) == before
        assert tl.segments[:-1] == base.segments
        assert tl.base_score == base.base_score
        assert tl.segments[-1].tag == "finetune"
        assert len(tl.segments[-1].trees) == transfer.PACK1_RECIPE.n_trees

    def test_training_loss_nonincreasing_per_tree(self):
        base = small_base()
        rng = np.random.default_rng(7)
        x = np.column_stack([rng.uniform(3.0, 4.2, 300), rng.uniform(2, 6, 300)])
        norm = NormSpec()
        pack = dataset(x, x[:, 0] + 0.01 + 0.002 * rng.normal(size=300), norm)
        tl = finetune(base, pack, pack,
                      TrainConfig(n_trees=5, max_depth=2, learning_rate=0.3),
                      norm)
        losses = tl.history.train_mse
        assert len(losses) == 5
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))

    def test_shifted_pack_improves_val_max_abs(self):
        # A real systematic offset between pack targets and the base model
        # must shrink the validation worst case.
        base = small_base()
        rng = np.random.default_rng(8)

        def pack_set(n, seed):
            r = np.random.default_rng(seed)
            x = np.column_stack([r.uniform(3.2, 4.0, n), r.uniform(2, 6, n)])
            y = x[:, 0] + 0.05 + 0.001 * r.normal(size=n)
            return dataset(x, y, NormSpec())

        train_set, val_set = pack_set(400, 1), pack_set(200, 2)
        tl = finetune(base, train_set, val_set,
                      TrainConfig(n_trees=5, max_depth=2, learning_rate=0.2),
                      NormSpec())

        def max_abs(model, ds):
            return np.max(np.abs(ds.y - boost.predict_model_space(model, ds.x)))

        assert max_abs(tl, val_set) < max_abs(base, val_set)

    def test_empty_pack_data_rejected(self):
        base = small_base()
        empty = dataset(np.empty((0, 2)), np.empty(0), NormSpec())
        with pytest.raises(ValueError):
            finetune(base, empty, empty, transfer.PACK1_RECIPE, NormSpec())

    def test_norm_mismatch_rejected(self):
        base = small_base()
        pack = dataset([[3.7, 5.0]], [3.8], NormSpec(v_scale=2.0))
        with pytest.raises(ValueError, match="normalized"):
            finetune(base, pack, pack, transfer.PACK1_RECIPE, NormSpec())

    def test_recipes_match_published_budgets(self):
        assert (transfer.PACK1_RECIPE.n_trees,
                transfer.PACK1_RECIPE.max_depth,
                transfer.PACK1_RECIPE.learning_rate) == (3, 2, 0.035)
        assert (transfer.PACK2_RECIPE.n_trees,
                transfer.PACK2_RECIPE.max_depth,
                transfer.PACK2_RECIPE.learning_rate) == (2, 8, 0.02)

