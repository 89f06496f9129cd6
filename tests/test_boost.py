import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from boost_reference import (_eval_tree, column_block_boost_segment,
                             leaf_value, reference_boost_segment,
                             tree_depth)
from voltsentry import boost, transfer
from voltsentry.boost import (BASE_RECIPE, Ensemble, ModelParseError, NormSpec,
                              Segment, Tree, TrainConfig, TrainingError,
                              _ColumnBlocks, leaf_weight, predict_batch,
                              predict_model_space, train)
from voltsentry.datasets import SupervisedSet


def dataset(x, y):
    return SupervisedSet(x=np.asarray(x, float), y=np.asarray(y, float))


def grow_tree(x, y, pred, cfg):
    """One tree fitted to the residuals of the prediction pred, as a
    boosting round grows it."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    return _ColumnBlocks(x, cfg).grow(pred - y)


def leaf(w):
    return Tree([-1], [0.0], [-1], [-1], [w])


def stump(feature, threshold, w_left, w_right):
    return Tree([feature, -1, -1], [threshold, 0.0, 0.0], [1, -1, -1],
                [2, -1, -1], [0.0, w_left, w_right])


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def numeric_leaf_weight(g, h, lam):
    """1-D numeric minimization of sum(g w + 0.5 h w^2) + 0.5 lam w^2.

    Brent localizes the minimum; because the objective is exactly quadratic,
    a single parabolic interpolation through three well-spaced evaluations
    then pins the vertex to machine precision (function values only, no use
    of the closed form under test).
    """
    g = np.asarray(g, float)
    h = np.asarray(h, float)

    def objective(w):
        return float(np.sum(g * w + 0.5 * h * w ** 2) + 0.5 * lam * w ** 2)

    coarse = minimize_scalar(objective, method="brent",
                             options={"xtol": 1e-10, "maxiter": 500}).x
    w0, w1, w2 = coarse - 1.0, coarse, coarse + 1.0
    f0, f1, f2 = objective(w0), objective(w1), objective(w2)
    denom = (w1 - w0) * (f1 - f2) - (w1 - w2) * (f1 - f0)
    if denom == 0.0:
        return w1
    num = (w1 - w0) ** 2 * (f1 - f2) - (w1 - w2) ** 2 * (f1 - f0)
    return w1 - 0.5 * num / denom


def brute_force_best_split(x, g, h, cfg):
    """Exhaustive candidate enumeration with objective-reduction scoring.

    Scans features in order and thresholds ascending, keeping the first
    strict maximum, mirroring the documented tie-break.
    """
    n = x.shape[0]
    g_tot, h_tot = g.sum(), h.sum()
    parent = g_tot ** 2 / (h_tot + cfg.lambda_l2)
    best = None
    for f in (0, 1):
        values = np.unique(x[:, f])
        for a, b in zip(values[:-1], values[1:]):
            thr = (a + b) * 0.5
            if thr <= a:
                continue
            left = x[:, f] < thr
            hl, hr = h[left].sum(), h[~left].sum()
            if hl < cfg.min_child_weight or hr < cfg.min_child_weight:
                continue
            gl, gr = g[left].sum(), g[~left].sum()
            gain = 0.5 * (gl ** 2 / (hl + cfg.lambda_l2)
                          + gr ** 2 / (hr + cfg.lambda_l2)
                          - parent) - cfg.gamma_leaf
            if best is None or gain > best[0]:
                best = (gain, f, thr)
    return best


def count_candidates(x):
    total = 0
    for f in (0, 1):
        total += len(np.unique(x[:, f])) - 1
    return total


# ---------------------------------------------------------------------------
# leaf_weight
# ---------------------------------------------------------------------------

class TestLeafWeight:
    def test_zero_gradient(self):
        assert leaf_weight(0.0, 5.0, 1.0) == 0.0

    def test_worked_example(self):
        # y=[1,3], yhat=[0,0]: g=[-1,-3] -> G=-4, H=2, lam=1 -> w*=4/3
        g = np.array([-1.0, -3.0])
        h = np.array([1.0, 1.0])
        w = leaf_weight(g.sum(), h.sum(), 1.0)
        assert w == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert w == pytest.approx(numeric_leaf_weight(g, h, 1.0), abs=1e-9)

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError):
            leaf_weight(1.0, 0.0, 0.0)

    def test_lambda_limit_monotone_to_zero(self):
        lams = [0.0, 1.0, 10.0, 1e3, 1e6]
        weights = [abs(leaf_weight(-4.0, 2.0, lam)) for lam in lams]
        assert all(b < a for a, b in zip(weights, weights[1:]))
        assert weights[-1] < 1e-5

    @given(g_vals=st.lists(st.floats(-10, 10), min_size=1, max_size=8),
           lam=st.floats(0.01, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_numeric_minimizer(self, g_vals, lam):
        g = np.array(g_vals)
        h = np.ones_like(g)
        w = leaf_weight(g.sum(), h.sum(), lam)
        assert w == pytest.approx(numeric_leaf_weight(g, h, lam), abs=1e-9)


# ---------------------------------------------------------------------------
# one tree (_ColumnBlocks.grow)
# ---------------------------------------------------------------------------

class TestFitTree:
    CFG = TrainConfig(n_trees=1, max_depth=3, learning_rate=1.0,
                      lambda_l2=1.0, min_child_weight=1.0)

    def test_constant_targets_single_leaf(self):
        x = np.column_stack([np.linspace(0, 1, 8), np.zeros(8)])
        tree = grow_tree(x, np.full(8, 3.3), np.full(8, 3.3), self.CFG)
        assert list(tree.feature) == [-1]
        assert tree.weight[0] == 0.0

    def test_step_function_split_at_midpoint(self):
        rng = np.random.default_rng(7)
        x0 = np.sort(rng.uniform(0, 1, 16))
        x1 = rng.uniform(0, 1, 16)
        x = np.column_stack([x0, x1])
        y = np.where(x0 < x0[9], -1.0, 1.0)
        cfg = TrainConfig(n_trees=1, max_depth=1, learning_rate=1.0,
                          lambda_l2=0.0, min_child_weight=1.0)
        assert count_candidates(x) == 30
        tree = grow_tree(x, y, np.zeros(16), cfg)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx((x0[8] + x0[9]) / 2)
        oracle = brute_force_best_split(x, -y, np.ones(16), cfg)
        assert (tree.feature[0], tree.threshold[0]) == (oracle[1], oracle[2])

    def test_depth_cap_one_checkerboard_axis_by_gain(self):
        # 4x4 checkerboard with an amplitude ramp along feature 0, so one
        # axis strictly beats the other at depth 1.
        xs, ys, ts = [], [], []
        for a in range(4):
            for b in range(4):
                xs.append([a / 3, b / 3])
                sign = 1.0 if (a + b) % 2 == 0 else -1.0
                ts.append(sign * (1.0 + a))
        x = np.array(xs)
        y = np.array(ts)
        cfg = TrainConfig(n_trees=1, max_depth=1, learning_rate=1.0,
                          lambda_l2=1.0)
        tree = grow_tree(x, y, np.zeros(16), cfg)
        assert tree.feature[0] >= 0
        assert list(tree.feature[1:]) == [-1, -1]
        oracle = brute_force_best_split(x, -y, np.ones(16), cfg)
        assert (tree.feature[0], tree.threshold[0]) == (oracle[1], oracle[2])

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(64, 2))
        y = rng.uniform(size=64)
        for depth in (1, 2, 4):
            cfg = TrainConfig(n_trees=1, max_depth=depth, learning_rate=1.0)
            tree = grow_tree(x, y, np.zeros(64), cfg)
            assert tree_depth(tree) <= depth

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 32))
    @settings(max_examples=80, deadline=None)
    def test_root_split_matches_brute_force(self, seed, n):
        # Grid-valued features and targets keep all partial sums exact in
        # binary floats, so the two scorers agree bit for bit even on ties.
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 6, size=(n, 2)) * 0.25
        y = rng.integers(-4, 5, size=n) * 0.5
        cfg = TrainConfig(n_trees=1, max_depth=1, learning_rate=1.0,
                          lambda_l2=1.0, min_child_weight=1.0)
        tree = grow_tree(x, y, np.zeros(n), cfg)
        oracle = brute_force_best_split(x, -y, np.ones(n), cfg)
        if oracle is None or oracle[0] <= 0.0:
            assert list(tree.feature) == [-1]
        else:
            assert (tree.feature[0], tree.threshold[0]) == (oracle[1], oracle[2])


# ---------------------------------------------------------------------------
# train / predict
# ---------------------------------------------------------------------------

class TestTrain:
    def test_already_fit_constant(self):
        x = np.column_stack([np.linspace(0, 1, 10), np.zeros(10)])
        ds = dataset(x, np.full(10, 2.5))
        cfg = TrainConfig(n_trees=1, max_depth=2, learning_rate=1.0,
                          lambda_l2=0.0)
        ens = train(ds, None, cfg)
        assert ens.base_score == 2.5
        assert ens.history.train_mse[-1] == 0.0
        leaves = [t for seg in ens.segments for t in seg.trees]
        assert all(list(t.feature) == [-1] and t.weight[0] == 0.0 for t in leaves)

    def test_loss_nonincreasing_with_prefix_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(size=(300, 2))
        y = np.sin(5 * x[:, 0]) + 0.3 * x[:, 1] + 0.05 * rng.normal(size=300)
        ds = dataset(x, y)
        cfg = TrainConfig(n_trees=30, max_depth=3, learning_rate=0.2)
        ens = train(ds, None, cfg)
        losses = ens.history.train_mse
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        # Oracle: recompute each round's loss from prefix-ensemble predictions.
        seg = ens.segments[0]
        preds = np.full(len(y), ens.base_score)
        for rnd, tree in enumerate(seg.trees):
            preds = preds + seg.learning_rate * np.array(
                [leaf_value(tree, p) for p in x])
            assert losses[rnd] == pytest.approx(np.mean((y - preds) ** 2),
                                                rel=1e-12)

    def test_validation_losses_recorded(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(100, 2))
        y = x[:, 0]
        ds = dataset(x[:80], y[:80])
        vs = dataset(x[80:], y[80:])
        cfg = TrainConfig(n_trees=5, max_depth=2, learning_rate=0.5)
        ens = train(ds, vs, cfg)
        assert len(ens.history.val_mse) == 5

    # The targets overflow np.dot(g, g) on purpose.
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_loss_aborts_with_round(self):
        x = np.column_stack([np.linspace(0, 1, 4), np.zeros(4)])
        ds = dataset(x, np.array([0.0, 1e308, -1e308, 0.0]))
        cfg = TrainConfig(n_trees=3, max_depth=2, learning_rate=1.0)
        with pytest.raises(TrainingError, match="round"):
            train(ds, None, cfg)

    def test_empty_data(self):
        with pytest.raises(ValueError):
            train(dataset(np.empty((0, 2)), np.empty(0)), None,
                  TrainConfig(n_trees=1))

    def test_zero_trees_rejected(self):
        x = np.column_stack([np.linspace(0, 1, 4), np.zeros(4)])
        with pytest.raises(ValueError, match="n_trees"):
            train(dataset(x, x[:, 0]), None, TrainConfig(n_trees=0))

    def test_validation_of_another_norm_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(50, 2))
        data = SupervisedSet(x[:40], x[:40, 0], NormSpec(1.0, 1.0))
        val = SupervisedSet(x[40:], x[40:, 0], NormSpec(100.0, 5.0))
        with pytest.raises(ValueError, match="normalized"):
            train(data, val, TrainConfig(n_trees=2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_feature_rejected_before_training(self, bad):
        x = np.column_stack([np.linspace(0.0, 1.0, 20), np.zeros(20)])
        x[7, 1] = bad
        with mock.patch.object(boost, "_boost_segment",
                               side_effect=AssertionError("boosted")), \
                pytest.raises(ValueError, match="features must be finite"):
            train(dataset(x, np.linspace(0.0, 1.0, 20)), None,
                  TrainConfig(n_trees=2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_validation_target_rejected_before_training(self, bad):
        x = np.column_stack([np.linspace(0.0, 1.0, 20), np.zeros(20)])
        vy = x[:10, 0].copy()
        vy[3] = bad
        with mock.patch.object(boost, "_boost_segment",
                               side_effect=AssertionError("boosted")), \
                pytest.raises(ValueError, match="validation targets"):
            train(dataset(x, x[:, 0]), dataset(x[:10], vy),
                  TrainConfig(n_trees=3))

    def test_validation_set_of_no_rows_is_none(self):
        """A validation set of no rows trains what no validation set
        trains: the same model, losses and an empty validation history."""
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(60, 2))
        data = dataset(x, np.sin(4 * x[:, 0]))
        cfg = TrainConfig(n_trees=4, max_depth=3, learning_rate=0.3)
        want = train(data, None, cfg)
        got = train(data, dataset(np.empty((0, 2)), np.empty(0)), cfg)
        assert boost.model_to_json(got) == boost.model_to_json(want)
        assert got.history == want.history
        assert got.history.val_max_abs_start is got.history.val_max_abs_end is None

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(150, 2))
        y = rng.uniform(size=150)
        ds = dataset(x, y)
        cfg = TrainConfig(n_trees=12, max_depth=3, learning_rate=0.3)
        a = boost.model_to_json(train(ds, None, cfg))
        b = boost.model_to_json(train(ds, None, cfg))
        assert a == b


def feature_column(rng, style, n):
    """One feature column: constant, few distinct values (signed: around 0,
    so that 0.0 is a threshold), neighbours one float apart (degenerate
    midpoints), or continuous."""
    if style == "constant":
        return np.full(n, 0.75)
    if style == "signed":
        return (rng.integers(0, 4, size=n) - 1.5) * 0.5
    if style == "grid":
        return rng.integers(0, 5, size=n) * 0.25
    if style == "ulp":
        return 1.0 + rng.integers(0, 4, size=n) * np.finfo(float).eps
    return rng.uniform(-2.0, 2.0, size=n)


def kernel_and_reference(x, y, preds, cfg, tag, val=None):
    """(model JSON, history, final predictions) of the workspace kernel, of
    the column-block kernel it replaced and of the reference scan, each run
    on its own copy of the inputs."""
    runs = []
    for segment_fn in (boost._boost_segment, column_block_boost_segment,
                       reference_boost_segment):
        val_x = val_y = val_preds = None
        if val is not None:
            val_x, val_y, val_preds = val[0], val[1], val[2].copy()
        out = preds.copy()
        segment, history = segment_fn(x, y, out, cfg, tag, val_x, val_y,
                                      val_preds)
        ens = Ensemble(base_score=0.5, segments=(segment,))
        runs.append((boost.model_to_json(ens), history, out))
    return runs


# A base training and a fine-tune on a smaller set, run by name.
SEGMENT_STEPS = """
import numpy as np
from voltsentry import boost, transfer
from voltsentry.datasets import SupervisedSet

def run(name):
    rng = np.random.default_rng(8)
    x = np.column_stack([rng.uniform(3.0, 4.2, 600),
                         rng.integers(0, 9, 600) * 0.5])
    y = np.sin(4 * x[:, 0]) + 0.1 * x[:, 1] + rng.normal(size=600) * 0.01
    val = SupervisedSet(x[540:], y[540:])
    if name == "base":
        ens = boost.train(SupervisedSet(x[:500], y[:500]), val, boost.TrainConfig(
            n_trees=25, max_depth=5, learning_rate=0.2))
    else:
        stump = boost.Tree([0, -1, -1], [3.6, 0.0, 0.0], [1, -1, -1],
                           [2, -1, -1], [0.0, -0.5, 0.5])
        base = boost.Ensemble(0.1, (boost.Segment("base", 1.0, (stump,)),))
        ens = transfer.finetune(base, SupervisedSet(x[500:540], y[500:540]),
                                val, transfer.PACK2_RECIPE)
    return boost.model_to_json(ens) + repr(ens.history)
"""


class TestKernelMatchesReference:
    """The workspace kernel equals the column-block kernel it replaced and
    the plain scan bit for bit."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
           styles=st.tuples(*[st.sampled_from(["constant", "grid", "ulp",
                                                "uniform"])] * 2),
           depth=st.integers(1, 8),
           min_child_weight=st.sampled_from([0.0, 1.0, 2.0, 3.5]),
           gamma=st.sampled_from([0.0, 0.1]), lam=st.sampled_from([0.0, 1.0]),
           n_trees=st.integers(1, 4), warm=st.booleans(), n_val=st.integers(0, 20))
    @settings(max_examples=150, deadline=None)
    def test_random_segments(self, seed, n, styles, depth, min_child_weight,
                             gamma, lam, n_trees, warm, n_val):
        rng = np.random.default_rng(seed)
        x = np.column_stack([feature_column(rng, s, n) for s in styles])
        y = rng.integers(-4, 5, size=n) * 0.5 + rng.normal(size=n) * (seed % 2)
        cfg = TrainConfig(n_trees=n_trees, max_depth=depth, learning_rate=0.3,
                          lambda_l2=lam, gamma_leaf=gamma,
                          min_child_weight=min_child_weight)
        if warm:  # a fine-tune segment continues from non-constant predictions
            preds, tag = y + rng.normal(size=n), "finetune"
        else:
            preds, tag = np.full(n, float(y.mean())), "base"
        val = None
        if n_val:
            val_x = rng.uniform(-2.0, 2.0, size=(n_val, 2))
            val = (val_x, rng.normal(size=n_val), np.zeros(n_val))
        (got, got_hist, got_preds), *wants = kernel_and_reference(
            x, y, preds, cfg, tag, val)
        for want, want_hist, want_preds in wants:
            assert got == want
            assert got_hist == want_hist
            assert np.array_equal(got_preds, want_preds)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 64),
           depth=st.integers(1, 8), min_child_weight=st.sampled_from([1.0, 2.0, 5.0]),
           levels=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_ties_and_repeats(self, seed, n, depth, min_child_weight, levels):
        """Few distinct feature values and grid targets: repeated values,
        equal gains between positions and between features."""
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels + 1, size=(n, 2)) * 0.5
        if seed % 3 == 0:  # the same values on both features
            x[:, 1] = x[:, 0]
        y = rng.integers(-2, 3, size=n) * 0.25
        cfg = TrainConfig(n_trees=3, max_depth=depth, learning_rate=0.5,
                          min_child_weight=min_child_weight)
        runs = kernel_and_reference(x, y, np.zeros(n), cfg, "base")
        for want, want_hist, want_preds in runs[1:]:
            assert runs[0][0] == want
            assert runs[0][1] == want_hist
            assert np.array_equal(runs[0][2], want_preds)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 200),
           styles=st.tuples(*[st.sampled_from(["signed", "grid", "ulp",
                                                "uniform"])] * 2),
           depth=st.integers(1, 8),
           min_child_weight=st.sampled_from([0.0, 1.0, 3.5]),
           warm=st.booleans(), n_val=st.integers(0, 40))
    @example(seed=0, n=3, styles=("signed", "uniform"), depth=2,
             min_child_weight=3.5, warm=False, n_val=8)  # the root is a leaf
    @example(seed=1, n=50, styles=("signed", "grid"), depth=3,
             min_child_weight=1.0, warm=True, n_val=0)
    @settings(max_examples=150, deadline=None)
    def test_validation_routing_reaches_the_walked_leaf(
            self, seed, n, styles, depth, min_child_weight, warm, n_val):
        """The grower routes each validation row to the leaf the walk of
        the new tree reaches, with most rows on the grown thresholds and
        signed zeros: every round adds what a one-tree node table adds."""
        rng = np.random.default_rng(seed)
        x = np.column_stack([feature_column(rng, s, n) for s in styles])
        y = rng.integers(-4, 5, size=n) * 0.5 + rng.normal(size=n) * (seed % 2)
        cfg = TrainConfig(n_trees=3, max_depth=depth, learning_rate=0.3,
                          min_child_weight=min_child_weight)
        if warm:  # a fine-tune segment continues from non-constant predictions
            preds, tag = y + rng.normal(size=n), "finetune"
            val_start = rng.normal(size=n_val)
        else:
            preds, tag = np.full(n, float(y.mean())), "base"
            val_start = np.full(n_val, float(y.mean()))
        # Trees do not depend on the validation rows: grow them first and
        # put about 70 % of the validation values on their thresholds.
        trees = boost._boost_segment(x, y, preds.copy(), cfg, tag)[0].trees
        val_x = rng.uniform(-1.0, 1.0, size=(n_val, 2))
        for f in (0, 1):
            thresholds = np.concatenate([t.threshold[t.feature == f] for t in trees])
            on = rng.random(n_val) < 0.7
            val_x[on, f] = rng.choice(
                thresholds if thresholds.size else x[:, f], on.sum())
        val_x = np.where(val_x == 0.0,
                         np.where(rng.random((n_val, 2)) < 0.5, -0.0, 0.0), val_x)
        val_y = rng.normal(size=n_val)
        # The kernel takes a matrix of no rows as no validation; the
        # column-block kernel is given None for it.
        val_preds = val_start.copy()
        seen = []
        grow = boost._ColumnBlocks.grow

        def spy(blocks, g):
            seen.append(val_preds.copy())
            return grow(blocks, g)

        with mock.patch.object(boost._ColumnBlocks, "grow", spy):
            segment, history = boost._boost_segment(
                x, y, preds.copy(), cfg, tag, val_x, val_y, val_preds)
        seen.append(val_preds)
        for tree, before, after in zip(segment.trees, seen, seen[1:]):
            want = boost._NodeTable([(cfg.learning_rate, tree)]).walk(val_x, before)
            assert after.tobytes() == want.tobytes()
        assert len(seen) == cfg.n_trees + 1
        want_val = (val_x, val_y, val_start.copy()) if n_val else (None,) * 3
        want_segment, want_history = column_block_boost_segment(
            x, y, preds.copy(), cfg, tag, *want_val)
        assert history == want_history
        assert (boost.model_to_json(Ensemble(0.0, (segment,)))
                == boost.model_to_json(Ensemble(0.0, (want_segment,))))
        if n_val:
            assert history.val_max_abs_end == np.max(np.abs(val_y - val_preds))

    def test_workspace_carries_no_state(self):
        """Base training, a fine-tune on a smaller set and base training
        again in one process each equal the same step in a fresh process."""
        namespace: dict = {}
        exec(SEGMENT_STEPS, namespace)
        steps = ("base", "finetune", "base")
        in_process = [namespace["run"](name) for name in steps]
        src = os.path.dirname(os.path.dirname(os.path.abspath(boost.__file__)))
        for name, got in zip(steps, in_process):
            fresh = subprocess.run(
                [sys.executable, "-c", SEGMENT_STEPS + f"print(run({name!r}))"],
                check=True, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=src)).stdout
            assert got + "\n" == fresh

    @pytest.mark.parametrize("n_trees", [0, 3])
    def test_validation_of_no_rows_is_no_validation(self, n_trees):
        """(0, 2) validation arrays train the trees that no validation
        trains, with no validation loss and no validation maxima."""
        rng = np.random.default_rng(13)
        x = rng.uniform(size=(40, 2))
        y = x[:, 0] + 0.1 * rng.normal(size=40)
        cfg = TrainConfig(n_trees=n_trees, max_depth=3, learning_rate=0.3)
        runs = []
        for val in ((np.empty((0, 2)), np.empty(0), np.empty(0)), (None,) * 3):
            preds = np.full(40, 0.5)
            segment, history = boost._boost_segment(x, y, preds, cfg, "base",
                                                    *val)
            runs.append((boost.model_to_json(Ensemble(0.5, (segment,))),
                         history, preds.tobytes()))
            assert history.val_mse == []
            assert history.val_max_abs_start is None
            assert history.val_max_abs_end is None
        assert runs[0] == runs[1]

    def test_zero_tree_segment_presorts_nothing(self):
        x = np.column_stack([np.linspace(0, 1, 6), np.zeros(6)])
        preds = np.zeros(6)
        with mock.patch.object(boost, "_ColumnBlocks",
                               side_effect=AssertionError("presorted")):
            segment, history = boost._boost_segment(
                x, x[:, 0], preds, TrainConfig(n_trees=0), "finetune",
                x, x[:, 0], np.zeros(6))
        assert segment.trees == () and history == boost.BoostHistory()
        assert np.array_equal(preds, np.zeros(6))

    def test_fit_tree_matches_reference(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([rng.uniform(size=200), rng.integers(0, 7, 200) * 0.5])
        y = np.sin(6 * x[:, 0]) + x[:, 1]
        cfg = TrainConfig(n_trees=1, max_depth=5, learning_rate=1.0)
        pred = np.full(200, 0.25)
        tree = grow_tree(x, y, pred, cfg)
        want = kernel_and_reference(x, y, pred, cfg, "base")[-1][0]
        got = boost.model_to_json(Ensemble(0.5, (Segment("base", 1.0, (tree,)),)))
        assert got == want

    def test_canonical_corpus_first_rounds(self, base_bundle):
        """The session base model's first 20 trees and losses equal 20
        reference rounds on the canonical corpus."""
        ens, _, train_set, val_set = base_bundle
        cfg = TrainConfig(n_trees=20, max_depth=BASE_RECIPE.max_depth,
                          learning_rate=BASE_RECIPE.learning_rate,
                          lambda_l2=BASE_RECIPE.lambda_l2,
                          gamma_leaf=BASE_RECIPE.gamma_leaf,
                          min_child_weight=BASE_RECIPE.min_child_weight)
        preds = np.full(len(train_set), ens.base_score)
        val_preds = np.full(len(val_set), ens.base_score)
        segment, history = reference_boost_segment(
            train_set.x, train_set.y, preds, cfg, "base",
            val_set.x, val_set.y, val_preds)
        first = Segment("base", cfg.learning_rate, ens.segments[0].trees[:20])
        assert (boost.model_to_json(Ensemble(ens.base_score, (first,)))
                == boost.model_to_json(Ensemble(ens.base_score, (segment,))))
        assert ens.history.train_mse[:20] == history.train_mse
        assert ens.history.val_mse[:20] == history.val_mse


class TestOneSplitRule:
    """Training and validation rows go down a split by the same rule."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 200),
           styles=st.tuples(*[st.sampled_from(["constant", "signed", "grid",
                                                "ulp", "uniform"])] * 2),
           depth=st.integers(1, 6),
           min_child_weight=st.sampled_from([0.0, 1.0, 3.5]))
    @settings(max_examples=150, deadline=None)
    def test_training_rows_as_validation_reach_their_leaves(
            self, seed, n, styles, depth, min_child_weight):
        """The training rows passed again as validation rows, with ties,
        1-ulp neighbours and grid values, land in the leaves the training
        rows land in, tree after tree."""
        rng = np.random.default_rng(seed)
        x = np.column_stack([feature_column(rng, s, n) for s in styles])
        blocks = _ColumnBlocks(x, TrainConfig(
            max_depth=depth, min_child_weight=min_child_weight), x)
        for _ in range(3):
            blocks.grow(rng.integers(-4, 5, size=n) * 0.5 + rng.normal(size=n))
            assert np.array_equal(blocks.leaf, blocks.val_leaf)


class TestColumnBlocksMemory:
    """The grower's working set: int32 rows and candidate positions, and no
    n-sized table or temporary beyond the workspace."""

    def test_traced_peak_per_row(self):
        n = 20_000
        rng = np.random.default_rng(3)
        x = np.column_stack([rng.uniform(-2.0, 2.0, n),
                             rng.integers(0, 50, n) * 0.1])
        grads = [rng.normal(size=n) for _ in range(3)]
        tracemalloc.start()
        try:
            blocks = boost._ColumnBlocks(x, TrainConfig(max_depth=4))
            for g in grads:
                blocks.grow(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 85 bytes per row.  One more n-sized float array would exceed the
        # bound.
        assert peak / n <= 91
        for rows, cand in blocks.root:
            assert rows.dtype == cand.dtype == np.int32

    def test_row_count_limit(self):
        """int32 rows and candidate positions would wrap at 2**31 rows; the
        check comes before any allocation (the view below holds 16 bytes)."""
        x = np.broadcast_to(np.zeros(2), (2 ** 31, 2))
        with pytest.raises(ValueError, match=r"2\*\*31"):
            boost._ColumnBlocks(x, TrainConfig())


GRID = np.arange(-4, 5) * 0.25  # thresholds, and model-space inputs


def random_tree(rng, max_depth):
    """A random tree grown in preorder, thresholds on GRID."""
    nodes = []

    def grow(depth):
        pos = len(nodes)
        if depth == max_depth or rng.random() < 0.25:
            nodes.append((-1, 0.0, -1, -1, float(rng.normal())))
            return pos
        nodes.append(None)
        split = (int(rng.integers(0, 2)), float(rng.choice(GRID)))
        nodes[pos] = (*split, grow(depth + 1), grow(depth + 1), 0.0)
        return pos

    grow(0)
    return Tree(*zip(*nodes))


def random_ensemble(rng):
    """Base and optional fine-tune segments of random trees, with a
    normalization whose integer scales map GRID values exactly."""
    segments = tuple(
        Segment(tag, float(rng.uniform(0.01, 1.0)),
                tuple(random_tree(rng, int(rng.integers(0, 6)))
                      for _ in range(int(rng.integers(0, 8)))))
        for tag in ("base", "finetune")[:int(rng.integers(1, 3))])
    norm = NormSpec(v_scale=float(rng.choice([1.0, 3.0, 80.0, 100.0])),
                    i_scale=float(rng.choice([1.0, 7.0, 20.0, 25.0])))
    return Ensemble(float(rng.normal()), segments, norm)


def random_rows(rng, ens, n):
    """Physical (v, i) rows, most of them on a threshold in model space."""
    x_model = np.where(rng.random((n, 2)) < 0.7, rng.choice(GRID, (n, 2)),
                       rng.uniform(-1.2, 1.2, (n, 2)))
    return x_model * [ens.norm.v_scale, ens.norm.i_scale]


def walk_predict(ens, x):
    """Per-row oracle: base score plus lr * leaf value, tree by tree."""
    out = []
    for v, i in x:
        row = (v / ens.norm.v_scale, i / ens.norm.i_scale)
        value = ens.base_score
        for seg in ens.segments:
            for tree in seg.trees:
                value += seg.learning_rate * leaf_value(tree, row)
        out.append(value * ens.norm.v_scale)
    return np.array(out)


class TestPredict:
    def test_empty_segments_returns_base_score(self):
        ens = Ensemble(base_score=3.9, segments=())
        assert predict_batch(ens, [[3.7, 5.0]])[0] == 3.9

    def test_single_stump_additivity(self):
        ens = Ensemble(base_score=1.0,
                       segments=(Segment("base", 1.0, (stump(0, 0.5, -1.0, 2.0),)),))
        # A row on the threshold goes right: the rule is x < threshold.
        assert list(predict_batch(ens, [[0.2, 0.0], [0.9, 0.0], [0.5, 0.0]])) \
            == [0.0, 3.0, 3.0]

    def test_matches_manual_leaf_sum(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(40, 2))
        y = x[:, 0] * 2 + x[:, 1]
        cfg = TrainConfig(n_trees=3, max_depth=2, learning_rate=0.7)
        ens = train(dataset(x, y), None, cfg)
        pts = rng.uniform(size=(5, 2))
        batch = predict_batch(ens, pts)
        for row, expect in zip(pts, batch):
            manual = ens.base_score
            for seg in ens.segments:
                for tree in seg.trees:
                    manual += seg.learning_rate * leaf_value(tree, row)
            assert expect == manual

    def test_segment_order_invariance(self):
        t1, t2 = leaf(0.5), leaf(-0.25)
        a = Ensemble(0.0, (Segment("base", 0.5, (t1, t2)),))
        b = Ensemble(0.0, (Segment("base", 0.5, (t2, t1)),))
        assert predict_batch(a, [[0.0, 0.0]]) == predict_batch(b, [[0.0, 0.0]])

    def test_norm_applied_on_both_sides(self):
        ens = Ensemble(base_score=3.8,
                       segments=(Segment("base", 1.0, (stump(0, 4.0, -0.1, 0.1),)),),
                       norm=NormSpec(v_scale=100.0, i_scale=20.0))
        assert list(predict_batch(ens, [[370.0, 100.0], [420.0, 100.0]])) \
            == [(3.8 - 0.1) * 100.0, (3.8 + 0.1) * 100.0]

    def test_nonfinite_rejected(self):
        ens = Ensemble(base_score=0.0, segments=())
        with pytest.raises(ValueError):
            predict_batch(ens, [[float("nan"), 0.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("predict", [predict_batch, predict_model_space])
    def test_nonfinite_feature_rejected_not_routed(self, predict, column, bad):
        # A NaN would go left under x >= threshold and right under x < threshold.
        ens = Ensemble(0.0, (Segment("base", 1.0, (stump(column, 0.5, -1.0, 2.0),)),))
        x = np.full((3, 2), 0.25)
        x[1, column] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            predict(ens, x)

    def test_nonfinite_in_model_space_rejected(self):
        # Finite physical rows that overflow when normalized.
        ens = Ensemble(0.0, (Segment("base", 1.0, (stump(0, 0.5, -1.0, 2.0),)),),
                       norm=NormSpec(v_scale=1e-10, i_scale=1.0))
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="features must be finite"):
            predict_batch(ens, [[1e300, 0.0]])

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_per_row_walk(self, seed, n):
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng)
        x = random_rows(rng, ens, n)
        assert predict_batch(ens, x).tobytes() == walk_predict(ens, x).tobytes()

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng)
        text = boost.model_to_json(ens)
        again = boost.model_from_json(text)
        assert boost.model_to_json(again) == text
        x = random_rows(rng, ens, 30)
        assert predict_batch(again, x).tobytes() == predict_batch(ens, x).tobytes()


def per_tree_walk(ens, x_model):
    """The walk before compilation: base score plus lr * leaf, one tree at a
    time over all rows (reference ``_eval_tree``)."""
    out = np.full(x_model.shape[0], ens.base_score)
    for seg in ens.segments:
        for tree in seg.trees:
            out += seg.learning_rate * _eval_tree(tree, x_model)
    return out


def per_row_walk(ens, x_model):
    """Per-row oracle in model space: node by node, tree by tree."""
    out = []
    for row in x_model:
        value = ens.base_score
        for seg in ens.segments:
            for tree in seg.trees:
                value += seg.learning_rate * leaf_value(tree, row)
        out.append(value)
    return np.array(out, dtype=float)


class TestCompiledWalk:
    """The compiled node table equals the per-tree walk byte for byte."""

    @given(seed=st.integers(0, 2 ** 32 - 1), chunk=st.integers(1, 64),
           rows=st.sampled_from(["0", "1", "4", "step-1", "step", "step+1",
                                 "2step+1"]))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_tree_and_per_row_walk(self, seed, chunk, rows):
        rng = np.random.default_rng(seed)
        segments = tuple(
            Segment(tag, float(rng.uniform(0.01, 1.0)),
                    tuple(random_tree(rng, int(rng.integers(0, 9)))
                          for _ in range(int(rng.integers(0, 6)))))
            for tag in ("base", "finetune")[:int(rng.integers(0, 3))])
        ens = Ensemble(float(rng.normal()), segments)
        step = max(1, chunk // max(1, ens.n_trees))
        n = {"0": 0, "1": 1, "4": 4, "step-1": step - 1, "step": step,
             "step+1": step + 1, "2step+1": 2 * step + 1}[rows]
        x = np.where(rng.random((n, 2)) < 0.7, rng.choice(GRID, (n, 2)),
                     rng.uniform(-1.2, 1.2, (n, 2)))
        with mock.patch.object(boost, "_CHUNK", chunk):
            got = predict_model_space(ens, x)
        assert got.shape == (n,)
        assert got.tobytes() == per_tree_walk(ens, x).tobytes()
        assert got.tobytes() == per_row_walk(ens, x).tobytes()

    def test_nonfinite_validation_rejected_before_training(self):
        x = np.column_stack([np.linspace(0.0, 1.0, 20), np.zeros(20)])
        val_x = np.array([[0.5, 0.0], [np.nan, 0.0]])
        grown = []
        with mock.patch.object(boost._ColumnBlocks, "grow",
                               side_effect=lambda g: grown.append(g)), \
                pytest.raises(ValueError, match="features must be finite"):
            boost._boost_segment(x, x[:, 0], np.zeros(20),
                                 TrainConfig(n_trees=3), "base",
                                 val_x, np.zeros(2), np.zeros(2))
        assert grown == []

    def test_deep_and_shallow_trees_mixed(self):
        # Depth 8 next to stumps and single leaves, in both orders.
        rng = np.random.default_rng(12)
        deep = random_tree(rng, 8)
        while tree_depth(deep) < 8:
            deep = random_tree(rng, 8)
        trees = (leaf(0.3), stump(1, 0.25, -0.5, 0.5), deep, leaf(-0.1),
                 stump(0, -0.5, 1.0, -1.0))
        x = np.where(rng.random((500, 2)) < 0.7, rng.choice(GRID, (500, 2)),
                     rng.uniform(-1.2, 1.2, (500, 2)))
        for order in (trees, trees[::-1]):
            ens = Ensemble(0.5, (Segment("base", 0.12, order[:3]),
                                 Segment("finetune", 0.035, order[3:])))
            assert ens.table.active == [3, 1, 1, 1, 1, 1, 1, 1]
            assert (predict_model_space(ens, x).tobytes()
                    == per_tree_walk(ens, x).tobytes())

    def test_canonical_base_model_chunk_boundaries(self, base_bundle):
        ens, _, train_set, _ = base_bundle
        step = boost._CHUNK // ens.n_trees
        for n in (1, 4, step - 1, step, step + 1, 3 * step + 1):
            x = train_set.x[:n]
            assert (predict_model_space(ens, x).tobytes()
                    == per_tree_walk(ens, x).tobytes())


class TestImmutable:
    """What an ensemble compiled at construction cannot go stale."""

    def test_tree_arrays_read_only(self):
        tree = stump(0, 0.5, -1.0, 2.0)
        with pytest.raises(ValueError):
            tree.threshold[0] = 0.75
        for name in ("feature", "threshold", "left", "right", "weight"):
            assert not getattr(tree, name).flags.writeable

    def test_tree_copies_its_inputs(self):
        threshold = np.array([0.5, 0.0, 0.0])
        tree = Tree(np.array([0, -1, -1]), threshold, np.array([1, -1, -1]),
                    np.array([2, -1, -1]), np.array([0.0, -1.0, 2.0]))
        threshold[0] = 0.75
        assert tree.threshold[0] == 0.5

    def test_ensemble_fields_cannot_be_reassigned(self):
        ens = Ensemble(0.5, (Segment("base", 0.1, (stump(0, 0.5, -1.0, 2.0),)),))
        for name in ("base_score", "segments", "norm", "history", "table"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ens, name, getattr(ens, name))

    def test_construction_paths(self):
        rng = np.random.default_rng(9)
        x = np.column_stack([rng.uniform(3.0, 4.2, 200), rng.uniform(2, 6, 200)])
        y = x[:, 0] + 0.01 * x[:, 1]
        base = train(dataset(x, y), dataset(x[:50], y[:50]),
                     TrainConfig(n_trees=5, max_depth=3, learning_rate=0.3))
        norm = NormSpec(v_scale=100.0, i_scale=20.0)
        pack = SupervisedSet(x[:80] * [1.0, 0.5], y[:80] + 0.002, norm)
        tuned = transfer.finetune(base, pack, pack, transfer.PACK2_RECIPE)
        viewed = Ensemble(base.base_score, base.segments, norm=norm)
        loaded = boost.model_from_json(boost.model_to_json(tuned))
        rows = np.column_stack([rng.uniform(300, 420, 20), rng.uniform(40, 120, 20)])
        for ens in (base, tuned, viewed, loaded):
            for tree in (t for seg in ens.segments for t in seg.trees):
                assert not tree.threshold.flags.writeable
            x_model = rows / [ens.norm.v_scale, ens.norm.i_scale]
            assert (predict_model_space(ens, x_model).tobytes()
                    == per_tree_walk(ens, x_model).tobytes())
        assert (predict_batch(loaded, rows).tobytes()
                == predict_batch(tuned, rows).tobytes())


class TestSerialization:
    def _model(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(size=(60, 2))
        y = np.where(x[:, 0] > 0.5, 1.0, 0.0) + 0.1 * x[:, 1]
        return train(dataset(x, y), None,
                     TrainConfig(n_trees=4, max_depth=3, learning_rate=0.4))

    def test_round_trip_bit_stable(self, tmp_path):
        ens = self._model()
        path = tmp_path / "m.json"
        boost.save_model(path, ens)
        again = boost.load_model(path)
        path2 = tmp_path / "m2.json"
        boost.save_model(path2, again)
        assert path.read_bytes() == path2.read_bytes()
        pts = np.random.default_rng(0).uniform(size=(20, 2))
        assert np.array_equal(predict_batch(ens, pts), predict_batch(again, pts))

    def test_version_checked(self, tmp_path):
        ens = self._model()
        doc = json.loads(boost.model_to_json(ens))
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            boost.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("corrupt,error", [
        # Values that do not form a model are invalid input.
        pytest.param(lambda d, t: t.update(right=[7, -1, -1]), ValueError,
                     id="child-out-of-range"),
        pytest.param(lambda d, t: t.update(left=[0, -1, -1]), ValueError,
                     id="child-cycle"),
        pytest.param(lambda d, t: t.update(right=[1, -1, -1]), ValueError,
                     id="child-shared"),
        pytest.param(lambda d, t: t.update(  # nodes 3 and 4 are each other's child
            feature=[0, -1, -1, 0, 0, -1, -1], threshold=[0.5] + [0.0] * 6,
            left=[1, -1, -1, 4, 3, -1, -1], right=[2, -1, -1, 5, 6, -1, -1],
            weight=[0.0] * 7), ValueError, id="detached-cycle"),
        pytest.param(lambda d, t: t.update(left=[1.5, -1, -1]), ValueError,
                     id="child-not-integer"),
        pytest.param(lambda d, t: t.update(feature=[5, -1, -1]), ValueError,
                     id="feature-5"),
        pytest.param(lambda d, t: t.update(feature=[-2, -1, -1]), ValueError,
                     id="feature-minus-2"),
        pytest.param(lambda d, t: t.update(left=[1, 2, -1]), ValueError,
                     id="leaf-with-child"),
        pytest.param(lambda d, t: t.update(threshold=[float("nan"), 0.0, 0.0]),
                     ValueError, id="threshold-nan"),
        pytest.param(lambda d, t: t.update(weight=[0.0, float("inf"), 0.5]),
                     ValueError, id="weight-inf"),
        pytest.param(lambda d, t: t.update(feature=[], threshold=[], left=[],
                                           right=[], weight=[]),
                     ValueError, id="empty-tree"),
        pytest.param(lambda d, t: d.update(base_score=float("nan")), ValueError,
                     id="base-score-nan"),
        pytest.param(lambda d, t: d["segments"][0].update(learning_rate=float("-inf")),
                     ValueError, id="learning-rate-inf"),
        pytest.param(lambda d, t: d["norm"].update(v_scale=float("inf")), ValueError,
                     id="v-scale-inf"),
        # A missing field or one of the wrong type is a parse error.
        pytest.param(lambda d, t: t.pop("weight"), ModelParseError, id="no-weight"),
        pytest.param(lambda d, t: t.pop("left"), ModelParseError, id="no-left"),
        pytest.param(lambda d, t: d.pop("norm"), ModelParseError, id="no-norm"),
        pytest.param(lambda d, t: d["norm"].pop("i_scale"), ModelParseError,
                     id="no-i-scale"),
        pytest.param(lambda d, t: d.pop("segments"), ModelParseError,
                     id="no-segments"),
        pytest.param(lambda d, t: d["segments"][0].pop("tag"), ModelParseError,
                     id="no-tag"),
        pytest.param(lambda d, t: d["segments"][0].pop("trees"), ModelParseError,
                     id="no-trees"),
        pytest.param(lambda d, t: d.pop("base_score"), ModelParseError,
                     id="no-base-score"),
        pytest.param(lambda d, t: t.update(weight={"0": 1.0}), ModelParseError,
                     id="weight-object"),
        pytest.param(lambda d, t: t.update(threshold=["0.5", 0.0, 0.0]),
                     ModelParseError, id="threshold-string"),
        pytest.param(lambda d, t: t.update(feature=[[0], -1, -1]), ModelParseError,
                     id="feature-nested"),
        pytest.param(lambda d, t: t.update(weight=[0.0, True, 0.5]), ModelParseError,
                     id="weight-bool"),
        pytest.param(lambda d, t: d["segments"][0].update(learning_rate="0.1"),
                     ModelParseError, id="learning-rate-string"),
        pytest.param(lambda d, t: d["segments"][0].update(tag=1), ModelParseError,
                     id="tag-number"),
        pytest.param(lambda d, t: d["segments"][0].update(trees={}), ModelParseError,
                     id="trees-object"),
        pytest.param(lambda d, t: d.update(segments=[["base"]]), ModelParseError,
                     id="segment-list"),
        pytest.param(lambda d, t: d["segments"][0].update(trees=[None]),
                     ModelParseError, id="tree-null"),
        pytest.param(lambda d, t: d.update(norm=[1.0, 1.0]), ModelParseError,
                     id="norm-list"),
        pytest.param(lambda d, t: d.update(base_score=None), ModelParseError,
                     id="base-score-null"),
    ])
    def test_malformed_model_rejected(self, corrupt, error):
        ens = Ensemble(0.5, (Segment("base", 0.1, (stump(0, 0.5, -1.0, 2.0),)),))
        doc = json.loads(boost.model_to_json(ens))
        corrupt(doc, doc["segments"][0]["trees"][0])
        with pytest.raises(ValueError) as info:
            boost.model_from_json(json.dumps(doc))
        assert type(info.value) is error

    def test_model_not_an_object(self):
        with pytest.raises(ModelParseError):
            boost.model_from_json("[1, 2]")

    def test_segments_base_first_enforced(self):
        t = leaf(0.0)
        with pytest.raises(ValueError):
            Ensemble(0.0, (Segment("finetune", 0.1, (t,)),
                           Segment("base", 0.1, (t,))))


class TestTrainConfigValidation:
    def test_bounds(self):
        assert TrainConfig(n_trees=0).n_trees == 0  # a zero-tree fine-tune
        with pytest.raises(ValueError):
            TrainConfig(n_trees=-1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=1.5)
        with pytest.raises(ValueError):
            TrainConfig(lambda_l2=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(max_depth=0)

    @pytest.mark.parametrize("key", ["lambda_l2", "gamma_leaf",
                                     "min_child_weight"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_regularizers_nonnegative_and_finite(self, key, bad):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            TrainConfig(**{key: bad})
        assert getattr(TrainConfig(**{key: 0.0}), key) == 0.0
