"""Reference implementations the boost module must match bit for bit.

``_best_split`` and ``_grow`` are the straightforward exact-greedy trainer,
a plain scan of every sorted position, that ``voltsentry.boost`` replaced
with its presorted column-block kernel; their split search is kept here
verbatim, emitting the same preorder node arrays as the kernel.
``reference_boost_segment`` is ``boost._boost_segment`` driven by them.

``leaf_value`` walks one row down one tree, node by node: the oracle for
the batch walk ``boost._eval_tree``.  ``tree_depth`` is the depth of a tree
from its node arrays.
"""

import math

import numpy as np

from voltsentry.boost import (BoostHistory, Segment, TrainConfig, Tree,
                              TrainingError, _eval_tree, leaf_weight)


def leaf_value(tree: Tree, x) -> float:
    """Leaf weight of one row x = (v, i), walking down from the root."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] < tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return float(tree.weight[node])


def tree_depth(tree: Tree) -> int:
    """Length of the longest root-to-leaf path; children follow parents."""
    depth = np.zeros(len(tree.feature), dtype=int)
    for node in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


def _best_split(x, g, h, idx_by_feature, cfg: TrainConfig):
    """Scan both features over midpoints of consecutive distinct values.

    Returns (gain, feature, threshold) of the best candidate or None.  The
    strict > update combined with ascending scan order realizes the
    tie-break contract.
    """
    g_total = float(g[idx_by_feature[0]].sum())
    h_total = float(h[idx_by_feature[0]].sum())
    parent = g_total ** 2 / (h_total + cfg.lambda_l2)
    best = None
    for f in (0, 1):
        idx = idx_by_feature[f]
        xv = x[idx, f]
        distinct = xv[:-1] < xv[1:]
        if not distinct.any():
            continue
        gs = np.cumsum(g[idx])[:-1]
        hs = np.cumsum(h[idx])[:-1]
        thr = (xv[:-1] + xv[1:]) * 0.5
        ok = distinct & (thr > xv[:-1])  # degenerate midpoints cannot partition
        ok &= (hs >= cfg.min_child_weight) & (h_total - hs >= cfg.min_child_weight)
        if not ok.any():
            continue
        gl, hl = gs[ok], hs[ok]
        gr, hr = g_total - gl, h_total - hl
        gains = 0.5 * (gl ** 2 / (hl + cfg.lambda_l2)
                       + gr ** 2 / (hr + cfg.lambda_l2) - parent) - cfg.gamma_leaf
        j = int(np.argmax(gains))
        if best is None or gains[j] > best[0]:
            best = (float(gains[j]), f, float(thr[ok][j]))
    return best


def _grow(x, g, h, idx_by_feature, cfg: TrainConfig, depth: int, leaf_updates: list,
          nodes: list) -> int:
    pos = len(nodes)
    idx = idx_by_feature[0]
    g_sum = float(g[idx].sum())
    h_sum = float(h[idx].sum())

    def leaf():
        w = leaf_weight(g_sum, h_sum, cfg.lambda_l2)
        leaf_updates.append((idx, w))
        nodes.append((-1, 0.0, -1, -1, w))
        return pos

    if depth >= cfg.max_depth or idx.shape[0] < 2:
        return leaf()
    best = _best_split(x, g, h, idx_by_feature, cfg)
    if best is None or best[0] <= 0.0:
        return leaf()
    _, f, thr = best
    go_left = [x[ix, f] < thr for ix in idx_by_feature]
    left_idx = (idx_by_feature[0][go_left[0]], idx_by_feature[1][go_left[1]])
    right_idx = (idx_by_feature[0][~go_left[0]], idx_by_feature[1][~go_left[1]])
    nodes.append(None)
    nodes[pos] = (
        f, thr,
        _grow(x, g, h, left_idx, cfg, depth + 1, leaf_updates, nodes),
        _grow(x, g, h, right_idx, cfg, depth + 1, leaf_updates, nodes), 0.0)
    return pos


def reference_boost_segment(x, y, preds, cfg: TrainConfig, tag: str,
                            val_x=None, val_y=None, val_preds=None):
    """``boost._boost_segment`` driven by the reference ``_grow``."""
    history = BoostHistory()
    idx0 = np.argsort(x[:, 0], kind="stable")
    idx1 = np.argsort(x[:, 1], kind="stable")
    h = np.ones_like(y)
    trees = []
    for rnd in range(cfg.n_trees):
        g = preds - y
        if not math.isfinite(float(np.dot(g, g))):
            raise TrainingError("non-finite training loss", rnd)
        leaf_updates: list = []
        nodes: list = []
        _grow(x, g, h, (idx0, idx1), cfg, 0, leaf_updates, nodes)
        tree = Tree(*zip(*nodes))
        for idx, w in leaf_updates:
            preds[idx] += cfg.learning_rate * w
        loss = float(np.mean((y - preds) ** 2))
        if not math.isfinite(loss):
            raise TrainingError("non-finite training loss", rnd)
        history.train_mse.append(loss)
        if val_x is not None:
            val_preds += cfg.learning_rate * _eval_tree(tree, val_x)
            history.val_mse.append(float(np.mean((val_y - val_preds) ** 2)))
        trees.append(tree)
    return Segment(tag, cfg.learning_rate, tuple(trees)), history
