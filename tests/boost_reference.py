"""Reference implementations the boost module must match bit for bit.

``_best_split`` and ``_grow`` are the straightforward exact-greedy trainer,
a plain scan of every sorted position, that ``voltsentry.boost`` replaced
with its presorted column-block kernel; their split search is kept here
verbatim, emitting the same preorder node arrays as the kernel.
``reference_boost_segment`` is ``boost._boost_segment`` driven by them.

``_ColumnBlocks`` is the presorted column-block grower that ``boost``
replaced with its workspace grower, kept verbatim with its ``_candidates``
helper: each node carries its rows, sorted values, gradients and candidate
positions per feature, in freshly allocated arrays.
``column_block_boost_segment`` is the ``boost._boost_segment`` that drove
it, kept verbatim but for its name.

``_eval_tree`` is the batch walk that ``boost`` replaced with its compiled
node table, kept verbatim: it moves all rows down one tree a level at a
time with the x < threshold rule.  ``leaf_value`` walks one row down one
tree, node by node.  Both are oracles for the compiled walk.  ``tree_depth``
is the depth of a tree from its node arrays.
"""

import math

import numpy as np

from voltsentry.boost import (BoostHistory, Segment, TrainConfig, Tree,
                              TrainingError, _NodeTable, leaf_weight)


def _eval_tree(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf weights of one tree for every row of an (N, 2) matrix."""
    feature, threshold = tree.feature, tree.threshold
    left, right = tree.left, tree.right
    node = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        f = feature[node]
        internal = f >= 0
        if not internal.any():
            break
        vals = np.where(f == 0, x[:, 0], x[:, 1])
        child = np.where(vals < threshold[node], left[node], right[node])
        node = np.where(internal, child, node)
    return tree.weight[node]


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


def _candidates(xs: np.ndarray) -> np.ndarray:
    """Positions k of sorted values whose midpoint (xs[k] + xs[k+1]) / 2
    separates xs[k] from xs[k+1]; degenerate midpoints cannot partition."""
    lo, hi = xs[:-1], xs[1:]
    return np.flatnonzero((lo < hi) & ((lo + hi) * 0.5 > lo))


class _ColumnBlocks:
    """Both features presorted once per boosting segment.

    A node holds one block per feature: (rows, sorted values, gradients,
    candidate positions), each in that feature's ascending stable order.
    Nodes at the depth limit are leaves and carry only feature 0's rows and
    gradients.  rank[f] maps each row to its position in feature f's sorted
    order (int32: fewer than 2**31 rows).
    """

    def __init__(self, x: np.ndarray, cfg: TrainConfig):
        self.cfg = cfg
        self.order = []
        self.rank = []
        for f in (0, 1):
            rows = np.argsort(x[:, f], kind="stable")
            xs = x[rows, f]
            self.order.append((rows, xs, _candidates(xs)))
            rank = np.empty(rows.shape[0], dtype=np.int32)
            rank[rows] = np.arange(rows.shape[0], dtype=np.int32)
            self.rank.append(rank)

    def grow(self, g: np.ndarray, leaves: list) -> Tree:
        """Fit one tree to the gradients g; appends (rows, weight) per leaf."""
        root = [(rows, xs, g.take(rows), cand) for rows, xs, cand in self.order]
        nodes: list = []
        self._node(root, 0, leaves, nodes)
        return Tree(*zip(*nodes))

    def _node(self, node, depth: int, leaves: list, nodes: list) -> int:
        """Append the subtree of a node to nodes, one (feature, threshold,
        left, right, weight) row per node in preorder; returns its index."""
        cfg = self.cfg
        pos = len(nodes)
        rows0, _, g0, _ = node[0]
        m = rows0.shape[0]
        g_sum = float(g0.sum())
        best = None
        if depth < cfg.max_depth and m >= 2:
            best = self._split(node, m, g_sum)
        if best is None or best[0] <= 0.0:
            w = leaf_weight(g_sum, float(m), cfg.lambda_l2)
            leaves.append((rows0, w))
            nodes.append((-1, 0.0, -1, -1, w))
            return pos
        _, f, k = best
        xs = node[f][1]
        thr = float((xs[k] + xs[k + 1]) * 0.5)
        full = depth + 1 < cfg.max_depth
        go_left = None
        if full or f == 1:  # the children need the other feature's block
            # Within a node, x_f < thr exactly for the rows ranked at or
            # below the row at sorted position k of feature f.
            rank = self.rank[f]
            go_left = rank.take(node[1 - f][0]) <= rank[node[f][0][k]]
        nodes.append(None)
        left = self._node(self._child(node, full, f, k, go_left, True),
                          depth + 1, leaves, nodes)
        right = self._node(self._child(node, full, f, k, go_left, False),
                           depth + 1, leaves, nodes)
        nodes[pos] = (f, thr, left, right, 0.0)
        return pos

    def _split(self, node, m: int, g_sum: float):
        """Best (gain, feature, sorted position) of a node, or None.

        Gains are evaluated at valid candidate positions only.  np.argmax
        keeps the lowest threshold among equal gains and the strict > the
        lower feature index.
        """
        cfg = self.cfg
        parent = g_sum ** 2 / (float(m) + cfg.lambda_l2)
        # Each child's hessian sum is its row count c: need <= c <= m - need.
        need = (math.ceil(cfg.min_child_weight)
                if cfg.min_child_weight <= m else m + 1)
        best = None
        for f, (_, _, g, cand) in enumerate(node):
            c = cand[np.searchsorted(cand, need - 1):
                     np.searchsorted(cand, m - 1 - need, "right")]
            if c.size == 0:
                continue
            gl = np.cumsum(g[:c[-1] + 1]).take(c)
            gr = g_sum - gl
            # Hessian sums are row counts: c + 1 rows left, m - 1 - c right.
            den = np.add(c, 1, dtype=float)
            den += cfg.lambda_l2
            gl *= gl
            gl /= den
            np.subtract(m - 1, c, out=den, dtype=float)
            den += cfg.lambda_l2
            gr *= gr
            gr /= den
            gl += gr
            gl -= parent
            gl *= 0.5
            gl -= cfg.gamma_leaf
            j = int(np.argmax(gl))
            if best is None or gl[j] > best[0]:
                best = (float(gl[j]), f, int(c[j]))
        return best

    @staticmethod
    def _child(node, full: bool, f: int, k: int, go_left, left: bool) -> list:
        """Blocks of one child of a split at sorted position k of feature f.

        Rows with x_f < thr are the prefix [0, k] of f's block; the other
        feature's block is selected stably, so both keep their sorted order.
        """
        blocks = []
        for j in ((0, 1) if full else (0,)):
            rows, xs, g, cand = node[j]
            if j == f:
                part = slice(None, k + 1) if left else slice(k + 1, None)
                rows, xs, g = rows[part], xs[part], g[part]
                if full:
                    i = int(np.searchsorted(cand, k))
                    cand = cand[:i] if left else cand[i + 1:] - (k + 1)
            else:
                pos = np.flatnonzero(go_left if left else ~go_left)
                rows, g = rows.take(pos), g.take(pos)
                if full:
                    xs = xs.take(pos)
                    cand = _candidates(xs)
            blocks.append((rows, xs, g, cand) if full else (rows, None, g, None))
        return blocks


def column_block_boost_segment(x, y, preds, cfg: TrainConfig, tag: str,
                               val_x=None, val_y=None, val_preds=None):
    """Run cfg.n_trees boosting rounds starting from the given predictions.

    Mutates preds / val_preds in place and returns (Segment, BoostHistory).
    """
    history = BoostHistory()
    blocks = _ColumnBlocks(x, cfg)
    trees = []
    for rnd in range(cfg.n_trees):
        g = preds - y
        if not math.isfinite(float(np.dot(g, g))):
            raise TrainingError("non-finite training loss", rnd)
        leaves: list = []
        tree = blocks.grow(g, leaves)
        for rows, w in leaves:
            preds[rows] += cfg.learning_rate * w
        loss = float(np.mean((y - preds) ** 2))
        if not math.isfinite(loss):
            raise TrainingError("non-finite training loss", rnd)
        history.train_mse.append(loss)
        if val_x is not None:
            val_preds[:] = _NodeTable([(cfg.learning_rate, tree)]).walk(
                val_x, val_preds)
            history.val_mse.append(float(np.mean((val_y - val_preds) ** 2)))
        trees.append(tree)
    return Segment(tag, cfg.learning_rate, tuple(trees)), history
