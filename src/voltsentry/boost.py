"""Gradient-boosted regression trees with a second-order objective.

Squared-error loss in the halved convention, 0.5 * sum (y - yhat)^2, so the
per-point gradient is g = yhat - y and the hessian is h = 1.  Leaf weights
minimize the second-order objective sum(g w + 0.5 h w^2) + 0.5 lambda w^2,
giving w* = -G / (H + lambda).  Split search is exact greedy over midpoints
of consecutive distinct sorted feature values, with a deterministic
tie-break: lowest feature index first, then lowest threshold.

Split search runs on presorted column blocks, as in XGBoost's exact greedy
algorithm (Chen & Guestrin, KDD 2016).  Each feature is sorted once per
boosting segment, together with the positions where a midpoint threshold
can separate two neighbours (the candidates).  A node carries, for each
feature, its rows, their sorted values and their gradients in that
feature's stable order.  A split on feature f is a prefix/suffix cut of f's
block; the other feature's block is selected stably, so every child keeps
the order a fresh stable sort would give.  Because every hessian is 1, H of
c rows is the count c, and min_child_weight becomes a range of positions.
Gains are computed at the candidate positions only.

The kernel is bit-exact against a scan of every sorted position (the
reference kept in the tests).  Gradient sums are taken in the same order,
over the same rows: a pairwise sum in feature-0 order for G, and a running
cumsum in each feature's order for the left sums.  Each gain is the same
expression evaluated in the same order, and the first maximum wins.  Trees,
leaf weights and loss histories are therefore identical to the scan's.

An Ensemble is an ordered list of segments (base first, then fine-tune),
each a list of trees sharing one learning rate.  The NormSpec stored on the
ensemble maps physical inputs to model space: voltages divide by v_scale,
currents by i_scale, and predictions multiply back by v_scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


class TrainingError(RuntimeError):
    """Boosting aborted; carries the offending round index."""

    def __init__(self, message: str, round_index: int):
        super().__init__(f"{message} (round {round_index})")
        self.round_index = round_index


MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NormSpec:
    """Feature/target scaling between physical units and model space."""

    v_scale: float = 1.0
    i_scale: float = 1.0

    def __post_init__(self):
        if not (self.v_scale > 0 and self.i_scale > 0):
            raise ValueError("normalization scales must be positive")


@dataclass
class TreeNode:
    """Binary regression tree node; a leaf has no children."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def leaf_value(self, x) -> float:
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] < node.threshold else node.right
        return node.weight


@dataclass(frozen=True)
class Segment:
    """A block of trees trained together with one learning rate."""

    tag: str
    learning_rate: float
    trees: tuple

    def __post_init__(self):
        if self.tag not in ("base", "finetune"):
            raise ValueError("segment tag must be 'base' or 'finetune'")
        object.__setattr__(self, "trees", tuple(self.trees))


@dataclass
class BoostHistory:
    """Per-round mean-squared losses recorded during a boosting run."""

    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)


@dataclass
class Ensemble:
    """Additive tree model: base_score plus learning-rate-weighted leaves."""

    base_score: float
    segments: tuple
    norm: NormSpec = NormSpec()
    history: BoostHistory | None = None

    def __post_init__(self):
        self.segments = tuple(self.segments)
        tags = [s.tag for s in self.segments]
        if "finetune" in tags and "base" in tags[tags.index("finetune"):]:
            raise ValueError("segments must be ordered base-first")

    @property
    def n_trees(self) -> int:
        return sum(len(s.trees) for s in self.segments)

    def tree_counts(self) -> dict:
        counts: dict = {}
        for s in self.segments:
            counts[s.tag] = counts.get(s.tag, 0) + len(s.trees)
        return counts


@dataclass(frozen=True)
class TrainConfig:
    """Boosting hyper-parameters."""

    n_trees: int = 400
    max_depth: int = 4
    learning_rate: float = 0.12
    lambda_l2: float = 1.0
    gamma_leaf: float = 0.0
    min_child_weight: float = 1.0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.lambda_l2 < 0 or self.gamma_leaf < 0:
            raise ValueError("regularizers must be nonnegative")
        if self.min_child_weight < 0:
            raise ValueError("min_child_weight must be nonnegative")


BASE_RECIPE = TrainConfig(n_trees=400, max_depth=4, learning_rate=0.12)


def leaf_weight(grad_sum: float, hess_sum: float, lambda_l2: float) -> float:
    """Optimal leaf weight -G / (H + lambda)."""
    denom = hess_sum + lambda_l2
    if denom == 0.0:
        raise ValueError("hess_sum + lambda_l2 must be nonzero")
    return -grad_sum / denom


def split_gain(g_left: float, h_left: float, g_right: float, h_right: float,
               lambda_l2: float, gamma_leaf: float) -> float:
    """Objective reduction of a candidate split."""
    lam = lambda_l2
    return 0.5 * (g_left ** 2 / (h_left + lam)
                  + g_right ** 2 / (h_right + lam)
                  - (g_left + g_right) ** 2 / (h_left + h_right + lam)) - gamma_leaf


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

    def grow(self, g: np.ndarray, leaves: list) -> TreeNode:
        """Fit one tree to the gradients g; appends (rows, weight) per leaf."""
        root = [(rows, xs, g.take(rows), cand) for rows, xs, cand in self.order]
        return self._node(root, 0, leaves)

    def _node(self, node, depth: int, leaves: list) -> TreeNode:
        cfg = self.cfg
        rows0, _, g0, _ = node[0]
        m = rows0.shape[0]
        g_sum = float(g0.sum())
        best = None
        if depth < cfg.max_depth and m >= 2:
            best = self._split(node, m, g_sum)
        if best is None or best[0] <= 0.0:
            w = leaf_weight(g_sum, float(m), cfg.lambda_l2)
            leaves.append((rows0, w))
            return TreeNode(weight=w)
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
        left = self._node(self._child(node, full, f, k, go_left, True),
                          depth + 1, leaves)
        right = self._node(self._child(node, full, f, k, go_left, False),
                           depth + 1, leaves)
        return TreeNode(feature=f, threshold=thr, left=left, right=right)

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


def fit_tree(data, current_pred, cfg: TrainConfig) -> TreeNode:
    """Fit one regression tree to the residuals of the current prediction."""
    x = np.asarray(data.x, dtype=float)
    y = np.asarray(data.y, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("cannot fit a tree on empty data")
    pred = np.broadcast_to(np.asarray(current_pred, dtype=float), y.shape)
    return _ColumnBlocks(x, cfg).grow(pred - y, [])


def _eval_tree(tree: TreeNode, x: np.ndarray) -> np.ndarray:
    """Vectorized leaf lookup for one tree over an (N, 2) matrix."""
    flat = _flatten(tree)
    feature = flat["feature"]
    threshold = flat["threshold"]
    left = flat["left"]
    right = flat["right"]
    node = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        f = feature[node]
        internal = f >= 0
        if not internal.any():
            break
        vals = np.where(f == 0, x[:, 0], x[:, 1])
        child = np.where(vals < threshold[node], left[node], right[node])
        node = np.where(internal, child, node)
    return flat["weight"][node]


def _boost_segment(x, y, preds, cfg: TrainConfig, tag: str,
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
            val_preds += cfg.learning_rate * _eval_tree(tree, val_x)
            history.val_mse.append(float(np.mean((val_y - val_preds) ** 2)))
        trees.append(tree)
    return Segment(tag, cfg.learning_rate, tuple(trees)), history


def train(data, val, cfg: TrainConfig) -> Ensemble:
    """Train a base ensemble; loss curves land on ensemble.history."""
    x = np.asarray(data.x, dtype=float)
    y = np.asarray(data.y, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("training data is empty")
    norm = data.meta.get("norm", NormSpec()) if hasattr(data, "meta") else NormSpec()
    base_score = float(y.mean())
    preds = np.full(y.shape, base_score)
    val_x = val_y = val_preds = None
    if val is not None and len(val.y):
        val_x = np.asarray(val.x, dtype=float)
        val_y = np.asarray(val.y, dtype=float)
        val_preds = np.full(val_y.shape, base_score)
    segment, history = _boost_segment(
        x, y, preds, cfg, "base", val_x, val_y, val_preds)
    return Ensemble(base_score=base_score, segments=(segment,), norm=norm,
                    history=history)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict_model_space(ens: Ensemble, x_model: np.ndarray) -> np.ndarray:
    """Raw additive model output for already-normalized (N, 2) inputs."""
    out = np.full(x_model.shape[0], ens.base_score)
    for seg in ens.segments:
        for tree in seg.trees:
            out += seg.learning_rate * _eval_tree(tree, x_model)
    return out


def predict_batch(ens: Ensemble, x: np.ndarray) -> np.ndarray:
    """Predict next voltages for an (N, 2) matrix of physical (v, i) rows."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    x_model = np.column_stack([x[:, 0] / ens.norm.v_scale,
                               x[:, 1] / ens.norm.i_scale])
    return predict_model_space(ens, x_model) * ens.norm.v_scale


def predict(ens: Ensemble, x) -> float:
    """Predict the next voltage for one physical (v, i) pair."""
    v, i = float(x[0]), float(x[1])
    if not (math.isfinite(v) and math.isfinite(i)):
        raise ValueError("features must be finite")
    xm = (v / ens.norm.v_scale, i / ens.norm.i_scale)
    out = ens.base_score
    for seg in ens.segments:
        for tree in seg.trees:
            out += seg.learning_rate * tree.leaf_value(xm)
    return out * ens.norm.v_scale


# ---------------------------------------------------------------------------
# Serialization (versioned JSON, bit-stable round trips)
# ---------------------------------------------------------------------------

def _flatten(tree: TreeNode) -> dict:
    cached = getattr(tree, "_flat", None)
    if cached is not None:
        return cached
    feature, threshold, left, right, weight = [], [], [], [], []

    def visit(node: TreeNode) -> int:
        pos = len(feature)
        feature.append(node.feature if not node.is_leaf else -1)
        threshold.append(node.threshold if not node.is_leaf else 0.0)
        left.append(-1)
        right.append(-1)
        weight.append(node.weight if node.is_leaf else 0.0)
        if not node.is_leaf:
            left[pos] = visit(node.left)
            right[pos] = visit(node.right)
        return pos

    visit(tree)
    flat = {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=float),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "weight": np.array(weight, dtype=float),
    }
    tree._flat = flat
    return flat


def _unflatten(doc: dict) -> TreeNode:
    feature = doc["feature"]
    n = len(feature)
    shapes = {len(doc[k]) for k in ("feature", "threshold", "left", "right", "weight")}
    if shapes != {n}:
        raise ValueError("inconsistent tree node arrays")

    def build(pos: int) -> TreeNode:
        if feature[pos] < 0:
            return TreeNode(weight=float(doc["weight"][pos]))
        return TreeNode(
            feature=int(feature[pos]), threshold=float(doc["threshold"][pos]),
            left=build(int(doc["left"][pos])), right=build(int(doc["right"][pos])))

    return build(0)


def model_to_json(ens: Ensemble) -> str:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "base_score": float(ens.base_score),
        "norm": {"v_scale": float(ens.norm.v_scale),
                 "i_scale": float(ens.norm.i_scale)},
        "segments": [
            {
                "tag": seg.tag,
                "learning_rate": float(seg.learning_rate),
                "trees": [
                    {
                        "feature": [int(v) for v in _flatten(t)["feature"]],
                        "threshold": [float(v) for v in _flatten(t)["threshold"]],
                        "left": [int(v) for v in _flatten(t)["left"]],
                        "right": [int(v) for v in _flatten(t)["right"]],
                        "weight": [float(v) for v in _flatten(t)["weight"]],
                    }
                    for t in seg.trees
                ],
            }
            for seg in ens.segments
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_from_json(text: str) -> Ensemble:
    doc = json.loads(text)
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('version')!r}")
    segments = tuple(
        Segment(
            tag=seg["tag"], learning_rate=seg["learning_rate"],
            trees=tuple(_unflatten(t) for t in seg["trees"]))
        for seg in doc["segments"])
    norm = NormSpec(v_scale=doc["norm"]["v_scale"], i_scale=doc["norm"]["i_scale"])
    return Ensemble(base_score=doc["base_score"], segments=segments, norm=norm)


def save_model(path, ens: Ensemble) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(ens) + "\n")


def load_model(path) -> Ensemble:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
