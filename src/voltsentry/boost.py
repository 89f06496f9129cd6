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

A tree is its preorder node arrays (feature, threshold, left, right,
weight), the layout the model JSON stores and the flat node layout of
XGBoost and Treelite.  The kernel appends nodes in preorder as it grows
them, and model_from_json builds trees through the same validating Tree
constructor.  Tree arrays are read-only and an Ensemble's fields cannot be
reassigned, so what an ensemble compiled at construction never goes stale.

Prediction compiles the trees once into one node table, as QuickScorer
(Lucchese et al., SIGIR 2015) and Treelite (Cho & Li, 2018) compile an
ensemble: one array each of split feature, threshold, first child and leaf
value lr * w over all trees.  The table is laid out level by level, and the
two children of a node sit side by side, so a row moves with
node = child[node] + (x[feature] >= threshold); a leaf is its own child with
threshold +inf, so it stays put.  The walk moves every (tree, row) pair one
level per step, for all trees at once.  Trees are walked deepest first, so
level L moves only the trees deeper than L, and rows go in chunks of about
_CHUNK tree-row pairs to stay in cache.  The walk is bit-exact against a
per-tree walk: x >= t is exactly not x < t for finite x, so every row
reaches the same leaf, and the leaf values are summed onto the start in
tree order by np.add.accumulate, the same float additions in the same order
as adding one tree at a time (np.sum would sum pairwise).  NaN would go the
other way from the < rule, so the walk rejects non-finite features.
_NodeTable.walk is the only prediction walk: predict_model_space,
predict_batch and the validation loss during training (on a table of the
one new tree) all use it.

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


class ModelParseError(ValueError):
    """A model JSON that lacks a field or holds one of the wrong type."""


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
        if not (0 < self.v_scale < math.inf and 0 < self.i_scale < math.inf):
            raise ValueError("normalization scales must be positive and finite")


@dataclass(frozen=True, eq=False)
class Tree:
    """A regression tree: its preorder node arrays, as the model JSON stores them.

    Node 0 is the root.  An internal node sends a row x to node ``left`` if
    x[feature] < threshold and to node ``right`` otherwise; a leaf has
    feature -1, children -1 and its output in ``weight``.  The constructor
    is the only way in and rejects what is not such a tree, so the
    prediction walk needs no checks of its own.  It copies the arrays and
    makes them read-only.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for name in ("feature", "left", "right"):
            a = np.array(getattr(self, name))
            if a.size and a.dtype.kind not in "iu":
                raise ValueError(f"tree {name} must hold integers")
            object.__setattr__(self, name, a.astype(np.int64, copy=False))
        for name in ("threshold", "weight"):
            object.__setattr__(self, name,
                               np.array(getattr(self, name), dtype=float))
        feature, left, right = self.feature, self.left, self.right
        n = feature.size
        if n == 0 or not (feature.shape == self.threshold.shape == left.shape
                          == right.shape == self.weight.shape == (n,)):
            raise ValueError("inconsistent tree node arrays")
        if not (np.isfinite(self.threshold).all()
                and np.isfinite(self.weight).all()):
            raise ValueError("tree thresholds and weights must be finite")
        if (np.abs(feature) > 1).any():  # -1 (a leaf), 0 or 1
            raise ValueError("internal tree nodes must split on feature 0 or 1")
        leaf = feature == -1
        if (left[leaf] != -1).any() or (right[leaf] != -1).any():
            raise ValueError("tree leaves must have children -1")
        parents = np.flatnonzero(~leaf)
        children = np.concatenate((left[parents], right[parents]))
        if children.size != n - 1 or (np.sort(children) != np.arange(1, n)).any():
            raise ValueError(
                "every tree node but the root must be the child of exactly one node")
        if (children <= np.concatenate((parents, parents))).any():
            raise ValueError("tree child indices must exceed their parent's")
        for a in (feature, self.threshold, left, right, self.weight):
            a.flags.writeable = False


# Tree-row pairs walked per chunk of rows, so that a chunk's walk state and
# the values it gathers stay in cache.
_CHUNK = 1 << 15


class _NodeTable:
    """Trees compiled into one node table, walked all together.

    ``split_i`` (the node splits on feature 1), ``threshold``, ``child``
    (the left child; the right one follows it) and ``value`` (lr * w at a
    leaf) hold every node, level by level.  The root of tree t is node t.
    ``order`` lists the trees deepest first, ``rank`` is its inverse and
    ``active[L]`` counts the trees deeper than L.
    """

    def __init__(self, trees):
        """Compile (learning rate, Tree) pairs, in tree order."""
        n_trees = len(trees)
        sizes = np.array([t.feature.size for _, t in trees], dtype=np.int64)
        first = np.cumsum(sizes) - sizes

        def stacked(name):
            return np.concatenate([getattr(t, name) for _, t in trees]
                                  or [np.empty(0)])

        shift = np.repeat(first, sizes)
        feature = stacked("feature")
        left = stacked("left") + shift
        right = stacked("right") + shift
        threshold = stacked("threshold")
        value = np.repeat(np.array([lr for lr, _ in trees], dtype=float),
                          sizes) * stacked("weight")
        tree_of = np.repeat(np.arange(n_trees), sizes)
        depth = np.zeros(n_trees, dtype=np.int64)
        levels = [(np.empty(0, bool), np.empty(0), np.empty(0, np.int64),
                   np.empty(0))]
        level, pos = first, 0  # old indices of one level's nodes, in new order
        while level.size:
            f = feature[level]
            internal = f >= 0
            inner = level[internal]
            child = np.arange(pos, pos + level.size)
            pos += level.size
            child[internal] = pos + 2 * np.arange(inner.size)
            levels.append((f == 1, np.where(internal, threshold[level], np.inf),
                           child, np.where(internal, 0.0, value[level])))
            depth[tree_of[inner]] = len(levels) - 1
            level = np.column_stack([left[inner], right[inner]]).ravel()
        self.split_i, self.threshold, self.child, self.value = (
            np.concatenate(c) for c in zip(*levels))
        self.order = np.argsort(-depth, kind="stable")
        self.rank = np.argsort(self.order)
        self.active = [int(np.count_nonzero(depth > d))
                       for d in range(int(depth.max(initial=0)))]

    def walk(self, x: np.ndarray, start) -> np.ndarray:
        """start plus every tree's lr * w, added in tree order, per row of
        an (N, 2) model-space matrix; start is a scalar or an (N,) array."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        out = np.empty(x.shape[0])
        out[:] = start
        if not self.order.size:
            return out
        step = max(1, _CHUNK // self.order.size)
        for a in range(0, x.shape[0], step):
            v = np.ascontiguousarray(x[a:a + step, 0])
            i = np.ascontiguousarray(x[a:a + step, 1])
            node = np.repeat(self.order[:, None], v.size, axis=1)
            for k in self.active:
                cur = node[:k]
                x_f = np.where(self.split_i.take(cur), i, v)
                np.add(self.child.take(cur), x_f >= self.threshold.take(cur),
                       out=cur)
            leaves = self.value.take(node.take(self.rank, axis=0))
            out[a:a + step] = np.add.accumulate(
                np.vstack([out[a:a + step], leaves]), axis=0)[-1]
        return out


@dataclass(frozen=True)
class Segment:
    """A block of trees trained together with one learning rate."""

    tag: str
    learning_rate: float
    trees: tuple

    def __post_init__(self):
        if self.tag not in ("base", "finetune"):
            raise ValueError("segment tag must be 'base' or 'finetune'")
        if not math.isfinite(self.learning_rate):
            raise ValueError("segment learning rate must be finite")
        object.__setattr__(self, "trees", tuple(self.trees))


@dataclass
class BoostHistory:
    """Per-round mean-squared losses recorded during a boosting run."""

    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)


@dataclass(frozen=True)
class Ensemble:
    """Additive tree model: base_score plus learning-rate-weighted leaves.

    Its trees are compiled into one node table at construction.
    """

    base_score: float
    segments: tuple
    norm: NormSpec = NormSpec()
    history: BoostHistory | None = None
    table: _NodeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.base_score):
            raise ValueError("base_score must be finite")
        object.__setattr__(self, "segments", tuple(self.segments))
        tags = [s.tag for s in self.segments]
        if "finetune" in tags and "base" in tags[tags.index("finetune"):]:
            raise ValueError("segments must be ordered base-first")
        object.__setattr__(self, "table", _NodeTable(
            [(s.learning_rate, t) for s in self.segments for t in s.trees]))

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
    """Boosting hyper-parameters, of base training and of fine-tuning.

    n_trees may be 0 (a fine-tune that appends an empty segment); train
    needs at least one tree.
    """

    n_trees: int = 400
    max_depth: int = 4
    learning_rate: float = 0.12
    lambda_l2: float = 1.0
    gamma_leaf: float = 0.0
    min_child_weight: float = 1.0

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValueError("n_trees must be nonnegative")
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
            val_preds[:] = _NodeTable([(cfg.learning_rate, tree)]).walk(
                val_x, val_preds)
            history.val_mse.append(float(np.mean((val_y - val_preds) ** 2)))
        trees.append(tree)
    return Segment(tag, cfg.learning_rate, tuple(trees)), history


def train(data, val, cfg: TrainConfig) -> Ensemble:
    """Train a base ensemble; loss curves land on ensemble.history."""
    x = np.asarray(data.x, dtype=float)
    y = np.asarray(data.y, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("training data is empty")
    if cfg.n_trees < 1:
        raise ValueError("base training needs n_trees >= 1")
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
    """Raw additive model output for already-normalized (N, 2) inputs;
    raises ValueError if an input is not finite."""
    return ens.table.walk(x_model, ens.base_score)


def predict_batch(ens: Ensemble, x: np.ndarray) -> np.ndarray:
    """Predict next voltages for an (N, 2) matrix of physical (v, i) rows."""
    x = np.asarray(x, dtype=float)
    x_model = np.column_stack([x[:, 0] / ens.norm.v_scale,
                               x[:, 1] / ens.norm.i_scale])
    return predict_model_space(ens, x_model) * ens.norm.v_scale


# ---------------------------------------------------------------------------
# Serialization (versioned JSON, bit-stable round trips)
# ---------------------------------------------------------------------------

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
                        "feature": t.feature.tolist(),
                        "threshold": t.threshold.tolist(),
                        "left": t.left.tolist(),
                        "right": t.right.tolist(),
                        "weight": t.weight.tolist(),
                    }
                    for t in seg.trees
                ],
            }
            for seg in ens.segments
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


_NUMBER = frozenset((int, float))
_NODE_ARRAYS = ("feature", "threshold", "left", "right", "weight")


def _field(obj, key: str, types: tuple | frozenset, where: str):
    """obj[key] of a JSON object, checked to be of one of the given types."""
    if type(obj) is not dict:
        raise ModelParseError(f"{where} must be an object")
    if key not in obj:
        raise ModelParseError(f"{where} lacks {key!r}")
    if type(obj[key]) not in types:
        raise ModelParseError(f"{where}.{key} has the wrong type")
    return obj[key]


def _tree_from_json(doc, where: str) -> Tree:
    arrays = [_field(doc, name, (list,), where) for name in _NODE_ARRAYS]
    for name, a in zip(_NODE_ARRAYS, arrays):
        if not set(map(type, a)) <= _NUMBER:
            raise ModelParseError(f"{where}.{name} must hold numbers")
    return Tree(*arrays)


def model_from_json(text: str) -> Ensemble:
    """Load a model; raises ModelParseError on a missing field or one of the
    wrong type and ValueError on values that do not form a model."""
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ModelParseError("model must be a JSON object")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('version')!r}")
    segments = []
    for s, seg in enumerate(_field(doc, "segments", (list,), "model")):
        where = f"segments[{s}]"
        trees = _field(seg, "trees", (list,), where)
        segments.append(Segment(
            tag=_field(seg, "tag", (str,), where),
            learning_rate=_field(seg, "learning_rate", _NUMBER, where),
            trees=tuple(_tree_from_json(t, f"{where}.trees[{j}]")
                        for j, t in enumerate(trees))))
    norm = _field(doc, "norm", (dict,), "model")
    return Ensemble(
        base_score=_field(doc, "base_score", _NUMBER, "model"),
        segments=segments,
        norm=NormSpec(v_scale=_field(norm, "v_scale", _NUMBER, "norm"),
                      i_scale=_field(norm, "i_scale", _NUMBER, "norm")))


def save_model(path, ens: Ensemble) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(ens) + "\n")


def load_model(path) -> Ensemble:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
