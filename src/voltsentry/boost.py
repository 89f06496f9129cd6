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
feature, only its rows and its candidate positions in that feature's
stable order.  Every row, training or validation, goes left at a split iff
x_f < thr.  For the split feature that is a prefix/suffix cut of its
block: at a valid candidate k, xs[k] < thr because the candidate check
needs mid > lo, thr <= xs[k+1] because rounding is monotone (an overflowing
midpoint is +inf, which Tree rejects), and equal values never straddle a
candidate.  The other feature's rows keep their stable order through the
selection, so every child keeps the order a fresh stable sort would give.
Because every hessian is 1, H of c rows is the count c, and
min_child_weight becomes a range of positions.

Every per-node temporary lives in one workspace of arrays of the segment's
row count, allocated once per segment: fresh temporaries of that size at
every node make the allocator trim its heap and fault the pages back in,
node after node.  An array is reused once what it held is spent (see the
comments in _ColumnBlocks).  Gathers write into the workspace with
take(out=..., mode="clip"): with the default "raise", numpy buffers out
through a temporary of its own.  Clipping never changes an index, because
every index is in range by construction.  Rows and candidate positions are
int32, as the row indices of XGBoost's column blocks are, half the size of
intp; so a segment has fewer than 2**31 rows.  The denominators H + lambda
are computed from each candidate c's counts, (c + 1) + lambda for the left
child and (m - 1 - c) + lambda for the right: the count converted to
float, then lambda added.

The kernel is bit-exact against a scan of every sorted position (the
reference kept in the tests).  Gradient sums are taken in the same order,
over the same rows: a pairwise sum in feature-0 order for G, and a running
cumsum in each feature's order for the left sums.  Each gain is the same
expression evaluated in the same order, and the first maximum wins.

A tree is its preorder node arrays (feature, threshold, left, right,
weight), the layout the model JSON stores.  Tree arrays are read-only and
an Ensemble's fields cannot be reassigned, so what an ensemble compiled at
construction never goes stale.

Prediction compiles the trees once into one node table, as QuickScorer
(Lucchese et al., SIGIR 2015) and Treelite (Cho & Li, 2018) compile an
ensemble, laid out level by level with the two children of a node side by
side, so a row moves with node = child[node] + (x[feature] >= threshold);
a leaf is its own child with threshold +inf.  Trees are walked deepest
first, so level L moves only the trees deeper than L, and rows go in
chunks of about _CHUNK tree-row pairs to stay in cache.  The walk is
bit-exact against a per-tree walk: x >= t is exactly not x < t for finite
x, and np.add.accumulate sums the leaf values in tree order, as adding one
tree at a time does (np.sum would sum pairwise).  NaN would go the other
way from the < rule, so the walk rejects non-finite features.
_NodeTable.walk is the only walk of a finished tree.  While a tree grows,
the grower's x_f < thr is exactly not the walk's x >= t, so a validation
row reaches the leaf the walk would and gains its lr * w, the single float
addition the walk of a one-tree table makes, and the loss curves are the
same bytes.  The validation matrix is checked for finite values once per
segment, before the grower takes it.

Training is continued boosting, as in XGBoost: train boosts one segment
onto the empty ensemble at the mean target, transfer.finetune onto the
base model, both through _boost_onto.
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
    """Per-round mean-squared losses recorded during a boosting run, and
    the largest absolute validation error of its starting and of its final
    predictions (model space; None without validation rows).

    The two maxima summarize the same validation predictions as val_mse,
    so they take no part in comparisons.
    """

    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    val_max_abs_start: float | None = field(default=None, compare=False)
    val_max_abs_end: float | None = field(default=None, compare=False)


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
    needs at least one tree.  The regularizers and min_child_weight must be
    nonnegative and finite (ValueError otherwise).
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
        if not (0.0 <= self.lambda_l2 < math.inf
                and 0.0 <= self.gamma_leaf < math.inf):
            raise ValueError("regularizers must be nonnegative and finite")
        if not 0.0 <= self.min_child_weight < math.inf:
            raise ValueError("min_child_weight must be nonnegative and finite")


BASE_RECIPE = TrainConfig(n_trees=400, max_depth=4, learning_rate=0.12)


def leaf_weight(grad_sum: float, hess_sum: float, lambda_l2: float) -> float:
    """Optimal leaf weight -G / (H + lambda)."""
    denom = hess_sum + lambda_l2
    if denom == 0.0:
        raise ValueError("hess_sum + lambda_l2 must be nonzero")
    return -grad_sum / denom


def _below(col, rows, thr: float, values=None, out=None) -> np.ndarray:
    """Whether each of rows goes left at thr: col[row] < thr, the one split
    rule of the grower, for training and validation rows alike; values and
    out are optional buffers for the gathered values and the result."""
    return np.less(col.take(rows, out=values, mode="clip"), thr, out=out)


class _ColumnBlocks:
    """Both features presorted once per boosting segment, and the workspace.

    A node is one (rows, candidate positions) pair per feature, each in
    that feature's ascending stable order.  Nodes at the depth limit are
    leaves and carry only feature 0's pair.  Rows and candidate positions
    are int32, so the constructor raises ValueError for 2**31 rows or more,
    before it allocates anything.  After grow, leaf[r] is the node of the
    leaf that holds row r.  The underscored arrays are the workspace (see
    the module docstring); each clip-mode take reads indices that are in
    range by construction: rows of the segment's argsort, candidate
    positions below m - 1 of a node of m rows, validation rows, and node
    indices of the tree just grown.

    Validation rows (intp indices into the finite matrix val_x) start every
    grow at the root and go down each chosen split by the training rows'
    rule, _below; val_leaf[r] is then the leaf of validation row r.
    """

    def __init__(self, x: np.ndarray, cfg: TrainConfig, val_x=None):
        n = x.shape[0]
        if n >= 2 ** 31:
            raise ValueError("training data must have fewer than 2**31 rows")
        if val_x is None:
            val_x = np.empty((0, 2))
        self.cfg = cfg
        self.g = None
        self.val_cols = [np.ascontiguousarray(val_x[:, f]) for f in (0, 1)]
        self.val_root = np.arange(val_x.shape[0])
        self.val_leaf = np.empty(val_x.shape[0], dtype=np.intp)
        self._g, self._cum, self._gl = (np.empty(n) for _ in range(3))
        self.leaf = np.empty(n, dtype=np.intp)
        self._mask, self._ok = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        self.cols, self.root = [], []
        for f in (0, 1):
            col = np.ascontiguousarray(x[:, f])
            rows = np.argsort(col, kind="stable").astype(np.int32)
            self.cols.append(col)
            self.root.append((rows, self._candidates(f, rows)))

    def grow(self, g: np.ndarray) -> Tree:
        """Fit one tree to the gradients g; see leaf and val_leaf."""
        self.g = g
        nodes: list = []
        self._node(self.root, self.val_root, 0, nodes)
        return Tree(*zip(*nodes))

    def _candidates(self, f: int, rows: np.ndarray) -> np.ndarray:
        """Positions k of a block's sorted values whose midpoint
        (xs[k] + xs[k+1]) / 2 separates xs[k] from xs[k+1]; degenerate
        midpoints cannot partition."""
        # A node calls this for its children once its split search is done
        # with _cum, _gl and _mask.
        xs = self.cols[f].take(rows, out=self._cum[:rows.shape[0]], mode="clip")
        lo, hi = xs[:-1], xs[1:]
        ok = np.less(lo, hi, out=self._ok[:lo.shape[0]])
        mid = np.add(lo, hi, out=self._gl[:lo.shape[0]])
        mid *= 0.5
        ok &= np.greater(mid, lo, out=self._mask[:lo.shape[0]])
        return np.flatnonzero(ok).astype(np.int32)

    def _node(self, node, val, depth: int, nodes: list) -> int:
        """Append the subtree of a node, which holds the validation rows
        val, to nodes, one (feature, threshold, left, right, weight) row per
        node in preorder; returns its index."""
        cfg = self.cfg
        pos = len(nodes)
        rows0 = node[0][0]
        m = rows0.shape[0]
        # Feature 0's gradients stay in _g for the split search.
        g_sum = float(self.g.take(rows0, out=self._g[:m], mode="clip").sum())
        best = None
        if depth < cfg.max_depth and m >= 2:
            best = self._split(node, m, g_sum)
        if best is None or best[0] <= 0.0:
            self.leaf[rows0] = pos
            self.val_leaf[val] = pos
            nodes.append((-1, 0.0, -1, -1, leaf_weight(g_sum, float(m),
                                                       cfg.lambda_l2)))
            return pos
        _, f, k = best
        rows, cand = node[f]
        col = self.cols[f]
        thr = float((col[rows[k]] + col[rows[k + 1]]) * 0.5)
        full = depth + 1 < cfg.max_depth
        # Rows with x_f < thr are the prefix [0, k] of f's block.
        children = [[(rows[:k + 1], None)], [(rows[k + 1:], None)]]
        if full:
            i = int(cand.searchsorted(np.int32(k)))
            children = [[(rows[:k + 1], cand[:i])],
                        [(rows[k + 1:], cand[i + 1:] - (k + 1))]]
        if full or f == 1:  # the children need the other feature's block
            # _g's gradients are spent; compress keeps the sorted order.
            other = node[1 - f][0]
            below = _below(col, other, thr, self._g[:m], self._mask[:m])
            parts = [other.compress(below),
                     other.compress(np.logical_not(below, out=below))]
            for child, part in zip(children, parts):
                block = (part, self._candidates(1 - f, part) if full else None)
                child.insert(1 - f, block)
        below = _below(self.val_cols[f], val, thr)
        nodes.append(None)
        left = self._node(children[0], val.compress(below), depth + 1, nodes)
        right = self._node(children[1], val.compress(~below), depth + 1, nodes)
        nodes[pos] = (f, thr, left, right, 0.0)
        return pos

    def _split(self, node, m: int, g_sum: float):
        """Best (gain, feature, sorted position) of a node, or None.

        Gains are evaluated at valid candidate positions only.  np.argmax
        keeps the lowest threshold among equal gains and the strict > the
        lower feature index.  Expects feature 0's gradients in _g.
        """
        cfg = self.cfg
        parent = g_sum ** 2 / (float(m) + cfg.lambda_l2)
        # Each child's hessian sum is its row count c: need <= c <= m - need.
        need = (math.ceil(cfg.min_child_weight)
                if cfg.min_child_weight <= m else m + 1)
        # int32 keys: with a Python int, searchsorted would first convert
        # the whole int32 block to int64.
        lo, hi = np.int32(need - 1), np.int32(m - 1 - need)
        best = None
        for f, (rows, cand) in enumerate(node):
            c = cand[cand.searchsorted(lo):cand.searchsorted(hi, "right")]
            if c.size == 0:
                continue
            top, nc = int(c[-1]) + 1, c.shape[0]
            g = self._g[:top]
            if f == 1:
                self.g.take(rows[:top], out=g, mode="clip")
            cum = g.cumsum(out=self._cum[:top])
            gl = cum.take(c, out=self._gl[:nc], mode="clip")
            # g and cum are spent once gl is gathered (nc <= top), so their
            # arrays take the right sums and the denominators.
            gr = np.subtract(g_sum, gl, out=self._g[:nc])
            # Hessian sums are row counts: c + 1 rows left, m - 1 - c right.
            den = np.add(c, 1, out=self._cum[:nc])
            den += cfg.lambda_l2
            gl *= gl
            gl /= den
            np.subtract(m - 1, c, out=den)
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


def _max_abs_error(y, preds) -> float:
    return float(np.max(np.abs(y - preds)))


def _boost_segment(x, y, preds, cfg: TrainConfig, tag: str,
                   val_x=None, val_y=None, val_preds=None):
    """Run cfg.n_trees boosting rounds starting from the given predictions.

    Mutates preds / val_preds in place and returns (Segment, BoostHistory).
    Validation rows, if any (a val_x of no rows is none), give the history's
    val_mse and maxima, those a prediction of them would give: val_preds
    gains each tree's lr * w in tree order, as the walk adds them.  A
    segment of no trees presorts nothing.
    """
    history = BoostHistory()
    trees = []
    if val_x is not None and len(val_x):
        history.val_max_abs_start = _max_abs_error(val_y, val_preds)
    else:
        val_x = None
    if cfg.n_trees == 0:
        history.val_max_abs_end = history.val_max_abs_start
        return Segment(tag, cfg.learning_rate, ()), history
    if val_x is not None:
        val_x = np.asarray(val_x, dtype=float)
        if not np.all(np.isfinite(val_x)):
            raise ValueError("features must be finite")
        val_buf = np.empty_like(val_y)
    blocks = _ColumnBlocks(x, cfg, val_x)
    # g holds the gradients while a tree grows, then serves as the scratch
    # for its predictions and errors; val_buf is that scratch for the
    # validation rows.
    g = np.empty_like(y)
    for rnd in range(cfg.n_trees):
        np.subtract(preds, y, out=g)
        if not math.isfinite(float(np.dot(g, g))):
            raise TrainingError("non-finite training loss", rnd)
        tree = blocks.grow(g)
        # Each row gains the lr * w of its leaf.
        preds += (cfg.learning_rate * tree.weight).take(
            blocks.leaf, out=g, mode="clip")
        np.subtract(y, preds, out=g)
        loss = float(np.mean(np.square(g, out=g)))
        if not math.isfinite(loss):
            raise TrainingError("non-finite training loss", rnd)
        history.train_mse.append(loss)
        if val_x is not None:
            val_preds += (cfg.learning_rate * tree.weight).take(
                blocks.val_leaf, out=val_buf, mode="clip")
            np.subtract(val_y, val_preds, out=val_buf)
            history.val_mse.append(float(np.mean(np.square(val_buf, out=val_buf))))
        trees.append(tree)
    if val_x is not None:
        history.val_max_abs_end = _max_abs_error(val_y, val_preds)
    return Segment(tag, cfg.learning_rate, tuple(trees)), history


def _boost_onto(prior: Ensemble, data, val, cfg: TrainConfig,
                tag: str) -> Ensemble:
    """prior plus a segment tagged tag, boosted from prior's predictions of
    the supervised sets data and val (None: no validation), under data's
    normalization, which val must share.  Non-finite features (the walk)
    and validation targets are rejected before any tree grows."""
    if val is not None and val.norm != data.norm:
        raise ValueError(f"validation set normalized with {val.norm}, "
                         f"training set with {data.norm}")
    if val is not None and not np.isfinite(val.y).all():
        raise ValueError("validation targets must be finite")
    preds = predict_model_space(prior, data.x)
    vals = () if val is None else (val.x, val.y, predict_model_space(prior, val.x))
    segment, history = _boost_segment(data.x, data.y, preds, cfg, tag, *vals)
    return Ensemble(prior.base_score, prior.segments + (segment,), data.norm,
                    history)


def train(data, val, cfg: TrainConfig) -> Ensemble:
    """Train a base ensemble from the mean target; loss curves land on
    ensemble.history."""
    if len(data) == 0:
        raise ValueError("training data is empty")
    if cfg.n_trees < 1:
        raise ValueError("base training needs n_trees >= 1")
    return _boost_onto(Ensemble(float(data.y.mean()), ()), data, val, cfg,
                       "base")


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
