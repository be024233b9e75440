"""Teacher-student distillation of the MLP into a CART tree, plus
minimal cost-complexity pruning.

The tree is grown greedily on teacher-labeled embeddings; pruning walks
the weakest-link path, where each internal node t carries

    alpha_eff(t) = (R(t) - R(T_t)) / (|leaves(T_t)| - 1)

with R the sample-weighted impurity contribution. Collapsing every
minimizer at each step yields the nested subtree family that minimizes
R(T) + alpha * |leaves| for every alpha.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import nn_core
from .classifier import ClassifierModel, predict_proba

GAIN_TOL = 1e-12
ALPHA_REL_TOL = 1e-12
# elements per temporary array in the split search (0.5 MB of float64)
_SPLIT_BLOCK = 1 << 16


@dataclass
class DecisionTree:
    """A tree as one preorder table of node columns, the layout of
    scikit-learn's Tree. Node 0 is the root, the left child of an internal
    node i is i + 1 and its right child follows the left subtree. A leaf
    has feature -1, threshold 0.0 and children -1.

    The scalar columns are Python lists: the per-sample walk indexes a
    list several times faster than a numpy array, and batch code takes
    np.asarray of them per call. Trees are not modified in place, so
    derived trees share the columns they do not change.
    """
    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    depth: list[int]              # edges from the root
    r_node: list[float]           # R(t) = (n_t/N) * impurity(t)
    predicted_class: list[int]    # argmax counts, ties -> lowest id
    collapse_alpha: list[float]   # PruningPath.collapse_alpha of this tree
    counts: np.ndarray            # (n_nodes, k) training samples routed here
    class_names: list[str]
    criterion: str = "gini"

    def __post_init__(self):
        n = len(self.feature)
        if (n == 0 or any(len(getattr(self, c)) != n for c in _COLUMNS)
                or self.counts.shape != (n, self.k)):
            raise ValueError(f"a tree needs non-empty node columns of one length and "
                             f"counts of shape (n_nodes, k) = ({n}, {self.k}), "
                             f"got {self.counts.shape}")

    @property
    def k(self) -> int:
        return len(self.class_names)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return self.feature.count(-1)

    @property
    def max_depth(self) -> int:
        """Longest root-to-leaf path, counted in edges."""
        return max(self.depth)

    def predict_label(self, values: np.ndarray) -> str:
        return self.class_names[tree_predict(self, values)]


# DecisionTree's list columns, in field order
_COLUMNS = ("feature", "threshold", "left", "right", "depth", "r_node", "predicted_class",
            "collapse_alpha")


@dataclass
class TeacherDataset:
    x: np.ndarray                    # (n, n_b)
    y_teacher: np.ndarray            # teacher argmax ids
    class_names: list[str]


@dataclass
class PathEntry:
    alpha_eff: float
    n_nodes: int


@dataclass
class PruningPath:
    """collapse_alpha[i] is the alpha_eff of the first entry in which node
    i is no longer internal (0.0 at a leaf); it never grows from parent to
    child. Its distinct values are the entries' alphas."""
    entries: list[PathEntry]
    collapse_alpha: np.ndarray


def gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def entropy(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts[counts > 0] / n
    return float(-np.sum(p * np.log2(p)))


_IMPURITY = {"gini": gini, "entropy": entropy}


def generate_teacher_dataset(teacher: ClassifierModel, x: np.ndarray) -> TeacherDataset:
    """Label every row of x with the teacher's argmax prediction."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) == 0:
        raise ValueError("empty embedding batch")
    y_teacher = np.argmax(predict_proba(teacher, x), axis=1).astype(np.int64)
    return TeacherDataset(x=x, y_teacher=y_teacher, class_names=list(teacher.class_names))


def _plogp(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * np.log2(p), 0.0)


def _sorted_split(xt: np.ndarray, order: np.ndarray, y: np.ndarray, k: int,
                  impurity, parent_impurity: float, min_samples_leaf: int):
    """Best split of a node from pre-sorted rows: row f of order lists the
    node's samples by ascending value of feature f (xt is x transposed).
    Features are scanned in blocks of whole rows, which bounds the
    temporaries to about _SPLIT_BLOCK elements each. Returns
    (gain, feature, threshold) or None. Ties resolve to the lowest feature
    index, then the lowest threshold. The threshold is the midpoint of the
    two values a cut falls between, or the lower value where the midpoint
    does not lie below the upper one."""
    d, n = order.shape
    nl = np.arange(1, n, dtype=np.float64)  # samples left of a cut after index i
    nr = n - nl
    size_ok = (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    step = max(1, _SPLIT_BLOCK // n)
    best = None
    for f0 in range(0, d, step):
        rows = order[f0:f0 + step]
        v = np.take_along_axis(xt[f0:f0 + step], rows, axis=1)
        ys = y[rows]
        # candidate boundaries sit between distinct consecutive values
        ok = (v[:, 1:] > v[:, :-1]) & size_ok
        if not ok.any():
            continue
        # per-class impurity terms summed class by class, in class order
        for c in range(k):
            left_counts = np.cumsum(ys == c, axis=1, dtype=np.int32)
            pl = left_counts[:, :-1] / nl
            pr = (left_counts[:, -1:] - left_counts[:, :-1]) / nr
            tl, tr = (pl * pl, pr * pr) if impurity is gini else (_plogp(pl), _plogp(pr))
            if c == 0:
                sum_l, sum_r = tl, tr
            else:
                sum_l += tl
                sum_r += tr
        if impurity is gini:
            il, ir = np.subtract(1.0, sum_l, out=sum_l), np.subtract(1.0, sum_r, out=sum_r)
        else:
            il, ir = np.negative(sum_l, out=sum_l), np.negative(sum_r, out=sum_r)
        il *= nl
        ir *= nr
        il += ir
        il /= n
        gains = np.subtract(parent_impurity, il, out=il)
        gains[~ok] = -np.inf
        j = np.argmax(gains, axis=1)
        g = gains[np.arange(j.shape[0]), j]
        for f in np.flatnonzero(g > GAIN_TOL):
            if best is None or g[f] > best[0] + GAIN_TOL:
                lo, hi = v[f, j[f]], v[f, j[f] + 1]
                thr = (lo + hi) / 2.0
                # between adjacent floats the midpoint can round up to hi
                # (or overflow), which would send every sample left
                thr = float(thr if thr < hi else lo)
                best = (float(g[f]), f0 + int(f), thr)
    return best


def _argsort_rows(xt: np.ndarray) -> np.ndarray:
    """np.argsort(xt, axis=1) as int32, sorted one row at a time, so no
    int64 copy of the whole is held. Row indices must fit in int32."""
    if xt.shape[1] >= 2**31:
        raise ValueError(f"{xt.shape[1]} rows: row indices must fit in int32")
    order = np.empty(xt.shape, dtype=np.int32)
    for f, values in enumerate(xt):
        order[f] = np.argsort(values)
    return order


def cart_train(x: np.ndarray, y: np.ndarray, max_depth: int | None = None,
               min_samples_leaf: int = 1, criterion: str = "gini",
               class_names: list[str] | None = None) -> DecisionTree:
    """Greedy binary splitting; only strictly impurity-reducing splits are
    kept, so every internal node has a positive pruning alpha. The grown
    tree carries its pruning path's collapse_alpha column."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0 or x.shape[1] == 0 or x.shape[0] != y.shape[0]:
        raise ValueError("bad training batch")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    if criterion not in _IMPURITY:
        raise ValueError(f"unknown criterion {criterion!r}")
    impurity = _IMPURITY[criterion]
    k = int(y.max()) + 1 if class_names is None else len(class_names)
    if np.any(y < 0) or np.any(y >= k):
        raise ValueError("labels out of range")
    names = class_names if class_names is not None else [str(i) for i in range(k)]
    n_total, d = x.shape
    xt = np.ascontiguousarray(x.T)

    rows: list[list] = []  # one row of _COLUMNS per node, in preorder
    node_counts: list[np.ndarray] = []

    # order holds a node's rows once per feature, sorted by that feature's
    # value; a split filters each row, which keeps the children sorted, so
    # the data is sorted once. Ties may come in any order: a cut only falls
    # between distinct values, where the counts left of it include every tie.
    # A node drops its order before recursing and its caller keeps only
    # the pending right child, so a deep tree holds at most one order's
    # worth of rows.
    def build(order: np.ndarray, depth: int) -> int:
        m = order.shape[1]
        counts = np.bincount(y[order[0]], minlength=k).astype(np.float64)
        node_id = len(rows)
        imp = impurity(counts)
        # collapse_alpha is a stand-in until the path is computed below
        row = [-1, 0.0, -1, -1, depth, (m / n_total) * imp, int(np.argmax(counts)), 0.0]
        rows.append(row)
        node_counts.append(counts)
        can_split = (imp > 0.0 and m >= 2 * min_samples_leaf
                     and (max_depth is None or depth < max_depth))
        if can_split:
            found = _sorted_split(xt, order, y, k, impurity, imp, min_samples_leaf)
            if found is not None:
                _gain, f, thr = found
                go_left = (xt[f] <= thr)[order]
                children = [order[go_left].reshape(d, -1), order[~go_left].reshape(d, -1)]
                del order, go_left
                row[0], row[1] = f, thr
                row[2] = build(children.pop(0), depth + 1)
                row[3] = build(children.pop(0), depth + 1)
        return node_id

    build(_argsort_rows(xt), 0)
    tree = DecisionTree(**{c: list(v) for c, v in zip(_COLUMNS, zip(*rows))},
                        counts=np.array(node_counts), class_names=list(names),
                        criterion=criterion)
    return replace(tree, collapse_alpha=pruning_path(tree).collapse_alpha.tolist())


def _subtree_sums(internal: np.ndarray, left: np.ndarray, right: np.ndarray,
                  depth: np.ndarray, r_node: np.ndarray):
    """R(T_t) and |leaves(T_t)| of every node t of the subtree whose
    internal nodes are marked, one depth level at a time from the deepest,
    each summed children-first as R(left) + R(right)."""
    r_subtree = r_node.copy()
    n_leaves = np.ones(internal.shape[0], dtype=np.int64)
    for level in range(int(depth.max()) - 1, -1, -1):
        i = np.flatnonzero(internal & (depth == level))
        r_subtree[i] = r_subtree[left[i]] + r_subtree[right[i]]
        n_leaves[i] = n_leaves[left[i]] + n_leaves[right[i]]
    return r_subtree, n_leaves


def pruning_path(tree: DecisionTree) -> PruningPath:
    """Iterated weakest-link pruning down to the root, on the tree's own
    node ids. Every minimizer of alpha_eff collapses simultaneously (ties
    within relative tolerance; the recorded alpha is their minimum), which
    makes alpha strictly increasing and node counts strictly decreasing. A
    collapse stamps its alpha on its preorder span of nodes still internal.
    Reads only the tree's topology and r_node, not its collapse_alpha."""
    feature, left, right, depth, r_node = (np.array(getattr(tree, c)) for c in
                                           ("feature", "left", "right", "depth", "r_node"))
    _, base_leaves = _subtree_sums(feature >= 0, left, right, depth, r_node)
    collapse = np.where(feature >= 0, np.inf, 0.0)
    entries = [PathEntry(alpha_eff=0.0, n_nodes=tree.n_nodes)]
    while collapse[0] == np.inf:
        internal = collapse == np.inf
        r_subtree, n_leaves = _subtree_sums(internal, left, right, depth, r_node)
        nodes = np.flatnonzero(internal)
        alphas = (r_node[nodes] - r_subtree[nodes]) / (n_leaves[nodes] - 1)
        a_min = float(alphas.min())
        tol = ALPHA_REL_TOL * max(1.0, abs(a_min))
        alpha = a_min
        if a_min <= entries[-1].alpha_eff + tol:
            # keep alphas strictly increasing: fold into the previous step
            alpha = entries.pop().alpha_eff
        for i in nodes[alphas <= a_min + tol]:
            # a binary subtree with L leaves spans 2L - 1 preorder slots
            span = collapse[i:i + 2 * base_leaves[i] - 1]
            np.minimum(span, alpha, out=span)
        entries.append(PathEntry(alpha_eff=alpha,
                                 n_nodes=1 + 2 * int(np.count_nonzero(collapse == np.inf))))
    return PruningPath(entries=entries, collapse_alpha=collapse)


def prune(tree: DecisionTree, alpha: float) -> DecisionTree:
    """Subtree minimizing R(T) + alpha*|leaves|, as one keep mask over the
    tree's collapse_alpha column."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    col = {c: np.array(getattr(tree, c)) for c in _COLUMNS}
    internal = col["collapse_alpha"] > alpha
    # keep the root and the children of every node still internal at alpha
    keep = np.zeros(tree.n_nodes, dtype=bool)
    keep[np.r_[0, col["left"][internal], col["right"][internal]]] = True
    new_id = np.cumsum(keep) - 1
    col["left"], col["right"] = new_id[col["left"]], new_id[col["right"]]
    for c, blank in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1),
                     ("collapse_alpha", 0.0)):
        col[c][~internal] = blank
    return DecisionTree(**{c: v[keep].tolist() for c, v in col.items()},
                        counts=tree.counts[keep], class_names=tree.class_names,
                        criterion=tree.criterion)


def pruned_shape(tree: DecisionTree, alpha: float) -> tuple[int, int]:
    """(n_nodes, max_depth) of prune(tree, alpha), read off the column: the
    deepest leaf hangs below the deepest internal node."""
    depth = np.asarray(tree.depth)[np.asarray(tree.collapse_alpha) > alpha]
    return 1 + 2 * depth.size, int(depth.max()) + 1 if depth.size else 0


def tree_predict(tree: DecisionTree, values) -> int:
    """Route to a leaf; values at the threshold go left, NaN goes right."""
    feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right
    i = 0
    f = feature[0]
    while f >= 0:
        i = left[i] if values[f] <= threshold[i] else right[i]
        f = feature[i]
    return tree.predicted_class[i]


def tree_walk_batch(tree: DecisionTree, x: np.ndarray) -> np.ndarray:
    """The node ids of every row's root-to-leaf walk, one column per level:
    the rows not yet at a leaf step down one level per pass."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = tree.n_nodes
    feature, left, right = (np.fromiter(c, np.intp, n)
                            for c in (tree.feature, tree.left, tree.right))
    threshold = np.fromiter(tree.threshold, np.float64, n)
    node = np.zeros(x.shape[0], dtype=np.intp)
    walk = [node.copy()]
    rows = np.arange(x.shape[0]) if feature[0] >= 0 else node[:0]
    while rows.size:
        at = node[rows]
        step = np.where(x[rows, feature[at]] <= threshold[at], left[at], right[at])
        node[rows] = step
        walk.append(node.copy())
        rows = rows[feature[step] >= 0]
    return np.stack(walk, axis=1)


def tree_predict_batch(tree: DecisionTree, x: np.ndarray) -> np.ndarray:
    """tree_predict on every row."""
    return np.asarray(tree.predicted_class, dtype=np.int64)[tree_walk_batch(tree, x)[:, -1]]


def labels_at(tree: DecisionTree, walk: np.ndarray, alpha: float) -> np.ndarray:
    """tree_predict_batch of prune(tree, alpha) from the rows' walks of the
    unpruned tree: the class of the first node on a walk that is a leaf."""
    is_leaf = np.asarray(tree.collapse_alpha)[walk] <= alpha
    node = walk[np.arange(walk.shape[0]), np.argmax(is_leaf, axis=1)]
    return np.asarray(tree.predicted_class, dtype=np.int64)[node]


def fidelity(tree: DecisionTree, teacher: ClassifierModel, x: np.ndarray) -> float:
    """Fraction of the rows of x where the student reproduces the teacher."""
    data = generate_teacher_dataset(teacher, x)
    return float(np.mean(tree_predict_batch(tree, data.x) == data.y_teacher))


def tree_to_dict(tree: DecisionTree) -> dict:
    return {
        "class_names": list(tree.class_names),
        "criterion": tree.criterion,
        **{c: list(getattr(tree, c)) for c in _COLUMNS},
        "counts": tree.counts.tolist(),
    }


def tree_from_dict(doc: dict) -> DecisionTree:
    missing = [c for c in _COLUMNS + ("counts",) if c not in doc]
    if missing:
        raise ValueError(f"tree document lacks node columns {missing}; a tree "
                         f"written in an older layout must be regenerated")
    tree = DecisionTree(**{c: list(doc[c]) for c in _COLUMNS},
                        counts=np.array(doc["counts"], dtype=np.float64),
                        class_names=list(doc["class_names"]),
                        criterion=doc["criterion"])
    _check_preorder(tree)
    bad = [i for i, c in enumerate(tree.predicted_class) if not 0 <= c < tree.k]
    if bad:
        raise ValueError(f"tree node {bad[0]} predicts class {tree.predicted_class[bad[0]]}, "
                         f"not one of the {tree.k} classes")
    return tree


def _check_preorder(tree: DecisionTree) -> None:
    """Raise ValueError naming the first node that breaks DecisionTree's
    preorder layout: a walk from the root meets the nodes in order, each
    once, one level deeper per step. On another tree a walk may not end."""
    due = [(0, 0, -1)]  # (node, depth, parent) the walk still meets, the next one last
    for i, (f, lo, hi) in enumerate(zip(tree.feature, tree.left, tree.right)):
        if not due:
            raise ValueError(f"tree node {i} is not reached from the root")
        node, depth, parent = due.pop()
        if node != i:
            raise ValueError(f"tree node {parent} has child {node} where node {i} belongs")
        if tree.depth[i] != depth:
            raise ValueError(f"tree node {i} has depth {tree.depth[i]}, not {depth}")
        if (f, lo, hi) != (-1, -1, -1) and (f < 0 or lo != i + 1):
            raise ValueError(f"tree node {i} has feature {f} and children {lo}, {hi}: a leaf "
                             f"has -1 for each, another node a feature >= 0 and left child {i + 1}")
        if f >= 0:
            due += [(hi, depth + 1, i), (lo, depth + 1, i)]
    if due:
        node, _, parent = due[-1]
        raise ValueError(f"tree node {parent} has child {node}, which the walk meets twice or never")


def load_tree(path: str) -> DecisionTree:
    with open(path) as fh, nn_core.file_errors(path, "tree"):
        return tree_from_dict(json.load(fh))


def rules_text(tree: DecisionTree, feature_names: list[str] | None = None) -> str:
    """Indented human-readable if/else rendering of the tree."""
    def fname(i: int) -> str:
        return feature_names[i] if feature_names else f"v_{i + 1}"

    lines: list[str] = []

    def walk(i: int, indent: int) -> None:
        pad = "  " * indent
        f = tree.feature[i]
        if f < 0:
            n = int(tree.counts[i].sum())
            lines.append(f"{pad}class: {tree.class_names[tree.predicted_class[i]]} (n={n})")
            return
        lines.append(f"{pad}if {fname(f)} <= {tree.threshold[i]:.6g}:")
        walk(tree.left[i], indent + 1)
        lines.append(f"{pad}else:")
        walk(tree.right[i], indent + 1)

    walk(0, 0)
    return "\n".join(lines) + "\n"
