import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ride import hw_model
from ride import tree_distiller as td
from ride.tree_distiller import (
    cart_train,
    entropy,
    gini,
    prune,
    pruning_path,
    rules_text,
    tree_from_dict,
    tree_predict,
    tree_predict_batch,
    tree_to_dict,
)


# ---------------------------------------------------------------- impurity

def test_gini_hand_values():
    assert gini(np.array([4.0, 4.0])) == pytest.approx(0.5)
    assert gini(np.array([8.0, 0.0])) == 0.0
    assert gini(np.array([3.0, 1.0])) == pytest.approx(0.375)
    assert gini(np.array([1.0, 1.0, 1.0])) == pytest.approx(2.0 / 3.0)
    assert gini(np.array([0.0, 0.0])) == 0.0


def test_entropy_hand_values():
    assert entropy(np.array([4.0, 4.0])) == pytest.approx(1.0)  # bits
    assert entropy(np.array([8.0, 0.0])) == 0.0
    assert entropy(np.array([2.0, 2.0, 2.0, 2.0])) == pytest.approx(2.0)
    p = np.array([3.0, 1.0])
    expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    assert entropy(p) == pytest.approx(expected)


# ------------------------------------------------------------- best split

def brute_best_split(x, y, k, criterion, min_samples_leaf):
    """Literal scan over every feature and midpoint, same tie policy:
    earlier feature / lower threshold wins unless strictly better."""
    imp = {"gini": gini, "entropy": entropy}[criterion]
    n = len(y)
    parent = imp(np.bincount(y, minlength=k).astype(float))
    best = None
    for f in range(x.shape[1]):
        vs = np.unique(x[:, f])
        for a, b in zip(vs[:-1], vs[1:]):
            thr = (a + b) / 2.0 if (a + b) / 2.0 < b else a
            left = x[:, f] <= thr
            nl = int(left.sum())
            nr = n - nl
            if nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            g = parent - (
                nl * imp(np.bincount(y[left], minlength=k).astype(float))
                + nr * imp(np.bincount(y[~left], minlength=k).astype(float))
            ) / n
            if g > td.GAIN_TOL and (best is None or g > best[0] + td.GAIN_TOL):
                best = (g, f, thr)
    return best


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_best_split_matches_brute_force(seed, criterion):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(10, 60))
    f = int(rng.integers(1, 4))
    k = int(rng.integers(2, 4))
    x = rng.normal(size=(n, f))
    y = rng.integers(0, k, size=n)
    msl = int(rng.integers(1, 4))
    imp_fn = {"gini": gini, "entropy": entropy}[criterion]
    parent = imp_fn(np.bincount(y, minlength=k).astype(float))
    xt = np.ascontiguousarray(x.T)
    got = td._sorted_split(xt, np.argsort(xt, axis=1), y, k, imp_fn, parent, msl)
    want = brute_best_split(x, y, k, criterion, msl)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[1] == want[1]
        assert got[2] == pytest.approx(want[2])
        assert got[0] == pytest.approx(want[0])


def test_split_tie_prefers_lowest_feature():
    # identical duplicated feature columns: gain ties exactly
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0, 0, 1, 1])
    tree = cart_train(x, y)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(1.5)


# ------------------------------------------------------------- cart_train

def test_cart_simple_1d():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    tree = cart_train(x, y)
    assert tree.n_nodes == 3 and tree.n_leaves == 2 and tree.max_depth == 1
    assert tree.threshold[0] == pytest.approx(2.5)
    # preorder ids: root 0, left child 1, right child 2
    assert (tree.left[0], tree.right[0]) == (1, 2)
    np.testing.assert_array_equal(tree_predict_batch(tree, x), y)
    assert tree_predict(tree, [2.5]) == 0  # at the threshold goes left


def test_cart_splits_between_adjacent_floats():
    # the midpoint of a and the next float above it rounds up to b, so the
    # threshold falls back to a; otherwise both samples would go left
    a = float(np.nextafter(1.0, 2.0))
    b = float(np.nextafter(a, 2.0))
    assert (a + b) / 2.0 == b
    tree = cart_train(np.array([[a], [b]]), np.array([0, 1]))
    assert tree.n_nodes == 3 and tree.threshold[0] == a
    np.testing.assert_array_equal(tree_predict_batch(tree, [[a], [b]]), [0, 1])


def test_cart_zero_gain_refuses_to_split():
    # XOR: no single split reduces gini, so the root stays a leaf
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
    y = np.array([0, 1, 1, 0] * 3)
    tree = cart_train(x, y)
    assert tree.n_nodes == 1


def test_cart_max_depth_and_min_samples_leaf():
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.normal(size=(100, 3))
    y = (x[:, 0] + 0.3 * rng.normal(size=100) > 0).astype(int)
    tree = cart_train(x, y, max_depth=2)
    assert tree.max_depth <= 2
    tree2 = cart_train(x, y, min_samples_leaf=10)
    leaf_sizes = [c.sum() for c, f in zip(tree2.counts, tree2.feature) if f < 0]
    assert min(leaf_sizes) >= 10


def test_cart_input_validation():
    with pytest.raises(ValueError):
        cart_train(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        cart_train(np.zeros((3, 2)), np.array([0, 1, 2]), class_names=["a", "b"])
    with pytest.raises(ValueError):
        cart_train(np.zeros((3, 2)), np.array([0, 0, 1]), min_samples_leaf=0)
    with pytest.raises(ValueError):
        cart_train(np.zeros((3, 2)), np.array([0, 0, 1]), criterion="twoing")


def test_cart_holds_under_three_copies_of_its_input():
    """numpy reports its buffers to tracemalloc. Beside the transposed copy
    of x, CART holds the int32 sorted order (half a copy), then the
    children's (another half), and split-search temporaries of
    _SPLIT_BLOCK elements each: 2.4 copies of x here, under a bound of 3
    (5.4 with int64 order and 2 MB temporaries)."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8192, 100))
    y = (x[:, 0] > 0).astype(int)
    tracemalloc.start()
    try:
        tree = cart_train(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.n_nodes == 3
    assert peak < 3 * x.nbytes, f"peak {peak / x.nbytes:.2f} copies of the input"


def structure(tree):
    """The tree's nodes in preorder, in brute_cart's form."""
    return [("leaf", c) if f < 0 else ("split", f, round(t, 12))
            for f, t, c in zip(tree.feature, tree.threshold, tree.predicted_class)]


def brute_cart(x, y, k, criterion, min_samples_leaf, max_depth):
    """Recursive reference CART mirroring the documented policy."""
    imp = {"gini": gini, "entropy": entropy}[criterion]
    structure = []

    def build(idx, depth):
        counts = np.bincount(y[idx], minlength=k).astype(float)
        parent = imp(counts)
        can = (parent > 0 and len(idx) >= 2 * min_samples_leaf
               and (max_depth is None or depth < max_depth))
        split = brute_best_split(x[idx], y[idx], k, criterion, min_samples_leaf) if can else None
        if split is None:
            structure.append(("leaf", int(np.argmax(counts))))
            return
        _, f, thr = split
        structure.append(("split", f, round(thr, 12)))
        left = x[idx, f] <= thr
        build(idx[left], depth + 1)
        build(idx[~left], depth + 1)

    build(np.arange(len(y)), 0)
    return structure


@pytest.mark.parametrize("seed", range(5))
def test_cart_matches_reference_builder(seed):
    rng = np.random.Generator(np.random.PCG64(100 + seed))
    n = int(rng.integers(20, 80))
    x = rng.normal(size=(n, 3))
    y = rng.integers(0, 3, size=n)
    msl = int(rng.integers(1, 5))
    depth = [None, 2, 3][seed % 3]
    tree = cart_train(x, y, max_depth=depth, min_samples_leaf=msl)
    assert structure(tree) == brute_cart(x, y, 3, "gini", msl, depth)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_cart_matches_reference_builder_with_ties(seed, criterion):
    # values on a coarse grid tie often; the data is sorted once and each
    # split filters the sorted order, which must not change any split
    rng = np.random.Generator(np.random.PCG64(200 + seed))
    n = int(rng.integers(60, 160))
    x = np.round(rng.normal(size=(n, 4)), 1)
    y = (x[:, 1] + x[:, 2] + 0.5 * rng.normal(size=n) > 0).astype(int) + (x[:, 3] > 1.0)
    msl = int(rng.integers(1, 4))
    tree = cart_train(x, y, min_samples_leaf=msl, criterion=criterion)
    assert structure(tree) == brute_cart(x, y, 3, criterion, msl, None)


def test_cart_agrees_with_sklearn():
    # sklearn sums adjacent values in float32, so thresholds drift ~1e-8
    # and a couple of boundary samples can route differently; structure
    # and near-total prediction agreement are the stable comparison.
    sklearn_tree = pytest.importorskip("sklearn.tree")
    for seed in range(4):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(size=(120, 4))
        w = rng.normal(size=4)
        y = (x @ w + 0.4 * rng.normal(size=120) > 0).astype(int) + (x[:, 0] > 1)
        ours = cart_train(x, y, min_samples_leaf=3)
        ref = sklearn_tree.DecisionTreeClassifier(min_samples_leaf=3, random_state=0)
        ref.fit(x, y)
        assert ours.n_leaves == ref.get_n_leaves()
        assert ours.feature[0] == ref.tree_.feature[0]
        assert ours.threshold[0] == pytest.approx(float(ref.tree_.threshold[0]), abs=1e-6)
        agreement = np.mean(tree_predict_batch(ours, x) == ref.predict(x))
        assert agreement >= 0.95


# ------------------------------------------------------- pruning hand case

def hand_tie_dataset():
    """Four-class set whose tree has two internal nodes with identical
    alpha_eff = 0.1875 under a root with alpha_eff larger."""
    #        f0   f1   f2   y
    rows = [(0.0, 0.0, 0.0, 0),
            (0.0, 0.0, 1.0, 0),
            (0.0, 0.0, 0.0, 0),
            (0.0, 1.0, 1.0, 1),
            (1.0, 0.0, 0.0, 2),
            (1.0, 1.0, 1.0, 3),
            (1.0, 0.0, 1.0, 3),
            (1.0, 1.0, 1.0, 3)]
    arr = np.array(rows)
    return arr[:, :3], arr[:, 3].astype(int)


def alphas(path):
    return [e.alpha_eff for e in path.entries]


def test_pruning_path_hand_computed_with_tie_collapse():
    x, y = hand_tie_dataset()
    tree = cart_train(x, y)
    assert tree.n_nodes == 7
    assert tree.feature[0] == 0
    assert tree.r_node[0] == pytest.approx(0.6875)
    # both depth-1 internal nodes share alpha_eff (0.1875) and collapse together
    path = pruning_path(tree)
    assert [e.n_nodes for e in path.entries] == [7, 3, 1]
    assert alphas(path) == pytest.approx([0.0, 0.1875, 0.3125])
    # the path is one column: the alpha at which each node stops being internal
    assert path.collapse_alpha.tolist() == pytest.approx(
        [0.3125, 0.1875, 0.0, 0.0, 0.1875, 0.0, 0.0])
    # cart_train stores that column with the tree
    assert tree.collapse_alpha == path.collapse_alpha.tolist()
    # collapsed root predicts the lowest class id among tied counts [3,1,1,3]
    assert prune(tree, alphas(path)[-1]).predicted_class[0] == 0


def test_pruning_path_folds_a_weakest_link_within_tolerance_into_the_entry_before():
    """A hand-built table: node 1's split gains only 2**-42 (its alpha_eff,
    within ALPHA_REL_TOL of the full tree's alpha 0), so collapsing it folds
    into the first entry instead of adding a second entry at a tied alpha."""
    tiny = 2.0 ** -42
    assert tiny <= td.ALPHA_REL_TOL
    #        0  1  2   3   4  5   6
    tree = td.DecisionTree(
        feature=[0, 1, -1, -1, 1, -1, -1], threshold=[0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0],
        left=[1, 2, -1, -1, 5, -1, -1], right=[4, 3, -1, -1, 6, -1, -1],
        depth=[0, 1, 2, 2, 1, 2, 2],
        r_node=[1.0, 0.25 + tiny, 0.125, 0.125, 0.25, 0.0625, 0.0625],
        predicted_class=[0, 0, 0, 0, 1, 1, 1],
        collapse_alpha=[0.0] * 7,  # a stand-in: pruning_path does not read it
        counts=np.array([[8, 8], [8, 0], [4, 0], [4, 0], [0, 8], [0, 4], [0, 4]]),
        class_names=["a", "b"])
    path = pruning_path(tree)
    tree = dataclasses.replace(tree, collapse_alpha=path.collapse_alpha.tolist())
    # the fold keeps alphas strictly increasing: no second entry at ~0
    assert path.entries == [td.PathEntry(0.0, 5), td.PathEntry(0.125, 3),
                            td.PathEntry(0.5 - tiny, 1)]
    # node 1 stops being internal at the folded entry's alpha, 0.0
    assert path.collapse_alpha.tolist() == [0.5 - tiny, 0.0, 0.0, 0.0, 0.125, 0.0, 0.0]
    assert prune(tree, 0.0).n_nodes == 5


def test_prune_alpha_selection_semantics():
    x, y = hand_tie_dataset()
    tree = cart_train(x, y)
    assert prune(tree, 0.0).n_nodes == 7
    assert prune(tree, 0.18).n_nodes == 7
    assert prune(tree, 0.1875).n_nodes == 3
    assert prune(tree, 0.31).n_nodes == 3
    assert prune(tree, 0.3125).n_nodes == 1
    assert prune(tree, 99.0).n_nodes == 1
    with pytest.raises(ValueError):
        prune(tree, -0.1)


# ------------------------------------------------- exhaustive pruning oracle

def anchored_subtrees(tree):
    """(R, n_leaves) of every subtree obtainable by collapsing internal
    nodes of the full tree."""
    def options(i):
        if tree.feature[i] < 0:
            return [(tree.r_node[i], 1)]
        outs = [(tree.r_node[i], 1)]  # collapsed here
        for rl, ll in options(tree.left[i]):
            for rr, lr in options(tree.right[i]):
                outs.append((rl + rr, ll + lr))
        return outs

    return options(0)


def risk(tree, i=0):
    """R(T_i): the leaves' r_node summed children-first."""
    if tree.feature[i] < 0:
        return tree.r_node[i]
    return risk(tree, tree.left[i]) + risk(tree, tree.right[i])


def check_path_against_brute_force(tree, atol=1e-9):
    path = pruning_path(tree)
    subtrees = anchored_subtrees(tree)
    path_alphas = alphas(path)
    probes = [0.0] + path_alphas[1:] + [path_alphas[-1] + 1.0]
    for lo, hi in zip(path_alphas[1:], path_alphas[2:]):
        probes.append((lo + hi) / 2.0)
    for alpha in probes:
        best = min(r + alpha * l for r, l in subtrees)
        # smallest optimal subtree, as pruning theory guarantees uniqueness
        best_leaves = min(l for r, l in subtrees if r + alpha * l <= best + 1e-12)
        got = prune(tree, alpha)
        got_r = risk(got)
        assert got.n_leaves == best_leaves, f"alpha={alpha}"
        assert got_r + alpha * got.n_leaves == pytest.approx(best, abs=1e-12)
    # each recorded alpha is the objective tie point between adjacent trees
    for (e0, e1) in zip(path.entries, path.entries[1:]):
        t0, t1 = prune(tree, e0.alpha_eff), prune(tree, e1.alpha_eff)
        r0 = risk(t0)
        r1 = risk(t1)
        l0, l1 = t0.n_leaves, t1.n_leaves
        breakpoint_alpha = (r1 - r0) / (l0 - l1)
        assert abs(breakpoint_alpha - e1.alpha_eff) < atol


@pytest.mark.parametrize("seed", range(6))
def test_pruning_path_equals_exhaustive_minimizer(seed):
    rng = np.random.Generator(np.random.PCG64(200 + seed))
    n = int(rng.integers(25, 70))
    x = rng.normal(size=(n, int(rng.integers(1, 4))))
    y = rng.integers(0, int(rng.integers(2, 4)), size=n)
    tree = cart_train(x, y, max_depth=4, min_samples_leaf=2)
    check_path_against_brute_force(tree)


def test_pruning_path_monotone_on_larger_tree():
    rng = np.random.Generator(np.random.PCG64(77))
    x = rng.normal(size=(300, 5))
    y = ((x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5)).astype(int)
    tree = cart_train(x, y)
    path = pruning_path(tree)
    assert alphas(path)[0] == 0.0
    assert all(a < b for a, b in zip(alphas(path), alphas(path)[1:]))
    sizes = [e.n_nodes for e in path.entries]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == 1


# ------------------------------------------------------------- prediction

def test_tree_predict_matches_manual_walk_and_batch():
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.normal(size=(60, 3))
    y = (x[:, 1] > 0).astype(int)
    tree = cart_train(x, y)
    for row in x[:10]:
        i = 0
        while tree.feature[i] >= 0:
            i = tree.left[i] if row[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
        assert tree_predict(tree, row) == tree.predicted_class[i]
    np.testing.assert_array_equal(
        tree_predict_batch(tree, x),
        np.array([tree_predict(tree, r) for r in x]))


def test_predict_label_uses_class_names():
    x = np.array([[0.0], [1.0]])
    tree = cart_train(x, np.array([0, 1]), class_names=["benign", "attack"])
    assert tree.predict_label([0.0]) == "benign"
    assert tree.predict_label([1.0]) == "attack"


# ---------------------------------------------------------- serialization

def test_tree_serialization_round_trip(tmp_path):
    x, y = hand_tie_dataset()
    tree = cart_train(x, y, class_names=["a", "b", "c", "d"])
    doc = tree_to_dict(tree)
    back = tree_from_dict(doc)
    assert back.n_nodes == tree.n_nodes
    np.testing.assert_array_equal(tree_predict_batch(back, x), tree_predict_batch(tree, x))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    loaded = td.load_tree(str(path))
    assert tree_to_dict(loaded) == doc


def test_rules_text_renders_every_leaf():
    x, y = hand_tie_dataset()
    tree = cart_train(x, y, class_names=["w", "x", "y", "z"])
    text = rules_text(tree)
    assert text.count("class:") == tree.n_leaves
    assert "if v_1 <= 0.5:" in text
    named = rules_text(tree, feature_names=["alpha", "beta", "gamma"])
    assert "if alpha <= 0.5:" in named


# --------------------------------------------------------- property tests

@st.composite
def small_datasets(draw):
    """(x, y, criterion, min_samples_leaf) with ties on a coarse grid
    mixed with arbitrary floats."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 3))
    k = draw(st.integers(2, 3))
    cell = st.integers(-4, 4).map(float) | st.floats(-3.0, 3.0, allow_nan=False)
    x = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    return (x, y, draw(st.sampled_from(["gini", "entropy"])), draw(st.integers(1, 3)))


def grow(data):
    x, y, criterion, msl = data
    return cart_train(x, y, min_samples_leaf=msl, criterion=criterion), x


def probes(tree, x):
    """The training rows, rows sitting exactly on each threshold, and a
    NaN row."""
    d = x.shape[1]
    on_threshold = np.repeat(np.array(tree.threshold)[:, None], d, axis=1)
    return np.vstack([x, on_threshold, np.full((1, d), np.nan)])


def path_trees(tree):
    """The pruned tree of every path entry."""
    return [prune(tree, e.alpha_eff) for e in pruning_path(tree).entries]


@given(small_datasets())
def test_batch_predict_equals_per_row_walk(data):
    tree, x = grow(data)
    ranges = hw_model.fit_quantization_ranges(tree, x)
    trees = path_trees(tree)
    trees += [hw_model.quantize_tree(t, beta, ranges).tree
              for t in trees for beta in (1, 4, 16)]
    for t in [tree] + trees:
        rows = probes(t, x)
        np.testing.assert_array_equal(tree_predict_batch(t, rows),
                                      [tree_predict(t, r) for r in rows])


@given(small_datasets())
def test_dict_round_trip_reproduces_every_column(data):
    tree, _x = grow(data)
    for t in path_trees(tree):
        back = tree_from_dict(json.loads(json.dumps(tree_to_dict(t))))
        for col in ("feature", "threshold", "left", "right", "depth", "r_node",
                    "predicted_class", "collapse_alpha", "class_names", "criterion"):
            assert getattr(back, col) == getattr(t, col), col
        np.testing.assert_array_equal(back.counts, t.counts)


@given(small_datasets())
def test_path_entries_are_preorder_tables(data):
    tree, _x = grow(data)
    for t in path_trees(tree):
        n = t.n_nodes
        size = [1] * n
        for i in reversed(range(n)):
            if t.feature[i] >= 0:
                size[i] = 1 + size[t.left[i]] + size[t.right[i]]
        assert size[0] == n and t.depth[0] == 0
        for i in range(n):
            if t.feature[i] < 0:
                assert (t.left[i], t.right[i], t.threshold[i]) == (-1, -1, 0.0)
                continue
            assert t.left[i] == i + 1
            assert t.right[i] == i + 1 + size[i + 1]
            assert t.depth[t.left[i]] == t.depth[t.right[i]] == t.depth[i] + 1


@given(small_datasets())
def test_path_alphas_increase_and_node_counts_decrease(data):
    tree, _x = grow(data)
    path = pruning_path(tree)
    assert alphas(path)[0] == 0.0 and path.entries[-1].n_nodes == 1
    assert all(a < b for a, b in zip(alphas(path), alphas(path)[1:]))
    sizes = [e.n_nodes for e in path.entries]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert sizes == [prune(tree, e.alpha_eff).n_nodes for e in path.entries]


@given(small_datasets())
def test_one_walk_per_beta_gives_every_pruned_quantized_tree(data):
    """Pruning commutes with quantizing, and the labels at each alpha read
    off one walk of the quantized unpruned tree equal the pruned, quantized
    tree's."""
    tree, x = grow(data)
    path_alphas = alphas(pruning_path(tree))
    ranges = hw_model.fit_quantization_ranges(tree, x)
    rows = probes(tree, x)
    for beta in (1, 4, 16):
        qbase = hw_model.quantize_tree(tree, beta, ranges).tree
        walk = td.tree_walk_batch(qbase, rows)
        for alpha in path_alphas + [path_alphas[-1] + 1.0]:
            qtree = hw_model.quantize_tree(prune(tree, alpha), beta, ranges).tree
            np.testing.assert_array_equal(td.labels_at(qbase, walk, alpha),
                                          tree_predict_batch(qtree, rows))
            assert tree_to_dict(prune(qbase, alpha)) == tree_to_dict(qtree)
            assert td.pruned_shape(qbase, alpha) == (qtree.n_nodes, qtree.max_depth)


@given(small_datasets())
def test_the_collapse_alpha_column_is_the_path_of_every_tree_that_carries_it(data):
    """The column's distinct values are the path's alphas; every pruned
    tree carries its own path's column, bit for bit; quantizing keeps it
    (test_dict_round_trip_reproduces_every_column covers the dict round
    trip)."""
    tree, x = grow(data)
    path = pruning_path(tree)
    assert sorted(set(tree.collapse_alpha)) == sorted(set([0.0] + alphas(path)))
    for alpha in sorted(set(tree.collapse_alpha)):
        pruned = prune(tree, alpha)
        assert pruned.collapse_alpha == pruning_path(pruned).collapse_alpha.tolist()
    ranges = hw_model.fit_quantization_ranges(tree, x)
    assert hw_model.quantize_tree(tree, 3, ranges).tree.collapse_alpha == tree.collapse_alpha


def test_a_tree_document_without_the_collapse_alpha_column_must_be_regenerated():
    x, y = hand_tie_dataset()
    doc = tree_to_dict(cart_train(x, y))
    del doc["collapse_alpha"]
    with pytest.raises(ValueError, match="collapse_alpha.*must be regenerated"):
        tree_from_dict(doc)



def _drop_last_node(doc):
    for c in td._COLUMNS + ("counts",):
        doc[c] = doc[c][:-1]


def _append_a_leaf(doc):
    for c, v in zip(td._COLUMNS, (-1, 0.0, -1, -1, 1, 0.0, 0, 0.0)):
        doc[c] = doc[c] + [v]
    doc["counts"] = doc["counts"] + [[0.0] * len(doc["class_names"])]


def _set(column, node, value):
    return lambda doc: doc[column].__setitem__(node, value)


@pytest.mark.parametrize("corrupt, cause", [
    # the hand tie tree: root 0 (children 1, 4), node 1 (leaves 2, 3), node 4 (leaves 5, 6)
    (_set("right", 0, 0), "tree node 0 has child 0 where node 4 belongs"),
    (_set("right", 4, 1), "tree node 4 has child 1 where node 6 belongs"),
    (_set("right", 0, 5), "tree node 0 has child 5 where node 4 belongs"),
    (_set("left", 0, 4), "tree node 0 has feature 0 and children 4, 4"),
    (_set("right", 1, 7), "tree node 1 has child 7 where node 3 belongs"),
    (_drop_last_node, "tree node 4 has child 6, which the walk meets twice or never"),
    (_append_a_leaf, "tree node 7 is not reached from the root"),
    (_set("left", 2, 3), "tree node 2 has feature -1 and children 3, -1"),
    (_set("feature", 3, -2), "tree node 3 has feature -2 and children -1, -1"),
    (_set("feature", 1, -1), "tree node 1 has feature -1 and children 2, 3"),
    (_set("depth", 0, 1), "tree node 0 has depth 1, not 0"),
    (_set("depth", 5, 1), "tree node 5 has depth 1, not 2"),
], ids=["back_to_root", "back_into_the_left_subtree", "right_skips_a_node",
        "left_is_not_next", "right_past_the_end", "a_child_past_the_last_node",
        "an_unreached_node", "a_leaf_with_a_child", "a_leaf_with_feature_minus_2",
        "an_inner_node_without_a_feature", "root_depth", "child_depth"])
def test_tree_from_dict_refuses_a_tree_out_of_preorder_and_names_the_node(corrupt, cause):
    """A walk of such a tree may loop forever or index past the columns."""
    doc = tree_to_dict(cart_train(*hand_tie_dataset()))
    assert tree_from_dict(json.loads(json.dumps(doc))).n_nodes == 7
    corrupt(doc)
    with pytest.raises(ValueError, match=re.escape(cause)):
        tree_from_dict(doc)


# ---------------------------------------------------------------- teacher

def test_generate_teacher_dataset_and_fidelity():
    from ride.classifier import ClassifierModel
    from ride.nn_core import DenseNet, Layer

    # teacher: predicts class 1 iff first coordinate > 0 (sharp logistic)
    w = np.array([[-10.0, 0.0], [10.0, 0.0]])
    net = DenseNet([Layer(w, np.zeros(2), "softmax")])
    teacher = ClassifierModel(net=net, class_names=["benign", "attack"])
    x = np.array([[v, 0.5] for v in (-1.0, -0.5, 0.5, 1.0)])
    data = td.generate_teacher_dataset(teacher, x)
    np.testing.assert_array_equal(data.y_teacher, [0, 0, 1, 1])
    tree = cart_train(data.x, data.y_teacher, class_names=teacher.class_names)
    assert td.fidelity(tree, teacher, x) == 1.0
    with pytest.raises(ValueError):
        td.generate_teacher_dataset(teacher, np.empty((0, 2)))
