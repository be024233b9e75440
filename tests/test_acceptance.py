"""Acceptance gates for the full pipeline.

Eleven go/no-go checks covering oracle equivalence of the tree machinery,
gradient correctness, quantization recovery, hardware-cost calibration
anchors, pruning behaviour, end-to-end fixture targets, embedding benefit,
compression robustness, optimizer correctness, determinism, and inference
speed ordering. Each test prints one PASS/FAIL line (visible with -s).

The heavy artifacts (two full pipeline runs, the ambiguous-corpus run and
the bottleneck-width sweep) are built once per module through fixtures.
"""
import json

import numpy as np
import pytest

from ride import (cli, classifier, flow_embedder, hw_model, jshc_optimizer,
                  nn_core, packet_ingest, payload_autoencoder, tree_distiller)

pytestmark = pytest.mark.acceptance


def _gate(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _summary(cfg: dict, stage: str) -> dict:
    with open(cli.summary_path(cfg, stage)) as fh:
        return json.load(fh)


# ------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def run_a(tmp_path_factory):
    cfg = cli.load_config(None, out_dir=str(tmp_path_factory.mktemp("run_a")))
    cli.run_all(cfg)
    return cfg


@pytest.fixture(scope="module")
def run_b(tmp_path_factory):
    cfg = cli.load_config(None, out_dir=str(tmp_path_factory.mktemp("run_b")))
    cli.run_all(cfg)
    return cfg


@pytest.fixture(scope="module")
def ambiguous_run(tmp_path_factory):
    cfg = cli.load_config(None, out_dir=str(tmp_path_factory.mktemp("amb")))
    cfg["synth"]["fixture"] = "ambiguous"
    for stage in ["synth", "ingest", "train-ae", "embed", "train-clf"]:
        cli.run_stage(stage, cfg)
    return cfg


@pytest.fixture(scope="module")
def nb_accuracies(run_a, tmp_path_factory):
    """Held-out accuracy per bottleneck width, same capture throughout."""
    accs = {100: _summary(run_a, "train-clf")["test_accuracy"]}
    for n_b in (25, 50, 200):
        cfg = cli.load_config(None, out_dir=str(tmp_path_factory.mktemp(f"nb{n_b}")))
        cfg["paths"]["pcap"] = cli.artifact_path(run_a, "pcap")
        cfg["paths"]["truth_csv"] = cli.artifact_path(run_a, "truth")
        cfg["features"]["n_b"] = n_b
        for stage in ["ingest", "train-ae", "embed", "train-clf"]:
            cli.run_stage(stage, cfg)
        accs[n_b] = _summary(cfg, "train-clf")["test_accuracy"]
    return accs


def _prefix_points(cfg: dict) -> np.ndarray:
    """The distill stage's prefix points: every prefix of every training
    flow's fold, stacked."""
    rae, train, _test = cli._split_flows(cfg)
    return np.stack([p.values for f in train
                     for p in flow_embedder.prefix_embeddings(rae, f)])


# --------------------------------------------- 1. pruning oracle equality

def _anchored_subtrees(tree):
    """(R, n_leaves) of every subtree reachable by collapsing internals."""
    def options(i):
        if tree.feature[i] < 0:
            return [(tree.r_node[i], 1)]
        outs = [(tree.r_node[i], 1)]
        for rl, ll in options(tree.left[i]):
            for rr, lr in options(tree.right[i]):
                outs.append((rl + rr, ll + lr))
        return outs

    return options(0)


def _risk(tree, i=0):
    """R(T_i): the leaves' r_node summed children-first."""
    if tree.feature[i] < 0:
        return tree.r_node[i]
    return _risk(tree, tree.left[i]) + _risk(tree, tree.right[i])


def test_criterion_01_ccp_equals_exhaustive_subtree_minimizer():
    n_datasets = 24
    worst_alpha_err = 0.0
    for seed in range(n_datasets):
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        n = int(rng.integers(40, 201))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, int(rng.integers(2, 4)), size=n)
        tree = tree_distiller.cart_train(x, y, max_depth=3, min_samples_leaf=5)
        assert tree.n_nodes <= 15
        path = tree_distiller.pruning_path(tree)
        alphas = [e.alpha_eff for e in path.entries]
        subtrees = _anchored_subtrees(tree)
        probes = sorted(set(
            [0.0, alphas[-1] + 1.0] + alphas
            + [(a + b) / 2 for a, b in zip(alphas[1:], alphas[2:])]))
        for alpha in probes:
            best = min(r + alpha * l for r, l in subtrees)
            best_leaves = min(l for r, l in subtrees
                              if r + alpha * l <= best + 1e-12)
            got = tree_distiller.prune(tree, alpha)
            assert got.n_leaves == best_leaves, f"seed={seed} alpha={alpha}"
            objective = _risk(got) + alpha * got.n_leaves
            assert objective == pytest.approx(best, abs=1e-12)
        for e0, e1 in zip(path.entries, path.entries[1:]):
            t0 = tree_distiller.prune(tree, e0.alpha_eff)
            t1 = tree_distiller.prune(tree, e1.alpha_eff)
            tie = (_risk(t1) - _risk(t0)) / (t0.n_leaves - t1.n_leaves)
            worst_alpha_err = max(worst_alpha_err, abs(tie - e1.alpha_eff))
    _gate(1, worst_alpha_err < 1e-9,
          f"{n_datasets} datasets match the exhaustive minimizer; "
          f"worst alpha_eff error {worst_alpha_err:.2e} < 1e-9")


# ------------------------------------------------- 2. gradient correctness

def test_criterion_02_gradient_checks():
    rng = np.random.Generator(np.random.PCG64(2))
    n_p, h, n_b = 12, 6, 3
    ae = nn_core.init_dense_net([n_p, h, n_b, h, n_p],
                                ["relu", "sigmoid", "relu", "sigmoid"], seed=1)
    x_ae = rng.uniform(0.0, 1.0, size=(5, n_p))
    err_ae = nn_core.gradient_check(ae, "mse", x_ae, x_ae)

    rae = nn_core.init_dense_net([2 * n_b, n_b, 2 * n_b], ["tanh", "tanh"], seed=2)
    pairs = rng.uniform(-1.0, 1.0, size=(6, 2 * n_b))
    err_rae = nn_core.gradient_check(rae, "mse", pairs, pairs)

    clf = nn_core.init_dense_net([n_b, 7, 3], ["relu", "softmax"], seed=3)
    x_clf = rng.normal(size=(8, n_b))
    y_clf = rng.integers(0, 3, size=8)
    err_clf = nn_core.gradient_check(clf, "cross_entropy", x_clf, y_clf)

    worst = max(err_ae, err_rae, err_clf)
    _gate(2, worst < 1e-4,
          f"max relative gradient error {worst:.2e} < 1e-4 "
          f"(autoencoder {err_ae:.2e}, pair composer {err_rae:.2e}, "
          f"classifier {err_clf:.2e})")


# --------------------------------------- 3. quantization exact recovery

def test_criterion_03_quantization_exact_recovery(run_a):
    base = tree_distiller.load_tree(cli.artifact_path(run_a, "tree"))
    x = _prefix_points(run_a)
    ranges = hw_model.fit_quantization_ranges(base, x)
    winner_alpha = _summary(run_a, "jshc")["best_alpha"]
    winner = tree_distiller.prune(base, winner_alpha)

    exact = {}
    for name, tree in (("base", base), ("winner", winner)):
        reference = tree_distiller.tree_predict_batch(tree, x)
        exact[name] = None
        for beta in range(1, 17):
            q = hw_model.quantize_tree(tree, beta, ranges)
            if np.array_equal(tree_distiller.tree_predict_batch(q.tree, x),
                              reference):
                exact[name] = beta
                break

    reference = tree_distiller.tree_predict_batch(base, x)
    agreement = []
    for beta in range(1, 12):
        q = hw_model.quantize_tree(base, beta, ranges)
        agreement.append(float(np.mean(
            tree_distiller.tree_predict_batch(q.tree, x) == reference)))
    diffs = np.diff(agreement)
    gap = agreement[-1] - agreement[0]

    ok = (exact["base"] is not None and exact["winner"] is not None
          and float(np.mean(diffs)) > 0 and gap > 0)
    _gate(3, ok,
          f"exact-recovery beta: base={exact['base']}, winner={exact['winner']}; "
          f"agreement {agreement[0]:.4f}@1 -> {agreement[-1]:.4f}@11 "
          f"(gap {gap:+.4f}, mean step {float(np.mean(diffs)):+.4f})")


# --------------------------------------------- 4. cost-model calibration

def test_criterion_04_hardware_cost_anchors():
    calib = hw_model.load_calibration(None)

    x35 = np.arange(18, dtype=float).reshape(-1, 1)
    t35 = tree_distiller.cart_train(x35, np.arange(18), min_samples_leaf=1)
    assert t35.n_nodes == 35
    r35 = hw_model.fit_quantization_ranges(t35, x35)
    p11 = hw_model.cost_estimate(hw_model.quantize_tree(t35, 11, r35), calib).power_mw
    p5 = hw_model.cost_estimate(hw_model.quantize_tree(t35, 5, r35), calib).power_mw

    x15 = np.array([[(i >> 2) & 1, (i >> 1) & 1, i & 1] for i in range(8)],
                   dtype=float)
    t15 = tree_distiller.cart_train(x15, np.arange(8), min_samples_leaf=1)
    assert t15.n_nodes == 15 and t15.max_depth == 3
    r15 = hw_model.fit_quantization_ranges(t15, x15)
    lat = hw_model.cost_estimate(hw_model.quantize_tree(t15, 11, r15),
                                 calib).inference_time_s

    ok = (abs(p11 - 3.88) <= 0.01 * 3.88 and abs(p5 - 0.97) <= 0.01 * 0.97
          and 4e-5 / 2 <= lat <= 4e-5 * 2)
    _gate(4, ok,
          f"35-node tree: {p11:.4f} mW @ beta=11 (target 3.88 +/- 1%), "
          f"{p5:.4f} mW @ beta=5 (target 0.97 +/- 1%); "
          f"15-node tree latency {lat:.1e} s within 2x of 4e-5 s")


# ------------------------------------------------ 5. pruning monotonicity

def _read_prune_sweep(cfg: dict):
    lines = open(cli.artifact_path(cfg, "prune_sweep")).read().strip().splitlines()
    rows = []
    for line in lines[1:]:
        alpha, n_nodes, n_leaves, depth, acc, f1 = line.split(",")
        rows.append((float(alpha), int(n_nodes), float(acc)))
    return rows


def test_criterion_05_pruning_sweep(run_a):
    rows = _read_prune_sweep(run_a)
    assert rows[0][0] == 0.0
    non_increasing = all(a[1] >= b[1] for a, b in zip(rows, rows[1:]))
    base_nodes, base_acc = rows[0][1], rows[0][2]
    winners = [(n, alpha, acc) for alpha, n, acc in rows
               if alpha > 0 and acc >= base_acc - 0.01 - 1e-12
               and n <= 0.6 * base_nodes]
    ok = non_increasing and bool(winners)
    best = min(winners) if winners else None
    _gate(5, ok,
          f"node count non-increasing over {len(rows)} alphas: {non_increasing}; "
          f"smallest subtree within 1pp of alpha=0 ({base_acc:.4f} @ "
          f"{base_nodes} nodes): "
          + (f"{best[0]} nodes at alpha={best[1]:.6g} (acc {best[2]:.4f})"
             if best else "none at <= 60% of nodes"))


# ---------------------------------------------- 6. end-to-end fixture F1

def test_criterion_06_distillation_f1_chain(run_a):
    teacher_f1 = _summary(run_a, "train-clf")["test_f1"]
    distill = _summary(run_a, "distill")
    tree_f1 = distill["test_f1"]
    winner_f1 = _summary(run_a, "jshc")["best_f1"]
    ok = (teacher_f1 >= 0.97 and tree_f1 >= teacher_f1 - 0.02
          and winner_f1 >= teacher_f1 - 0.03)
    _gate(6, ok,
          f"teacher F1 {teacher_f1:.4f} >= 0.97; distilled tree F1 {tree_f1:.4f} "
          f">= teacher-0.02 (test fidelity {distill['fidelity_test']:.4f}); "
          f"co-optimized tree F1 {winner_f1:.4f} >= teacher-0.03")


# ------------------------------------------- 7. flow-embedding benefit

def test_criterion_07_flow_embeddings_beat_first_packet(ambiguous_run):
    cfg = ambiguous_run
    flow_f1 = _summary(cfg, "train-clf")["test_f1"]

    flows = packet_ingest.load_flows(cli.artifact_path(cfg, "flows"))
    bundle = payload_autoencoder.load_bundle(cli.artifact_path(cfg, "autoencoder"))
    encoded = flow_embedder.encode_flows(bundle, flows, n_p=cfg["features"]["n_p"])
    by_id = {f.flow_id: f for f in encoded}
    with open(cli.artifact_path(cfg, "split")) as fh:
        split = json.load(fh)

    def first_packets(side):
        flows = [by_id[i] for i in split[side]]
        return (np.stack([np.atleast_2d(f.embeddings)[0] for f in flows]),
                [f.label for f in flows])

    model = classifier.train_classifier(*first_packets("train"),
                                        cli._train_cfg(cfg, "classifier"),
                                        hidden=cfg["classifier"]["hidden"])
    first_f1 = classifier.evaluate(model, *first_packets("test")).f1

    ok = flow_f1 - first_f1 >= 0.05
    _gate(7, ok,
          f"flow-embedding F1 {flow_f1:.4f} vs first-packet F1 {first_f1:.4f} "
          f"(gap {flow_f1 - first_f1:+.4f} >= +0.05)")


# ------------------------------------------ 8. compression robustness

def test_criterion_08_bottleneck_width_robustness(nb_accuracies):
    spread = max(nb_accuracies.values()) - min(nb_accuracies.values())
    ok = spread < 0.03
    pretty = {k: round(v, 4) for k, v in sorted(nb_accuracies.items())}
    _gate(8, ok, f"accuracy across n_b {pretty}: spread {spread:.4f} < 0.03")


# ------------------------------------------------ 9. optimizer correctness

def _fresh_artifacts(cfg: dict):
    """New artifacts as the jshc stage builds them: the run's tree and
    quantization ranges, its test split and the default calibration."""
    tree = tree_distiller.load_tree(cli.artifact_path(cfg, "tree"))
    x_test, y_test = cli._test_split(cfg, tree.class_names)
    return jshc_optimizer.JshcArtifacts(
        eval_x=x_test, eval_y=y_test,
        calib=hw_model.load_calibration(None), tree=tree,
        quant_ranges=cli._load_ranges(cfg))


def test_criterion_09_jshc_correctness(run_a):
    result = jshc_optimizer.jshc_optimize(jshc_optimizer.JshcConfig(),
                                          _fresh_artifacts(run_a))

    # independent re-evaluation of every grid cell on fresh artifacts
    arts = _fresh_artifacts(run_a)
    cells = [jshc_optimizer.evaluate_config(a, b, arts)
             for a in jshc_optimizer.default_alpha_set(arts)
             for b in range(1, 12)]
    brute = max(cells, key=lambda c: (c.accuracy, -c.beta, c.alpha))
    winner_match = (result.best_alpha == brute.alpha
                    and result.best_beta == brute.beta
                    and result.best_accuracy == brute.accuracy)

    # bisection against an exhaustive beta scan at the winning alpha
    scan = [jshc_optimizer.evaluate_config(brute.alpha, b, arts)
            for b in range(1, 12)]
    accs = [c.accuracy for c in scan]
    monotone = all(b >= a for a, b in zip(accs, accs[1:]))
    bisect_note = "scan not monotone, bit-distance check vacuous"
    bisect_ok = True
    if monotone:
        scan_best = max(scan, key=lambda c: (c.accuracy, -c.beta)).beta
        found, _trace = jshc_optimizer.bisect_beta(
            brute.alpha, jshc_optimizer.JshcConfig(), arts)
        bisect_ok = abs(found.beta - scan_best) <= 1
        bisect_note = f"bisect beta {found.beta} within 1 of scan-optimal {scan_best}"

    # a budget that rules out most cells must never pick an infeasible one
    min_power = min(c.cost.power_mw for c in cells)
    budget = hw_model.ResourceBudget(max_power_mw=1.5 * min_power)
    tight = jshc_optimizer.jshc_optimize(
        jshc_optimizer.JshcConfig(z_max=budget), _fresh_artifacts(run_a))
    feas = [c for c in cells if c.cost.power_mw <= 1.5 * min_power]
    feas_best = max(feas, key=lambda c: (c.accuracy, -c.beta, c.alpha))
    tight_ok = (tight.best.cost.power_mw <= 1.5 * min_power
                and tight.best_accuracy == feas_best.accuracy)

    ok = winner_match and bisect_ok and tight_ok
    _gate(9, ok,
          f"grid winner (alpha={result.best_alpha:.6g}, beta={result.best_beta}) "
          f"matches {len(cells)}-cell re-evaluation: {winner_match}; {bisect_note}; "
          f"tight power budget honored: {tight_ok}")


# ------------------------------------------------------- 10. determinism

def test_criterion_10_byte_identical_reports(run_a, run_b):
    same = {}
    for name in ("report_json", "report_md"):
        a = open(cli.artifact_path(run_a, name), "rb").read()
        b = open(cli.artifact_path(run_b, name), "rb").read()
        same[name] = a == b
    ok = all(same.values())
    _gate(10, ok, f"two same-seed runs byte-identical: {same}")


# --------------------------------------------- 11. inference speed order

def test_criterion_11_inference_speed_ordering(run_a):
    model = classifier.load_model(cli.artifact_path(run_a, "classifier"))
    tree = tree_distiller.load_tree(cli.artifact_path(run_a, "tree"))
    x_test, y_test = cli._test_split(run_a, model.class_names)
    labels = [model.class_names[i] for i in y_test]

    def best_total(predictor) -> float:
        return min(classifier.evaluate(predictor, x_test, labels).inference_time_s
                   for _ in range(5))

    tree_total = best_total(tree)
    mlp_total = best_total(model)
    ratio = mlp_total / tree_total

    # the pipeline's own reported numbers: measured software tree time and
    # the modeled hardware latency live in separate artifacts
    with open(cli.artifact_path(run_a, "timings")) as fh:
        timings = json.load(fh)
    reported_tree = timings["distilled_tree"]["total_s"]
    modeled = timings["modeled_hardware"]["per_sample_s"]

    ok = ratio >= 10 and modeled < reported_tree
    _gate(11, ok,
          f"per-sample tree {tree_total / len(labels):.2e} s vs MLP "
          f"{mlp_total / len(labels):.2e} s ({ratio:.1f}x >= 10x); modeled "
          f"hardware latency {modeled:.1e} s reported separately and < "
          f"measured tree batch time {reported_tree:.2e} s")
