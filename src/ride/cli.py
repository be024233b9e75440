"""Pipeline orchestrator: stage-by-stage runner with JSON config,
atomic artifact persistence, and a deterministic final report.

Exit codes: 0 ok, 2 missing or stale upstream artifact, 3 bad config,
4 runtime failure (a corrupt model file included). Measured wall-clock
timings are confined to timings.json / stage summaries so the final
report stays byte-reproducible.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time

import jsonschema
import numpy as np

from . import (classifier, flow_embedder, hw_model, jshc_optimizer, nn_core,
               packet_ingest, payload_autoencoder, synth_data, tree_distiller)
from .nn_core import TrainConfig

logger = logging.getLogger(__name__)

STAGES = ["synth", "ingest", "train-ae", "embed", "train-clf", "distill",
          "prune-sweep", "quantize", "cost", "jshc", "eval", "report"]

ARTIFACTS = {
    "pcap": "capture.pcap",
    "truth": "truth.csv",
    "flows": "flows.ndjson",
    "autoencoder": "autoencoder.npz",
    "rae": "rae.npz",
    "packet_codes": "packet_codes.npz",
    "embeddings": "flow_embeddings.csv",
    "split": "split.json",
    "classifier": "classifier.npz",
    "tree": "tree.json",
    "rules": "tree_rules.txt",
    "prune_sweep": "prune_sweep.csv",
    "ranges": "quant_ranges.json",
    "qtree": "qtree.json",
    "qtree_best": "qtree_best.json",
    "jshc": "jshc_result.json",
    "sweep": "jshc_sweep.csv",
    "timings": "timings.json",
    "report_json": "report.json",
    "report_md": "report.md",
}


class ConfigError(ValueError):
    pass


class MissingArtifactError(FileNotFoundError):
    pass


class StaleArtifactError(RuntimeError):
    """An artifact was built from another version of an upstream file."""


# ---------------------------------------------------------------- config

_TRAIN_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "learning_rate": {"type": "number", "minimum": 0},
        "batch_size": {"type": "integer", "minimum": 1},
        "epochs": {"type": "integer", "minimum": 0},
        "seed": {"type": ["integer", "null"]},
        "weight_init_scale": {"type": "number", "exclusiveMinimum": 0},
        "optimizer": {"enum": ["adam", "sgd"]},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer"},
        "out_dir": {"type": "string"},
        "paths": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pcap": {"type": ["string", "null"]},
                "truth_csv": {"type": ["string", "null"]},
                "calibration": {"type": ["string", "null"]},
            },
        },
        "synth": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "fixture": {"enum": ["default", "ambiguous"]},
                "seed": {"type": ["integer", "null"]},
            },
        },
        "features": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_p": {"type": "integer", "minimum": 1},
                "n_b": {"type": "integer", "minimum": 1},
                "h": {"type": "integer", "minimum": 1},
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "autoencoder": _TRAIN_SCHEMA,
                "rae": _TRAIN_SCHEMA,
                "classifier": _TRAIN_SCHEMA,
            },
        },
        "embed": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "order": {"enum": ["sequence", "greedy_min"]},
                "pair_cap": {"type": "integer", "minimum": 1},
            },
        },
        "classifier": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "hidden": {"type": "integer", "minimum": 1},
                "test_fraction": {"type": "number", "exclusiveMinimum": 0,
                                  "exclusiveMaximum": 1},
            },
        },
        "tree": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_depth": {"type": ["integer", "null"], "minimum": 1},
                "min_samples_leaf": {"type": "integer", "minimum": 1},
                "criterion": {"enum": ["gini", "entropy"]},
            },
        },
        "quantize": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"beta": {"type": "integer", "minimum": 1, "maximum": 16}},
        },
        "jshc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha_set": {"type": ["array", "null"],
                              "items": {"type": "number", "minimum": 0}},
                "beta_set": {"type": ["array", "null"],
                             "items": {"type": "integer", "minimum": 1}},
                "min_beta": {"type": "integer", "minimum": 1},
                "max_beta": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 0},
                "z_max": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "max_power_mw": {"type": ["number", "null"]},
                        "max_area_units": {"type": ["number", "null"]},
                        "max_latency_s": {"type": ["number", "null"]},
                    },
                },
            },
        },
        "sample_caps": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ae_payloads": {"type": "integer", "minimum": 1},
                "rae_pairs": {"type": "integer", "minimum": 1},
            },
        },
    },
}


def default_config() -> dict:
    return {
        "seed": 7,
        "out_dir": "ride_out",
        "paths": {"pcap": None, "truth_csv": None, "calibration": None},
        "synth": {"fixture": "default", "seed": None},
        "features": {"n_p": 1500, "n_b": 100, "h": 512},
        "train": {
            "autoencoder": {"learning_rate": 3e-3, "batch_size": 32, "epochs": 20,
                            "seed": None, "weight_init_scale": 1.0, "optimizer": "adam"},
            "rae": {"learning_rate": 1e-3, "batch_size": 32, "epochs": 250,
                    "seed": None, "weight_init_scale": 1.0, "optimizer": "adam"},
            "classifier": {"learning_rate": 3e-3, "batch_size": 32, "epochs": 80,
                           "seed": None, "weight_init_scale": 1.0, "optimizer": "adam"},
        },
        "embed": {"order": "sequence", "pair_cap": 20000},
        "classifier": {"hidden": 100, "test_fraction": 0.2},
        "tree": {"max_depth": None, "min_samples_leaf": 5, "criterion": "gini"},
        "quantize": {"beta": 11},
        "jshc": {"alpha_set": None, "beta_set": None, "min_beta": 1, "max_beta": 11,
                 "tol": 1.0, "max_iter": 20,
                 "z_max": {"max_power_mw": None, "max_area_units": None,
                           "max_latency_s": None}},
        "sample_caps": {"ae_payloads": 50000, "rae_pairs": 20000},
    }


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | None, seed: int | None = None,
                out_dir: str | None = None) -> dict:
    """Defaults deep-merged with the file; flags override file values."""
    user = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    try:
        jsonschema.validate(user, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {exc.message}") from None
    cfg = _deep_merge(default_config(), user)
    if seed is not None:
        cfg["seed"] = seed
    if out_dir is not None:
        cfg["out_dir"] = out_dir
    if cfg["jshc"]["min_beta"] > cfg["jshc"]["max_beta"]:
        raise ConfigError("jshc.min_beta must not exceed jshc.max_beta")
    return cfg


def _train_cfg(cfg: dict, section: str) -> TrainConfig:
    t = cfg["train"][section]
    return TrainConfig(
        learning_rate=t["learning_rate"], batch_size=t["batch_size"],
        epochs=t["epochs"], seed=cfg["seed"] if t["seed"] is None else t["seed"],
        weight_init_scale=t["weight_init_scale"], optimizer=t["optimizer"])


# ------------------------------------------------------------- artifacts

def artifact_path(cfg: dict, name: str) -> str:
    return os.path.join(cfg["out_dir"], ARTIFACTS[name])


def summary_path(cfg: dict, stage: str) -> str:
    return os.path.join(cfg["out_dir"], "summaries", f"{stage}.json")


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise MissingArtifactError(path)
    return path


def atomic_write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def atomic_write_bytes(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def atomic_write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_summary(cfg: dict, stage: str, summary: dict) -> dict:
    atomic_write_json(summary_path(cfg, stage), summary)
    return summary


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_lineage(paths: tuple[str, ...], field: str, upstream: str, rerun: str) -> None:
    """StaleArtifactError unless each model file in `paths` records in its
    meta `field` the sha256 of the file `upstream` holds now."""
    current = _file_sha256(upstream)
    for path in paths:
        meta, _, _ = nn_core.load_artifact(path, fields=(field,))
        if meta[field] != current:
            raise StaleArtifactError(
                f"{path} was built from another {upstream} than the one there now; "
                f"re-run `ride {rerun}` and the stages after it")


def _load_json(path: str):
    with open(_require(path)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- stages

def stage_synth(cfg: dict) -> dict:
    seed = cfg["synth"]["seed"]
    seed = cfg["seed"] if seed is None else seed
    fixture = cfg["synth"]["fixture"]
    spec = (synth_data.default_fixture(seed=seed) if fixture == "default"
            else synth_data.ambiguous_fixture(seed=seed))
    pcap_bytes, truth_csv = synth_data.generate(spec)
    atomic_write_bytes(artifact_path(cfg, "pcap"), pcap_bytes)
    atomic_write_text(artifact_path(cfg, "truth"), truth_csv)
    return _write_summary(cfg, "synth", {
        "fixture": fixture, "seed": seed, "n_flows": spec.n_flows,
        "pcap_bytes": len(pcap_bytes),
        "class_mix": {p.name: m for p, m in zip(spec.class_profiles, spec.class_mix)},
    })


def stage_ingest(cfg: dict) -> dict:
    pcap_path = cfg["paths"]["pcap"] or artifact_path(cfg, "pcap")
    truth_path = cfg["paths"]["truth_csv"] or artifact_path(cfg, "truth")
    with open(_require(pcap_path), "rb") as fh:
        capture = fh.read()
    parsed = packet_ingest.parse_pcap(capture)
    flows = packet_ingest.group_flows(parsed.packets)
    truth = packet_ingest.load_truth_csv(_require(truth_path))
    labeled = packet_ingest.label_flows(flows, truth)
    classes = sorted({f.label for f in labeled.flows})
    if len(classes) < 2:
        kept = "no labelled flow" if not classes else f"flows of one class only ({classes[0]!r})"
        raise ValueError(
            f"ingest kept {kept}; a classifier needs two classes "
            f"(n_packets={len(parsed.packets)}, n_skipped={parsed.n_skipped}, "
            f"n_dropped={labeled.n_dropped}, classes seen: {classes})")
    packet_ingest.save_flows(labeled.flows, artifact_path(cfg, "flows"))
    return _write_summary(cfg, "ingest", {
        "pcap": pcap_path, "truth_csv": truth_path,
        "n_packets": len(parsed.packets), "n_skipped": parsed.n_skipped,
        "n_skipped_by_reason": parsed.n_skipped_by_reason,
        "n_truncated": parsed.n_truncated,
        "n_flows": len(labeled.flows), "n_dropped": labeled.n_dropped,
    })


def _load_flow_payload_matrix(cfg: dict):
    flows = packet_ingest.load_flows(_require(artifact_path(cfg, "flows")))
    n_p = cfg["features"]["n_p"]
    vectors = []
    for flow in flows:
        for pkt in flow.packets:
            vectors.append(packet_ingest.extract_payload_vector(pkt, n_p).values)
    return flows, np.array(vectors, dtype=np.float64)


def stage_train_ae(cfg: dict) -> dict:
    _flows, matrix = _load_flow_payload_matrix(cfg)
    bundle = payload_autoencoder.train_autoencoder(
        matrix, n_b=cfg["features"]["n_b"], h=cfg["features"]["h"],
        cfg=_train_cfg(cfg, "autoencoder"),
        sample_cap=cfg["sample_caps"]["ae_payloads"])
    payload_autoencoder.save_bundle(bundle, artifact_path(cfg, "autoencoder"))
    return _write_summary(cfg, "train-ae", {
        "n_payloads": int(matrix.shape[0]), "n_p": bundle.n_p, "n_b": bundle.n_b,
        "h": bundle.h, "final_train_mse": bundle.final_train_mse,
    })


def stage_embed(cfg: dict) -> dict:
    flows = packet_ingest.load_flows(_require(artifact_path(cfg, "flows")))
    ae_path = _require(artifact_path(cfg, "autoencoder"))
    bundle = payload_autoencoder.load_bundle(ae_path)
    ae_sha256 = _file_sha256(ae_path)
    embedded = flow_embedder.encode_flows(bundle, flows, n_p=cfg["features"]["n_p"])
    rae_cfg = _train_cfg(cfg, "rae")
    pairs = flow_embedder.sample_training_pairs(
        embedded, pair_cap=cfg["embed"]["pair_cap"], seed=rae_cfg.seed)
    rae = flow_embedder.train_rae(pairs, n_b=bundle.n_b, cfg=rae_cfg)
    joint = flow_embedder.embed_flows(rae, embedded, order=cfg["embed"]["order"])
    flow_embedder.save_rae(rae, artifact_path(cfg, "rae"), ae_sha256)
    flow_embedder.save_packet_codes(embedded, artifact_path(cfg, "packet_codes"), ae_sha256)
    # CSV written atomically via temp path + rename
    csv_path = artifact_path(cfg, "embeddings")
    flow_embedder.flow_embeddings_to_csv(joint, csv_path + ".tmp")
    os.replace(csv_path + ".tmp", csv_path)
    return _write_summary(cfg, "embed", {
        "n_flows": len(joint), "n_pairs": int(pairs.shape[0]),
        "fold_order": cfg["embed"]["order"],
        "final_recon_error": rae.final_recon_error,
    })


def _load_split_embeddings(cfg: dict):
    embeddings = flow_embedder.flow_embeddings_from_csv(
        _require(artifact_path(cfg, "embeddings")))
    split = _load_json(artifact_path(cfg, "split"))
    by_id = {e.flow_id: e for e in embeddings}
    train = [by_id[i] for i in split["train"]]
    test = [by_id[i] for i in split["test"]]
    return train, test


def _labeled_matrix(embeddings: list, class_names: list[str]):
    """Stacked embedding values and their label ids in class_names."""
    index = {n: i for i, n in enumerate(class_names)}
    return (np.stack([e.values for e in embeddings]),
            np.array([index[e.label] for e in embeddings]))


def stage_train_clf(cfg: dict) -> dict:
    embeddings_path = _require(artifact_path(cfg, "embeddings"))
    embeddings_sha256 = _file_sha256(embeddings_path)
    embeddings = flow_embedder.flow_embeddings_from_csv(embeddings_path)
    train, test = classifier.stratified_split(
        embeddings, test_fraction=cfg["classifier"]["test_fraction"], seed=cfg["seed"])
    atomic_write_json(artifact_path(cfg, "split"),
                      {"train": [e.flow_id for e in train],
                       "test": [e.flow_id for e in test]})
    model = classifier.train_classifier(train, _train_cfg(cfg, "classifier"),
                                        hidden=cfg["classifier"]["hidden"])
    classifier.save_model(model, artifact_path(cfg, "classifier"), embeddings_sha256)
    # deterministic metrics only (timing lives in the eval stage)
    x_test, y_true = _labeled_matrix(test, model.class_names)
    y_pred = np.argmax(classifier.predict_proba(model, x_test), axis=1)
    acc, f1, confusion = classifier.metrics_from_predictions(
        y_true, y_pred, model.k_classes)
    n_params = sum(l.w.size + l.b.size for l in model.net.layers)
    return _write_summary(cfg, "train-clf", {
        "classes": model.class_names, "n_train": len(train), "n_test": len(test),
        "test_accuracy": acc, "test_f1": f1, "confusion": confusion.tolist(),
        "n_parameters": int(n_params),
    })


# Teacher-labeled query flows per training flow in the distillation set.
QUERY_FLOWS_PER_TRAIN_FLOW = 20


def _train_packet_codes(cfg: dict, train: list):
    """The training split's flows as the packet-code matrices the embed
    stage stored, and the RAE. Both record the hash of the autoencoder
    file they came from; when that file has changed since (train-ae ran
    again), they are stale and StaleArtifactError names them."""
    codes_path = _require(artifact_path(cfg, "packet_codes"))
    rae_path = _require(artifact_path(cfg, "rae"))
    ae_path = _require(artifact_path(cfg, "autoencoder"))
    _check_lineage((codes_path, rae_path), "autoencoder_sha256", ae_path, "embed")
    wanted = {e.flow_id for e in train}
    encoded = [f for f in flow_embedder.load_packet_codes(codes_path) if f.flow_id in wanted]
    return encoded, flow_embedder.load_rae(rae_path)


def _load_teacher(cfg: dict) -> classifier.ClassifierModel:
    """The classifier, refused as stale when the embeddings file has
    changed since train-clf read it (embed ran again)."""
    path = _require(artifact_path(cfg, "classifier"))
    _check_lineage((path,), "embeddings_sha256",
                   _require(artifact_path(cfg, "embeddings")), "train-clf")
    return classifier.load_model(path)


def _prefix_points(rae, encoded: list) -> list:
    return [p for ef in encoded for p in flow_embedder.prefix_embeddings(rae, ef)]


def _distill_train_embeddings(cfg: dict, train: list) -> list:
    """The real points the distilled tree sees, rebuilt from the stored
    artifacts: the distill stage fits the quantization ranges and measures
    the train-side fidelity on these.

    With the sequential fold, every flow exposes one joint embedding per
    received packet, and all of those prefixes are kept (the last one is
    the flow's final embedding). The first prefix of a flow is its first
    packet's raw payload code, which lies off the folded embeddings the
    teacher was trained on; measured, dropping those points made the tree
    no better. Other fold orders have no prefix notion, so the final
    embeddings are used as-is.
    """
    if cfg["embed"]["order"] != "sequence":
        return train
    encoded, rae = _train_packet_codes(cfg, train)
    return _prefix_points(rae, encoded)


def stage_distill(cfg: dict) -> dict:
    """Grow the student tree on teacher labels of the prefix points plus
    query states: random same-class packet sequences folded by the RAE
    (QUERY_FLOWS_PER_TRAIN_FLOW per training flow, seeded by cfg["seed"]).
    The queries let the tree follow the teacher's boundary between the
    training flows, which the prefix points alone leave too sparse to
    place axis-aligned splits on (query sampling, as in TREPAN and
    born-again trees)."""
    model = _load_teacher(cfg)
    train, test = _load_split_embeddings(cfg)
    if cfg["embed"]["order"] == "sequence":
        encoded, rae = _train_packet_codes(cfg, train)
        train_points = _prefix_points(rae, encoded)
        queries = flow_embedder.fold_sequences(rae, flow_embedder.sample_query_flows(
            encoded, QUERY_FLOWS_PER_TRAIN_FLOW * len(encoded), seed=cfg["seed"]))
    else:
        train_points, queries = train, []
    teacher_data = tree_distiller.generate_teacher_dataset(model, train_points + queries)
    tree = tree_distiller.cart_train(
        teacher_data.x, teacher_data.y_teacher,
        max_depth=cfg["tree"]["max_depth"],
        min_samples_leaf=cfg["tree"]["min_samples_leaf"],
        criterion=cfg["tree"]["criterion"],
        class_names=teacher_data.class_names)
    atomic_write_text(artifact_path(cfg, "tree"),
                      json.dumps(tree_distiller.tree_to_dict(tree)))
    atomic_write_text(artifact_path(cfg, "rules"), tree_distiller.rules_text(tree))
    # quantization ranges come from the real points only, not the queries
    ranges = hw_model.fit_quantization_ranges(tree, teacher_data.x[:len(train_points)])
    atomic_write_json(artifact_path(cfg, "ranges"),
                      {str(f): [lo, hi] for f, (lo, hi) in sorted(ranges.items())})
    x_test, y_true = _labeled_matrix(test, tree.class_names)
    y_pred = tree_distiller.tree_predict_batch(tree, x_test)
    acc, f1, _ = classifier.metrics_from_predictions(y_true, y_pred, tree.k)
    return _write_summary(cfg, "distill", {
        "n_nodes": tree.n_nodes, "n_leaves": tree.n_leaves,
        "max_depth": tree.max_depth, "n_distill_samples": len(teacher_data.x),
        "n_query_points": len(queries),
        "fidelity_train": tree_distiller.fidelity(tree, model, train_points),
        "fidelity_test": tree_distiller.fidelity(tree, model, test),
        "test_accuracy": acc, "test_f1": f1,
    })


def stage_prune_sweep(cfg: dict) -> dict:
    tree = tree_distiller.load_tree(_require(artifact_path(cfg, "tree")))
    _train, test = _load_split_embeddings(cfg)
    path = tree_distiller.pruning_path(tree)
    x_test, y_true = _labeled_matrix(test, tree.class_names)
    rows = []
    for entry in path.entries:
        y_pred = tree_distiller.tree_predict_batch(entry.tree, x_test)
        acc, f1, _ = classifier.metrics_from_predictions(y_true, y_pred, tree.k)
        rows.append({"alpha": entry.alpha_eff, "n_nodes": entry.n_nodes,
                     "n_leaves": entry.tree.n_leaves,
                     "max_depth": entry.tree.max_depth,
                     "test_accuracy": acc, "test_f1": f1})
    lines = ["alpha,n_nodes,n_leaves,max_depth,test_accuracy,test_f1"]
    for r in rows:
        lines.append(f"{r['alpha']!r},{r['n_nodes']},{r['n_leaves']},"
                     f"{r['max_depth']},{r['test_accuracy']!r},{r['test_f1']!r}")
    atomic_write_text(artifact_path(cfg, "prune_sweep"), "\n".join(lines) + "\n")
    return _write_summary(cfg, "prune-sweep", {"n_entries": len(rows), "path": rows})


def _load_ranges(cfg: dict) -> dict:
    """The quantization ranges the distill stage fitted."""
    doc = _load_json(artifact_path(cfg, "ranges"))
    return {int(f): (lo, hi) for f, (lo, hi) in doc.items()}


def stage_quantize(cfg: dict) -> dict:
    tree = tree_distiller.load_tree(_require(artifact_path(cfg, "tree")))
    ranges = _load_ranges(cfg)
    beta = cfg["quantize"]["beta"]
    qtree = hw_model.quantize_tree(tree, beta, ranges)
    atomic_write_text(artifact_path(cfg, "qtree"),
                      json.dumps(hw_model.qtree_to_dict(qtree)))
    snap = [abs(q - t) for q, t, f in zip(qtree.tree.threshold, tree.threshold, tree.feature)
            if f >= 0]
    return _write_summary(cfg, "quantize", {
        "beta": beta, "n_features_ranged": len(ranges),
        "max_snap_error": max(snap) if snap else 0.0,
    })


def _budget_from_cfg(cfg: dict) -> hw_model.ResourceBudget:
    return hw_model.budget_from_dict(cfg["jshc"]["z_max"])


def stage_cost(cfg: dict) -> dict:
    qtree = hw_model.load_qtree(_require(artifact_path(cfg, "qtree")))
    calib = hw_model.load_calibration(cfg["paths"]["calibration"])
    cost = hw_model.cost_estimate(qtree, calib)
    feasible, violated = hw_model.check_constraint(cost, _budget_from_cfg(cfg))
    return _write_summary(cfg, "cost", {
        **hw_model.cost_to_dict(cost),
        "feasible": feasible, "violated": violated,
    })


def stage_jshc(cfg: dict) -> dict:
    _train, test = _load_split_embeddings(cfg)
    calib = hw_model.load_calibration(cfg["paths"]["calibration"])
    # the search starts from the very tree and ranges the distill stage wrote
    tree = tree_distiller.load_tree(_require(artifact_path(cfg, "tree")))
    x_test, y_test = _labeled_matrix(test, tree.class_names)
    artifacts = jshc_optimizer.JshcArtifacts(
        eval_x=x_test, eval_y=y_test, class_names=tree.class_names, calib=calib,
        tree=tree, quant_ranges=_load_ranges(cfg))
    jcfg = jshc_optimizer.JshcConfig(
        alpha_set=cfg["jshc"]["alpha_set"], beta_set=cfg["jshc"]["beta_set"],
        min_beta=cfg["jshc"]["min_beta"], max_beta=cfg["jshc"]["max_beta"],
        tol=cfg["jshc"]["tol"], max_iter=cfg["jshc"]["max_iter"],
        z_max=_budget_from_cfg(cfg), seed=cfg["seed"])
    result = jshc_optimizer.jshc_optimize(jcfg, artifacts)
    sweep_path = artifact_path(cfg, "sweep")
    jshc_optimizer.sweep_to_csv(result.sweep_log, sweep_path + ".tmp")
    os.replace(sweep_path + ".tmp", sweep_path)
    best_tree = tree_distiller.prune(tree, result.best_alpha, artifacts.path())
    best_q = hw_model.quantize_tree(best_tree, result.best_beta, artifacts.quant_ranges)
    atomic_write_text(artifact_path(cfg, "qtree_best"),
                      json.dumps(hw_model.qtree_to_dict(best_q)))
    atomic_write_json(artifact_path(cfg, "jshc"), {
        "best_alpha": result.best_alpha, "best_beta": result.best_beta,
        "best_accuracy": result.best_accuracy, "best_f1": result.best.f1,
        "best_n_nodes": result.best.n_nodes,
        "best_cost": hw_model.cost_to_dict(result.best.cost),
        "n_grid_evals": len(result.sweep_log),
        "bisection_trace": [
            {"left": s.left, "right": s.right, "mid": s.mid,
             "accuracy": s.accuracy, "feasible": s.feasible}
            for s in result.bisection_trace],
    })
    return _write_summary(cfg, "jshc", _load_json(artifact_path(cfg, "jshc")))


def stage_eval(cfg: dict) -> dict:
    model = _load_teacher(cfg)
    tree = tree_distiller.load_tree(_require(artifact_path(cfg, "tree")))
    qtree = hw_model.load_qtree(_require(artifact_path(cfg, "qtree_best")))
    _train, test = _load_split_embeddings(cfg)
    calib = hw_model.load_calibration(cfg["paths"]["calibration"])
    modeled = hw_model.cost_estimate(qtree, calib)

    predictors = [("mlp_teacher", model), ("distilled_tree", tree),
                  ("quantized_tree", qtree)]
    metrics = {}
    timings = {}
    for name, predictor in predictors:
        report = classifier.evaluate(predictor, test)
        metrics[name] = {
            "accuracy": report.accuracy, "f1": report.f1,
            "confusion": report.confusion.tolist(),
        }
        timings[name] = {
            "total_s": report.inference_time_s,
            "per_sample_s": report.inference_time_s / len(test),
            "n_samples": len(test),
        }
    timings["modeled_hardware"] = {
        "per_sample_s": modeled.inference_time_s,
        "beta": modeled.beta, "n_nodes": modeled.n_nodes,
    }
    atomic_write_json(artifact_path(cfg, "timings"), timings)
    return _write_summary(cfg, "eval", {
        "n_test": len(test), "metrics": metrics,
        "modeled_hardware_latency_s": modeled.inference_time_s,
        "timings_file": ARTIFACTS["timings"],
    })


def stage_report(cfg: dict) -> dict:
    clf_summary = _load_json(summary_path(cfg, "train-clf"))
    distill_summary = _load_json(summary_path(cfg, "distill"))
    jshc_summary = _load_json(summary_path(cfg, "jshc"))
    eval_summary = _load_json(summary_path(cfg, "eval"))

    em = eval_summary["metrics"]
    rows = [
        {"predictor": "mlp_teacher",
         "f1": em["mlp_teacher"]["f1"], "accuracy": em["mlp_teacher"]["accuracy"],
         "size": clf_summary["n_parameters"], "size_unit": "parameters",
         "inference_time_s": None},
        {"predictor": "distilled_tree",
         "f1": em["distilled_tree"]["f1"], "accuracy": em["distilled_tree"]["accuracy"],
         "size": distill_summary["n_nodes"], "size_unit": "nodes",
         "inference_time_s": None},
        {"predictor": "quantized_tree",
         "f1": em["quantized_tree"]["f1"], "accuracy": em["quantized_tree"]["accuracy"],
         "size": jshc_summary["best_n_nodes"], "size_unit": "nodes",
         "inference_time_s": eval_summary["modeled_hardware_latency_s"]},
    ]
    report = {
        "predictors": rows,
        "jshc": {"best_alpha": jshc_summary["best_alpha"],
                 "best_beta": jshc_summary["best_beta"],
                 "best_accuracy": jshc_summary["best_accuracy"]},
        "hardware": jshc_summary["best_cost"],
        "notes": {
            "inference_time": "quantized_tree row shows modeled hardware latency; "
                              "measured software timings are in the timings file",
            "timings_file": ARTIFACTS["timings"],
            "sweep_csv": ARTIFACTS["sweep"],
        },
    }
    atomic_write_json(artifact_path(cfg, "report_json"), report)

    md = ["# Pipeline report", "",
          "| predictor | F1 | accuracy | size | inference time (s) |",
          "|---|---|---|---|---|"]
    for r in rows:
        t = "-" if r["inference_time_s"] is None else repr(r["inference_time_s"])
        md.append(f"| {r['predictor']} | {r['f1']:.6f} | {r['accuracy']:.6f} "
                  f"| {r['size']} {r['size_unit']} | {t} |")
    md += ["",
           f"JSHC winner: alpha={report['jshc']['best_alpha']!r}, "
           f"beta={report['jshc']['best_beta']}, "
           f"accuracy={report['jshc']['best_accuracy']:.6f}",
           "",
           f"Hardware estimate: {report['hardware']['power_mw']:.4f} mW, "
           f"{report['hardware']['area_units']:.2f} area units, "
           f"{report['hardware']['inference_time_s']:.2e} s/sample "
           f"({report['hardware']['n_nodes']} nodes at beta={report['hardware']['beta']})",
           "",
           "Measured software timings (wall clock, machine-dependent) are kept "
           f"out of this report; see `{ARTIFACTS['timings']}`.",
           ""]
    atomic_write_text(artifact_path(cfg, "report_md"), "\n".join(md))
    return _write_summary(cfg, "report", {"rows": len(rows)})


_STAGE_FUNCS = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "train-ae": stage_train_ae,
    "embed": stage_embed,
    "train-clf": stage_train_clf,
    "distill": stage_distill,
    "prune-sweep": stage_prune_sweep,
    "quantize": stage_quantize,
    "cost": stage_cost,
    "jshc": stage_jshc,
    "eval": stage_eval,
    "report": stage_report,
}


def run_stage(stage: str, cfg: dict) -> dict:
    if stage not in _STAGE_FUNCS:
        raise ConfigError(f"unknown stage {stage!r}; choose from {STAGES + ['all']}")
    os.makedirs(cfg["out_dir"], exist_ok=True)
    t0 = time.perf_counter()
    summary = _STAGE_FUNCS[stage](cfg)
    logger.info("stage %s finished in %.2fs", stage, time.perf_counter() - t0)
    return summary


def run_all(cfg: dict) -> dict:
    """Every stage in dependency order; synth is skipped when the config
    points at an existing capture."""
    stages = list(STAGES)
    if cfg["paths"]["pcap"]:
        stages.remove("synth")
    last = {}
    for stage in stages:
        last = run_stage(stage, cfg)
    return last


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ride",
        description="Packet capture -> flow embeddings -> distilled tree -> "
                    "quantized-hardware co-optimization pipeline")
    parser.add_argument("stage", choices=STAGES + ["all"])
    parser.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        if args.stage == "all":
            run_all(cfg)
        else:
            run_stage(args.stage, cfg)
    except MissingArtifactError as exc:
        print(f"error: missing upstream artifact: {exc}", file=sys.stderr)
        return 2
    except StaleArtifactError as exc:
        print(f"error: stale artifact: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
