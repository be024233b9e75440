"""Pipeline orchestrator: stage-by-stage runner with JSON config,
atomic artifact persistence, and a deterministic final report.

Exit codes: 0 ok, 2 missing or stale upstream artifact, 3 bad config,
4 runtime failure (a corrupt model or JSON file included). Measured wall-clock
timings are confined to timings.json / stage summaries so the final
report stays byte-reproducible.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import operator
import os
import resource
import sys
import time

import numpy as np

from . import (classifier, flow_embedder, hw_model, jshc_optimizer, nn_core,
               packet_ingest, payload_autoencoder, synth_data, tree_distiller)
from .nn_core import TrainConfig

logger = logging.getLogger(__name__)

ARTIFACTS = {
    "pcap": "capture.pcap",
    "truth": "truth.csv",
    "flows": "flows.npz",
    "autoencoder": "autoencoder.npz",
    "rae": "rae.npz",
    "packet_codes": "packet_codes.npz",
    "split": "split.json",
    "classifier": "classifier.npz",
    "tree": "tree.json",
    "rules": "tree_rules.txt",
    "prune_sweep": "prune_sweep.csv",
    "ranges": "quant_ranges.json",
    "qtree": "qtree.json",
    "qtree_best": "qtree_best.json",
    "jshc": "summaries/jshc.json",  # the jshc stage's summary
    "sweep": "jshc_sweep.csv",
    "timings": "timings.json",
    "report_json": "report.json",
    "report_md": "report.md",
    "manifest": "manifest.json",
}


class ConfigError(ValueError):
    pass


class MissingArtifactError(FileNotFoundError):
    pass


class StaleArtifactError(RuntimeError):
    """An artifact was built from another version of an upstream file."""


# ---------------------------------------------------------------- config

def _train_section(learning_rate: float, epochs: int) -> dict:
    """One `train` section; its keys are TrainConfig's fields but the run's seed."""
    return {
        "learning_rate": (learning_rate, {"type": "number", "minimum": 0}),
        "batch_size": (32, {"type": "integer", "minimum": 1}),
        "epochs": (epochs, {"type": "integer", "minimum": 0}),
    }


# A bit width the default cost calibration covers.
_BETA = {"type": "integer", "minimum": hw_model.BETA_MIN, "maximum": hw_model.BETA_MAX}

# Every config key, declared once: a section is a dict, and a key maps to
# (its default, the JSON Schema of its values). CONFIG_SCHEMA and
# default_config() are read off this table in its order, which is the
# order "allowed: ..." lists the keys of a section in.
_CONFIG = {
    "seed": (7, {"type": "integer"}),
    "out_dir": ("ride_out", {"type": "string"}),
    "paths": {
        "pcap": (None, {"type": ["string", "null"]}),
        "truth_csv": (None, {"type": ["string", "null"]}),
        "calibration": (None, {"type": ["string", "null"]}),
    },
    "synth": {
        "fixture": ("default", {"enum": ["default", "ambiguous"]}),
        "seed": (None, {"type": ["integer", "null"]}),
    },
    "features": {
        "n_p": (1500, {"type": "integer", "minimum": 1}),
        "n_b": (100, {"type": "integer", "minimum": 1}),
        "h": (512, {"type": "integer", "minimum": 1}),
    },
    "train": {
        "autoencoder": _train_section(3e-3, 20),
        "rae": _train_section(1e-3, 250),
        "classifier": _train_section(3e-3, 80),
    },
    "embed": {
        "order": ("sequence", {"enum": ["sequence"]}),
        "pair_cap": (20000, {"type": "integer", "minimum": 1}),
    },
    "classifier": {
        "hidden": (100, {"type": "integer", "minimum": 1}),
        "test_fraction": (0.2, {"type": "number", "exclusiveMinimum": 0,
                                "exclusiveMaximum": 1}),
    },
    "tree": {
        "max_depth": (None, {"type": ["integer", "null"], "minimum": 1}),
        "min_samples_leaf": (5, {"type": "integer", "minimum": 1}),
        "criterion": ("gini", {"enum": ["gini", "entropy"]}),
    },
    "jshc": {
        "alpha_set": (None, {"type": ["array", "null"], "minItems": 1,
                             "items": {"type": "number", "minimum": 0}}),
        "beta_set": (None, {"type": ["array", "null"], "minItems": 1, "items": _BETA}),
        "min_beta": (1, _BETA),
        "max_beta": (11, _BETA),
        "z_max": {
            "max_power_mw": (None, {"type": ["number", "null"]}),
            "max_area_units": (None, {"type": ["number", "null"]}),
            "max_latency_s": (None, {"type": ["number", "null"]}),
        },
    },
    "sample_caps": {"ae_payloads": (50000, {"type": "integer", "minimum": 1})},
}


def _schema(node) -> dict:
    if not isinstance(node, dict):
        return node[1]
    return {"type": "object", "additionalProperties": False,
            "properties": {key: _schema(sub) for key, sub in node.items()}}


CONFIG_SCHEMA = _schema(_CONFIG)


def default_config() -> dict:
    """Every key at its default, in new dicts at each call: callers change
    the config they load."""
    def defaults(node):
        if not isinstance(node, dict):
            return node[0]
        return {key: defaults(sub) for key, sub in node.items()}
    return defaults(_CONFIG)


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


# The JSON Schema keywords CONFIG_SCHEMA uses, checked by _validate. An
# integer is a JSON integer (not 1.0) and a number a finite one (not NaN or
# Infinity, which Python's json accepts); a bool is neither.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) is int or (type(v) is float and math.isfinite(v)),
}
_BOUNDS = (("minimum", operator.lt, "less than the minimum of"),
           ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
           ("maximum", operator.gt, "greater than the maximum of"),
           ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum of"))


def _validate(value, schema: dict, path: tuple) -> None:
    """Raise ConfigError naming the first place where value breaks schema.

    Handles type, enum, the four bounds, properties with
    additionalProperties false, items and minItems. An unexpected key is
    reported at its parent's path.
    """
    def fail(cause: str):
        where = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {cause}")

    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[t](value) for t in types):
            fail(f"{value!r} is not of type {', '.join(map(repr, types))}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if _TYPES["number"](value):
        for keyword, beyond, words in _BOUNDS:
            if keyword in schema and beyond(value, schema[keyword]):
                fail(f"{value!r} is {words} {schema[keyword]!r}")
    if isinstance(value, dict) and "properties" in schema:
        properties = schema["properties"]
        unexpected = [key for key in value if key not in properties]
        if unexpected and schema.get("additionalProperties") is False:
            fail(f"unexpected key(s) {', '.join(map(repr, unexpected))}; "
                 f"allowed: {', '.join(properties)}")
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], path + (key,))
    if isinstance(value, list) and len(value) < schema.get("minItems", 0):
        fail(f"{value!r} has fewer than {schema['minItems']} item(s)")
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], path + (index,))


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
    _validate(user, CONFIG_SCHEMA, ())
    cfg = _deep_merge(default_config(), user)
    if seed is not None:
        cfg["seed"] = seed
    if out_dir is not None:
        cfg["out_dir"] = out_dir
    if cfg["jshc"]["min_beta"] > cfg["jshc"]["max_beta"]:
        raise ConfigError("jshc.min_beta must not exceed jshc.max_beta")
    return cfg


def _train_cfg(cfg: dict, section: str) -> TrainConfig:
    return TrainConfig(**cfg["train"][section], seed=cfg["seed"])


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
    with nn_core.atomic_open(path) as fh:
        fh.write(text)


def atomic_write_bytes(path: str, data: bytes) -> None:
    with nn_core.atomic_open(path, "wb") as fh:
        fh.write(data)


def atomic_write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path: str, parse=lambda doc: doc):
    """parse(the JSON document at path). A document that does not parse,
    or that parse finds lacking a key, raises ValueError naming path."""
    with open(path) as fh, nn_core.file_errors(path, "JSON"):
        return parse(json.load(fh))


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
    return {
        "fixture": fixture, "seed": seed, "n_flows": spec.n_flows,
        "pcap_bytes": len(pcap_bytes),
        "class_mix": {p.name: m for p, m in zip(spec.class_profiles, spec.class_mix)},
    }


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
    return {
        # relative to the out dir, so that a run's files do not name where it ran
        "pcap": os.path.relpath(pcap_path, cfg["out_dir"]),
        "truth_csv": os.path.relpath(truth_path, cfg["out_dir"]),
        "n_packets": len(parsed.packets), "n_skipped": parsed.n_skipped,
        "n_skipped_by_reason": parsed.n_skipped_by_reason,
        "n_truncated": parsed.n_truncated,
        "n_flows": len(labeled.flows), "n_dropped": labeled.n_dropped,
    }


def _load_flow_payload_matrix(cfg: dict) -> np.ndarray:
    """Every packet's n_p payload bytes, zero padded, as one uint8 matrix."""
    flows = packet_ingest.load_flows(artifact_path(cfg, "flows"))
    return packet_ingest.payload_matrix([pkt for flow in flows for pkt in flow.packets],
                                        cfg["features"]["n_p"])


def stage_train_ae(cfg: dict) -> dict:
    matrix = _load_flow_payload_matrix(cfg)
    bundle = payload_autoencoder.train_autoencoder(
        matrix, n_b=cfg["features"]["n_b"], h=cfg["features"]["h"],
        cfg=_train_cfg(cfg, "autoencoder"), sample_cap=cfg["sample_caps"]["ae_payloads"])
    payload_autoencoder.save_bundle(bundle, artifact_path(cfg, "autoencoder"))
    # the encoder weights past the training rows' live width never move
    live = bundle.live_input_width
    return {
        "n_payloads": int(matrix.shape[0]), "n_p": bundle.n_p, "n_b": bundle.n_b,
        "h": bundle.h, "final_train_mse": bundle.final_train_mse,
        "live_input_width": live,
        "n_encoder_weights_skipped": (bundle.n_p - live) * bundle.h,
    }


def stage_embed(cfg: dict) -> dict:
    flows = packet_ingest.load_flows(artifact_path(cfg, "flows"))
    bundle = payload_autoencoder.load_bundle(artifact_path(cfg, "autoencoder"))
    embedded = flow_embedder.encode_flows(bundle, flows, n_p=cfg["features"]["n_p"])
    codes, offsets = flow_embedder.stack_codes(embedded)
    rae_cfg = _train_cfg(cfg, "rae")
    pairs = flow_embedder.sample_training_pairs(
        codes, offsets, pair_cap=cfg["embed"]["pair_cap"], seed=rae_cfg.seed)
    rae = flow_embedder.train_rae(pairs, n_b=bundle.n_b, cfg=rae_cfg)
    flow_embedder.save_rae(rae, artifact_path(cfg, "rae"))
    flow_embedder.save_packet_codes(artifact_path(cfg, "packet_codes"), codes, offsets, embedded)
    return {
        "n_flows": len(embedded), "n_pairs": int(pairs.shape[0]),
        "final_recon_error": rae.final_recon_error,
    }


def _split_flows(cfg: dict) -> tuple:
    """The RAE and the stored flows on each side of split.json. Stale when
    the split names a flow the codes lack."""
    rae = flow_embedder.load_rae(artifact_path(cfg, "rae"))
    flows = flow_embedder.load_packet_codes(artifact_path(cfg, "packet_codes"))
    path = artifact_path(cfg, "split")
    sides = _load_json(path, lambda doc: (list(doc["train"]), list(doc["test"])))
    by_id = {f.flow_id: f for f in flows}
    unknown = [i for side in sides for i in side if i not in by_id]
    if unknown:
        raise StaleArtifactError(f"{path} names flow {unknown[0]!r}, which "
                                 f"{artifact_path(cfg, 'packet_codes')} does not hold; "
                                 "re-run `ride train-clf` and the stages after it")
    train, test = ([by_id[i] for i in side] for side in sides)
    return rae, train, test


def _fold(rae, flows: list, class_names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(x, ids): row j is flow j's joint embedding and ids[j] the id of its
    label in class_names. Each flow is folded alone: a batch fold may
    differ in the last bits (see fold_finals)."""
    index = {n: i for i, n in enumerate(class_names)}
    x = np.stack([flow_embedder.fold_prefixes(rae, f.embeddings)[-1] for f in flows])
    return x, np.array([index[f.label] for f in flows])


def stage_train_clf(cfg: dict) -> dict:
    rae = flow_embedder.load_rae(artifact_path(cfg, "rae"))
    flows = flow_embedder.load_packet_codes(artifact_path(cfg, "packet_codes"))
    labels = [f.label for f in flows]
    train, test = classifier.stratified_split(
        labels, test_fraction=cfg["classifier"]["test_fraction"], seed=cfg["seed"])
    if not test:  # stratified_split tests a class only from its second flow on
        per_class = {c: labels.count(c) for c in sorted(set(labels))}
        raise ValueError(f"the test split is empty: no class has 2 flows (flows per class: "
                         f"{per_class})")
    atomic_write_json(artifact_path(cfg, "split"),
                      {"train": [flows[i].flow_id for i in train],
                       "test": [flows[i].flow_id for i in test]})
    # stratified_split leaves every class a training flow, so these are
    # the trained model's class_names too
    class_names, _ = classifier.encode_labels(labels)
    x, y = _fold(rae, flows, class_names)
    model = classifier.train_classifier(x[train], [labels[i] for i in train],
                                        _train_cfg(cfg, "classifier"),
                                        hidden=cfg["classifier"]["hidden"])
    classifier.save_model(model, artifact_path(cfg, "classifier"))
    # deterministic metrics only (timing lives in the eval stage)
    y_pred = np.argmax(classifier.predict_proba(model, x[test]), axis=1)
    acc, f1, confusion = classifier.metrics_from_predictions(
        y[test], y_pred, model.k_classes)
    n_params = sum(l.w.size + l.b.size for l in model.net.layers)
    return {
        "classes": model.class_names, "n_train": len(train), "n_test": len(test),
        "test_accuracy": acc, "test_f1": f1, "confusion": confusion.tolist(),
        "n_parameters": int(n_params),
    }


# Teacher-labeled query flows per training flow in the distillation set.
QUERY_FLOWS_PER_TRAIN_FLOW = 20


def _test_split(cfg: dict, class_names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """_fold of split.json's test flows, in its order."""
    rae, _train, test = _split_flows(cfg)
    return _fold(rae, test, class_names)


def stage_distill(cfg: dict) -> dict:
    """Grow the student tree on teacher labels of two parts: the prefix
    points, every state of every training flow's fold, one per received
    packet, the last being the flow's embedding; and query states, random
    same-class packet sequences folded by the RAE
    (QUERY_FLOWS_PER_TRAIN_FLOW per training flow, seeded by cfg["seed"]).
    The queries let the tree follow the teacher's boundary between the
    training flows, which the prefix points alone leave too sparse to
    place axis-aligned splits on (query sampling, as in TREPAN and
    born-again trees). The first prefix of a flow is its first packet's
    raw payload code, which lies off the folded embeddings the teacher was
    trained on; measured, dropping those points made the tree no better."""
    model = classifier.load_model(artifact_path(cfg, "classifier"))
    rae, train, test = _split_flows(cfg)
    x_prefix = np.concatenate([flow_embedder.fold_prefixes(rae, f.embeddings) for f in train])
    pool, rows, offsets = flow_embedder.sample_query_flows(
        train, QUERY_FLOWS_PER_TRAIN_FLOW * len(train), seed=cfg["seed"])
    teacher_data = tree_distiller.generate_teacher_dataset(
        model, np.concatenate([x_prefix, flow_embedder.fold_finals(rae, pool, offsets, rows)]))
    tree = tree_distiller.cart_train(
        teacher_data.x, teacher_data.y_teacher,
        max_depth=cfg["tree"]["max_depth"],
        min_samples_leaf=cfg["tree"]["min_samples_leaf"],
        criterion=cfg["tree"]["criterion"],
        class_names=teacher_data.class_names)
    atomic_write_text(artifact_path(cfg, "tree"),
                      json.dumps(tree_distiller.tree_to_dict(tree)))
    atomic_write_text(artifact_path(cfg, "rules"), tree_distiller.rules_text(tree))
    # quantization ranges come from the prefix points only, not the queries
    ranges = hw_model.fit_quantization_ranges(tree, x_prefix)
    atomic_write_json(artifact_path(cfg, "ranges"),
                      {str(f): [lo, hi] for f, (lo, hi) in sorted(ranges.items())})
    x_test, y_true = _fold(rae, test, tree.class_names)
    y_pred = tree_distiller.tree_predict_batch(tree, x_test)
    acc, f1, _ = classifier.metrics_from_predictions(y_true, y_pred, tree.k)
    agrees = (tree_distiller.tree_predict_batch(tree, x_prefix)
              == teacher_data.y_teacher[:len(x_prefix)])
    return {
        "n_nodes": tree.n_nodes, "n_leaves": tree.n_leaves,
        "max_depth": tree.max_depth, "n_distill_samples": len(teacher_data.x),
        "n_query_points": len(offsets) - 1,
        "fidelity_train": float(np.mean(agrees)),
        "fidelity_test": tree_distiller.fidelity(tree, model, x_test),
        "test_accuracy": acc, "test_f1": f1,
    }


def _check_features(path: str, kind: str, tree, width: int) -> None:
    """Refuse, naming its file, a tree that splits on a feature at or past
    the width of the embeddings it is to walk."""
    bad = [i for i, f in enumerate(tree.feature) if f >= width]
    if bad:
        raise ValueError(f"bad {kind} file {path}: tree node {bad[0]} splits on feature "
                         f"{tree.feature[bad[0]]}, past the {width} embedding columns")


def stage_prune_sweep(cfg: dict) -> dict:
    tree = tree_distiller.load_tree(artifact_path(cfg, "tree"))
    x_test, y_true = _test_split(cfg, tree.class_names)
    _check_features(artifact_path(cfg, "tree"), "tree", tree, x_test.shape[1])
    walk = tree_distiller.tree_walk_batch(tree, x_test)
    rows = []
    # the column's distinct values are the pruning path's alphas
    for alpha in sorted(set(tree.collapse_alpha)):
        y_pred = tree_distiller.labels_at(tree, walk, alpha)
        acc, f1, _ = classifier.metrics_from_predictions(y_true, y_pred, tree.k)
        n_nodes, max_depth = tree_distiller.pruned_shape(tree, alpha)
        rows.append({"alpha": alpha, "n_nodes": n_nodes,
                     "n_leaves": (n_nodes + 1) // 2, "max_depth": max_depth,
                     "test_accuracy": acc, "test_f1": f1})
    lines = [",".join(rows[0])] + [",".join(repr(v) for v in r.values()) for r in rows]
    atomic_write_text(artifact_path(cfg, "prune_sweep"), "\n".join(lines) + "\n")
    return {"n_entries": len(rows)}  # the rows are prune_sweep.csv


def _load_ranges(cfg: dict) -> dict:
    """The quantization ranges the distill stage fitted."""
    return _load_json(artifact_path(cfg, "ranges"),
                      lambda doc: {int(f): (lo, hi) for f, (lo, hi) in doc.items()})


def stage_quantize(cfg: dict) -> dict:
    tree = tree_distiller.load_tree(artifact_path(cfg, "tree"))
    ranges = _load_ranges(cfg)
    beta = cfg["jshc"]["max_beta"]  # the top of the beta range the search refines over
    qtree = hw_model.quantize_tree(tree, beta, ranges)
    atomic_write_text(artifact_path(cfg, "qtree"),
                      json.dumps(hw_model.qtree_to_dict(qtree)))
    snap = [abs(q - t) for q, t, f in zip(qtree.tree.threshold, tree.threshold, tree.feature)
            if f >= 0]
    return {
        "beta": beta, "n_features_ranged": len(ranges),
        "max_snap_error": max(snap) if snap else 0.0,
    }


def _load_calibration(cfg: dict) -> hw_model.CostCalibration:
    path = cfg["paths"]["calibration"]
    return hw_model.load_calibration(None if path is None else _require(path))


def stage_cost(cfg: dict) -> dict:
    qtree = hw_model.load_qtree(artifact_path(cfg, "qtree"))
    calib = _load_calibration(cfg)
    cost = hw_model.cost_estimate(qtree, calib)
    feasible, violated = hw_model.check_constraint(
        cost, hw_model.ResourceBudget(**cfg["jshc"]["z_max"]))
    return {
        **dataclasses.asdict(cost),
        "feasible": feasible, "violated": violated,
    }


def stage_jshc(cfg: dict) -> dict:
    # the search starts from the very tree and ranges the distill stage wrote
    tree = tree_distiller.load_tree(artifact_path(cfg, "tree"))
    x_test, y_test = _test_split(cfg, tree.class_names)
    _check_features(artifact_path(cfg, "tree"), "tree", tree, x_test.shape[1])
    calib = _load_calibration(cfg)
    artifacts = jshc_optimizer.JshcArtifacts(
        eval_x=x_test, eval_y=y_test, calib=calib, tree=tree,
        quant_ranges=_load_ranges(cfg))
    jcfg = jshc_optimizer.JshcConfig(
        **{**cfg["jshc"], "z_max": hw_model.ResourceBudget(**cfg["jshc"]["z_max"])})
    result = jshc_optimizer.jshc_optimize(jcfg, artifacts)
    jshc_optimizer.sweep_to_csv(result.sweep_log, artifact_path(cfg, "sweep"))
    best_tree = tree_distiller.prune(tree, result.best_alpha)
    best_q = hw_model.quantize_tree(best_tree, result.best_beta, artifacts.quant_ranges)
    atomic_write_text(artifact_path(cfg, "qtree_best"),
                      json.dumps(hw_model.qtree_to_dict(best_q)))
    return {
        "best_alpha": result.best_alpha, "best_beta": result.best_beta,
        "best_accuracy": result.best_accuracy, "best_f1": result.best.f1,
        "best_n_nodes": result.best.n_nodes,
        "best_cost": dataclasses.asdict(result.best.cost),
        "n_grid_evals": len(result.sweep_log),
        "bisection_trace": [dataclasses.asdict(s) for s in result.bisection_trace],
    }


def stage_eval(cfg: dict) -> dict:
    model = classifier.load_model(artifact_path(cfg, "classifier"))
    tree = tree_distiller.load_tree(artifact_path(cfg, "tree"))
    qtree = hw_model.load_qtree(artifact_path(cfg, "qtree_best"))
    x_test, y_test = _test_split(cfg, model.class_names)
    _check_features(artifact_path(cfg, "tree"), "tree", tree, x_test.shape[1])
    _check_features(artifact_path(cfg, "qtree_best"), "quantized tree", qtree.tree,
                    x_test.shape[1])
    labels = [model.class_names[i] for i in y_test]
    # the winner's cost as jshc modeled it, so report rows agree with it
    modeled = _load_json(summary_path(cfg, "jshc"))["best_cost"]

    predictors = [("mlp_teacher", model), ("distilled_tree", tree),
                  ("quantized_tree", qtree)]
    metrics = {}
    timings = {}
    for name, predictor in predictors:
        report = classifier.evaluate(predictor, x_test, labels)
        metrics[name] = {
            "accuracy": report.accuracy, "f1": report.f1,
            "confusion": report.confusion.tolist(),
        }
        timings[name] = {
            "total_s": report.inference_time_s,
            "per_sample_s": report.inference_time_s / len(labels),
            "n_samples": len(labels),
        }
    timings["modeled_hardware"] = {
        "per_sample_s": modeled["inference_time_s"],
        "beta": modeled["beta"], "n_nodes": modeled["n_nodes"],
    }
    atomic_write_json(artifact_path(cfg, "timings"), timings)
    return {
        "n_test": len(labels), "metrics": metrics,
        "modeled_hardware_latency_s": modeled["inference_time_s"],
        "timings_file": ARTIFACTS["timings"],
    }


def stage_report(cfg: dict) -> dict:
    clf_summary = _load_json(summary_path(cfg, "train-clf"))
    distill_summary = _load_json(summary_path(cfg, "distill"))
    jshc_summary = _load_json(summary_path(cfg, "jshc"))
    eval_summary = _load_json(summary_path(cfg, "eval"))

    em = eval_summary["metrics"]
    # predictor: its size, the size's unit and its inference time
    predictors = {
        "mlp_teacher": (clf_summary["n_parameters"], "parameters", None),
        "distilled_tree": (distill_summary["n_nodes"], "nodes", None),
        "quantized_tree": (jshc_summary["best_n_nodes"], "nodes",
                           eval_summary["modeled_hardware_latency_s"]),
    }
    rows = [{"predictor": name, "f1": em[name]["f1"], "accuracy": em[name]["accuracy"],
             "size": size, "size_unit": unit, "inference_time_s": time_s}
            for name, (size, unit, time_s) in predictors.items()]
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
    return {"rows": len(rows)}


def _file(name: str) -> str:
    """The path in the out dir of an artifact or of a stage's summary."""
    return ARTIFACTS.get(name) or f"summaries/{name}.json"


# Each stage: its function, the artifacts it reads and those it writes. A
# name is an ARTIFACTS key, a stage, for the summary every stage writes,
# or calibration, the file paths.calibration names (see _PATH_KEYS).
# timings.json is left out, as its wall-clock times differ between runs.
_SPLIT_FLOWS = ("split", "rae", "packet_codes")
_STAGE_TABLE = {
    "synth": (stage_synth, (), ("pcap", "truth")),
    "ingest": (stage_ingest, ("pcap", "truth"), ("flows",)),
    "train-ae": (stage_train_ae, ("flows",), ("autoencoder",)),
    "embed": (stage_embed, ("flows", "autoencoder"), ("rae", "packet_codes")),
    "train-clf": (stage_train_clf, ("rae", "packet_codes"), ("split", "classifier")),
    "distill": (stage_distill, ("classifier", *_SPLIT_FLOWS), ("tree", "rules", "ranges")),
    "prune-sweep": (stage_prune_sweep, ("tree", *_SPLIT_FLOWS), ("prune_sweep",)),
    "quantize": (stage_quantize, ("tree", "ranges"), ("qtree",)),
    "cost": (stage_cost, ("qtree", "calibration"), ()),
    "jshc": (stage_jshc, ("tree", "ranges", "calibration", *_SPLIT_FLOWS),
             ("sweep", "qtree_best")),
    "eval": (stage_eval, ("classifier", "tree", "qtree_best", "jshc", *_SPLIT_FLOWS), ()),
    "report": (stage_report, ("train-clf", "distill", "jshc", "eval"),
               ("report_json", "report_md")),
}
STAGES = list(_STAGE_TABLE)
# A read that the paths.* key it maps to names outside the out dir, when
# set. Unset, pcap and truth are the out dir's files and calibration is
# the built-in table.
_PATH_KEYS = {"pcap": "pcap", "truth": "truth_csv", "calibration": "calibration"}
_WRITER = {_file(name): stage for stage, (_, _, writes) in _STAGE_TABLE.items()
           for name in (*writes, stage)}


def _check_inputs(cfg: dict, manifest: dict, reads: list[str]) -> None:
    """StaleArtifactError unless each file in reads has a record, and the
    records up from theirs list inputs that are unchanged, naming the
    earliest stage to re-run. An out-dir input is compared by its record (a
    file there is hashed once, when written); a paths.* file, keyed by its
    absolute path, is hashed again (once per check; a missing one counts
    as changed)."""
    stale = {}  # the stage that wrote a stale file -> [(that file, a changed input)]
    rehashed = {}
    todo = list(reads)
    for file in todo:  # the reads, then the recorded files they were built from
        if file not in manifest:
            raise StaleArtifactError(
                f"{os.path.join(cfg['out_dir'], file)} has no record in {ARTIFACTS['manifest']}; "
                f"re-run `ride {_WRITER[file]}` and the stages after it")
        for upstream, sha256 in manifest[file]["inputs"].items():
            if os.path.isabs(upstream):
                if upstream not in rehashed:
                    rehashed[upstream] = os.path.exists(upstream) and _sha256(upstream)
                now = rehashed[upstream]
            else:
                now = manifest.get(upstream, {}).get("sha256")
            if now != sha256:
                stale.setdefault(manifest[file]["stage"], []).append((file, upstream))
            if upstream in manifest and upstream not in todo:
                todo.append(upstream)
    if stale:
        stage = min(stale, key=STAGES.index)
        files, upstreams = ([os.path.join(cfg["out_dir"], f) for f in dict.fromkeys(side)]
                            for side in zip(*stale[stage]))
        raise StaleArtifactError(
            f"{' and '.join(files)} {'was' if len(files) == 1 else 'were'} built from another "
            f"version of {' and '.join(upstreams)}; re-run `ride {stage}` and the stages after it")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_stage(stage: str, cfg: dict) -> dict:
    """Run one stage and write the summary it returns to
    summaries/<stage>.json.

    manifest.json keeps, for each file a stage wrote in the out dir, its
    sha256, the stage and the sha256 of each file the stage read: one in
    the out dir by its path relative to it, one named by paths.* by its
    absolute path. Those must exist and pass _check_inputs first.
    """
    if stage not in _STAGE_TABLE:
        raise ConfigError(f"unknown stage {stage!r}; choose from {STAGES + ['all']}")
    func, names, writes = _STAGE_TABLE[stage]
    configured = {name: cfg["paths"][_PATH_KEYS[name]] for name in names if name in _PATH_KEYS}
    reads = [_file(name) for name in names if not configured.get(name) and name != "calibration"]
    for file in reads:
        _require(os.path.join(cfg["out_dir"], file))
    outside = {os.path.abspath(_require(path)) for path in configured.values() if path}
    path = artifact_path(cfg, "manifest")
    manifest = {} if not os.path.exists(path) else _load_json(path, lambda doc: {
        f: {k: r[k] for k in ("sha256", "stage", "inputs")} for f, r in doc.items()})
    _check_inputs(cfg, manifest, reads)
    inputs = {file: _sha256(file) for file in outside}  # the bytes the stage reads
    outputs = {file: os.path.join(cfg["out_dir"], file) for file in map(_file, (*writes, stage))}
    t0 = time.perf_counter()
    try:
        summary = func(cfg)
        atomic_write_json(summary_path(cfg, stage), summary)
    except BaseException:  # the files the stage changed lose their records
        atomic_write_json(path, {f: r for f, r in manifest.items() if f not in outputs or (
            os.path.exists(outputs[f]) and _sha256(outputs[f]) == r["sha256"])})
        raise
    # ru_maxrss is in KiB on Linux: the process's peak so far, not the stage's
    logger.info("stage %s finished in %.2fs, peak RSS so far %.1f MB", stage,
                time.perf_counter() - t0,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    inputs.update({file: manifest[file]["sha256"] for file in reads})
    for file, out in outputs.items():
        manifest[file] = {"sha256": _sha256(out), "stage": stage, "inputs": inputs}
    atomic_write_json(path, manifest)
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
    except (MissingArtifactError, StaleArtifactError) as exc:
        what = "stale" if isinstance(exc, StaleArtifactError) else "missing upstream"
        print(f"error: {what} artifact: {exc}", file=sys.stderr)
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
