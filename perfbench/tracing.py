"""Span recorder for the traced benchmark run, and the per-module metrics
derived from its spans.

Spans are recorded from outside the program: `instrument` replaces every
binding of each traced public function (including names other modules
imported with `from .x import f`) with a wrapper that opens a span, and
puts the originals back on exit. Nothing under `src/ride/` is edited.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time
import types
from collections import defaultdict

RIDE_MODULES = ("cli", "classifier", "flow_embedder", "hw_model", "jshc_optimizer",
                "nn_core", "packet_ingest", "payload_autoencoder", "synth_data",
                "tree_distiller")

# module -> public functions wrapped at every binding in every ride module
TRACED_FUNCTIONS = {
    "cli": ["run_stage"],
    "packet_ingest": ["parse_pcap", "group_flows", "load_flows", "extract_payload_vector"],
    "payload_autoencoder": ["train_autoencoder", "reconstruction_error", "encode_matrix",
                            "load_bundle"],
    "nn_core": ["train", "forward"],
    "flow_embedder": ["encode_flows", "prefix_embeddings", "train_rae", "embed_flow",
                      "combine_pair", "load_rae", "flow_embeddings_from_csv"],
    "classifier": ["train_classifier", "predict_proba", "evaluate"],
    "tree_distiller": ["cart_train", "pruning_path", "tree_predict_batch",
                       "generate_teacher_dataset", "tree_to_dict", "tree_from_dict"],
    "hw_model": ["quantize_tree", "fit_quantization_ranges", "load_qtree"],
    "jshc_optimizer": ["grid_sweep", "bisect_beta", "evaluate_config"],
    "synth_data": ["generate"],
}
# (module, class, method) wrapped on the class itself
TRACED_METHODS = [("hw_model", "QuantizedTree", "predict_label")]
# spans named after an argument rather than the function
SPAN_NAMES = {"cli.run_stage": lambda args, kwargs: f"cli.stage.{args[0]}"}

NETS = {"payload_autoencoder.train_autoencoder": "ae", "flow_embedder.train_rae": "rae",
        "classifier.train_classifier": "clf"}
FLOAT_BYTES = 8
# an Adam step reads w, grad, m, v and writes w, m, v: 7 float64 arrays per parameter
ADAM_ARRAYS_TOUCHED = 7


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "attrs")

    def __init__(self, name, parent, run_id):
        self.name, self.start, self.end = name, 0.0, 0.0
        self.parent, self.run_id, self.attrs = parent, run_id, None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps every span in memory; `dump` writes them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = ""

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children (spans of one
        thread nest, so children never overlap each other)."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def dump(self, path: str) -> None:
        selfs = self.self_times()
        summary = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s, self_s in zip(self.spans, selfs):
            row = summary[s.name]
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += self_s
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "run_id"],
                "spans": [[s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans],
                "summary": dict(sorted(summary.items())),
            }, fh)


# ------------------------------------------------------------ attributes
# Each observer turns a call's arguments and result into span attributes.

def _rows(x) -> int:
    return 1 if x.ndim == 1 else int(x.shape[0])


def _observe_parse(args, kwargs, result):
    return {"packets": len(result.packets), "skipped": result.n_skipped}


def _observe_train(args, kwargs, result):
    net, x, cfg = args[0], args[1], args[4] if len(args) > 4 else kwargs["cfg"]
    return {"n": _rows(x), "epochs": cfg.epochs, "batch": cfg.batch_size,
            "params": sum(l.w.size + l.b.size for l in net.layers)}


def _observe_evaluate(args, kwargs, result):
    predictor, embeddings = args[0], args[1]
    kind = {"ClassifierModel": "teacher", "DecisionTree": "tree",
            "QuantizedTree": "qtree"}[type(predictor).__name__]
    return {"predictor": kind, "per_sample_s": result.inference_time_s / len(embeddings)}


def _observe_evaluate_config(args, kwargs, result):
    artifacts = args[2] if len(args) > 2 else kwargs["artifacts"]
    return {"key": (id(artifacts), float(args[0]), int(args[1]))}


OBSERVERS = {
    "packet_ingest.parse_pcap": _observe_parse,
    "nn_core.train": _observe_train,
    "payload_autoencoder.encode_matrix": lambda a, k, r: {"rows": _rows(r)},
    "classifier.predict_proba": lambda a, k, r: {"rows": _rows(r)},
    "tree_distiller.tree_predict_batch": lambda a, k, r: {"rows": _rows(r)},
    "tree_distiller.cart_train": lambda a, k, r: {"nodes": r.n_nodes},
    "tree_distiller.pruning_path": lambda a, k, r: {"entries": len(r.entries)},
    "classifier.evaluate": _observe_evaluate,
    "jshc_optimizer.evaluate_config": _observe_evaluate_config,
}


def _wrap(recorder: SpanRecorder, name: str, fn):
    observe = OBSERVERS.get(name)
    span_name = SPAN_NAMES.get(name, lambda args, kwargs: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(span_name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if observe is not None:
            span.attrs = observe(args, kwargs, result)
        return result
    return wrapper


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap the traced functions at every binding; restore on exit."""
    modules = [importlib.import_module(f"ride.{m}") for m in RIDE_MODULES]
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    wrappers = {}
    for mod, names in TRACED_FUNCTIONS.items():
        for fname in names:
            fn = getattr(by_name[mod], fname)
            wrappers[fn] = _wrap(recorder, f"{mod}.{fname}", fn)
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
                undo.append((module, attr, value))
    for mod, cls_name, meth in TRACED_METHODS:
        cls = getattr(by_name[mod], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, _wrap(recorder, f"{mod}.{meth}", original))
        undo.append((cls, meth, original))
    try:
        yield recorder
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# --------------------------------------------------------------- metrics

def per_module_metrics(recorder: SpanRecorder) -> dict[str, tuple[float, str]]:
    """Aggregate spans into the per-module metrics, name -> (value, unit).

    `.s` metrics are inclusive span time; units ending in `_calc` mark
    values computed from shapes and parameter counts, not measured.
    """
    spans = recorder.spans
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    def enclosing(span, names):
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name in names:
                return span.name
        return None

    m: dict[str, tuple[float, str]] = {}
    cli = importlib.import_module("ride.cli")
    for stage in cli.STAGES:
        m[f"cli.stage.{stage}.s"] = (total(f"cli.stage.{stage}"), "s")

    m["packet_ingest.parse_pcap.s"] = (total("packet_ingest.parse_pcap"), "s")
    m["packet_ingest.group_flows.s"] = (total("packet_ingest.group_flows"), "s")
    m["packet_ingest.packets"] = (attr_sum("packet_ingest.parse_pcap", "packets"), "count")
    m["packet_ingest.skipped"] = (attr_sum("packet_ingest.parse_pcap", "skipped"), "count")
    m["packet_ingest.load_flows.s"] = (total("packet_ingest.load_flows"), "s")
    m["packet_ingest.load_flows.calls"] = (calls("packet_ingest.load_flows"), "count")

    pa = "payload_autoencoder"
    m[f"{pa}.train_autoencoder.s"] = (total(f"{pa}.train_autoencoder"), "s")
    m[f"{pa}.reconstruction_error.s"] = (total(f"{pa}.reconstruction_error"), "s")
    m[f"{pa}.encode_matrix.s"] = (total(f"{pa}.encode_matrix"), "s")
    m[f"{pa}.encode_matrix.calls"] = (calls(f"{pa}.encode_matrix"), "count")
    m[f"{pa}.encode_matrix.rows"] = (attr_sum(f"{pa}.encode_matrix", "rows"), "count")
    m[f"{pa}.load_bundle.s"] = (total(f"{pa}.load_bundle"), "s")
    m[f"{pa}.load_bundle.calls"] = (calls(f"{pa}.load_bundle"), "count")

    train_s, history_s = defaultdict(float), defaultdict(float)
    steps, params = defaultdict(int), {}
    for s in by_name["nn_core.train"]:
        net = NETS[enclosing(s, NETS)]
        train_s[net] += s.duration
        steps[net] += s.attrs["epochs"] * math.ceil(s.attrs["n"] / s.attrs["batch"])
        params[net] = s.attrs["params"]
        if net == "ae":
            samples_ae = s.attrs["epochs"] * s.attrs["n"]
    for s in by_name["nn_core.forward"]:
        if s.parent >= 0 and spans[s.parent].name == "nn_core.train":
            history_s[NETS[enclosing(spans[s.parent], NETS)]] += s.duration
    for net in ("ae", "rae", "clf"):
        p = f"nn_core.train.{net}"
        m[f"{p}.s"] = (train_s[net], "s")
        m[f"{p}.steps"] = (steps[net], "count_calc")
        m[f"{p}.step_ms"] = (1e3 * train_s[net] / steps[net], "ms")
        m[f"{p}.history_s"] = (history_s[net], "s")
        m[f"{p}.history_share"] = (history_s[net] / train_s[net], "ratio")
        m[f"{p}.params"] = (params[net], "count_calc")
        m[f"{p}.adam_mb_per_step"] = (
            params[net] * FLOAT_BYTES * ADAM_ARRAYS_TOUCHED / 1e6, "MB_calc")
    # forward + backward is ~6 flops per parameter per sample
    gflop = 6 * params["ae"] * samples_ae / 1e9
    m["nn_core.train.ae.gflop"] = (gflop, "GFLOP_calc")
    m["nn_core.train.ae.gflops_per_s"] = (gflop / train_s["ae"], "GFLOP/s_calc")
    m["nn_core.forward.calls"] = (calls("nn_core.forward"), "count")
    m["nn_core.forward.s"] = (total("nn_core.forward"), "s")

    fe = "flow_embedder"
    for fn in ("encode_flows", "prefix_embeddings", "flow_embeddings_from_csv"):
        m[f"{fe}.{fn}.s"] = (total(f"{fe}.{fn}"), "s")
        m[f"{fe}.{fn}.calls"] = (calls(f"{fe}.{fn}"), "count")
    for fn in ("train_rae", "embed_flow", "load_rae"):
        m[f"{fe}.{fn}.s"] = (total(f"{fe}.{fn}"), "s")
    m[f"{fe}.combine_pair.calls"] = (calls(f"{fe}.combine_pair"), "count")

    m["classifier.train_classifier.s"] = (total("classifier.train_classifier"), "s")
    m["classifier.predict_proba.s"] = (total("classifier.predict_proba"), "s")
    m["classifier.predict_proba.rows"] = (attr_sum("classifier.predict_proba", "rows"), "count")
    per_sample = defaultdict(list)
    for s in by_name["classifier.evaluate"]:
        per_sample[s.attrs["predictor"]].append(s.attrs["per_sample_s"])
    for kind in ("teacher", "tree", "qtree"):
        m[f"classifier.evaluate.{kind}.per_sample_us"] = (
            1e6 * sum(per_sample[kind]) / len(per_sample[kind]), "us")

    td = "tree_distiller"
    for fn in ("cart_train", "pruning_path"):
        m[f"{td}.{fn}.s"] = (total(f"{td}.{fn}"), "s")
        m[f"{td}.{fn}.calls"] = (calls(f"{td}.{fn}"), "count")
    m[f"{td}.tree_predict_batch.s"] = (total(f"{td}.tree_predict_batch"), "s")
    m[f"{td}.tree_predict_batch.rows"] = (attr_sum(f"{td}.tree_predict_batch", "rows"), "count")
    m[f"{td}.generate_teacher_dataset.s"] = (total(f"{td}.generate_teacher_dataset"), "s")
    m[f"{td}.tree_nodes"] = (max(s.attrs["nodes"] for s in by_name[f"{td}.cart_train"]), "count")
    m[f"{td}.path_entries"] = (
        max(s.attrs["entries"] for s in by_name[f"{td}.pruning_path"]), "count")

    m["hw_model.quantize_tree.s"] = (total("hw_model.quantize_tree"), "s")
    m["hw_model.quantize_tree.calls"] = (calls("hw_model.quantize_tree"), "count")
    m["hw_model.fit_quantization_ranges.calls"] = (
        calls("hw_model.fit_quantization_ranges"), "count")
    m["hw_model.predict_label.us"] = (
        1e6 * total("hw_model.predict_label") / calls("hw_model.predict_label"), "us")
    m["hw_model.load_qtree.s"] = (total("hw_model.load_qtree"), "s")

    jo = "jshc_optimizer"
    m[f"{jo}.grid_sweep.s"] = (total(f"{jo}.grid_sweep"), "s")
    m[f"{jo}.bisect_beta.s"] = (total(f"{jo}.bisect_beta"), "s")
    seen, cell_s = set(), 0.0
    for s in by_name[f"{jo}.evaluate_config"]:
        if s.attrs["key"] not in seen:
            seen.add(s.attrs["key"])
            cell_s += s.duration
    n_calls = calls(f"{jo}.evaluate_config")
    m[f"{jo}.evaluate_config.calls"] = (n_calls, "count")
    m[f"{jo}.evaluate_config.cells"] = (len(seen), "count")
    m[f"{jo}.cache_hit_frac"] = ((n_calls - len(seen)) / n_calls, "ratio")
    m[f"{jo}.cell_ms"] = (1e3 * cell_s / len(seen), "ms")

    m["synth_data.generate.s"] = (total("synth_data.generate"), "s")
    return m
