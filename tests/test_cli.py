"""CLI orchestrator: config handling, stage wiring, exit codes, artifacts."""
import csv
import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ride import (classifier, cli, flow_embedder, hw_model, jshc_optimizer, nn_core,
                  packet_ingest, payload_autoencoder, synth_data, tree_distiller)


# ---------------------------------------------------------------- config

def test_default_config_satisfies_its_own_schema():
    jsonschema.validate(cli.default_config(), cli.CONFIG_SCHEMA)
    cli._validate(cli.default_config(), cli.CONFIG_SCHEMA, ())


def _subschemas(schema, path=()):
    """(path, schema) of every node of a schema; an array's items sit at index 0."""
    yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from _subschemas(sub, path + (key,))
    if "items" in schema:
        yield from _subschemas(schema["items"], path + (0,))


def test_config_schema_uses_only_the_keywords_the_check_handles():
    handled = {"type", "properties", "additionalProperties", "enum", "items", "minItems",
               "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"}
    for _, schema in _subschemas(cli.CONFIG_SCHEMA):
        assert set(schema) <= handled, schema
        assert schema.get("additionalProperties", False) is False
        types = schema.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(cli._TYPES)


def test_load_config_none_gives_defaults():
    assert cli.load_config(None) == cli.default_config()


def test_default_config_returns_new_dicts_at_each_call():
    before = json.dumps(cli.default_config())
    stack = [cli.default_config()]
    while stack:
        section = stack.pop()
        stack += [value for value in section.values() if isinstance(value, dict)]
        section["added"] = 1
        section.pop("seed", None)
    assert json.dumps(cli.default_config()) == before


def test_the_readme_config_example_passes_the_config_check():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        examples = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    assert examples
    for text in examples:
        cli._validate(json.loads(text), cli.CONFIG_SCHEMA, ())


def test_load_config_deep_merges_and_flag_overrides(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"train": {"rae": {"epochs": 3}},
                             "features": {"n_b": 16}}))
    cfg = cli.load_config(str(p), seed=99, out_dir="/somewhere")
    assert cfg["train"]["rae"]["epochs"] == 3
    assert cfg["train"]["rae"]["learning_rate"] == 1e-3  # untouched sibling
    assert cfg["train"]["autoencoder"]["epochs"] == 20   # untouched section
    assert cfg["features"]["n_b"] == 16
    assert cfg["seed"] == 99 and cfg["out_dir"] == "/somewhere"


def test_load_config_rejects_bad_input(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(missing))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(bad_json))
    unknown_key = tmp_path / "unk.json"
    unknown_key.write_text(json.dumps({"unknown_top": 1}))
    with pytest.raises(cli.ConfigError, match="unknown_top"):
        cli.load_config(str(unknown_key))
    bad_enum = tmp_path / "enum.json"
    bad_enum.write_text(json.dumps({"synth": {"fixture": "weird"}}))
    with pytest.raises(cli.ConfigError, match="synth/fixture"):
        cli.load_config(str(bad_enum))
    beta_cross = tmp_path / "beta.json"
    beta_cross.write_text(json.dumps({"jshc": {"min_beta": 9, "max_beta": 2}}))
    with pytest.raises(cli.ConfigError, match="min_beta"):
        cli.load_config(str(beta_cross))


def test_removed_config_knobs_exit_3_and_name_their_section(tmp_path, capsys):
    """A config naming a fold order, a sample cap, a training or search
    knob or a section the program does not have is refused, not silently
    ignored."""
    for name, section, where in (
            ("order", {"embed": {"order": "greedy_min"}}, "embed/order"),
            ("caps", {"sample_caps": {"rae_pairs": 5000}}, "sample_caps"),
            ("optimizer", {"train": {"rae": {"optimizer": "sgd"}}}, "train/rae"),
            ("init", {"train": {"classifier": {"weight_init_scale": 0.5}}},
             "train/classifier"),
            ("seed", {"train": {"rae": {"seed": 3}}}, "train/rae"),
            ("tol", {"jshc": {"tol": 0.5}}, "jshc"),
            ("max_iter", {"jshc": {"max_iter": 20}}, "jshc"),
            ("quantize", {"quantize": {"beta": 11}}, "<root>")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(section))
        assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
        assert f"config invalid at {where}:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("text, where", [
    ('{"train": {"autoencoder": {"epochs": 1.0}}}', "train/autoencoder/epochs"),
    ('{"embed": {"pair_cap": 100.0}}', "embed/pair_cap"),
    ('{"jshc": {"max_beta": 4.0}}', "jshc/max_beta"),
    ('{"train": {"rae": {"learning_rate": NaN}}}', "train/rae/learning_rate"),
    ('{"jshc": {"z_max": {"max_power_mw": NaN}}}', "jshc/z_max/max_power_mw"),
    ('{"classifier": {"test_fraction": NaN}}', "classifier/test_fraction"),
    ('{"jshc": {"alpha_set": [Infinity]}}', "jshc/alpha_set/0"),
])
def test_integral_floats_and_non_finite_numbers_exit_3(tmp_path, capsys, text, where):
    """An integer key takes only a JSON integer and a number key only a
    finite number, though JSON Schema's integer takes 1.0 and Python's json
    reads NaN and Infinity."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
    assert f"config invalid at {where}:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_an_empty_alpha_or_beta_set_exits_3_before_any_stage_runs(tmp_path, capsys):
    for key in ("alpha_set", "beta_set"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"jshc": {key: []}}))
        assert cli.main(["all", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
        assert f"config invalid at jshc/{key}:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("jshc", [{"max_beta": 17}, {"min_beta": 17}, {"beta_set": [4, 20]}])
def test_a_jshc_bit_width_beyond_the_calibration_exits_3_before_any_stage_runs(
        tmp_path, capsys, jshc):
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"jshc": jshc}))
    assert cli.main(["all", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
    assert f"greater than the maximum of {hw_model.BETA_MAX}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


# The reference: jsonschema accepts a document exactly when _validate does,
# apart from integral floats at integer keys and NaN or +-Infinity anywhere,
# which only _validate refuses. When both refuse, _validate names a path
# that jsonschema names too, or one that holds such a float.
_REFERENCE = jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA)
_STRAYS = [None, True, False, "x", "", [], {}, 0, 1, -1, 0.5, 1.0, 2.0,
           float("nan"), float("inf"), float("-inf"), 10**20]


def _candidates(schema):
    """Strays of every type, numbers on, just inside and just outside each
    bound (as ints and floats), enum values and bad enum strings, and for
    an object an unknown key."""
    values = [b + d for key in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
              if key in schema for b in [schema[key]] for d in (-1, -0.5, 0, 0.5, 1)]
    values += [float(v) for v in values] + schema.get("enum", []) + ["weird", "ADAM"]
    return _STRAYS + values + [{"unknown": 1}, {"Seed": None}]


def _assert_check_agrees(document):
    reference_paths = {"/".join(map(str, e.absolute_path)) or "<root>"
                       for e in _REFERENCE.iter_errors(document)}
    try:
        cli._validate(document, cli.CONFIG_SCHEMA, ())
    except cli.ConfigError as exc:
        where = re.fullmatch(r"config invalid at (.*?): .*", str(exc), re.S).group(1)
        value = document
        for part in ([] if where == "<root>" else where.split("/")):
            value = value[int(part) if isinstance(value, list) else part]
        refused_only_by_the_check = type(value) is float and (
            value.is_integer() or not math.isfinite(value))
        assert where in reference_paths or refused_only_by_the_check, (where, document)
    else:
        assert not reference_paths, document


def test_config_check_agrees_with_jsonschema_on_every_candidate_at_every_key():
    for path, schema in _subschemas(cli.CONFIG_SCHEMA):
        for value in _candidates(schema):
            for part in reversed(path):
                value = [value] if part == 0 else {part: value}
            _assert_check_agrees(value)


def _one_in(n, rare, common):
    # a middle index: hypothesis favours the ends of an integer range
    return st.sampled_from(range(n)).flatmap(lambda i: rare if i == n // 2 else common)


def _config_values(schema):
    """Documents for one schema node, mostly of the right shape, with
    candidate values, unknown keys and strays at every level."""
    strays = st.sampled_from(_STRAYS)
    if "properties" in schema:
        known = st.fixed_dictionaries({}, optional={
            key: _config_values(sub) for key, sub in schema["properties"].items()})
        unknown = st.dictionaries(st.sampled_from(["unknown", "seed_", "Epochs"]), strays,
                                  min_size=1, max_size=1)
        document = st.builds(lambda a, b: {**a, **b}, known, _one_in(6, unknown, st.just({})))
        return _one_in(8, strays, document)
    options = [st.sampled_from(_candidates(schema)), st.integers(-3, 20), st.floats()]
    if "items" in schema:
        options.append(st.lists(_config_values(schema["items"]), max_size=3))
    if "string" in schema.get("type", ()):
        options.append(st.text(max_size=5))
    return _one_in(4, strays, st.one_of(options))


@settings(max_examples=200)
@given(document=_config_values(cli.CONFIG_SCHEMA))
def test_config_check_agrees_with_jsonschema(document):
    _assert_check_agrees(document)


def test_importing_ride_and_loading_a_config_does_not_import_jsonschema(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {"rae": {"epochs": 3}}, "jshc": {"alpha_set": [0.5]}}))
    modules = ("cli", "classifier", "flow_embedder", "hw_model", "jshc_optimizer", "nn_core",
               "packet_ingest", "payload_autoencoder", "synth_data", "tree_distiller")
    code = (f"import sys\nfrom ride import {', '.join(modules)}\n"
            f"cli.load_config({str(config)!r})\n"
            "print('jsonschema' in sys.modules, 'subprocess' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False False"  # nor subprocess: no compiler is started


def test_deep_merge_replaces_scalars_and_recurses():
    base = {"a": {"b": 1, "c": 2}, "d": 3}
    out = cli._deep_merge(base, {"a": {"c": 9}, "d": 4, "e": 5})
    assert out == {"a": {"b": 1, "c": 9}, "d": 4, "e": 5}
    assert base["a"]["c"] == 2  # input untouched


def test_artifact_and_summary_paths():
    cfg = {"out_dir": "/x"}
    assert cli.artifact_path(cfg, "tree") == "/x/tree.json"
    assert cli.summary_path(cfg, "distill") == "/x/summaries/distill.json"


def test_atomic_writers(tmp_path):
    path = tmp_path / "deep" / "doc.json"
    cli.atomic_write_json(str(path), {"b": 1, "a": [1, 2]})
    text = path.read_text()
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert not os.path.exists(str(path) + ".tmp")
    cli.atomic_write_bytes(str(tmp_path / "blob.bin"), b"\x00\x01")
    assert (tmp_path / "blob.bin").read_bytes() == b"\x00\x01"


class _Unwritable:
    def __array__(self, *args, **kwargs):
        raise OSError("disk full")


_CELL = jshc_optimizer.ConfigEval(
    alpha=0.0, beta=4, accuracy=1.0, f1=1.0, feasible=True, n_nodes=3,
    cost=hw_model.HardwareCost(power_mw=1.0, area_units=2.0, inference_time_s=3e-5,
                               n_nodes=3, beta=4))

# writer(path, fail): a whole write, or one that raises partway when fail
_WRITERS = {
    "atomic_write_text": lambda path, fail: cli.atomic_write_text(
        path, "new \ud800" if fail else "old"),
    "atomic_write_bytes": lambda path, fail: cli.atomic_write_bytes(
        path, "not bytes" if fail else b"old"),
    "save_artifact": lambda path, fail: nn_core.save_artifact(
        path, {}, arrays={"a": np.zeros(2), **({"b": _Unwritable()} if fail else {})}),
    "save_flows": lambda path, fail: packet_ingest.save_flows(
        [packet_ingest.FlowRecord("a", [], "benign")] + [None] * fail, path),
    "sweep_to_csv": lambda path, fail: jshc_optimizer.sweep_to_csv(
        [_CELL, None if fail else _CELL], path),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_write_that_raises_partway_leaves_the_old_file_and_no_temp_file(tmp_path, writer):
    path = str(tmp_path / "artifact")
    _WRITERS[writer](path, False)
    with open(path, "rb") as fh:
        old = fh.read()
    with pytest.raises((AttributeError, OSError, TypeError, ValueError)):
        _WRITERS[writer](path, True)
    with open(path, "rb") as fh:
        assert fh.read() == old
    assert os.listdir(tmp_path) == ["artifact"]


def test_run_stage_rejects_unknown(tmp_path):
    cfg = cli.load_config(None, out_dir=str(tmp_path))
    with pytest.raises(cli.ConfigError):
        cli.run_stage("nonsense", cfg)


# ------------------------------------------------------------ exit codes

def test_main_exit_codes(tmp_path):
    out = str(tmp_path / "run")
    # missing upstream artifact: ingest before synth
    assert cli.main(["ingest", "--out", out]) == 2
    # bad config file path
    assert cli.main(["synth", "--config", str(tmp_path / "ghost.json")]) == 3
    # invalid stage name is an argparse error
    with pytest.raises(SystemExit):
        cli.main(["not-a-stage"])
    # happy path: synth alone succeeds and writes its artifacts
    assert cli.main(["synth", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "capture.pcap"))
    assert os.path.exists(os.path.join(out, "truth.csv"))
    assert os.path.exists(os.path.join(out, "summaries", "synth.json"))


def test_ingest_fails_loudly_without_two_classes(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["synth", "--out", out]) == 0
    header, *rows = open(os.path.join(out, "truth.csv")).read().splitlines()
    label = header.split(",").index("label")
    first = rows[0].split(",")[label]
    cases = {"header_only": ([], r"no labelled flow.*classes seen: \[\]"),
             "one_class": ([r for r in rows if r.split(",")[label] == first],
                           rf"one class only.*classes seen: \['{first}'\]")}
    for name, (kept, message) in cases.items():
        truth = tmp_path / f"{name}.csv"
        truth.write_text("\n".join([header] + kept) + "\n")
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"paths": {
            "pcap": os.path.join(out, "capture.pcap"), "truth_csv": str(truth)}}))
        assert cli.main(["ingest", "--config", str(config), "--out", out]) == 4
        cfg = cli.load_config(str(config), out_dir=out)
        with pytest.raises(ValueError, match=message) as err:
            cli.run_stage("ingest", cfg)
        for count in ("n_packets=", "n_skipped=", "n_dropped="):
            assert count in str(err.value)
        assert not os.path.exists(cli.artifact_path(cfg, "flows"))


_TRUTH_HEADER = b"src_ip,dst_ip,src_port,dst_port,protocol,label\n"


@pytest.mark.parametrize("rows, cause", [
    (b"10.0.0.1,10.0.0.2,1234,80,TCP,benign\n\xff\xfe\n", "'utf-8' codec can't decode"),
    (b"10.0.0.1,10.0.0.2,notaport,80,TCP,benign\n",
     "line 2: src_port 'notaport' is not an integer"),
    (b"10.0.0.1,10.0.0.2,1234,80,TCP,benign\n10.0.0.1,10.0.0.2,1234\n",
     "line 3: no value for dst_port, protocol, label"),
    (b"10.0.0.1,10.0.0.2,1234,80,TPC,benign\n",
     "line 2: protocol 'TPC' is not TCP, UDP or an integer in 0-255"),
    (b"10.0.0.1,10.0.0.2,1234,80,UDP,benign\n10.0.0.1,10.0.0.2,1234,80,300,benign\n",
     "line 3: protocol '300' is not TCP, UDP or an integer in 0-255"),
    (b"10.0.0.1,10.0.0.2,1234,70000,TCP,benign\n",
     "line 2: dst_port '70000' is not an integer in 0-65535"),
], ids=["not_utf8", "port_not_an_integer", "short_row", "protocol_typo", "protocol_300",
        "port_70000"])
def test_a_bad_truth_file_exits_4_and_names_it(tmp_path, capsys, rows, cause):
    out = str(tmp_path / "run")
    assert cli.main(["synth", "--out", out]) == 0
    truth = tmp_path / "bad_truth.csv"
    truth.write_bytes(_TRUTH_HEADER + rows)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"paths": {
        "pcap": os.path.join(out, "capture.pcap"), "truth_csv": str(truth)}}))
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(config), "--out", out]) == 4
    err = capsys.readouterr().err
    assert f"bad truth file {truth}: " in err and cause in err
    assert not os.path.exists(os.path.join(out, cli.ARTIFACTS["flows"]))


def test_a_capture_with_no_class_of_two_flows_exits_4_before_writing_the_split(
        tmp_path, capsys):
    """A class of one flow stays whole in train, so with one flow per
    class the test split is empty."""
    out = str(tmp_path / "run")
    assert cli.main(["synth", "--out", out]) == 0
    header, *rows = open(os.path.join(out, "truth.csv")).read().splitlines()
    label = header.split(",").index("label")
    first_of = {}
    for row in rows:
        first_of.setdefault(row.split(",")[label], row)
    truth = tmp_path / "two_flows.csv"
    truth.write_text("\n".join([header, *first_of.values()]) + "\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "paths": {"pcap": os.path.join(out, "capture.pcap"), "truth_csv": str(truth)},
        "features": {"n_p": 64, "n_b": 8, "h": 16},
        "train": {net: {"epochs": 0} for net in ("autoencoder", "rae", "classifier")}}))
    capsys.readouterr()
    assert cli.main(["all", "--config", str(config), "--out", out]) == 4
    err = capsys.readouterr().err
    assert "the test split is empty" in err
    assert "flows per class: {'attack': 1, 'benign': 1}" in err
    assert not os.path.exists(os.path.join(out, cli.ARTIFACTS["split"]))


def test_ingest_summary_names_its_inputs_relative_to_the_out_dir(tmp_path):
    outs = [str(tmp_path / "a"), str(tmp_path / "deeper" / "b")]
    for out in outs:
        assert cli.main(["synth", "--out", out]) == 0
        assert cli.main(["ingest", "--out", out]) == 0
    a, b = (open(os.path.join(out, "summaries", "ingest.json"), "rb").read() for out in outs)
    assert a == b
    summary = json.loads(a)
    assert (summary["pcap"], summary["truth_csv"]) == ("capture.pcap", "truth.csv")
    # a capture outside the out dir is named by its path from there
    config = tmp_path / "external.json"
    config.write_text(json.dumps({"paths": {
        "pcap": os.path.join(outs[0], "capture.pcap"),
        "truth_csv": os.path.join(outs[0], "truth.csv")}}))
    out = str(tmp_path / "c")
    assert cli.main(["ingest", "--config", str(config), "--out", out]) == 0
    with open(os.path.join(out, "summaries", "ingest.json")) as fh:
        summary = json.load(fh)
    assert summary["pcap"] == os.path.join("..", "a", "capture.pcap")
    assert os.path.samefile(os.path.join(out, summary["truth_csv"]),
                            os.path.join(outs[0], "truth.csv"))


# --------------------------------------------------- fast full pipeline

def _fast_config(tmp_path, name):
    """Epochs-0 pipeline: exercises every stage's wiring in seconds."""
    cfg = cli.load_config(None, out_dir=str(tmp_path / name))
    cfg["features"].update({"n_b": 8, "h": 32})
    for section in cfg["train"].values():
        section["epochs"] = 0
    cfg["embed"]["pair_cap"] = 500
    return cfg


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_fast")
    cfg = _fast_config(tmp, "run")
    cli.run_all(cfg)
    return cfg


def test_run_all_writes_every_artifact(fast_run):
    for name in cli.ARTIFACTS:
        assert os.path.exists(cli.artifact_path(fast_run, name)), name
    for stage in cli.STAGES:
        assert os.path.exists(cli.summary_path(fast_run, stage)), stage
    # and nothing else: no temp file left behind, and no flow embeddings,
    # which every stage folds from packet_codes.npz
    out = fast_run["out_dir"]
    assert sorted(os.listdir(out)) == sorted(
        {path.split("/")[0] for path in cli.ARTIFACTS.values()} | {"summaries"})
    assert "flow_embeddings.csv" not in os.listdir(out)
    assert sorted(os.listdir(os.path.join(out, "summaries"))) == sorted(
        f"{stage}.json" for stage in cli.STAGES)
    # every field of both sweep tables is a plain number
    for name in ("prune_sweep", "sweep"):
        with open(cli.artifact_path(fast_run, name), newline="") as fh:
            _header, *rows = csv.reader(fh)
        assert rows, name
        for row in rows:
            for field in row:
                float(field)


def test_scoring_one_flow_at_a_time_gives_the_batch_labels(fast_run):
    """The deployed cascade on held-out flows, one at a time: encode_flows
    of the flow alone, embed_flow, then the JSHC winner's predict_label.
    Each label equals tree_predict_batch's on the stacked embeddings of one
    encode_flows call over every flow. The capture is fresh, and its
    attack payloads run to 1,400 bytes, so flows end in the first
    256-column chunk, the last and some between."""
    n_p = fast_run["features"]["n_p"]
    bundle = payload_autoencoder.load_bundle(cli.artifact_path(fast_run, "autoencoder"))
    rae = flow_embedder.load_rae(cli.artifact_path(fast_run, "rae"))
    qtree = hw_model.load_qtree(cli.artifact_path(fast_run, "qtree_best"))
    spec = synth_data.default_fixture(seed=fast_run["seed"] + 1000)
    benign, attack = spec.class_profiles
    spec = dataclasses.replace(spec, n_flows=150, class_profiles=[
        benign, dataclasses.replace(attack, payload_len=(40, 1400))])
    flows = packet_ingest.group_flows(
        packet_ingest.parse_pcap(synth_data.generate(spec)[0]).packets)
    chunks = {nn_core.live_width(packet_ingest.payload_matrix(f.packets, n_p))
              // nn_core.CHUNK for f in flows}
    assert {1, n_p // nn_core.CHUNK} <= chunks and len(chunks) > 2, chunks
    labels = [qtree.predict_label(flow_embedder.embed_flow(
        rae, flow_embedder.encode_flows(bundle, [f], n_p=n_p)[0]).values) for f in flows]
    batch = np.stack([e.values for e in flow_embedder.embed_flows(
        rae, flow_embedder.encode_flows(bundle, flows, n_p=n_p))])
    assert labels == [qtree.class_names[i]
                      for i in tree_distiller.tree_predict_batch(qtree.tree, batch)]
    assert len(set(labels)) == qtree.tree.k  # the walks reach leaves of every class


def test_report_structure(fast_run):
    with open(cli.artifact_path(fast_run, "report_json")) as fh:
        report = json.load(fh)
    names = [r["predictor"] for r in report["predictors"]]
    assert names == ["mlp_teacher", "distilled_tree", "quantized_tree"]
    assert report["predictors"][0]["inference_time_s"] is None
    assert report["predictors"][2]["inference_time_s"] is not None  # modeled
    assert set(report["jshc"]) == {"best_alpha", "best_beta", "best_accuracy"}
    md = open(cli.artifact_path(fast_run, "report_md")).read()
    assert "| mlp_teacher |" in md and "JSHC winner" in md


def test_timings_are_outside_the_report(fast_run):
    with open(cli.artifact_path(fast_run, "timings")) as fh:
        timings = json.load(fh)
    assert {"mlp_teacher", "distilled_tree", "quantized_tree",
            "modeled_hardware"} <= set(timings)
    assert timings["distilled_tree"]["total_s"] > 0
    report_text = open(cli.artifact_path(fast_run, "report_json")).read()
    assert repr(timings["distilled_tree"]["total_s"]) not in report_text


def _run_files(out: str) -> dict:
    """Every file under a run dir by its path there, with its bytes."""
    files = {}
    for root, _dirs, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = fh.read()
    return files


def test_rerun_is_byte_identical(fast_run, tmp_path):
    """A second run in another out dir writes the same files, byte for
    byte, but for the measured timings."""
    cfg2 = _fast_config(tmp_path, "again")
    cli.run_all(cfg2)
    a, b = _run_files(fast_run["out_dir"]), _run_files(cfg2["out_dir"])
    assert sorted(a) == sorted(b)
    differ = [path for path in a if a[path] != b[path]]
    assert differ == [cli.ARTIFACTS["timings"]]


def test_test_embeddings_are_the_per_flow_fold_of_the_stored_codes(fast_run):
    rae = flow_embedder.load_rae(cli.artifact_path(fast_run, "rae"))
    flows = flow_embedder.load_packet_codes(cli.artifact_path(fast_run, "packet_codes"))
    folded = {e.flow_id: e for e in flow_embedder.embed_flows(rae, flows)}
    with open(cli.artifact_path(fast_run, "split")) as fh:
        split = json.load(fh)
    names = classifier.load_model(cli.artifact_path(fast_run, "classifier")).class_names
    x, ids = cli._test_split(fast_run, names)
    assert x.shape == (len(split["test"]), 8) and len(ids) == len(split["test"])
    for row, i, flow_id in zip(x, ids, split["test"]):
        assert names[i] == folded[flow_id].label
        assert np.array_equal(row, folded[flow_id].values), flow_id


def test_embed_stacks_the_packet_codes_once_for_the_sampler_and_the_writer(
        fast_run, tmp_path, monkeypatch):
    cfg = dict(fast_run, out_dir=str(tmp_path / "copy"))
    shutil.copytree(fast_run["out_dir"], cfg["out_dir"])
    calls = {}
    for name in ("stack_codes", "sample_training_pairs", "save_packet_codes"):
        def spy(*args, _name=name, _func=getattr(flow_embedder, name), **kwargs):
            result = _func(*args, **kwargs)
            calls.setdefault(_name, []).append((args, result))
            return result
        monkeypatch.setattr(flow_embedder, name, spy)
    cli.run_stage("embed", cfg)
    assert {name: len(c) for name, c in calls.items()} == {
        "stack_codes": 1, "sample_training_pairs": 1, "save_packet_codes": 1}
    (_flows,), (codes, offsets) = calls["stack_codes"][0]
    (sampled, _), = calls["sample_training_pairs"]
    (saved, _), = calls["save_packet_codes"]
    assert sampled[0] is codes and sampled[1] is offsets
    assert saved[1] is codes and saved[2] is offsets


def _prefix_oracle(cfg: dict) -> np.ndarray:
    """The training flows' prefix points through the object API: every
    prefix_embeddings value of each training flow, stacked."""
    rae, train, _test = cli._split_flows(cfg)
    return np.stack([p.values for f in train for p in flow_embedder.prefix_embeddings(rae, f)])


def test_distill_points_are_the_prefix_points_then_the_query_finals(
        fast_run, tmp_path, monkeypatch):
    cfg = dict(fast_run, out_dir=str(tmp_path / "copy"))
    shutil.copytree(fast_run["out_dir"], cfg["out_dir"])
    seen = []
    generate = tree_distiller.generate_teacher_dataset
    monkeypatch.setattr(tree_distiller, "generate_teacher_dataset",
                        lambda teacher, x: seen.append(x) or generate(teacher, x))
    cli.run_stage("distill", cfg)
    x = seen[0]  # then fidelity_test labels the test flows
    rae, train, _test = cli._split_flows(cfg)
    pool, rows, offsets = flow_embedder.sample_query_flows(
        train, cli.QUERY_FLOWS_PER_TRAIN_FLOW * len(train), seed=cfg["seed"])
    want = np.concatenate([_prefix_oracle(cfg), flow_embedder.fold_finals(rae, pool, offsets, rows)])
    assert x.shape == want.shape and np.array_equal(x, want)


def test_distill_fidelity_train_is_a_separate_teacher_pass_on_the_prefix_points(fast_run):
    with open(cli.summary_path(fast_run, "distill")) as fh:
        distill = json.load(fh)
    tree = tree_distiller.load_tree(cli.artifact_path(fast_run, "tree"))
    model = classifier.load_model(cli.artifact_path(fast_run, "classifier"))
    assert distill["fidelity_train"] == tree_distiller.fidelity(
        tree, model, _prefix_oracle(fast_run))


def test_run_all_skips_synth_with_external_capture(fast_run, tmp_path):
    cfg = _fast_config(tmp_path, "ext")
    cfg["paths"]["pcap"] = cli.artifact_path(fast_run, "pcap")
    cfg["paths"]["truth_csv"] = cli.artifact_path(fast_run, "truth")
    cli.run_all(cfg)
    assert not os.path.exists(cli.artifact_path(cfg, "pcap"))
    assert os.path.exists(cli.artifact_path(cfg, "flows"))
    with open(cli.summary_path(cfg, "ingest")) as fh:
        assert json.load(fh)["n_dropped"] == 0


def test_stage_summaries_carry_key_metrics(fast_run):
    with open(cli.summary_path(fast_run, "distill")) as fh:
        distill = json.load(fh)
    assert {"n_nodes", "fidelity_train", "fidelity_test",
            "test_f1", "n_distill_samples"} <= set(distill)
    # prefix augmentation labels every fold snapshot, so the distillation
    # set is strictly larger than the flow count
    with open(cli.summary_path(fast_run, "train-clf")) as fh:
        n_train = json.load(fh)["n_train"]
    assert distill["n_distill_samples"] > n_train
    # teacher-labeled query flows join the prefix points
    assert distill["n_query_points"] == cli.QUERY_FLOWS_PER_TRAIN_FLOW * n_train
    assert distill["n_distill_samples"] > distill["n_query_points"]
    with open(cli.summary_path(fast_run, "jshc")) as fh:
        jshc = json.load(fh)
    assert jshc["best_beta"] >= 1 and 0 <= jshc["best_accuracy"] <= 1
    with open(cli.summary_path(fast_run, "ingest")) as fh:
        ingest = json.load(fh)
    assert ingest["n_skipped_by_reason"] == dict.fromkeys(packet_ingest.SKIP_REASONS, 0)
    assert ingest["n_skipped"] == 0
    # the fixture's payloads fill one chunk of the 1500 input columns; the
    # encoder weights on the other columns are never updated
    with open(cli.summary_path(fast_run, "train-ae")) as fh:
        train_ae = json.load(fh)
    assert train_ae["live_input_width"] == nn_core.CHUNK
    assert train_ae["n_encoder_weights_skipped"] == (1500 - nn_core.CHUNK) * 32


def test_train_ae_draws_the_training_sample_once(fast_run, tmp_path, monkeypatch):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    calls = []
    original = payload_autoencoder.training_rows

    def spy(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(payload_autoencoder, "training_rows", spy)
    summary = cli.run_stage("train-ae", dict(fast_run, out_dir=out))
    assert len(calls) == 1
    with open(cli.summary_path(fast_run, "train-ae")) as fh:
        assert summary == json.load(fh)


def test_ride_all_computes_the_pruning_path_once(tmp_path, monkeypatch):
    """cart_train stores the path's column with the tree; prune-sweep and
    jshc read it off the tree instead of computing the path again."""
    calls = []
    original = tree_distiller.pruning_path

    def spy(tree):
        calls.append(tree.n_nodes)
        return original(tree)

    monkeypatch.setattr(tree_distiller, "pruning_path", spy)
    cfg = _fast_config(tmp_path, "run")
    cli.run_all(cfg)
    assert len(calls) == 1
    for stage in ("prune-sweep", "jshc"):
        cli.run_stage(stage, cfg)
    assert len(calls) == 1


def _fast_config_file(tmp_path, section="autoencoder", **overrides):
    """The fast config as a file for `ride --config`, with overrides of one
    training section."""
    cfg = _fast_config(tmp_path, "unused")
    path = tmp_path / "fast.json"
    path.write_text(json.dumps({
        "features": cfg["features"], "embed": cfg["embed"],
        "train": {**cfg["train"], section: {**cfg["train"][section], **overrides}}}))
    return str(path)


def test_distill_refuses_codes_from_an_older_autoencoder(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["all", "--config", _fast_config_file(tmp_path), "--out", out]) == 0
    retrained = _fast_config_file(tmp_path, epochs=1)
    assert cli.main(["train-ae", "--config", retrained, "--out", out]) == 0
    capsys.readouterr()
    # every stage that folds embeddings from the stored codes refuses them
    for stage in ("train-clf", "distill", "prune-sweep", "jshc", "eval"):
        assert cli.main([stage, "--config", retrained, "--out", out]) == 2, stage
        err = capsys.readouterr().err
        assert "stale artifact" in err and "re-run `ride embed`" in err, stage
        assert os.path.join(out, "packet_codes.npz") in err, stage
    # embed again: now the classifier learned from older embeddings
    assert cli.main(["embed", "--config", retrained, "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["distill", "--config", retrained, "--out", out]) == 2
    assert "re-run `ride train-clf`" in capsys.readouterr().err
    # train it again and the lineage holds
    assert cli.main(["train-clf", "--config", retrained, "--out", out]) == 0
    assert cli.main(["distill", "--config", retrained, "--out", out]) == 0


def test_distill_and_eval_refuse_a_classifier_from_older_embeddings(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["all", "--config", _fast_config_file(tmp_path), "--out", out]) == 0
    refolded = _fast_config_file(tmp_path, "rae", epochs=1)
    assert cli.main(["embed", "--config", refolded, "--out", out]) == 0
    capsys.readouterr()
    # the tree and the split belong to the old RAE's embeddings too
    for stage in ("distill", "prune-sweep", "jshc", "eval"):
        assert cli.main([stage, "--config", refolded, "--out", out]) == 2, stage
        err = capsys.readouterr().err
        assert "stale artifact" in err and "re-run `ride train-clf`" in err, stage
        assert os.path.join(out, "classifier.npz") in err, stage
        assert os.path.join(out, "rae.npz") in err, stage
    # train the classifier again and the lineage holds
    assert cli.main(["train-clf", "--config", refolded, "--out", out]) == 0
    assert cli.main(["distill", "--config", refolded, "--out", out]) == 0


def test_prune_sweep_and_jshc_refuse_a_split_of_another_capture(tmp_path, capsys):
    """A seed-8 capture encoded and embedded in a seed-7 run dir: the
    fixture reuses every flow id, so only lineage tells the split is stale."""
    out = str(tmp_path / "run")
    config = _fast_config_file(tmp_path)
    assert cli.main(["all", "--config", config, "--out", out]) == 0
    for stage in ("synth", "ingest", "train-ae", "embed"):
        assert cli.main([stage, "--config", config, "--seed", "8", "--out", out]) == 0
    flows = flow_embedder.load_packet_codes(os.path.join(out, "packet_codes.npz"))
    with open(os.path.join(out, "split.json")) as fh:
        split = json.load(fh)
    assert set(split["train"] + split["test"]) <= {f.flow_id for f in flows}
    capsys.readouterr()
    for stage in ("prune-sweep", "jshc"):
        assert cli.main([stage, "--config", config, "--out", out]) == 2, stage
        err = capsys.readouterr().err
        assert "stale artifact" in err and "re-run `ride train-clf`" in err, stage
        assert os.path.join(out, "classifier.npz") in err, stage


def test_prune_sweep_and_jshc_refuse_the_tree_of_a_re_trained_classifier(tmp_path, capsys):
    """They do not read classifier.npz; the tree's record, which lists it,
    tells them the tree was distilled from another classifier, though
    the split stays byte for byte the same."""
    out = str(tmp_path / "run")
    config = _fast_config_file(tmp_path)
    assert cli.main(["all", "--config", config, "--out", out]) == 0
    split = (tmp_path / "run" / "split.json").read_bytes()
    wider = tmp_path / "wider.json"
    with open(config) as fh:
        wider.write_text(json.dumps({**json.load(fh), "classifier": {"hidden": 50}}))
    assert cli.main(["train-clf", "--config", str(wider), "--out", out]) == 0
    assert (tmp_path / "run" / "split.json").read_bytes() == split
    capsys.readouterr()
    for stage, stale in (("prune-sweep", "tree.json was"),
                         ("jshc", f"tree.json and {os.path.join(out, 'quant_ranges.json')} were")):
        assert cli.main([stage, "--config", str(wider), "--out", out]) == 2, stage
        assert (f"{os.path.join(out, stale)} built from another version of "
                f"{os.path.join(out, 'classifier.npz')}; re-run `ride distill`"
                ) in capsys.readouterr().err, stage


def test_the_manifest_records_each_file_a_stage_wrote(fast_run):
    """Every run-dir file but the timings and the manifest itself has a
    record: its sha256, the stage that wrote it and the records of the
    files that stage read."""
    out = fast_run["out_dir"]
    with open(cli.artifact_path(fast_run, "manifest")) as fh:
        manifest = json.load(fh)
    files = _run_files(out)
    assert sorted(manifest) == sorted(set(files) - {"timings.json", "manifest.json"})
    for file, record in manifest.items():
        assert record["sha256"] == hashlib.sha256(files[file]).hexdigest(), file
    sha = {file: record["sha256"] for file, record in manifest.items()}
    assert manifest["rae.npz"] == {"sha256": sha["rae.npz"], "stage": "embed", "inputs": {
        "flows.npz": sha["flows.npz"], "autoencoder.npz": sha["autoencoder.npz"]}}
    assert manifest["capture.pcap"]["inputs"] == {}
    assert manifest["summaries/report.json"]["inputs"] == {
        f"summaries/{stage}.json": sha[f"summaries/{stage}.json"]
        for stage in ("train-clf", "distill", "jshc", "eval")}


def test_what_was_built_from_a_re_distilled_tree_s_predecessor_is_stale(tmp_path, capsys):
    """After `ride all`, distill again with max_depth 2: each stage that
    reads a file built from the old tree exits 2 and names that file, the
    tree and the stage to re-run; those that read the new tree run."""
    out = str(tmp_path / "run")
    config = _fast_config_file(tmp_path)
    assert cli.main(["all", "--config", config, "--out", out]) == 0
    with open(config) as fh:
        shallow = {**json.load(fh), "tree": {"max_depth": 2}}
    config = tmp_path / "shallow.json"
    config.write_text(json.dumps(shallow))
    with open(os.path.join(out, "summaries", "distill.json")) as fh:
        assert json.load(fh)["max_depth"] > 2
    assert cli.main(["distill", "--config", str(config), "--out", out]) == 0
    capsys.readouterr()
    for stage, stale, rerun in (("cost", "qtree.json", "quantize"),
                                ("eval", "qtree_best.json", "jshc"),
                                ("report", os.path.join("summaries", "jshc.json"), "jshc")):
        assert cli.main([stage, "--config", str(config), "--out", out]) == 2, stage
        err = capsys.readouterr().err
        assert "stale artifact" in err and f"re-run `ride {rerun}`" in err, stage
        assert os.path.join(out, stale) in err and os.path.join(out, "tree.json") in err, stage
    for stage in ("prune-sweep", "quantize", "jshc", "cost", "eval", "report"):
        assert cli.main([stage, "--config", str(config), "--out", out]) == 0, stage
    with open(os.path.join(out, "report.json")) as fh:
        rows = {r["predictor"]: r for r in json.load(fh)["predictors"]}
    with open(os.path.join(out, "summaries", "distill.json")) as fh:
        assert rows["distilled_tree"]["size"] == json.load(fh)["n_nodes"] <= 7
    assert rows["quantized_tree"]["size"] <= rows["distilled_tree"]["size"]


def test_a_run_dir_without_a_manifest_exits_2_naming_the_input_and_its_stage(
        fast_run, tmp_path, capsys):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    os.remove(os.path.join(out, "manifest.json"))
    capsys.readouterr()
    assert cli.main(["distill", "--config", _fast_config_file(tmp_path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{os.path.join(out, 'classifier.npz')} has no record in " in err
    assert "re-run `ride train-clf`" in err


def test_missing_calibration_file_exits_2_and_names_it(fast_run, tmp_path, capsys):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    missing = str(tmp_path / "calib.json")
    cfg = _fast_config(tmp_path, "unused")
    config = tmp_path / "calib_config.json"
    config.write_text(json.dumps({
        "features": cfg["features"], "embed": cfg["embed"], "train": cfg["train"],
        "paths": {"calibration": missing}}))
    capsys.readouterr()
    for stage in ("cost", "jshc"):
        assert cli.main([stage, "--config", str(config), "--out", out]) == 2, stage
        err = capsys.readouterr().err
        assert "missing upstream artifact" in err and missing in err, stage
    # eval reads the winner's cost from the jshc summary, not the calibration
    assert cli.main(["eval", "--config", str(config), "--out", out]) == 0


def test_a_stage_logs_its_time_and_the_peak_rss_so_far(fast_run, tmp_path, caplog):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    with caplog.at_level(logging.INFO, logger=cli.__name__):
        cli.run_stage("cost", dict(fast_run, out_dir=out))
    assert re.search(r"stage cost finished in \d+\.\d\ds, peak RSS so far \d+\.\d MB",
                     caplog.text), caplog.text


def test_report_gives_one_latency_for_the_winner_whatever_calibration_eval_gets(
        fast_run, tmp_path):
    """eval and report under a calibration whose latency is 10x the one
    jshc modeled with: the quantized_tree row and the hardware line both
    give jshc's latency for the winner."""
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    calib = hw_model.default_calibration()
    path = tmp_path / "calib_x10.json"
    path.write_text(json.dumps(hw_model.calibration_to_dict(dataclasses.replace(
        calib, latency_per_level_s=10 * calib.latency_per_level_s))))
    cfg = _fast_config(tmp_path, "unused")
    config = tmp_path / "calib_config.json"
    config.write_text(json.dumps({
        "features": cfg["features"], "embed": cfg["embed"], "train": cfg["train"],
        "paths": {"calibration": str(path)}}))
    for stage in ("eval", "report"):
        assert cli.main([stage, "--config", str(config), "--out", out]) == 0, stage
    with open(os.path.join(out, cli.ARTIFACTS["report_json"])) as fh:
        report = json.load(fh)
    [row] = [r for r in report["predictors"] if r["predictor"] == "quantized_tree"]
    latency = report["hardware"]["inference_time_s"]
    assert row["inference_time_s"] == latency
    with open(os.path.join(out, cli.ARTIFACTS["timings"])) as fh:
        assert json.load(fh)["modeled_hardware"]["per_sample_s"] == latency
    with open(os.path.join(out, cli.ARTIFACTS["report_md"])) as fh:
        md = fh.read()
    assert f"| {latency!r} |" in md and f"{latency:.2e} s/sample" in md


def _calibration_file(path, latency_scale: float = 1.0) -> str:
    calib = hw_model.default_calibration()
    path.write_text(json.dumps(hw_model.calibration_to_dict(dataclasses.replace(
        calib, latency_per_level_s=latency_scale * calib.latency_per_level_s))))
    return str(path)


def test_a_changed_calibration_file_makes_jshc_stale(tmp_path, capsys):
    """cost and jshc record the calibration file they read by its sha256,
    keyed by its absolute path; once the file changes, eval and report,
    which read the jshc summary, exit 2 and name jshc."""
    calib = _calibration_file(tmp_path / "calib.json")
    cfg = _fast_config(tmp_path, "unused")
    config = tmp_path / "calib_config.json"
    config.write_text(json.dumps({
        "features": cfg["features"], "embed": cfg["embed"], "train": cfg["train"],
        "paths": {"calibration": calib}}))
    out = str(tmp_path / "run")
    assert cli.main(["all", "--config", str(config), "--out", out]) == 0
    with open(os.path.join(out, cli.ARTIFACTS["manifest"])) as fh:
        manifest = json.load(fh)
    with open(calib, "rb") as fh:
        sha256 = hashlib.sha256(fh.read()).hexdigest()
    for file in ("summaries/cost.json", "summaries/jshc.json", "qtree_best.json"):
        assert manifest[file]["inputs"][calib] == sha256, file
    assert not any(calib in manifest[file]["inputs"] for file in
                   ("summaries/quantize.json", "summaries/eval.json", "tree.json"))
    _calibration_file(tmp_path / "calib.json", latency_scale=10.0)
    capsys.readouterr()
    for stage in ("eval", "report"):
        assert cli.main([stage, "--config", str(config), "--out", out]) == 2, stage
        err = capsys.readouterr().err
        assert "stale artifact" in err and f"built from another version of {calib}" in err
        assert "re-run `ride jshc`" in err, stage
    os.remove(calib)  # a file that is gone counts as changed
    assert cli.main(["eval", "--config", str(config), "--out", out]) == 2
    assert "re-run `ride jshc`" in capsys.readouterr().err
    _calibration_file(tmp_path / "calib.json", latency_scale=10.0)
    for stage in ("jshc", "eval", "report"):
        assert cli.main([stage, "--config", str(config), "--out", out]) == 0, stage


def test_a_changed_capture_or_truth_file_makes_ingest_stale(tmp_path, capsys):
    """ingest records the capture and truth CSV that paths.* name by their
    sha256; a change to either makes train-ae exit 2 and name ingest."""
    source = str(tmp_path / "source")
    assert cli.main(["synth", "--out", source]) == 0
    pcap, truth = (os.path.join(source, cli.ARTIFACTS[name]) for name in ("pcap", "truth"))
    config = tmp_path / "external.json"
    config.write_text(json.dumps({"paths": {"pcap": pcap, "truth_csv": truth}}))
    out = str(tmp_path / "run")
    for path, change in ((pcap, b"\0"), (truth, b"\n")):
        assert cli.main(["ingest", "--config", str(config), "--out", out]) == 0
        with open(os.path.join(out, cli.ARTIFACTS["manifest"])) as fh:
            inputs = json.load(fh)[cli.ARTIFACTS["flows"]]["inputs"]
        assert sorted(inputs) == sorted([pcap, truth])
        with open(path, "ab") as fh:
            fh.write(change)
        capsys.readouterr()
        assert cli.main(["train-ae", "--config", str(config), "--out", out]) == 2
        err = capsys.readouterr().err
        assert (f"{os.path.join(out, cli.ARTIFACTS['flows'])} was built from another version "
                f"of {path}; re-run `ride ingest`") in err, err


def test_a_split_naming_flows_the_codes_lack_exits_2(fast_run, tmp_path, capsys):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    split_path = os.path.join(out, "split.json")
    with open(split_path) as fh:
        split = json.load(fh)
    split["test"].append("nope")  # as after ingest read another capture
    with open(split_path, "w") as fh:
        json.dump(split, fh)
    config = _fast_config_file(tmp_path)
    capsys.readouterr()
    for stage in ("distill", "prune-sweep", "jshc", "eval"):
        assert cli.main([stage, "--config", config, "--out", out]) == 2, stage
        err = capsys.readouterr().err
        assert "stale artifact" in err and split_path in err, stage
        assert "'nope'" in err and "re-run `ride train-clf`" in err, stage


@pytest.mark.parametrize("name, stage, drop", [
    # drop None: the file is cut in half and no longer parses; "loop": the
    # tree's root has itself as right child; "feature": the root splits on
    # feature 999, past the embedding width; "class": a leaf predicts class
    # 7 of 2; else it lacks the key `drop`
    ("tree.json", "prune-sweep", None),
    ("tree.json", "prune-sweep", "feature"),
    ("tree.json", "jshc", "feature"),
    ("tree.json", "quantize", "loop"),
    ("qtree.json", "cost", "level"),
    ("qtree.json", "cost", "loop"),
    ("qtree.json", "cost", "class"),
    ("qtree_best.json", "eval", "feature"),
    ("qtree_best.json", "eval", None),
    ("split.json", "prune-sweep", "test"),
    ("quant_ranges.json", "quantize", None),
    ("calibration.json", "cost", "area_per_node"),
])
def test_a_json_file_that_does_not_load_exits_4_and_names_it(
        fast_run, tmp_path, capsys, name, stage, drop):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    path = os.path.join(out, name)
    calibration = None
    if name == "calibration.json":  # a user's table, named by the config
        calibration = path
        with open(path, "w") as fh:
            json.dump(hw_model.calibration_to_dict(hw_model.default_calibration()), fh)
    if drop is None:
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
    else:
        with open(path) as fh:
            doc = json.load(fh)
        tree = doc.get("tree", doc)
        if drop == "loop":  # a walk of the tree would never end
            tree["right"][0] = 0
        elif drop == "feature":
            tree["feature"][0] = 999
        elif drop == "class":
            tree["predicted_class"][tree["feature"].index(-1)] = 7
        else:
            del doc[drop]
        with open(path, "w") as fh:
            json.dump(doc, fh)
    cfg = _fast_config(tmp_path, "unused")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "features": cfg["features"], "embed": cfg["embed"], "train": cfg["train"],
        "paths": {"calibration": calibration}}))
    capsys.readouterr()
    assert cli.main([stage, "--config", str(config), "--out", out]) == 4
    err = capsys.readouterr().err
    assert re.search(rf"error: ValueError: bad [A-Za-z ]+ file {re.escape(path)}: ", err), err
    cause = {None: "Unterminated string|Expecting",
             "loop": "tree node 0 has ",
             "feature": "tree node 0 splits on feature 999, past the 8 embedding columns",
             "class": r"tree node \d+ predicts class 7, not one of the 2 classes",
             }.get(drop, f"no key '{drop}'")
    assert re.search(cause, err), err


def test_a_cut_short_flow_store_exits_4_and_names_it(fast_run, tmp_path, capsys):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    store = os.path.join(out, cli.ARTIFACTS["flows"])
    with open(store, "r+b") as fh:  # the flow store is read as a model archive
        fh.truncate(os.path.getsize(store) // 2)
    capsys.readouterr()
    assert cli.main(["embed", "--out", out]) == 4
    assert f"bad flow store file {store}: not a .npz archive" in capsys.readouterr().err


def test_bad_or_old_model_files_exit_loudly(fast_run, tmp_path, capsys):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    config = _fast_config_file(tmp_path)
    clf_path = os.path.join(out, cli.ARTIFACTS["classifier"])
    with np.load(clf_path, allow_pickle=False) as npz:
        entries = {key: npz[key] for key in npz.files}
    meta = json.loads(entries["meta"].item())
    meta["class_names"].append("one-class-more")
    with open(clf_path, "wb") as fh:
        np.savez(fh, **dict(entries, meta=np.array(json.dumps(meta))))
    capsys.readouterr()
    assert cli.main(["eval", "--config", config, "--out", out]) == 4
    assert (f"bad model file {clf_path}: net output dim disagrees with class count"
            in capsys.readouterr().err)
    rae_path = os.path.join(out, cli.ARTIFACTS["rae"])
    square = nn_core.DenseNet([nn_core.Layer(np.zeros((8, 8)), np.zeros(8), "tanh")])
    nn_core.save_artifact(rae_path, {"final_recon_error": 0.0, "seed": 0},
                          nets={"composer": square})  # 8 -> 8, not 16 -> 8
    assert cli.main(["train-clf", "--config", config, "--out", out]) == 4
    assert (f"bad model file {rae_path}: composer must be one layer mapping 2*n_b -> n_b"
            in capsys.readouterr().err)
    ae_path = os.path.join(out, "autoencoder.npz")
    with open(ae_path, "r+b") as fh:  # cut the archive short
        fh.truncate(os.path.getsize(ae_path) // 2)
    capsys.readouterr()
    assert cli.main(["embed", "--out", out]) == 4
    assert f"bad model file {ae_path}: not a .npz archive" in capsys.readouterr().err
    # a run dir from before the .npz files: autoencoder.json, no autoencoder.npz
    os.remove(ae_path)
    with open(os.path.join(out, "autoencoder.json"), "w") as fh:
        fh.write("{}")
    assert cli.main(["embed", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "missing upstream artifact" in err and ae_path in err


@pytest.mark.parametrize("change", [{"seed": 8}, {"untrained_crc32": 0}],
                         ids=["seed", "digest"])
def test_an_autoencoder_file_whose_columns_do_not_draw_again_exits_4(
        fast_run, tmp_path, capsys, change):
    """autoencoder.npz keeps layer 0's trained columns only; the others are
    drawn again from its seed and checked against its CRC-32. A file whose
    seed or CRC-32 was altered makes embed exit 4 and name it."""
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    ae_path = os.path.join(out, cli.ARTIFACTS["autoencoder"])
    with np.load(ae_path, allow_pickle=False) as npz:
        entries = {key: npz[key] for key in npz.files}
    meta = json.loads(entries["meta"].item())
    assert "untrained_crc32" in meta and meta["seed"] == fast_run["seed"] != change.get("seed")
    with open(ae_path, "wb") as fh:
        np.savez(fh, **dict(entries, meta=np.array(json.dumps({**meta, **change}))))
    capsys.readouterr()
    assert cli.main(["embed", "--config", _fast_config_file(tmp_path), "--out", out]) == 4
    err = capsys.readouterr().err
    assert f"error: ValueError: bad model file {ae_path}: encoder.w0's columns from 256 on " \
           f"do not draw again from seed {change.get('seed', meta['seed'])}" \
           in err, err


def _store_with(path: str, **changes) -> None:
    """Rewrite the flow store at path with some of its arrays replaced."""
    with np.load(path, allow_pickle=False) as npz:
        entries = {key: npz[key] for key in npz.files}
    with open(path, "wb") as fh:
        np.savez(fh, **{**entries, **{k: change(entries[k]) for k, change in changes.items()}})


@pytest.mark.parametrize("changes", [
    {"offsets": lambda offsets: offsets[:-1]},  # one flow short
    {"offsets": lambda offsets: offsets[::-1].copy()},  # runs backwards
    {"payload_end": lambda ends: ends + 1},  # past the joined payload
    {"payload": lambda payload: payload[:-1]},  # the last payload cut short
    {"protocol": lambda protocol: protocol[1:]},  # one packet short
], ids=["offsets_short", "offsets_backwards", "payload_end_past", "payload_short",
        "protocol_short"])
def test_a_flow_store_whose_arrays_do_not_fit_exits_4_and_names_it(
        fast_run, tmp_path, capsys, changes):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    store = os.path.join(out, cli.ARTIFACTS["flows"])
    _store_with(store, **changes)
    capsys.readouterr()
    assert cli.main(["embed", "--config", _fast_config_file(tmp_path), "--out", out]) == 4
    assert f"error: ValueError: bad flow store file {store}: " in capsys.readouterr().err


def test_a_manifest_record_without_a_key_exits_4_and_names_the_manifest(
        fast_run, tmp_path, capsys):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    path = os.path.join(out, cli.ARTIFACTS["manifest"])
    with open(path) as fh:
        manifest = json.load(fh)
    del manifest["classifier.npz"]["inputs"]
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert cli.main(["distill", "--config", _fast_config_file(tmp_path), "--out", out]) == 4
    assert f"bad JSON file {path}: no key 'inputs'" in capsys.readouterr().err


def test_a_stage_that_fails_partway_leaves_what_it_wrote_unrecorded(
        fast_run, tmp_path, capsys, monkeypatch):
    """distill writes a new tree.json, then fails before the ranges: quantize
    must not pair that tree with the old quant_ranges.json."""
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    with open(_fast_config_file(tmp_path)) as fh:
        shallow = {**json.load(fh), "tree": {"max_depth": 2}}
    config = tmp_path / "shallow.json"
    config.write_text(json.dumps(shallow))

    def fail(tree, x):
        raise RuntimeError("injected")
    monkeypatch.setattr(hw_model, "fit_quantization_ranges", fail)
    tree_path = os.path.join(out, "tree.json")
    with open(tree_path, "rb") as fh:
        old_tree = fh.read()
    assert cli.main(["distill", "--config", str(config), "--out", out]) == 4
    with open(tree_path, "rb") as fh:
        assert fh.read() != old_tree
    capsys.readouterr()
    assert cli.main(["quantize", "--config", str(config), "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{tree_path} has no record in " in err and "re-run `ride distill`" in err
    # the files distill left as they were keep their records
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert "quant_ranges.json" in manifest and "summaries/distill.json" in manifest
    monkeypatch.undo()
    assert cli.main(["distill", "--config", str(config), "--out", out]) == 0
    assert cli.main(["quantize", "--config", str(config), "--out", out]) == 0


def test_the_earliest_stale_stage_is_named_at_once(fast_run, tmp_path, capsys):
    """After synth and ingest read a seed-8 capture, distill names train-ae,
    the first stage built from the old flow store, not embed."""
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
    config = _fast_config_file(tmp_path)
    for stage in ("synth", "ingest"):
        assert cli.main([stage, "--config", config, "--seed", "8", "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["distill", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "stale artifact" in err and "re-run `ride train-ae`" in err
    assert f"{os.path.join(out, 'autoencoder.npz')} was built from another version of " \
           f"{os.path.join(out, cli.ARTIFACTS['flows'])}" in err
