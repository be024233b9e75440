"""CLI orchestrator: config handling, stage wiring, exit codes, artifacts."""
import csv
import json
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
                  packet_ingest, tree_distiller)


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
    handled = {"type", "properties", "additionalProperties", "enum", "items",
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
    """A config naming a fold order or a sample cap the program does not
    have is refused, not silently ignored."""
    for name, section, where in (
            ("order", {"embed": {"order": "greedy_min"}}, "embed/order"),
            ("caps", {"sample_caps": {"rae_pairs": 5000}}, "sample_caps")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(section))
        assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
        assert f"config invalid at {where}:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("text, where", [
    ('{"train": {"autoencoder": {"epochs": 1.0}}}', "train/autoencoder/epochs"),
    ('{"embed": {"pair_cap": 100.0}}', "embed/pair_cap"),
    ('{"quantize": {"beta": 4.0}}', "quantize/beta"),
    ('{"train": {"rae": {"learning_rate": NaN}}}', "train/rae/learning_rate"),
    ('{"jshc": {"tol": NaN}}', "jshc/tol"),
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
    assert not os.path.exists(os.path.join(out, "flows.ndjson"))


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
    assert sorted(os.listdir(out)) == sorted([*cli.ARTIFACTS.values(), "summaries"])
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
    for stage in ("cost", "jshc", "eval"):
        assert cli.main([stage, "--config", str(config), "--out", out]) == 2, stage
        err = capsys.readouterr().err
        assert "missing upstream artifact" in err and missing in err, stage


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
    # drop None: the file is cut in half and no longer parses; else it
    # lacks the key `drop`
    ("tree.json", "prune-sweep", None),
    ("qtree.json", "cost", "level"),
    ("qtree_best.json", "eval", None),
    ("split.json", "prune-sweep", "test"),
    ("quant_ranges.json", "quantize", None),
    ("flows.ndjson", "embed", None),
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
    cause = "Unterminated string|Expecting" if drop is None else f"no key '{drop}'"
    assert re.search(cause, err), err


def test_bad_or_old_model_files_exit_loudly(fast_run, tmp_path, capsys):
    out = str(tmp_path / "copy")
    shutil.copytree(fast_run["out_dir"], out)
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
