"""CLI orchestrator: config handling, stage wiring, exit codes, artifacts."""
import json
import os
import shutil

import jsonschema
import pytest

from ride import cli, packet_ingest


# ---------------------------------------------------------------- config

def test_default_config_satisfies_its_own_schema():
    jsonschema.validate(cli.default_config(), cli.CONFIG_SCHEMA)


def test_load_config_none_gives_defaults():
    assert cli.load_config(None) == cli.default_config()


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


def test_rerun_is_byte_identical(fast_run, tmp_path):
    cfg2 = _fast_config(tmp_path, "again")
    cli.run_all(cfg2)
    for name in ("report_json", "report_md", "tree", "autoencoder", "rae",
                 "packet_codes", "classifier"):
        a = open(cli.artifact_path(fast_run, name), "rb").read()
        b = open(cli.artifact_path(cfg2, name), "rb").read()
        assert a == b, name


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
    assert cli.main(["distill", "--config", retrained, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "stale artifact" in err and "re-run `ride embed`" in err
    assert os.path.join(out, "packet_codes.npz") in err
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
    for stage in ("distill", "eval"):
        assert cli.main([stage, "--config", refolded, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "stale artifact" in err and "re-run `ride train-clf`" in err
        assert os.path.join(out, "classifier.npz") in err
        assert os.path.join(out, "flow_embeddings.csv") in err
    # train the classifier again and the lineage holds
    assert cli.main(["train-clf", "--config", refolded, "--out", out]) == 0
    assert cli.main(["distill", "--config", refolded, "--out", out]) == 0


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
