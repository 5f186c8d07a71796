"""End-to-end tests for the command-line pipeline: exit codes, artifact
determinism, manifest replay, and agreement between CSV contents and the
library calls they wrap."""
import contextlib
import json
import os
import threading

import numpy as np
import pytest

import graphsentry.cli as cli
import graphsentry.model as M
import graphsentry.training as T
from graphsentry.graphdata import FeatureGraph, load_dataset, save_dataset


def write_cfg(path, **kv):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# test config\n")
        for k, v in kv.items():
            fh.write(f"{k}={v}\n")
    return str(path)


GEN_KV = dict(n_graphs=60, benign_node_min=6, benign_node_max=9,
              motif_node_count=4, motif_feature_signature="110010",
              malicious_fraction=0.2, background_edge_prob=0.25,
              rng_seed=7, opcode_dim=4, permission_dim=2)

TRAIN_KV = dict(hidden=16, layers=2, max_epochs=6, early_stop_patience=6,
                batch_size=16, rng_seed=0, split_seed=0,
                benign_parts=4, malicious_parts=1)

ATTACK_KV = dict(max_iterations=4, ig_steps=4, rng_seed=0,
                 surrogate_hidden=8, distill_epochs=10)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared gen-data + train run; read-only for all tests."""
    root = tmp_path_factory.mktemp("cliws")
    gen_cfg = write_cfg(root / "gen.cfg", **GEN_KV)
    dataset = str(root / "data.jsonl")
    assert cli.main(["gen-data", gen_cfg, dataset]) == 0
    train_cfg = write_cfg(root / "train.cfg", **TRAIN_KV)
    out_dir = str(root / "run")
    assert cli.main(["train", dataset, train_cfg, out_dir]) == 0
    return {"root": root, "gen_cfg": gen_cfg, "dataset": dataset,
            "train_cfg": train_cfg, "out_dir": out_dir,
            "checkpoint": os.path.join(out_dir, "checkpoint.json")}


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    trailer = [ln for ln in lines if ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return header, rows, trailer


# ------------------------------------------------------------------ config parsing

def test_parse_config_fills_defaults(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", gamma=0.5)
    values = cli.parse_config(path, cli.TRAIN_FIELDS, cli.read_config(path))
    assert values["gamma"] == 0.5
    assert values["hidden"] == 128 and values["variant"] == "full"


def test_parse_config_rejects_unknown_field(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", gamma=0.5, bogus=1)
    with pytest.raises(cli.ConfigError, match="bogus"):
        cli.parse_config(path, cli.TRAIN_FIELDS, cli.read_config(path))


def test_parse_config_rejects_bad_type(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", hidden="wide")
    with pytest.raises(cli.ConfigError, match="'hidden'"):
        cli.parse_config(path, cli.TRAIN_FIELDS, cli.read_config(path))


def test_parse_config_rejects_duplicate_and_malformed(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("gamma=0.5\ngamma=0.6\n")
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_config(str(path), cli.TRAIN_FIELDS, cli.read_config(str(path)))
    path.write_text("gamma 0.5\n")
    with pytest.raises(cli.ConfigError, match="key=value"):
        cli.parse_config(str(path), cli.TRAIN_FIELDS, cli.read_config(str(path)))


def test_parse_config_missing_required(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", n_graphs=5)
    with pytest.raises(cli.ConfigError, match="missing required field"):
        cli.parse_config(path, cli.GEN_FIELDS, cli.read_config(path))


# ------------------------------------------------------------------ gen-data

def test_gen_data_writes_dataset_and_manifest(workspace):
    graphs, schema = load_dataset(workspace["dataset"])
    assert len(graphs) == GEN_KV["n_graphs"]
    assert (schema.opcode_dim, schema.permission_dim) == (4, 2)
    manifest = cli.load_manifest(workspace["dataset"] + ".manifest.json")
    assert manifest["command"] == "gen-data"
    entry = manifest["artifacts"]["dataset"]
    assert cli._sha256(workspace["dataset"]) == entry["sha256"]


def test_gen_data_invalid_fraction_names_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "g.cfg", **{**GEN_KV, "malicious_fraction": 1.5})
    assert cli.main(["gen-data", cfg, str(tmp_path / "d.jsonl")]) == 2
    assert "malicious_fraction" in capsys.readouterr().err


def test_gen_data_unknown_field_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "g.cfg", **{**GEN_KV, "n_grphs": 10})
    assert cli.main(["gen-data", cfg, str(tmp_path / "d.jsonl")]) == 2
    assert "n_grphs" in capsys.readouterr().err


def test_gen_data_missing_config_exit_2(tmp_path):
    assert cli.main(["gen-data", str(tmp_path / "none.cfg"),
                     str(tmp_path / "d.jsonl")]) == 2


def test_gen_data_reads_a_fifo_config_once(tmp_path):
    """A config that can be read only once (a pipe, /dev/stdin) is parsed
    from the same read that the manifest records."""
    fifo = str(tmp_path / "gen.fifo")
    os.mkfifo(fifo)
    text = "".join(f"{k}={v}\n" for k, v in GEN_KV.items())

    done = threading.Event()

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)
        while not done.is_set():  # a second open of the FIFO reads EOF, not hangs
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader has it open
                done.wait(0.01)
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    out = str(tmp_path / "d.jsonl")
    try:
        assert cli.main(["gen-data", fifo, out]) == 0
    finally:
        done.set()
        writer.join(timeout=10)
    assert len(load_dataset(out)[0]) == GEN_KV["n_graphs"]
    assert cli.load_manifest(out + ".manifest.json")["config_text"] == text


def test_gen_data_rerun_is_byte_identical(workspace, tmp_path):
    out = str(tmp_path / "again.jsonl")
    assert cli.main(["gen-data", workspace["gen_cfg"], out]) == 0
    assert cli._sha256(out) == cli._sha256(workspace["dataset"])


def test_gen_data_manifest_replay(workspace, tmp_path):
    report = cli.replay_manifest(workspace["dataset"] + ".manifest.json",
                                 str(tmp_path / "replay"))
    assert report["matched"] and report["artifacts"] == {"dataset": True}


# ------------------------------------------------------------------ train

def test_train_artifacts_exist_and_parse(workspace):
    out = workspace["out_dir"]
    header, rows, _ = read_csv(os.path.join(out, "report.csv"))
    assert header == ["epoch", "train_loss", "rec_loss", "val_f1"]
    params, meta = M.load_checkpoint(workspace["checkpoint"])
    assert meta["stopping_epoch"] == len(rows)
    assert params.feature_dim == 6 and params.hidden_dim == TRAIN_KV["hidden"]
    theader, trows, _ = read_csv(os.path.join(out, "timings.csv"))
    assert theader == ["epoch", "seconds"] and len(trows) == len(rows)
    with open(os.path.join(out, "split.json"), "r", encoding="utf-8") as fh:
        split = json.load(fh)
    ids = split["train"] + split["validation"] + split["test"]
    assert len(ids) == len(set(ids)) == GEN_KV["n_graphs"]


def test_train_rerun_reports_byte_identical(workspace, tmp_path):
    out2 = str(tmp_path / "run2")
    assert cli.main(["train", workspace["dataset"], workspace["train_cfg"],
                     out2]) == 0
    for name in ("report.csv", "checkpoint.json", "split.json"):
        assert cli._sha256(os.path.join(out2, name)) == \
            cli._sha256(os.path.join(workspace["out_dir"], name)), name


def test_train_manifest_replay(workspace, tmp_path):
    report = cli.replay_manifest(os.path.join(workspace["out_dir"], "manifest.json"),
                                 str(tmp_path / "replay"))
    assert report["matched"], report["artifacts"]


def test_train_variant_flag_zeroes_rec_loss_column(workspace, tmp_path):
    out = str(tmp_path / "cr")
    assert cli.main(["train", workspace["dataset"], workspace["train_cfg"], out,
                     "--variant", "minus_cr"]) == 0
    _, rows, _ = read_csv(os.path.join(out, "report.csv"))
    assert rows and all(r[2] == "0.0" for r in rows)
    _, meta = M.load_checkpoint(os.path.join(out, "checkpoint.json"))
    assert meta["variant"] == "minus_cr"
    assert meta["counter_delta"] == {"mask_samples": 0, "decoder_passes": 0}


def test_train_bad_gamma_exit_2(workspace, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg", **{**TRAIN_KV, "gamma": 1.5})
    assert cli.main(["train", workspace["dataset"], cfg,
                     str(tmp_path / "out")]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("variant, weights", [
    ("minus_cr", dict(lambda1=1.0, lambda2=0.0)),
    ("full", dict(lambda1=0.0, lambda2=0.0))])
def test_train_zero_objective_exit_2(workspace, tmp_path, capsys, variant, weights):
    """Such weights once passed the config check and ended in a traceback."""
    cfg = write_cfg(tmp_path / "t.cfg", **{**TRAIN_KV, **weights})
    assert cli.main(["train", workspace["dataset"], cfg, str(tmp_path / "out"),
                     "--variant", variant]) == 2
    err = capsys.readouterr().err
    assert "lambda1" in err and "lambda2" in err and variant in err


def test_train_divergence_exit_1(workspace, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg",
                    **{**TRAIN_KV, "learning_rate": 1e200, "max_epochs": 3})
    assert cli.main(["train", workspace["dataset"], cfg,
                     str(tmp_path / "out")]) == 1
    assert "diverged" in capsys.readouterr().err.lower()


def test_train_missing_dataset_exit_2(workspace, tmp_path):
    assert cli.main(["train", str(tmp_path / "nope.jsonl"),
                     workspace["train_cfg"], str(tmp_path / "out")]) == 2


# ------------------------------------------------------------------ eval

def test_eval_matches_library_evaluate(workspace, tmp_path):
    out = str(tmp_path / "metrics.csv")
    assert cli.main(["eval", workspace["checkpoint"], workspace["dataset"],
                     "--out", out]) == 0
    header, rows, _ = read_csv(out)
    assert header[:4] == ["precision", "recall", "f1", "accuracy"]
    params, _ = M.load_checkpoint(workspace["checkpoint"])
    graphs, _ = load_dataset(workspace["dataset"])
    m = T.evaluate(params, graphs)
    got = [float(c) for c in rows[0][:4]]
    assert got == [m.precision, m.recall, m.f1, m.accuracy]
    assert [int(c) for c in rows[0][4:]] == [m.tp, m.fp, m.tn, m.fn]


def test_eval_split_selects_partition(workspace, tmp_path):
    out = str(tmp_path / "metrics.csv")
    split_file = os.path.join(workspace["out_dir"], "split.json")
    assert cli.main(["eval", workspace["checkpoint"], workspace["dataset"],
                     "--out", out, "--split", "test",
                     "--split-file", split_file]) == 0
    with open(split_file, "r", encoding="utf-8") as fh:
        ids = set(json.load(fh)["test"])
    params, _ = M.load_checkpoint(workspace["checkpoint"])
    graphs, _ = load_dataset(workspace["dataset"])
    m = T.evaluate(params, [g for g in graphs if g.graph_id in ids])
    _, rows, _ = read_csv(out)
    assert [int(c) for c in rows[0][4:]] == [m.tp, m.fp, m.tn, m.fn]


def test_eval_split_without_file_exit_2(workspace, tmp_path):
    assert cli.main(["eval", workspace["checkpoint"], workspace["dataset"],
                     "--out", str(tmp_path / "m.csv"), "--split", "test"]) == 2


@pytest.mark.parametrize("content", [None, "{not json", '{"test": 5}', '["test"]'],
                         ids=["missing", "malformed", "not_a_list", "not_an_object"])
def test_eval_bad_split_file_exit_2_naming_it(workspace, tmp_path, capsys, content):
    split_file = tmp_path / "split.json"
    if content is not None:
        split_file.write_text(content, encoding="utf-8")
    assert cli.main(["eval", workspace["checkpoint"], workspace["dataset"],
                     "--out", str(tmp_path / "m.csv"), "--split", "test",
                     "--split-file", str(split_file)]) == 2
    assert str(split_file) in capsys.readouterr().err


def test_eval_split_file_without_split_exit_2(workspace, tmp_path, capsys):
    split_file = os.path.join(workspace["out_dir"], "split.json")
    assert cli.main(["eval", workspace["checkpoint"], workspace["dataset"],
                     "--out", str(tmp_path / "m.csv"),
                     "--split-file", split_file]) == 2
    assert split_file in capsys.readouterr().err


def test_eval_checkpoint_not_an_object_exit_2(workspace, tmp_path, capsys):
    ckpt = tmp_path / "list.json"
    ckpt.write_text("[]\n", encoding="utf-8")
    assert cli.main(["eval", str(ckpt), workspace["dataset"],
                     "--out", str(tmp_path / "m.csv")]) == 2
    assert str(ckpt) in capsys.readouterr().err


def test_eval_schema_mismatch_names_both_widths(workspace, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "g.cfg",
                    **{**GEN_KV, "opcode_dim": 3, "permission_dim": 2,
                       "motif_feature_signature": "11001"})
    other = str(tmp_path / "narrow.jsonl")
    assert cli.main(["gen-data", cfg, other]) == 0
    assert cli.main(["eval", workspace["checkpoint"], other,
                     "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert "6" in err and "5" in err


@pytest.mark.parametrize("command", ["train", "eval", "export-embeddings"])
def test_graph_without_nodes_exit_2_naming_it(workspace, tmp_path, capsys, command):
    with open(workspace["dataset"], "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines.append('{"edges":[],"id":"hollow","label":0,"n":0,"x":[]}')
    path = str(tmp_path / "hollow.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    argv = {"train": ["train", path, workspace["train_cfg"], out],
            "eval": ["eval", workspace["checkpoint"], path, "--out", out],
            "export-embeddings": ["export-embeddings", workspace["checkpoint"], path, out]}
    assert cli.main(argv[command]) == 2
    assert f"{path}: graph hollow has no nodes" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("label", "1e999"), ("n", "Infinity"),
                                         ("x", "5"), ("edges", "[[1e999,0]]")])
def test_eval_malformed_record_field_exit_2(workspace, tmp_path, capsys, field, value):
    with open(workspace["dataset"], "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rec = json.loads(lines[1])
    lines[1] = json.dumps({**rec, field: None}).replace("null", value)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["eval", workspace["checkpoint"], str(path),
                     "--out", str(tmp_path / "m.csv")]) == 2
    assert f"{path}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("field,value,named", [
    ("label", "0.9", "field 'label' must be an integer, got 0.9"),
    ("year", "2019.7", "field 'year' must be an integer, got 2019.7"),
    ("n", "3.5", "field 'n' must be an integer, got 3.5"),
    ("edges", "[[0,1],[0.5,1.9]]", "edge (0.5,1.9) endpoints must be integers"),
], ids=["label", "year", "n", "edges"])
def test_eval_fractional_number_exit_2_naming_the_field(workspace, tmp_path, capsys,
                                                         field, value, named):
    """A fraction used to be truncated: label 0.9 loaded as benign, year
    2019.7 as 2019 and edge [0.5, 1.9] as (0, 1)."""
    with open(workspace["dataset"], "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rec = json.loads(lines[2])
    lines[2] = json.dumps({**rec, field: None}).replace("null", value)
    path = tmp_path / "fraction.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["eval", workspace["checkpoint"], str(path),
                     "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:3: " in err and named in err


@pytest.mark.parametrize("line", [1, 2])
def test_deeply_nested_dataset_line_exit_2_naming_it(workspace, tmp_path, capsys, line):
    with open(workspace["dataset"], "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[line - 1] = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["eval", workspace["checkpoint"], str(path),
                     "--out", str(tmp_path / "m.csv")]) == 2
    assert f"{path}:{line}: " in capsys.readouterr().err


def scoring_argv(command, ckpt, workspace, tmp_path):
    """argv of a command that scores every graph of the workspace dataset."""
    out = str(tmp_path / "out.csv")
    return {"eval": ["eval", ckpt, workspace["dataset"], "--out", out],
            "export-embeddings": ["export-embeddings", ckpt, workspace["dataset"], out],
            "attack": ["attack", ckpt, workspace["dataset"],
                       write_cfg(tmp_path / "atk.cfg", **ATTACK_KV),
                       "--mode", "whitebox", "--out", out]}[command]


def assert_names_checkpoint_and_graph(err, ckpt, workspace):
    ids = {g.graph_id for g in load_dataset(workspace["dataset"])[0]}
    assert err.startswith(f"error: {ckpt}: ")
    assert any(f"graph {gid}:" in err for gid in ids), err


@pytest.mark.parametrize("layers,scale", [((0, 1), 1e200), ((0,), 1e300)])
@pytest.mark.parametrize("command", ["eval", "export-embeddings", "attack"])
def test_overflowing_checkpoint_exit_2_naming_it_and_the_graph(
        workspace, tmp_path, capsys, command, layers, scale):
    """Weights that are finite but overflow the forward: at 1e200 a layer's
    output is infinite; at 1e300 only the embedding's norm overflows, which
    would otherwise zero both cosines and call every graph malicious."""
    params, meta = M.load_checkpoint(workspace["checkpoint"])
    for i in layers:
        params.encoder_weights[i] *= scale
    ckpt = str(tmp_path / "huge.json")
    M.save_checkpoint(ckpt, params, meta)
    assert cli.main(scoring_argv(command, ckpt, workspace, tmp_path)) == 2
    assert_names_checkpoint_and_graph(capsys.readouterr().err, ckpt, workspace)


@pytest.mark.parametrize("command", ["eval", "export-embeddings", "attack"])
def test_overflowing_head_exit_2_naming_it_and_the_graph(
        workspace, tmp_path, capsys, command):
    """A head whose logits overflow scores every graph nan, which would call
    every graph benign."""
    params, meta = M.load_checkpoint(workspace["checkpoint"])
    M.init_head(params, rng_seed=1)
    for w in params.head_weights:
        w *= 1e200
    ckpt = str(tmp_path / "huge_head.json")
    M.save_checkpoint(ckpt, params, meta)
    assert cli.main(scoring_argv(command, ckpt, workspace, tmp_path)) == 2
    assert_names_checkpoint_and_graph(capsys.readouterr().err, ckpt, workspace)


@pytest.mark.parametrize("command", ["eval", "export-embeddings", "attack"])
def test_overflowing_proxy_norm_exit_2_naming_it(workspace, tmp_path, capsys, command):
    """Finite proxy entries whose norm overflows would read every cosine
    against that proxy as 0."""
    params, _ = M.load_checkpoint(workspace["checkpoint"])
    with open(workspace["checkpoint"], "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["tensors"]["proxy_malicious"] = M._encode_array(params.proxy_malicious * 1e200)
    ckpt = tmp_path / "huge_proxy.json"
    ckpt.write_text(json.dumps(payload))
    assert cli.main(scoring_argv(command, str(ckpt), workspace, tmp_path)) == 2
    assert capsys.readouterr().err == (f"error: {ckpt}: proxy_malicious has a norm "
                                       f"that overflows\n")


@pytest.mark.parametrize("command", ["train", "eval", "export-embeddings"])
def test_dataset_without_records_exit_2(workspace, tmp_path, capsys, command):
    with open(workspace["dataset"], "r", encoding="utf-8") as fh:
        header = fh.readline()
    path = tmp_path / "header_only.jsonl"
    path.write_text(header)
    out = str(tmp_path / "out")
    argv = {"train": ["train", str(path), workspace["train_cfg"], out],
            "eval": ["eval", workspace["checkpoint"], str(path), "--out", out],
            "export-embeddings": ["export-embeddings", workspace["checkpoint"],
                                  str(path), out]}
    assert cli.main(argv[command]) == 2
    assert capsys.readouterr().err == f"error: {path}: dataset is empty\n"


def test_eval_missing_checkpoint_exit_2(workspace, tmp_path):
    assert cli.main(["eval", str(tmp_path / "none.json"), workspace["dataset"],
                     "--out", str(tmp_path / "m.csv")]) == 2


# ------------------------------------------------------------------ attack

@pytest.fixture(scope="module")
def attack_run(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("atk")
    cfg = write_cfg(root / "atk.cfg", **ATTACK_KV)
    out = str(root / "attack.csv")
    code = cli.main(["attack", workspace["checkpoint"], workspace["dataset"],
                     cfg, "--mode", "whitebox", "--out", out])
    assert code == 0
    return {"cfg": cfg, "out": out, "root": root}


def test_attack_rows_cover_detected_malicious(workspace, attack_run):
    params, _ = M.load_checkpoint(workspace["checkpoint"])
    graphs, _ = load_dataset(workspace["dataset"])
    detected = [g.graph_id for g in graphs
                if g.label == 1 and M.predict(g, params)[0] == 1]
    header, rows, trailer = read_csv(attack_run["out"])
    assert header == ["graph_id", "success", "iterations", "edges_added",
                      "original_edges", "queries"]
    assert [r[0] for r in rows] == detected
    assert any(ln.startswith("# asr,") for ln in trailer)
    assert any(ln.startswith("# apr,") for ln in trailer)
    for r in rows:
        assert int(r[5]) <= ATTACK_KV["max_iterations"] + 1


def test_attack_rerun_byte_identical(workspace, attack_run, tmp_path):
    out2 = str(tmp_path / "attack2.csv")
    assert cli.main(["attack", workspace["checkpoint"], workspace["dataset"],
                     attack_run["cfg"], "--mode", "whitebox", "--out", out2]) == 0
    assert cli._sha256(out2) == cli._sha256(attack_run["out"])


def test_attack_manifest_replay(attack_run, tmp_path):
    report = cli.replay_manifest(attack_run["out"] + ".manifest.json",
                                 str(tmp_path / "replay"))
    assert report["matched"], report["artifacts"]


def test_attack_blackbox_requires_surrogate(workspace, attack_run, tmp_path,
                                            capsys):
    assert cli.main(["attack", workspace["checkpoint"], workspace["dataset"],
                     attack_run["cfg"], "--mode", "blackbox",
                     "--out", str(tmp_path / "b.csv")]) == 2
    assert "--surrogate" in capsys.readouterr().err


def test_attack_blackbox_records_agreement(workspace, attack_run, tmp_path):
    out = str(tmp_path / "bb.csv")
    assert cli.main(["attack", workspace["checkpoint"], workspace["dataset"],
                     attack_run["cfg"], "--mode", "blackbox",
                     "--surrogate", "mlp_on_degree_features", "--out", out]) == 0
    _, rows, trailer = read_csv(out)
    agreement = [ln for ln in trailer if ln.startswith("# surrogate_agreement,")]
    assert len(agreement) == 1
    assert 0.0 <= float(agreement[0].split(",")[1]) <= 1.0
    for r in rows:
        assert int(r[5]) <= ATTACK_KV["max_iterations"] + 1
    manifest = cli.load_manifest(out + ".manifest.json")
    assert manifest["extras"]["surrogate"] == "mlp_on_degree_features"
    assert manifest["extras"]["surrogate_agreement"] is not None


def test_attack_empty_population_flagged(workspace, attack_run, tmp_path):
    graphs, schema = load_dataset(workspace["dataset"])
    benign_only = str(tmp_path / "benign.jsonl")
    save_dataset(benign_only, [g for g in graphs if g.label == 0], schema)
    out = str(tmp_path / "empty.csv")
    assert cli.main(["attack", workspace["checkpoint"], benign_only,
                     attack_run["cfg"], "--mode", "whitebox", "--out", out]) == 0
    _, rows, trailer = read_csv(out)
    assert rows == []
    assert "# population,empty" in trailer


@pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
def test_attack_counts_successes_on_edgeless_graphs_apart(workspace, attack_run,
                                                         tmp_path, mode):
    """A success on a graph with no edges has no perturbation ratio. Such a
    success once ended the attack in a traceback, with no report written."""
    graphs, schema = load_dataset(workspace["dataset"])
    strip = set(sorted(g.graph_id for g in graphs if g.label == 1)[::2])
    graphs = [FeatureGraph(g.node_count, [], g.features, g.label, g.graph_id, g.year_tag)
              if g.graph_id in strip else g for g in graphs]
    data = str(tmp_path / "edgeless.jsonl")
    save_dataset(data, graphs, schema)
    out = str(tmp_path / "a.csv")
    extra = ["--surrogate", "gnn2_mlp"] if mode == "blackbox" else []
    assert cli.main(["attack", workspace["checkpoint"], data, attack_run["cfg"],
                     "--mode", mode, "--out", out] + extra) == 0
    _, rows, trailer = read_csv(out)
    won = [r for r in rows if r[1] == "True"]
    edgeless = [r for r in won if r[4] == "0"]
    ratios = [int(r[3]) / int(r[4]) for r in won if r[4] != "0"]
    assert edgeless and ratios
    assert f"# edgeless_successes,{len(edgeless)}" in trailer
    assert "# apr_defined,True" in trailer
    apr = next(ln for ln in trailer if ln.startswith("# apr,")).split(",")[1]
    assert float(apr) == pytest.approx(np.mean(ratios), abs=1e-12)


def test_attack_bad_config_exit_2(workspace, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", **{**ATTACK_KV, "ig_steps": 0})
    assert cli.main(["attack", workspace["checkpoint"], workspace["dataset"],
                     cfg, "--mode", "whitebox",
                     "--out", str(tmp_path / "a.csv")]) == 2
    assert "ig_steps" in capsys.readouterr().err


def test_attack_candidate_policy_is_an_unknown_field_exit_2(workspace, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg",
                    **{**ATTACK_KV, "candidate_policy": "any_missing_edge"})
    assert cli.main(["attack", workspace["checkpoint"], workspace["dataset"],
                     cfg, "--mode", "whitebox",
                     "--out", str(tmp_path / "a.csv")]) == 2
    assert "unknown field 'candidate_policy'" in capsys.readouterr().err


@pytest.mark.parametrize("command, field, value", [
    ("gen-data", "rng_seed", -1), ("train", "rng_seed", -1), ("train", "split_seed", -2),
    ("train", "learning_rate", "nan"), ("train", "gamma", "inf"),
    ("attack", "rng_seed", -1), ("attack", "distill_batch_size", 0),
    ("attack", "distill_epochs", 0), ("attack", "surrogate_hidden", 0),
    ("attack", "distill_learning_rate", "-1e999")])
def test_negative_seed_or_unusable_number_exit_2_naming_the_field(
        workspace, tmp_path, capsys, command, field, value):
    """Each of these once ended in a traceback, or in a run that diverged."""
    base = {"gen-data": GEN_KV, "train": TRAIN_KV, "attack": ATTACK_KV}[command]
    cfg = write_cfg(tmp_path / "c.cfg", **{**base, field: value})
    argv = {"gen-data": ["gen-data", cfg, str(tmp_path / "d.jsonl")],
            "train": ["train", workspace["dataset"], cfg, str(tmp_path / "out")],
            "attack": ["attack", workspace["checkpoint"], workspace["dataset"], cfg,
                       "--mode", "blackbox", "--surrogate", "gnn2_mlp",
                       "--out", str(tmp_path / "a.csv")]}[command]
    assert cli.main(argv) == 2
    assert field in capsys.readouterr().err


# ------------------------------------------------------------------ export

def test_export_embeddings_matches_predict(workspace, tmp_path):
    out = str(tmp_path / "emb.csv")
    assert cli.main(["export-embeddings", workspace["checkpoint"],
                     workspace["dataset"], out]) == 0
    header, rows, _ = read_csv(out)
    params, _ = M.load_checkpoint(workspace["checkpoint"])
    h = params.hidden_dim
    assert len(header) == h + 4
    assert header[:2] == ["graph_id", "label"]
    assert header[-2:] == ["cos_p0", "cos_p1"]
    graphs, _ = load_dataset(workspace["dataset"])
    by_id = {g.graph_id: g for g in graphs}
    assert [r[0] for r in rows] == [g.graph_id for g in graphs]
    for r in rows:
        g = by_id[r[0]]
        label, s0, s1 = M.predict(g, params)
        assert float(r[-2]) == s0 and float(r[-1]) == s1
        assert int(r[1]) == g.label
        emb = M.graph_embedding(g, params.encoder_weights)
        assert np.array_equal(np.array([float(c) for c in r[2:2 + h]]), emb)


def test_export_encodes_each_graph_once(workspace, tmp_path, monkeypatch):
    """Every graph goes through the stacked forward exactly once in total,
    whichever calls carry it."""
    encoded = []
    encode = M.graph_embeddings

    def counted(graphs, weights):
        encoded.extend(g.graph_id for g in graphs)
        return encode(graphs, weights)

    monkeypatch.setattr(M, "graph_embeddings", counted)
    assert cli.main(["export-embeddings", workspace["checkpoint"],
                     workspace["dataset"], str(tmp_path / "emb.csv")]) == 0
    graphs, _ = load_dataset(workspace["dataset"])
    assert sorted(encoded) == sorted(g.graph_id for g in graphs)
    assert len(set(encoded)) == len(graphs)


def test_export_rerun_byte_identical(workspace, tmp_path):
    a, b = str(tmp_path / "e1.csv"), str(tmp_path / "e2.csv")
    for out in (a, b):
        assert cli.main(["export-embeddings", workspace["checkpoint"],
                         workspace["dataset"], out]) == 0
    assert cli._sha256(a) == cli._sha256(b)


# ------------------------------------------------------------------ input files

@contextlib.contextmanager
def fifo_writer(path):
    """While open, a thread keeps opening the FIFO at `path` for writing and
    closing it at once, so that a reader that opens it reads EOF instead of
    waiting for a writer forever."""
    done = threading.Event()

    def feed():
        while not done.is_set():
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader has it open
                done.wait(0.01)
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield
    finally:
        done.set()
        writer.join(timeout=10)
        assert not writer.is_alive()


def bad_input(failure, path):
    """Make `path` a missing file, a directory, a file that is not UTF-8 or
    a FIFO."""
    if failure == "directory":
        os.mkdir(path)
    elif failure == "not_utf8":
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe not utf-8\n")
    elif failure == "fifo":
        os.mkfifo(path)


def run_with_input(kind, path, workspace, tmp_path, capsys):
    """(exit code, message) of a run whose `kind` input is `path`. A manifest
    and a replay input go to replay_manifest, and its ConfigError counts as
    exit 2."""
    out = str(tmp_path / "out.csv")
    ckpt, data = workspace["checkpoint"], workspace["dataset"]
    argv = {"config": ["gen-data", path, out],
            "dataset": ["eval", ckpt, path, "--out", out],
            "checkpoint": ["eval", path, data, "--out", out],
            "split_file": ["eval", ckpt, data, "--out", out, "--split", "test",
                           "--split-file", path]}.get(kind)
    if argv is not None:
        code = cli.main(argv)
        return code, capsys.readouterr().err
    manifest = path
    if kind == "replay_input":
        with open(os.path.join(workspace["out_dir"], "manifest.json"),
                  encoding="utf-8") as fh:
            recorded = json.load(fh)
        recorded["inputs"]["dataset"]["path"] = path
        manifest = str(tmp_path / "replay.manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh)
    with pytest.raises(cli.ConfigError) as err:
        cli.replay_manifest(manifest, str(tmp_path / "replay"))
    return 2, f"error: {err.value}\n"


INPUT_KINDS = {"config": "config file", "dataset": "dataset file",
               "checkpoint": "checkpoint", "split_file": "split file",
               "manifest": "manifest", "replay_input": "replay input"}
FAILURES = {"missing": "not found", "directory": "not a regular file",
            "not_utf8": "is not UTF-8 text", "fifo": "not a regular file"}
# failures whose message differs: a config need not be a regular file, the
# checkpoint loader names its own decoding error, and replay only hashes
MESSAGES = {("config", "directory"): "cannot be read",
            ("checkpoint", "not_utf8"): "not a JSON checkpoint",
            ("replay_input", "not_utf8"): "changed since the original run"}


# a config may be a pipe: test_gen_data_reads_a_fifo_config_once
@pytest.mark.parametrize("kind, failure", [
    (kind, failure) for kind in sorted(INPUT_KINDS) for failure in sorted(FAILURES)
    if (kind, failure) != ("config", "fifo")])
def test_bad_input_file_exit_2_naming_it(workspace, tmp_path, capsys, kind, failure):
    """A directory given as a dataset, checkpoint or split file once exited 1,
    a dataset that is not UTF-8 was not named, and a FIFO dataset hung once
    the manifest reopened it to hash it."""
    path = str(tmp_path / "bad_input")
    bad_input(failure, path)
    with fifo_writer(path) if failure == "fifo" else contextlib.nullcontext():
        code, err = run_with_input(kind, path, workspace, tmp_path, capsys)
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count(path) == 1, err
    assert INPUT_KINDS[kind] in err
    assert MESSAGES.get((kind, failure), FAILURES[failure]) in err
