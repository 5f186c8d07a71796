"""Command-line pipeline: data generation, training, evaluation, attacks,
embedding export. Every command writes a run manifest with input/artifact
checksums; artifacts are deterministic given the config seeds, so replaying
a manifest reproduces their checksums. Wall-clock timings are kept out of
artifact files (they go to the manifest and a separate timings CSV).

Exit codes: 0 success, 1 runtime failure, 2 invalid input.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import stat
import sys
import tempfile
import time

import numpy as np

from . import __version__
from . import autodiff as ad
from . import attacks as AT
from . import model as M
from . import training as T
from .graphdata import (FeatureSchema, SyntheticConfig, canonical_json,
                        generate_synthetic_dataset, load_dataset, save_dataset,
                        split_dataset)

MANIFEST_FORMAT = "graphsentry-manifest"


class ConfigError(ValueError):
    """Invalid input: bad config field, unreadable file, schema mismatch."""


# ------------------------------------------------------------------ config files

REQUIRED = object()


def _choice(*options):
    def parse(raw):
        if raw not in options:
            raise ValueError(f"must be one of {options}")
        return raw
    return parse


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _seed(raw):
    value = int(raw)
    if value < 0:
        raise ValueError("must be a non-negative integer")
    return value


GEN_FIELDS = {
    "n_graphs": (int, REQUIRED),
    "benign_node_min": (int, REQUIRED),
    "benign_node_max": (int, REQUIRED),
    "motif_node_count": (int, REQUIRED),
    "motif_feature_signature": (str, REQUIRED),
    "malicious_fraction": (_finite, REQUIRED),
    "background_edge_prob": (_finite, REQUIRED),
    "rng_seed": (_seed, 0),
    "opcode_dim": (int, REQUIRED),
    "permission_dim": (int, REQUIRED),
}

TRAIN_FIELDS = {
    "gamma": (_finite, 0.8),
    "learning_rate": (_finite, 0.001),
    "layers": (int, 2),
    "hidden": (int, 128),
    "lambda1": (_finite, 1.0),
    "lambda2": (_finite, 1.0),
    "max_epochs": (int, 200),
    "early_stop_patience": (int, 20),
    "batch_size": (int, 32),
    "rng_seed": (_seed, 0),
    "variant": (_choice(*T.VARIANTS), "full"),
    "train_ratio": (_finite, 0.7),
    "val_ratio": (_finite, 0.2),
    "test_ratio": (_finite, 0.1),
    "benign_parts": (_finite, 9.0),
    "malicious_parts": (_finite, 1.0),
    "split_seed": (_seed, 0),
}

ATTACK_FIELDS = {
    "max_iterations": (int, 100),
    "ig_steps": (int, 20),
    "edges_per_iteration": (int, 1),
    "rng_seed": (_seed, 0),
    "surrogate_hidden": (int, 32),
    "distill_epochs": (int, 100),
    "distill_learning_rate": (_finite, 0.01),
    "distill_batch_size": (int, 32),
}


def _read_input(what: str, path, load, regular: bool = True):
    """`load(path)` for the input file `path`, a `what` such as "dataset file".
    Every way the file can fail is bad input, a ConfigError naming `what` and
    `path`. A `regular` file is checked before it is opened, as opening a FIFO
    waits for a writer, and the manifest reads the file again to hash it.
    `load` names the path in the ValueError for content it rejects."""
    try:
        if not regular or stat.S_ISREG(os.stat(path).st_mode):
            return load(path)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} cannot be read: {path} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} is not UTF-8 text: {path} ({exc.reason})") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{what} is not JSON: {path} ({exc})") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"{what} is not a regular file: {path}")


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path):
    return json.loads(_read_text(path))


def read_config(path) -> str:
    """The text of a config file, read once: a pipe or FIFO cannot be reread."""
    return _read_input("config file", path, _read_text, regular=False)


def parse_config(path, fields: dict, text: str) -> dict:
    """Flat key=value file with # comments, `text` read from `path` by
    `read_config`; unknown or missing keys are errors."""
    values = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate field {key!r}")
        parse, _ = fields[key]
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: field {key!r}: {exc}") from exc
    for key, (_, default) in fields.items():
        if key not in values:
            if default is REQUIRED:
                raise ConfigError(f"{path}: missing required field {key!r}")
            values[key] = default
    return values


# ------------------------------------------------------------------ manifests

def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _file_entry(path) -> dict:
    return {"path": str(path), "sha256": _sha256(path)}


def write_manifest(path, command: str, config_text: str | None, seeds: dict,
                   inputs: dict, artifacts: dict, timings: dict,
                   extras: dict | None = None) -> None:
    manifest = {
        "format": MANIFEST_FORMAT,
        "package_version": __version__,
        "command": command,
        "config_text": config_text,
        "seeds": seeds,
        "inputs": {name: _file_entry(p) for name, p in inputs.items()},
        "artifacts": {name: _file_entry(p) for name, p in artifacts.items()},
        "timings": timings,
        "extras": extras or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(manifest) + "\n")


# command -> (whether it reads a config, inputs it needs, artifacts it
# writes, extras replay reads and their legal values)
MANIFEST_COMMANDS = {
    "gen-data": (True, (), {"dataset"}, {}),
    "train": (True, ("dataset",), {"checkpoint", "report", "split"},
              {"variant": ("",) + T.VARIANTS}),
    "eval": (False, ("checkpoint", "dataset"), {"metrics"},
             {"split": ("train", "validation", "test", "all")}),
    "attack": (True, ("checkpoint", "dataset"), {"report"},
               {"mode": ("whitebox", "blackbox"), "surrogate": ("",) + AT.ARCHITECTURES}),
    "export-embeddings": (False, ("checkpoint", "dataset"), {"embeddings"}, {}),
}


def _file_entries_ok(entries) -> bool:
    return isinstance(entries, dict) and all(
        isinstance(e, dict) and isinstance(e.get("path"), str) and "\0" not in e["path"]
        and isinstance(e.get("sha256"), str) for e in entries.values())


def load_manifest(path) -> dict:
    """A run manifest written by `write_manifest`, with every field that
    `replay_manifest` reads checked; ConfigError names the file and field."""
    manifest = _read_input("manifest", path, _read_json)
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ConfigError(f"{path}: not a run manifest")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in MANIFEST_COMMANDS:
        raise ConfigError(f"{path}: unknown command {command!r}")
    configured, needs, artifacts, choices = MANIFEST_COMMANDS[command]
    if "config_text" not in manifest:
        raise ConfigError(f"{path}: field 'config_text' is missing")
    text = manifest["config_text"]
    if not (isinstance(text, str) if configured else text is None):
        raise ConfigError(f"{path}: field 'config_text' must be "
                          f"{'a string' if configured else 'null'} for {command}")
    for name in ("inputs", "artifacts"):
        if not _file_entries_ok(manifest.get(name)):
            raise ConfigError(f"{path}: field {name!r} must map names to "
                              f"{{path, sha256}} strings")
    missing = [name for name in needs if name not in manifest["inputs"]]
    if missing:
        raise ConfigError(f"{path}: {command} input {missing[0]!r} is missing")
    extra = sorted(set(manifest["artifacts"]) - artifacts)
    if extra:
        raise ConfigError(f"{path}: {command} writes no artifact {extra[0]!r}")
    extras = manifest.get("extras")
    if not isinstance(extras, dict):
        raise ConfigError(f"{path}: field 'extras' must be an object")
    for key, options in choices.items():
        if extras.get(key) not in options:
            raise ConfigError(f"{path}: extras field {key!r} must be one of {options}")
    return manifest


def replay_manifest(manifest_path, work_dir) -> dict:
    """Rerun a manifest's command into work_dir and compare artifact checksums.

    Inputs must still exist with their recorded checksums. Returns a report
    with per-artifact match booleans. A manifest that is malformed, or whose
    command exits 2 on its recorded inputs, raises ConfigError.
    """
    manifest = load_manifest(manifest_path)
    for name, entry in manifest["inputs"].items():
        if _read_input(f"replay input {name}", entry["path"], _sha256) != entry["sha256"]:
            raise ConfigError(f"replay input {name} changed since the original run: "
                              f"{entry['path']}")

    os.makedirs(work_dir, exist_ok=True)
    cfg_path = None
    if manifest["config_text"] is not None:
        cfg_path = os.path.join(work_dir, "replay.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(manifest["config_text"])

    command = manifest["command"]
    extras = manifest["extras"]
    inputs = {k: v["path"] for k, v in manifest["inputs"].items()}
    out_map = {}  # artifact name -> replayed path
    if command == "gen-data":
        out = os.path.join(work_dir, "dataset.jsonl")
        argv = ["gen-data", cfg_path, out]
        out_map["dataset"] = out
    elif command == "train":
        out_dir = os.path.join(work_dir, "train")
        argv = ["train", inputs["dataset"], cfg_path, out_dir]
        if extras.get("variant"):
            argv += ["--variant", extras["variant"]]
        for name, fname in (("checkpoint", "checkpoint.json"),
                            ("report", "report.csv"), ("split", "split.json")):
            out_map[name] = os.path.join(out_dir, fname)
    elif command == "eval":
        out = os.path.join(work_dir, "metrics.csv")
        argv = ["eval", inputs["checkpoint"], inputs["dataset"], "--out", out,
                "--split", extras["split"]]
        if "split_file" in inputs:
            argv += ["--split-file", inputs["split_file"]]
        out_map["metrics"] = out
    elif command == "attack":
        out = os.path.join(work_dir, "attack.csv")
        argv = ["attack", inputs["checkpoint"], inputs["dataset"], cfg_path,
                "--mode", extras["mode"], "--out", out]
        if extras.get("surrogate"):
            argv += ["--surrogate", extras["surrogate"]]
        out_map["report"] = out
    else:  # export-embeddings; load_manifest admits no other command
        out = os.path.join(work_dir, "embeddings.csv")
        argv = ["export-embeddings", inputs["checkpoint"], inputs["dataset"], out]
        out_map["embeddings"] = out

    code = main(argv)
    if code == 2:
        raise ConfigError(f"replay of {command} rejected its recorded input")
    if code != 0:
        raise RuntimeError(f"replay of {command} exited with {code}")
    matches = {}
    for name, entry in manifest["artifacts"].items():
        matches[name] = _sha256(out_map[name]) == entry["sha256"]
    return {"matched": all(matches.values()), "artifacts": matches}


# ------------------------------------------------------------------ helpers

def _load_graphs(path):
    graphs, _schema = _read_input("dataset file", path, load_dataset)
    empty = next((g.graph_id for g in graphs if g.node_count == 0), None)
    if empty is not None:
        raise ConfigError(f"{path}: graph {empty} has no nodes")
    return graphs


def _load_model_and_graphs(checkpoint_path, dataset_path):
    """(params, graphs) of a checkpoint and a dataset of the feature width
    it expects."""
    params, _meta = _read_input("checkpoint", checkpoint_path, M.load_checkpoint)
    graphs = _load_graphs(dataset_path)
    d = graphs[0].feature_dim
    if params.feature_dim != d:
        raise ConfigError(f"schema mismatch: checkpoint {checkpoint_path} expects "
                          f"feature width {params.feature_dim}, dataset "
                          f"{dataset_path} has width {d}")
    return params, graphs


def _load_split(path, name: str) -> list[str]:
    """The graph ids of one partition of a training run's split.json."""
    split_ids = _read_input("split file", path, _read_json)
    if not isinstance(split_ids, dict) or name not in split_ids:
        raise ConfigError(f"split {name!r} not present in {path}")
    ids = split_ids[name]
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise ConfigError(f"{path}: split {name!r} must be a list of graph ids")
    return ids


@contextlib.contextmanager
def _finite_forward(checkpoint_path):
    """A forward that overflows means the checkpoint's weights are unusable:
    report it as bad input that names the checkpoint (and, from the
    NonFiniteError, the graph). numpy's overflow warnings are silenced, as the
    error says what overflowed."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except ad.NonFiniteError as exc:
        raise ConfigError(f"{checkpoint_path}: weights overflow: {exc}") from exc


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path, header: list[str], rows: list[list],
               trailer: list[str] | None = None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    if trailer:
        lines += trailer
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ------------------------------------------------------------------ commands

def gen_config(values: dict) -> SyntheticConfig:
    """The generator config of parsed gen-data fields; ConfigError if invalid."""
    try:
        return SyntheticConfig(
            n_graphs=values["n_graphs"],
            benign_node_range=(values["benign_node_min"], values["benign_node_max"]),
            motif_node_count=values["motif_node_count"],
            motif_feature_signature=values["motif_feature_signature"],
            malicious_fraction=values["malicious_fraction"],
            background_edge_prob=values["background_edge_prob"],
            rng_seed=values["rng_seed"],
            schema=FeatureSchema(values["opcode_dim"], values["permission_dim"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_gen_data(args) -> None:
    config_text = read_config(args.config)
    cfg = gen_config(parse_config(args.config, GEN_FIELDS, config_text))
    tic = time.perf_counter()
    graphs = generate_synthetic_dataset(cfg)
    save_dataset(args.out, graphs, cfg.schema)
    write_manifest(
        args.out + ".manifest.json", "gen-data", config_text,
        seeds={"rng_seed": cfg.rng_seed},
        inputs={}, artifacts={"dataset": args.out},
        timings={"total_seconds": time.perf_counter() - tic},
    )
    print(f"wrote {len(graphs)} graphs to {args.out}")


def _split_parts(graphs, split_ids):
    by_id = {g.graph_id: g for g in graphs}
    missing = [gid for part in split_ids.values() for gid in part if gid not in by_id]
    if missing:
        raise ConfigError(f"split references unknown graph ids: {missing[:5]}")
    return {name: [by_id[gid] for gid in part] for name, part in split_ids.items()}


def train_setup(values: dict, graphs) -> tuple:
    """(split of `graphs`, TrainConfig) from parsed train fields; ConfigError
    if either is invalid."""
    ratios = (values["train_ratio"], values["val_ratio"], values["test_ratio"])
    try:
        split = split_dataset(graphs, ratios,
                              (values["benign_parts"], values["malicious_parts"]),
                              values["split_seed"])
        cfg = T.TrainConfig(**{k: values[k] for k in (
            "gamma", "learning_rate", "layers", "hidden", "lambda1", "lambda2",
            "max_epochs", "early_stop_patience", "batch_size", "rng_seed", "variant")})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return split, cfg


def cmd_train(args) -> None:
    config_text = read_config(args.config)
    values = parse_config(args.config, TRAIN_FIELDS, config_text)
    if args.variant:
        values["variant"] = args.variant
    graphs = _load_graphs(args.dataset)
    split, cfg = train_setup(values, graphs)

    parts = _split_parts(graphs, {"train": split.train, "validation": split.validation,
                                  "test": split.test})
    tic = time.perf_counter()
    params, report = T.train(parts["train"], parts["validation"], cfg)
    total = time.perf_counter() - tic

    os.makedirs(args.out_dir, exist_ok=True)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.json")
    report_path = os.path.join(args.out_dir, "report.csv")
    timings_path = os.path.join(args.out_dir, "timings.csv")
    split_path = os.path.join(args.out_dir, "split.json")

    M.save_checkpoint(ckpt_path, params, meta={
        "config": {k: values[k] for k in sorted(values)},
        "best_epoch": report.best_epoch,
        "best_val_f1": report.best_val_f1,
        "stopping_epoch": report.stopping_epoch,
        "counter_delta": report.counter_delta,
        "variant": cfg.variant,
    })
    _write_csv(report_path, ["epoch", "train_loss", "rec_loss", "val_f1"],
               [[e.epoch, _fmt(e.train_loss), _fmt(e.rec_loss), _fmt(e.val_f1)]
                for e in report.epochs])
    _write_csv(timings_path, ["epoch", "seconds"],
               [[e.epoch, _fmt(e.seconds)] for e in report.epochs])
    with open(split_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json({"train": split.train, "validation": split.validation,
                                 "test": split.test}) + "\n")

    write_manifest(
        os.path.join(args.out_dir, "manifest.json"), "train", config_text,
        seeds={"rng_seed": cfg.rng_seed, "split_seed": values["split_seed"]},
        inputs={"dataset": args.dataset},
        artifacts={"checkpoint": ckpt_path, "report": report_path,
                   "split": split_path},
        timings={"total_seconds": total,
                 "epoch_seconds": [e.seconds for e in report.epochs]},
        extras={"variant": args.variant or ""},
    )
    print(f"trained variant={cfg.variant}: best val F1 {report.best_val_f1:.4f} "
          f"at epoch {report.best_epoch}, stopped at {report.stopping_epoch}")


def cmd_eval(args) -> None:
    params, graphs = _load_model_and_graphs(args.checkpoint, args.dataset)

    inputs = {"checkpoint": args.checkpoint, "dataset": args.dataset}
    if args.split != "all":
        if not args.split_file:
            raise ConfigError("--split requires --split-file")
        ids = _load_split(args.split_file, args.split)
        graphs = _split_parts(graphs, {args.split: ids})[args.split]
        inputs["split_file"] = args.split_file
    elif args.split_file:
        raise ConfigError(f"--split-file {args.split_file} needs --split "
                          f"train, validation or test")
    if not graphs:
        raise ConfigError("no graphs selected for evaluation")

    tic = time.perf_counter()
    with _finite_forward(args.checkpoint):
        m = T.evaluate(params, graphs)
    _write_csv(args.out,
               ["precision", "recall", "f1", "accuracy", "tp", "fp", "tn", "fn"],
               [[_fmt(m.precision), _fmt(m.recall), _fmt(m.f1), _fmt(m.accuracy),
                 m.tp, m.fp, m.tn, m.fn]])
    write_manifest(
        args.out + ".manifest.json", "eval", None,
        seeds={}, inputs=inputs, artifacts={"metrics": args.out},
        timings={"total_seconds": time.perf_counter() - tic},
        extras={"split": args.split},
    )
    print(f"precision {m.precision:.4f}  recall {m.recall:.4f}  "
          f"f1 {m.f1:.4f}  accuracy {m.accuracy:.4f}")
    print(f"confusion tp={m.tp} fp={m.fp} tn={m.tn} fn={m.fn}")


def attack_config(values: dict) -> AT.AttackConfig:
    """The AttackConfig of parsed attack fields, whose distillation fields
    are checked too; ConfigError if any is invalid."""
    for key in ("surrogate_hidden", "distill_epochs", "distill_batch_size"):
        if values[key] < 1:
            raise ConfigError(f"{key} must be at least 1")
    if values["distill_learning_rate"] <= 0:
        raise ConfigError("distill_learning_rate must be positive")
    try:
        cfg = AT.AttackConfig(**{k: values[k] for k in (
            "max_iterations", "ig_steps", "edges_per_iteration")})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def cmd_attack(args) -> None:
    config_text = read_config(args.config)
    values = parse_config(args.config, ATTACK_FIELDS, config_text)
    params, graphs = _load_model_and_graphs(args.checkpoint, args.dataset)
    cfg = attack_config(values)
    if args.mode == "blackbox" and not args.surrogate:
        raise ConfigError("blackbox mode requires --surrogate "
                          f"(one of {AT.ARCHITECTURES})")

    victim = AT.DetectorVictim(params)
    malicious = [g for g in graphs if g.label == 1]
    with _finite_forward(args.checkpoint):
        detected = victim.labels(malicious)
    population = [g for g, y in zip(malicious, detected) if y == 1]

    tic = time.perf_counter()
    agreement = None
    results = []
    if population:
        if args.mode == "whitebox":
            for g in population:
                results.append(AT.whitebox_attack(victim, g, cfg))
        else:
            surrogate, agreement = AT.distill_surrogate(
                victim.label, graphs, args.surrogate,
                epochs=values["distill_epochs"],
                hidden=values["surrogate_hidden"],
                learning_rate=values["distill_learning_rate"],
                batch_size=values["distill_batch_size"],
                rng_seed=values["rng_seed"])
            for g in population:
                results.append(AT.blackbox_attack(victim.label, surrogate, g, cfg))
    total = time.perf_counter() - tic

    rows = [[r.original_id, r.success, r.iterations_used, len(r.edges_added),
             r.original_edge_count, r.queries] for r in results]
    trailer = []
    if results:
        summary = AT.compute_asr_apr(results)
        trailer = [f"# asr,{_fmt(summary.asr)}",
                   f"# apr,{_fmt(summary.apr)}",
                   f"# apr_defined,{summary.apr_defined}",
                   f"# attempted,{summary.attempted}",
                   f"# succeeded,{summary.succeeded}",
                   f"# edgeless_successes,{summary.edgeless_successes}"]
    else:
        summary = None
        trailer = ["# attempted,0", "# population,empty"]
    if agreement is not None:
        trailer.append(f"# surrogate_agreement,{_fmt(agreement)}")
    _write_csv(args.out, ["graph_id", "success", "iterations", "edges_added",
                          "original_edges", "queries"], rows, trailer)

    write_manifest(
        args.out + ".manifest.json", "attack", config_text,
        seeds={"rng_seed": values["rng_seed"]},
        inputs={"checkpoint": args.checkpoint, "dataset": args.dataset},
        artifacts={"report": args.out},
        timings={"total_seconds": total},
        extras={"mode": args.mode, "surrogate": args.surrogate or "",
                "asr": None if summary is None else summary.asr,
                "apr": None if summary is None else summary.apr,
                "surrogate_agreement": agreement},
    )
    if summary is None:
        print("no initially-detected malicious graphs; nothing attacked")
    else:
        apr_txt = _fmt(summary.apr) if summary.apr_defined else "undefined"
        print(f"{args.mode}: asr {summary.asr:.4f} apr {apr_txt} "
              f"({summary.succeeded}/{summary.attempted} succeeded)")


def cmd_export_embeddings(args) -> None:
    params, graphs = _load_model_and_graphs(args.checkpoint, args.dataset)
    tic = time.perf_counter()
    h = params.hidden_dim
    with _finite_forward(args.checkpoint):
        emb, _, s0, s1 = M.score_graphs(graphs, params.encoder_weights,
                                        M.score_head(params))
    rows = [[g.graph_id, g.label] + [_fmt(v) for v in e + [c0, c1]]
            for g, e, c0, c1 in zip(graphs, emb.tolist(), s0.tolist(), s1.tolist())]
    header = ["graph_id", "label"] + [f"g_{i + 1}" for i in range(h)] \
        + ["cos_p0", "cos_p1"]
    _write_csv(args.out, header, rows)
    write_manifest(
        args.out + ".manifest.json", "export-embeddings", None,
        seeds={}, inputs={"checkpoint": args.checkpoint, "dataset": args.dataset},
        artifacts={"embeddings": args.out},
        timings={"total_seconds": time.perf_counter() - tic},
    )
    print(f"exported {len(rows)} embeddings ({len(header)} columns) to {args.out}")


# ------------------------------------------------------------------ entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsentry",
        description="Masked-reconstruction graph classifier and attack harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic labeled dataset")
    p.add_argument("config")
    p.add_argument("out")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="split a dataset and train a detector")
    p.add_argument("dataset")
    p.add_argument("config")
    p.add_argument("out_dir")
    p.add_argument("--variant", choices=T.VARIANTS, default=None,
                   help="override the config's ablation variant")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "validation", "test", "all"),
                   default="all")
    p.add_argument("--split-file", default=None,
                   help="split.json from a training run")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attack", help="attack a checkpoint with edge insertions")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("config")
    p.add_argument("--mode", choices=("whitebox", "blackbox"), required=True)
    p.add_argument("--surrogate", choices=AT.ARCHITECTURES, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("export-embeddings",
                       help="dump graph embeddings and proxy cosines")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("out")
    p.set_defaults(func=cmd_export_embeddings)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except T.TrainingDiverged as exc:
        print(f"failure: training diverged: {exc}", file=sys.stderr)
        return 1
    except (ad.NonFiniteError, OSError, RuntimeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"failure: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
