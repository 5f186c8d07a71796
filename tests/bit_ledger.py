"""The bits a change to the package may or may not move, as one JSON file.

Run from the repository root, with BLAS on one thread as the benchmark runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/bit_ledger.py BITS.json

It writes sha256 digests of what the pipeline produces, next to the numbers
the acceptance criteria read:
- the benchmark victim's eval and export CSVs, on the desk data and on two
  150-graph large shards;
- the seed-0 checkpoints of the four variants, with their best and stopping
  epochs and test F1;
- the 8 checkpoints of criterion 7's grid (seeds 0-3, `full` and
  `minus_cr`), the edges each of their white-box attacks added, and per-seed
  test F1 and ASR;
- both distilled surrogates;
- CLI white-box and black-box attack reports;
- the test graphs criterion 5's detector misclassifies.

The output is deterministic, so a change that keeps every bit leaves the file
as it was, and a change that moves bits shows which outputs moved. The digests
depend on the BLAS build, so it is not part of the test suite. It is a helper,
not a test module; pytest does not collect it. It takes about a minute, most
of it criterion 7's grid.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

import graphsentry.attacks as AT
import graphsentry.cli as cli
import graphsentry.model as M
import graphsentry.training as T
from graphsentry import graphdata as G

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VICTIM = os.path.join(ROOT, "perfbench", "victim_full_seed0.json")
DESK_SIG = "110010101010"
# The benchmark's large-score shard config (perfbench/workloads.py).
LARGE_CONFIG = """\
n_graphs = 150
benign_node_min = 100
benign_node_max = 200
motif_node_count = 5
motif_feature_signature = {sig}
malicious_fraction = 0.1
background_edge_prob = 0.02
rng_seed = {seed}
opcode_dim = 8
permission_dim = 4
"""
LARGE_SEEDS = (4, 5)
# A small dataset of the desk schema for the CLI attacks, and a budget at
# which some of the victim's graphs flip after varying numbers of insertions,
# so the reports see which edges the attacks chose.
ATTACK_DATA_CONFIG = """\
n_graphs = 60
benign_node_min = 8
benign_node_max = 12
motif_node_count = 5
motif_feature_signature = {sig}
malicious_fraction = 0.25
background_edge_prob = 0.15
rng_seed = 11
opcode_dim = 8
permission_dim = 4
"""
ATTACK_CONFIG = "max_iterations = 30\nig_steps = 8\ndistill_epochs = 40\nsurrogate_hidden = 16\n"


def desk_data() -> dict:
    """The acceptance suite's desk data, split 70/20/10."""
    cfg = G.SyntheticConfig(
        n_graphs=1000, benign_node_range=(8, 14), motif_node_count=5,
        motif_feature_signature=DESK_SIG, malicious_fraction=0.1,
        background_edge_prob=0.15, rng_seed=42, schema=G.FeatureSchema(8, 4))
    graphs = G.generate_synthetic_dataset(cfg)
    split = G.split_dataset(graphs, (0.7, 0.2, 0.1), (9, 1), 0)
    by_id = {g.graph_id: g for g in graphs}
    out = {name: [by_id[i] for i in getattr(split, name)]
           for name in ("train", "validation", "test")}
    out["all"] = graphs
    return out


def desk_train_config(seed: int, variant: str) -> T.TrainConfig:
    """The acceptance suite's desk training config."""
    return T.TrainConfig(gamma=0.5, learning_rate=0.001, layers=2, hidden=32,
                         lambda1=1.0, lambda2=1.0, max_epochs=200,
                         early_stop_patience=10, batch_size=32,
                         rng_seed=seed, variant=variant)


def array_digest(named: dict[str, np.ndarray]) -> str:
    """sha256 of named arrays in the dict's order: name, shape and bytes."""
    h = hashlib.sha256()
    for name, arr in named.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(f"{name}:{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def text_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"graphsentry {' '.join(argv)} exited with {code}")


def victim_outputs(work: str, desk: dict) -> dict:
    """Digests of the victim's eval and export CSVs on the desk data and on
    the large shards, and of the CLI white-box and black-box reports."""
    out = {}
    datasets = {"desk": os.path.join(work, "desk.jsonl")}
    G.save_dataset(datasets["desk"], desk["all"], G.FeatureSchema(8, 4))
    for seed in LARGE_SEEDS:
        cfg = os.path.join(work, f"large{seed}.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(LARGE_CONFIG.format(sig=DESK_SIG, seed=seed))
        datasets[f"large_seed{seed}"] = os.path.join(work, f"large{seed}.jsonl")
        run_cli(["gen-data", cfg, datasets[f"large_seed{seed}"]])
    for name, path in datasets.items():
        metrics, embeddings = path + ".metrics.csv", path + ".embeddings.csv"
        run_cli(["eval", VICTIM, path, "--out", metrics])
        run_cli(["export-embeddings", VICTIM, path, embeddings])
        out[name] = {"dataset": file_digest(path), "eval": file_digest(metrics),
                     "export": file_digest(embeddings)}

    data_cfg, data = os.path.join(work, "attack.cfg"), os.path.join(work, "attack.jsonl")
    with open(data_cfg, "w", encoding="utf-8") as fh:
        fh.write(ATTACK_DATA_CONFIG.format(sig=DESK_SIG))
    run_cli(["gen-data", data_cfg, data])
    atk_cfg = os.path.join(work, "atk.cfg")
    with open(atk_cfg, "w", encoding="utf-8") as fh:
        fh.write(ATTACK_CONFIG)
    reports = {}
    for mode, extra in (("whitebox", []), ("blackbox", ["--surrogate", "gnn2_mlp"]),
                        ("blackbox_degree", ["--surrogate", "mlp_on_degree_features"])):
        report = os.path.join(work, f"{mode}.csv")
        run_cli(["attack", VICTIM, data, atk_cfg, "--mode", mode.split("_")[0],
                 *extra, "--out", report])
        reports[mode] = file_digest(report)
    out["cli_attack_reports"] = reports
    return out


def surrogates(desk: dict) -> dict:
    """Digests of both surrogate architectures distilled from the victim."""
    victim = AT.DetectorVictim(M.load_checkpoint(VICTIM)[0])
    out = {}
    for arch in AT.ARCHITECTURES:
        sp, agreement = AT.distill_surrogate(victim.label, desk["train"], arch,
                                             epochs=3, hidden=16, rng_seed=0)
        out[arch] = {"weights": array_digest(sp.weights), "agreement": agreement}
    return out


def trainings(desk: dict) -> dict:
    """The seed-0 variants, criterion 7's grid and criterion 5's errors."""
    out, grid = {"seed0_variants": {}, "criterion7": {}}, {}
    for seed in range(4):
        for variant in T.VARIANTS if seed == 0 else ("full", "minus_cr"):
            grid[seed, variant] = T.train(desk["train"], desk["validation"],
                                          desk_train_config(seed, variant))
    for variant in T.VARIANTS:
        params, report = grid[0, variant]
        out["seed0_variants"][variant] = {
            "checkpoint": array_digest(params.named_arrays()),
            "best_epoch": report.best_epoch, "stopping_epoch": report.stopping_epoch,
            "test_f1": T.evaluate(params, desk["test"]).f1}
    acfg = AT.AttackConfig(max_iterations=100)
    for seed in range(4):
        row = {}
        for variant in ("full", "minus_cr"):
            params = grid[seed, variant][0]
            pop = [g for g in desk["test"]
                   if g.label == 1 and M.predict(g, params)[0] == 1]
            results = [AT.whitebox_attack(params, g, acfg) for g in pop]
            row[variant] = {
                "checkpoint": array_digest(params.named_arrays()),
                "test_f1": T.evaluate(params, desk["test"]).f1,
                "asr": AT.compute_asr_apr(results).asr,
                "attacked": len(results),
                "edges_added": text_digest([[r.original_id, [list(map(int, e))
                                                             for e in r.edges_added]]
                                            for r in results])}
        out["criterion7"][f"seed{seed}"] = row
    params = grid[0, "full"][0]
    out["criterion5_misclassified"] = [g.graph_id for g in desk["test"]
                                       if M.predict(g, params)[0] != g.label]
    return out


def ledger() -> dict:
    desk = desk_data()
    with tempfile.TemporaryDirectory() as work:
        out = {"victim": victim_outputs(work, desk)}
    out["surrogates"] = surrogates(desk)
    out.update(trainings(desk))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: bit_ledger.py OUT.json", file=sys.stderr)
        return 2
    text = json.dumps(ledger(), indent=2, sort_keys=True) + "\n"
    with open(argv[0], "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
