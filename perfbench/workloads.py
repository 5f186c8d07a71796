"""The benchmark's two workloads, driven through graphsentry's public API
and `graphsentry.cli.main`.

Each workload has a `setup()` (repeatable; timed as setup_s), a `release()`
that drops what the last set-up made, a `run_round()` that returns a Round
holding timed samples of its three stages, and a `check(round)` that
compares the round's outputs with the oracle or with properties the method
must have. A round is the same operations every time, so the share of failed
operations is the same in every run.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import graphsentry.attacks as AT
import graphsentry.cli as cli
import graphsentry.model as M
import graphsentry.graphdata as G

import checks
import oracle

DESK_SIG = "110010101010"
VICTIM = "victim_full_seed0.json"  # beside this file; make_victim.py makes it
WHITEBOX = AT.AttackConfig(max_iterations=20, ig_steps=10)
DISTILL_EPOCHS = 3
SURROGATE_HIDDEN = 16
BLACKBOX_ITERATIONS = 3
BLACKBOX_IG_STEPS = 5
# large-score's 600 graphs, as shards of distinct generator seeds: each shard
# is a sample of every stage, so a round gives four samples and not one.
LARGE_SHARDS = 4
SHARD_GRAPHS = 150
# desk-attack's distillation and black-box samples, which last 2 s or less,
# are spread between thirds of the white-box attack, so that their median
# does not hang on one moment of a machine whose speed drifts.
ATTACK_CHUNKS = 3


def desk_data() -> dict:
    """The acceptance suite's desk data: 1,000 graphs of 8-19 nodes, 9:1
    benign to malicious, split 70/20/10; generator and split seeds fixed."""
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


def plain(g) -> tuple:
    """A FeatureGraph as the oracle's (id, n, edges, x)."""
    return g.graph_id, g.node_count, g.edges, g.features


STAGES = 3


@dataclass
class Round:
    # samples[stage] = [(seconds, units of work), ...]
    samples: list[list[tuple[float, int]]] = field(
        default_factory=lambda: [[] for _ in range(STAGES)])
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)

    def op(self, fn, *args, **kwargs):
        """One operation: its result, or None when it raised (counted failed)."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # an operation that fails is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None

    def timed(self, stage: int, units_of, fn):
        """One sample of `stage`: the time of `fn()`, and `units_of(result)`
        the work it did. Garbage of earlier work is collected first, so that
        no sample pays for another's."""
        secs, result = stopwatch(fn)
        self.samples[stage].append((secs, units_of(result)))
        return result


def stopwatch(fn):
    """(seconds, result) of `fn()`, timed after a garbage collection."""
    gc.collect()
    tic = time.perf_counter()
    result = fn()
    return time.perf_counter() - tic, result


class Workload:
    """What run.py drives. `setup()` sets the attributes named in SETUP."""
    SETUP: tuple[str, ...] = ()

    def release(self) -> None:
        for name in self.SETUP:
            self.__dict__.pop(name, None)


class DeskAttack(Workload):
    """White-box attack on the fixed victim's detected desk test malware, a
    surrogate distilled from its labels on the train split, and a short
    black-box attack through the surrogate."""
    SETUP = ("params", "data", "population")

    def __init__(self, root, seed, work):
        self.seed = seed
        self.victim_path = os.path.join(root, "perfbench", VICTIM)

    def setup(self) -> None:
        self.params, _ = M.load_checkpoint(self.victim_path)
        self.data = desk_data()
        self.population = [g for g in self.data["test"]
                           if g.label == 1 and M.predict(g, self.params)[0] == 1]

    def run_round(self) -> Round:
        """Per third of the population: a distillation, a black-box attack
        through its surrogate, then the white-box attack on that third. The
        white-box stage is one sample per round, the sum of its thirds."""
        r = Round()
        params, pop, train = self.params, self.population, self.data["train"]
        victim = AT.DetectorVictim(params)
        bb_cfg = AT.AttackConfig(max_iterations=BLACKBOX_ITERATIONS,
                                 ig_steps=BLACKBOX_IG_STEPS, rng_seed=self.seed)

        def iterations(results):
            return sum(res.iterations_used for res in results if res)

        def distill():
            return r.op(AT.distill_surrogate, victim.label, train, "gnn2_mlp",
                        epochs=DISTILL_EPOCHS, hidden=SURROGATE_HIDDEN,
                        rng_seed=self.seed)

        def blackbox(distilled):
            """[(result, victim queries counted)] per graph."""
            out = []
            if distilled is None:
                return out
            for g in pop:
                calls = [0]

                def label(graph, calls=calls):
                    calls[0] += 1
                    return victim.label(graph)
                out.append((r.op(AT.blackbox_attack, label, distilled[0], g, bb_cfg),
                            calls[0]))
            return out

        whitebox, wb_secs = [], 0.0
        r.outputs["distill"], r.outputs["blackbox"] = [], []
        for k in range(ATTACK_CHUNKS):
            distilled = r.timed(1, lambda res: DISTILL_EPOCHS * len(train) if res else 0,
                                distill)
            r.outputs["distill"].append(distilled)
            r.outputs["blackbox"].append(r.timed(
                2, lambda out: iterations(res for res, _ in out),
                lambda: blackbox(distilled)))
            chunk = pop[k * len(pop) // ATTACK_CHUNKS:(k + 1) * len(pop) // ATTACK_CHUNKS]
            secs, results = stopwatch(lambda: [
                r.op(AT.whitebox_attack, params, g, WHITEBOX) for g in chunk])
            wb_secs += secs
            whitebox += results
        r.samples[0].append((wb_secs, iterations(whitebox)))
        r.outputs["whitebox"] = whitebox
        return r

    def _check_result(self, arrays, g, res, what) -> None:
        p = res.perturbed
        checks.check_perturbation(g.node_count, g.edges, g.features, p.node_count,
                                  p.edges, p.features, res.edges_added, what)
        checks.check_outcome(arrays, p.node_count, p.edges, p.features,
                             res.success, what)

    def check(self, r: Round) -> None:
        arrays = self.params.named_arrays()
        test = self.data["test"]
        checks.check_predictions(arrays, [plain(g) for g in test],
                                 [M.predict(g, self.params) for g in test])
        for g, res in zip(self.population, r.outputs["whitebox"]):
            if res is not None:
                self._check_result(arrays, g, res, f"whitebox {g.graph_id}")
        first = r.outputs["whitebox"][0]
        if first is not None and first.edges_added:
            g = self.population[0]
            got = AT.edge_saliency_ig(self.params, g, WHITEBOX.ig_steps)
            want = oracle.ig_scores(arrays, g.node_count, g.edges, g.features,
                                    WHITEBOX.ig_steps)
            checks.check_ig(got, want, first.edges_added[0], f"saliency {g.graph_id}")
        train = [plain(g) for g in self.data["train"]]
        for distilled in r.outputs["distill"]:
            if distilled is not None:
                surrogate, agreement = distilled
                checks.check_agreement(arrays, surrogate.weights, train, agreement)
        for out in r.outputs["blackbox"]:
            for g, (res, counted) in zip(self.population, out):
                if res is not None:
                    what = f"blackbox {g.graph_id}"
                    self._check_result(arrays, g, res, what)
                    checks.check_queries(res.queries, counted, BLACKBOX_ITERATIONS,
                                         what)


GEN_CONFIG = """\
n_graphs = {n}
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


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _csv_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()
                if line and not line.startswith("#")]


class LargeScore(Workload):
    """gen-data, eval and export-embeddings through the CLI on large sparse
    graphs, scored by the fixed victim. Each of the LARGE_SHARDS shards has
    its own generator seed and files; every command on a shard is a sample."""
    SETUP = ("params", "arrays")

    def __init__(self, root, seed, work):
        self.seed = seed
        self.victim_path = os.path.join(root, "perfbench", VICTIM)
        self.shards = [{name: os.path.join(work, f"shard{k}", name) for name in (
            "gen.cfg", "dataset.jsonl", "metrics.csv", "embeddings.csv", "replay")}
            for k in range(LARGE_SHARDS)]
        # shard -> digests of the files of the first round whose full check
        # passed.
        self.checked: dict[int, dict[str, str]] = {}
        # The configs are written once, outside the timed set-up: writing
        # four small files is the benchmark's own plumbing, and its time
        # varies with the file system far more than the program's set-up.
        # Files a previous run left here are all rewritten before they are
        # read: check() looks at a shard's files only when its commands all
        # succeeded.
        for k, p in enumerate(self.shards):
            os.makedirs(os.path.dirname(p["gen.cfg"]), exist_ok=True)
            with open(p["gen.cfg"], "w", encoding="utf-8") as fh:
                fh.write(GEN_CONFIG.format(n=SHARD_GRAPHS, sig=DESK_SIG,
                                           seed=self.seed * LARGE_SHARDS + k))

    def setup(self) -> None:
        self.params, _ = M.load_checkpoint(self.victim_path)
        self.arrays = oracle.read_checkpoint(self.victim_path)

    def run_round(self) -> Round:
        r = Round()
        ckpt = self.victim_path
        for k, p in enumerate(self.shards):
            commands = (
                ["gen-data", p["gen.cfg"], p["dataset.jsonl"]],
                ["eval", ckpt, p["dataset.jsonl"], "--out", p["metrics.csv"]],
                ["export-embeddings", ckpt, p["dataset.jsonl"], p["embeddings.csv"]],
            )
            r.outputs[k] = [r.timed(stage, lambda ok: SHARD_GRAPHS if ok else 0,
                                    lambda: r.op(self._command, argv))
                            for stage, argv in enumerate(commands)]
        return r

    @staticmethod
    def _command(argv) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"graphsentry {argv[0]} exited with {code}")
        return True

    def check(self, r: Round) -> None:
        for name, value in self.params.named_arrays().items():
            if not np.array_equal(value, self.arrays[name]):
                raise checks.CheckFailed(f"load_checkpoint: {name} differs from the file")
        for k, p in enumerate(self.shards):
            if all(r.outputs[k]):
                self._check_shard(k, p)

    def _check_shard(self, k: int, p: dict) -> None:
        digests = {name: _sha256(p[name]) for name in ("dataset.jsonl", "metrics.csv",
                                                       "embeddings.csv")}
        if k in self.checked:
            # Same config, same inputs: a later round must reproduce the
            # outputs the first round's full check passed.
            if digests != self.checked[k]:
                raise checks.CheckFailed(f"large-score shard {k}: a later round's "
                                         f"outputs differ from the first round's")
            return
        records = oracle.read_dataset(p["dataset.jsonl"])
        if len(records) != SHARD_GRAPHS:
            raise checks.CheckFailed(f"gen-data wrote {len(records)} graphs "
                                     f"to shard {k}")
        checks.check_signature_labels(records, DESK_SIG)
        arrays = self.arrays
        pred = [oracle.predict(arrays, rec["n"], rec["edges"], rec["x"])[0]
                for rec in records]
        checks.check_metrics_csv(_csv_rows(p["metrics.csv"]),
                                 [rec["label"] for rec in records], pred)
        checks.check_embedding_rows(arrays, records, _csv_rows(p["embeddings.csv"]))
        with contextlib.redirect_stdout(io.StringIO()):
            replay = cli.replay_manifest(p["metrics.csv"] + ".manifest.json",
                                         p["replay"])
        if not replay["matched"]:
            raise checks.CheckFailed(f"replaying the eval manifest of shard {k}: "
                                     f"{replay}")
        self.checked[k] = digests


WORKLOADS = {"desk-attack": DeskAttack, "large-score": LargeScore}
