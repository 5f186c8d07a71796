"""Graph data model and dataset plumbing.

Covers the on-disk graph line format, breadth-first behavior-subgraph
extraction, a synthetic corpus generator with planted malicious motifs,
and the stratified train/validation/test split protocol.
"""
from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

FORMAT_NAME = "graphsentry-dataset"
FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class FeatureSchema:
    """Widths of the two multi-hot feature blocks (opcodes then permissions)."""

    opcode_dim: int
    permission_dim: int

    def __post_init__(self):
        if self.opcode_dim < 1 or self.permission_dim < 1:
            raise ValueError("both feature blocks need at least one dimension")

    @property
    def d(self) -> int:
        return self.opcode_dim + self.permission_dim


@dataclass(eq=False)
class FeatureGraph:
    """A directed call graph with one binary feature row per node."""

    node_count: int
    edges: list[tuple[int, int]]
    features: np.ndarray
    label: int
    graph_id: str
    year_tag: int | None = None

    def __post_init__(self):
        self.edges = [(int(s), int(t)) for s, t in self.edges]
        self.features = np.asarray(self.features, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        n = self.node_count
        if n < 0:
            raise ValueError(f"graph {self.graph_id}: negative node count")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(f"graph {self.graph_id}: feature matrix must have {n} rows, "
                             f"got shape {self.features.shape}")
        vals = self.features
        if not np.all((vals == 0.0) | (vals == 1.0)):
            raise ValueError(f"graph {self.graph_id}: features must be 0/1")
        if self.label not in (0, 1):
            raise ValueError(f"graph {self.graph_id}: label must be 0 or 1, got {self.label}")
        seen = set()
        for s, t in self.edges:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"graph {self.graph_id}: edge ({s},{t}) endpoint out of "
                                 f"range for {n} nodes")
            if s == t:
                raise ValueError(f"graph {self.graph_id}: self-loop at node {s}")
            if (s, t) in seen:
                raise ValueError(f"graph {self.graph_id}: duplicate edge ({s},{t})")
            seen.add((s, t))

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges)


@dataclass
class DatasetSplit:
    """Disjoint, exhaustive partition of graph ids."""

    train: list[str]
    validation: list[str]
    test: list[str]


@dataclass
class SyntheticConfig:
    """Knobs for the planted-motif corpus generator."""

    n_graphs: int
    benign_node_range: tuple[int, int]
    motif_node_count: int
    motif_feature_signature: str
    malicious_fraction: float
    background_edge_prob: float
    rng_seed: int
    schema: FeatureSchema

    def __post_init__(self):
        lo, hi = self.benign_node_range
        if self.n_graphs < 1:
            raise ValueError("n_graphs must be positive")
        if not 0.0 < self.malicious_fraction < 1.0:
            raise ValueError("malicious_fraction must lie strictly between 0 and 1")
        if self.motif_node_count < 2:
            raise ValueError("motif_node_count must be at least 2")
        if lo < 1 or hi < lo:
            raise ValueError(f"benign_node_range ({lo},{hi}) is empty or invalid")
        if self.motif_node_count > lo:
            raise ValueError(f"motif_node_count {self.motif_node_count} exceeds the "
                             f"minimum background size {lo}")
        if not 0.0 <= self.background_edge_prob <= 1.0:
            raise ValueError("background_edge_prob must lie in [0,1]")
        sig = self.motif_feature_signature
        if len(sig) != self.schema.d or set(sig) - {"0", "1"}:
            raise ValueError(f"motif_feature_signature must be a {self.schema.d}-character "
                             f"bit string")


def _bits_to_row(bits: str) -> np.ndarray:
    return np.fromiter((1.0 if c == "1" else 0.0 for c in bits), dtype=np.float64,
                       count=len(bits))


def _rows_to_bits(features: np.ndarray) -> list[str]:
    """Each row of a 0/1 matrix as a string of '0'/'1' characters: the
    character codes, viewed d at a time as one string."""
    n, d = features.shape
    codes = np.where(features != 0, ord("1"), ord("0")).astype(np.uint32)
    return codes.view(f"U{d}").reshape(n).tolist()


def _parse_bit_rows(rows: list, d: int) -> np.ndarray | None:
    """The 0/1 matrix of `rows`, or None unless every row is a d-character
    string of '0' and '1'. The rows are joined and compared as one byte array."""
    try:
        joined = "".join(rows)  # TypeError unless every row is a str
    except TypeError:
        return None
    if set(map(len, rows)) - {d} or not joined.isascii():
        return None
    codes = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(len(rows), d)
    ones = codes == ord("1")
    if not np.all(ones | (codes == ord("0"))):
        return None
    return ones.astype(np.float64)


def save_dataset(path, graphs: list[FeatureGraph], schema: FeatureSchema) -> None:
    """Write the newline-delimited graph format: header line, then one record per graph."""
    lines = [canonical_json({
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "opcode_dim": schema.opcode_dim,
        "permission_dim": schema.permission_dim,
    })]
    for g in graphs:
        if g.feature_dim != schema.d:
            raise ValueError(f"graph {g.graph_id} has feature width {g.feature_dim}, "
                             f"schema says {schema.d}")
        rec = {
            "id": g.graph_id,
            "label": g.label,
            "n": g.node_count,
            "edges": [[s, t] for s, t in g.edges],
            "x": _rows_to_bits(g.features),
        }
        if g.year_tag is not None:
            rec["year"] = int(g.year_tag)
        lines.append(canonical_json(rec))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> tuple[list[FeatureGraph], FeatureSchema]:
    """Parse a dataset file. Any malformed line fails the whole load with its
    line number; a file with no graph records fails as empty."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        raw = [ln for ln in (line.strip() for line in fh) if ln]
    if not raw:
        raise ValueError(f"{path}: dataset is empty")

    def fail(lineno, msg):
        raise ValueError(f"{path}:{lineno}: {msg}")

    try:
        header = json.loads(raw[0])
    except json.JSONDecodeError as exc:
        fail(1, f"header is not valid JSON ({exc.msg})")
    except RecursionError:
        fail(1, "header is nested too deeply")
    if not isinstance(header, dict) or "opcode_dim" not in header or "permission_dim" not in header:
        fail(1, "header must carry opcode_dim and permission_dim")
    try:
        schema = FeatureSchema(int(header["opcode_dim"]), int(header["permission_dim"]))
    except (TypeError, ValueError, OverflowError) as exc:
        fail(1, f"bad header dims: {exc}")
    if len(raw) == 1:
        raise ValueError(f"{path}: dataset is empty")

    graphs = []
    for lineno, line in enumerate(raw[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(lineno, f"record is not valid JSON ({exc.msg})")
        except RecursionError:
            fail(lineno, "record is nested too deeply")
        if not isinstance(rec, dict):
            fail(lineno, "record must be an object")
        missing = {"id", "label", "n", "edges", "x"} - rec.keys()
        if missing:
            fail(lineno, f"record missing fields {sorted(missing)}")
        n = rec["n"]
        bits = rec["x"]
        if not isinstance(bits, list):
            fail(lineno, f"record {rec['id']}: feature rows must be a list")
        if len(bits) != n:
            fail(lineno, f"record {rec['id']}: expected {n} feature rows, got {len(bits)}")
        feats = _parse_bit_rows(bits, schema.d)
        if feats is None:
            fail(lineno, f"record {rec['id']}: feature rows must be {schema.d}-character "
                         f"bit strings")
        try:
            g = FeatureGraph(
                node_count=int(n),
                edges=[tuple(e) for e in rec["edges"]],
                features=feats,
                label=int(rec["label"]),
                graph_id=str(rec["id"]),
                year_tag=int(rec["year"]) if "year" in rec and rec["year"] is not None else None,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            fail(lineno, str(exc))
        graphs.append(g)
    return graphs, schema


def extract_behavior_subgraph(fcg: FeatureGraph, seeds: list[int],
                              depth: int) -> tuple[FeatureGraph, dict[int, int]]:
    """BFS out from sensitive seed nodes and keep everything within `depth` hops.

    Follows out-edges only (caller to callee). Returns the induced subgraph with
    nodes relabeled 0..k-1 in ascending original-id order, plus the old-to-new map.
    """
    if not seeds:
        raise ValueError(f"graph {fcg.graph_id}: no seed nodes given; graphs without "
                         f"sensitive calls are rejected")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    for s in seeds:
        if not 0 <= s < fcg.node_count:
            raise ValueError(f"graph {fcg.graph_id}: seed {s} out of range")

    out_adj: dict[int, list[int]] = {}
    for s, t in fcg.edges:
        out_adj.setdefault(s, []).append(t)

    # Multi-source BFS: the depth-bounded ball around the seed set equals the
    # union of per-seed balls, since every node takes its nearest seed's distance.
    dist = {s: 0 for s in set(seeds)}
    queue = deque(sorted(dist))
    while queue:
        u = queue.popleft()
        if dist[u] == depth:
            continue
        for v in out_adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)

    kept = sorted(dist)
    node_map = {old: new for new, old in enumerate(kept)}
    sub_edges = [(node_map[s], node_map[t]) for s, t in fcg.edges
                 if s in node_map and t in node_map]
    sub = FeatureGraph(
        node_count=len(kept),
        edges=sub_edges,
        features=fcg.features[kept],
        label=fcg.label,
        graph_id=fcg.graph_id,
        year_tag=fcg.year_tag,
    )
    return sub, node_map


def _background_features(rng: np.random.Generator, n: int, d: int,
                         signature: np.ndarray) -> np.ndarray:
    """Random 0/1 rows, resampled so no background row equals the motif signature."""
    feats = rng.integers(0, 2, size=(n, d)).astype(np.float64)
    for i in np.flatnonzero(np.all(feats == signature, axis=1)):
        while np.array_equal(feats[i], signature):
            feats[i] = rng.integers(0, 2, size=d).astype(np.float64)
    return feats


def generate_synthetic_dataset(config: SyntheticConfig) -> list[FeatureGraph]:
    """Build a labeled corpus where malicious graphs hide a small wired-in motif.

    Malicious graphs append a directed ring of motif nodes carrying the
    signature feature row, connected to the background by one incoming and one
    outgoing edge. Benign graphs never contain a signature row. The rng draw
    order is fixed, so identical configs reproduce identical datasets.
    """
    d = config.schema.d
    signature = _bits_to_row(config.motif_feature_signature)
    rng = np.random.default_rng(config.rng_seed)

    n_mal = int(np.floor(config.malicious_fraction * config.n_graphs + 0.5))
    malicious_ids = set(rng.choice(config.n_graphs, size=n_mal, replace=False).tolist())

    lo, hi = config.benign_node_range
    graphs = []
    for i in range(config.n_graphs):
        is_mal = i in malicious_ids
        n_bg = int(rng.integers(lo, hi + 1))
        feats = _background_features(rng, n_bg, d, signature)
        mask = rng.random((n_bg, n_bg)) < config.background_edge_prob
        np.fill_diagonal(mask, False)
        edges = np.argwhere(mask).tolist()

        n = n_bg
        if is_mal:
            m = config.motif_node_count
            feats = np.vstack([feats, np.tile(signature, (m, 1))])
            ring = [(n_bg + j, n_bg + (j + 1) % m) for j in range(m)]
            wire_in = (int(rng.integers(n_bg)), n_bg + int(rng.integers(m)))
            wire_out = (n_bg + int(rng.integers(m)), int(rng.integers(n_bg)))
            edges += ring + [wire_in, wire_out]
            n = n_bg + m

        graphs.append(FeatureGraph(
            node_count=n,
            edges=edges,
            features=feats,
            label=1 if is_mal else 0,
            graph_id=f"g{i:05d}",
        ))
    return graphs


def _counts_for(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    n_tr = int(np.floor(n * ratios[0] + 0.5))
    n_va = int(np.floor(n * ratios[1] + 0.5))
    n_te = n - n_tr - n_va
    return n_tr, n_va, n_te


def split_dataset(graphs: list[FeatureGraph], ratios: tuple[float, float, float],
                  class_ratio: tuple[float, float], rng_seed: int) -> DatasetSplit:
    """Stratified split: each class is shuffled and cut by `ratios` independently.

    `class_ratio` is (benign parts, malicious parts), e.g. (9, 1); the dataset
    and every resulting partition must match it within two percentage points.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios {ratios} do not sum to 1")
    if len(ratios) != 3:
        raise ValueError("ratios must be (train, validation, test)")
    ben_parts, mal_parts = class_ratio
    if ben_parts <= 0 or mal_parts <= 0:
        raise ValueError("class_ratio parts must be positive")
    want_mal = mal_parts / (ben_parts + mal_parts)

    ids = [g.graph_id for g in graphs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate graph_ids in dataset")
    by_class = {0: [g.graph_id for g in graphs if g.label == 0],
                1: [g.graph_id for g in graphs if g.label == 1]}
    total = len(graphs)
    if total == 0 or not by_class[0] or not by_class[1]:
        raise ValueError("split needs at least one graph of each class")
    have_mal = len(by_class[1]) / total
    if abs(have_mal - want_mal) > 0.02:
        raise ValueError(f"dataset malicious fraction {have_mal:.3f} is more than 2 "
                         f"percentage points from the requested {want_mal:.3f}")

    rng = np.random.default_rng(rng_seed)
    parts: list[list[str]] = [[], [], []]
    for label in (0, 1):
        pool = list(by_class[label])
        order = rng.permutation(len(pool))
        shuffled = [pool[j] for j in order]
        n_tr, n_va, n_te = _counts_for(len(pool), ratios)
        if min(n_tr, n_va, n_te) < 1:
            raise ValueError(f"class {label}: a partition would receive no graphs "
                             f"(counts {n_tr}/{n_va}/{n_te})")
        parts[0] += shuffled[:n_tr]
        parts[1] += shuffled[n_tr:n_tr + n_va]
        parts[2] += shuffled[n_tr + n_va:]

    mal_ids = set(by_class[1])
    for name, part in zip(("train", "validation", "test"), parts):
        frac = sum(1 for gid in part if gid in mal_ids) / len(part)
        ideal = want_mal * len(part)
        # integer rounding tolerance: one graph either way, on top of the 2pp band
        if abs(frac - want_mal) > 0.02 and abs(frac * len(part) - ideal) > 1.0:
            raise ValueError(f"{name} partition malicious fraction {frac:.3f} strays "
                             f"from {want_mal:.3f}")
    return DatasetSplit(train=sorted(parts[0]), validation=sorted(parts[1]),
                        test=sorted(parts[2]))
