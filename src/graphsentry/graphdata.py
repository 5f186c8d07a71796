"""Graph data model and dataset plumbing.

Covers the on-disk graph line format, a synthetic corpus generator with
planted malicious motifs, and the stratified train/validation/test split
protocol.
"""
from __future__ import annotations

import json
import re
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


def _raise_first_bad_edge(pairs, n: int, graph_id: str) -> None:
    """Walk `pairs` of Python ints in order and raise for the first one that
    is out of range, a self-loop or a repeat of an earlier pair."""
    seen = set()
    for s, t in pairs:
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"graph {graph_id}: edge ({s},{t}) endpoint out of "
                             f"range for {n} nodes")
        if s == t:
            raise ValueError(f"graph {graph_id}: self-loop at node {s}")
        if (s, t) in seen:
            raise ValueError(f"graph {graph_id}: duplicate edge ({s},{t})")
        seen.add((s, t))


def _edge_array(edges, n: int, graph_id: str) -> np.ndarray:
    """`edges` as a new read-only (E, 2) intp array: (0, 2) for no edges.
    ValueError unless it is a list of [source, target] pairs of integral
    numbers; a fraction or a boolean is never read as a number. An endpoint
    too large for intp fails as out of range for the `n` nodes."""
    try:
        raw = np.asarray(edges)  # ValueError when ragged or nested too deeply
        if raw.shape == (0,):
            raw = raw.reshape(0, 2)
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise ValueError
    except ValueError:
        raise ValueError(f"graph {graph_id}: edges must be [source, target] "
                         f"pairs") from None
    kind = raw.dtype.kind
    if kind in "iuf" and not isinstance(edges, np.ndarray) and len(raw):
        # A boolean beside numbers reads as 0 or 1, so only an endpoint of at
        # most 1 can be one.
        for i in np.flatnonzero(raw.ravel() <= 1).tolist():
            if isinstance(edges[i >> 1][i & 1], (bool, np.bool_)):
                s, t = edges[i >> 1]
                raise ValueError(f"graph {graph_id}: edge ({s},{t}) endpoints must "
                                 f"be integers")
    too_large = False
    if kind == "f":
        whole = np.isfinite(raw) & (np.trunc(raw) == raw)
        if not whole.all():
            s, t = raw[np.argmin(whole.all(axis=1))].tolist()
            raise ValueError(f"graph {graph_id}: edge ({s},{t}) endpoints must be "
                             f"integers")
        # past 2**62 a float is no node id, and past 2**63 it has no intp value
        too_large = len(raw) and np.abs(raw).max() >= 2.0 ** 62
    elif kind == "u":
        too_large = len(raw) and raw.max() > np.iinfo(np.intp).max
    elif kind == "O" and all(type(v) is int for v in raw.flat):
        too_large = True  # integers past the int64 range
    elif kind != "i":
        raise ValueError(f"graph {graph_id}: edge endpoints must be integers")
    if too_large:
        pairs = raw.tolist() if isinstance(edges, np.ndarray) else edges
        _raise_first_bad_edge([(int(s), int(t)) for s, t in pairs], n, graph_id)
    out = raw.astype(np.intp)
    out.flags.writeable = False
    return out


@dataclass(eq=False)
class FeatureGraph:
    """A directed call graph with one binary feature row per node. `edges`
    is a read-only (E, 2) integer array of (source, target) rows."""

    node_count: int
    edges: np.ndarray
    features: np.ndarray
    label: int
    graph_id: str
    year_tag: int | None = None

    def __post_init__(self):
        self.edges = _edge_array(self.edges, self.node_count, self.graph_id)
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
        if np.count_nonzero((vals != 0.0) & (vals != 1.0)):
            raise ValueError(f"graph {self.graph_id}: features must be 0/1")
        if self.label not in (0, 1):
            raise ValueError(f"graph {self.graph_id}: label must be 0 or 1, got {self.label}")
        # Array checks, then a walk only to name the first bad edge. Seen as
        # unsigned, a negative endpoint is at least n. Few numpy calls, as
        # most graphs are small: np.count_nonzero costs less than np.any.
        e = self.edges
        if len(e) and (e.view(np.uintp).max() >= n or np.count_nonzero(e[:, 0] == e[:, 1])):
            _raise_first_bad_edge(e.tolist(), n, self.graph_id)
        keys = e[:, 0] * n + e[:, 1]
        keys.sort()
        if np.count_nonzero(keys[1:] == keys[:-1]):
            _raise_first_bad_edge(e.tolist(), n, self.graph_id)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def edge_set(self) -> set[tuple[int, int]]:
        return set(map(tuple, self.edges.tolist()))


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


def _bit_strings(features: np.ndarray) -> list[str]:
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
            "edges": g.edges.tolist(),
            "x": _bit_strings(g.features),
        }
        if g.year_tag is not None:
            rec["year"] = int(g.year_tag)
        lines.append(canonical_json(rec))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _whole(value, what: str) -> int:
    """A number read from a dataset file as an int. ValueError saying that
    `what` must be an integer unless it is an integral number: a fraction, a
    string or a boolean is rejected, never truncated."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


# The start of a record line as save_dataset writes it: keys sorted, so the
# edge list comes first, and no whitespace. Each endpoint is a non-negative
# integer with no leading zero and one digit fewer than intp's maximum, so it
# fits intp (18 digits where intp has 64 bits, 9 where it has 32); a longer
# endpoint goes to json.loads. Every pair is closed by a bracket, so
# backtracking stays linear in the line's length.
_ENDPOINT_DIGITS = len(str(np.iinfo(np.intp).max)) - 1
_ENDPOINT = rf"(?:0|[1-9][0-9]{{0,{_ENDPOINT_DIGITS - 1}}})"
_PAIR = rf"\[{_ENDPOINT},{_ENDPOINT}\]"
_CANONICAL_EDGES = re.compile(rf'\{{"edges":\[((?:(?:{_PAIR},)*{_PAIR})?)\],"')
_BRACKETS_TO_SPACES = str.maketrans("[]", "  ")


def _read_record(line: str):
    """json.loads(line), except that the edge list of a canonical record line
    becomes an (E, 2) intp array in one numpy call and json.loads reads only
    the rest of the line. A line whose rest is no JSON object, or repeats the
    "edges" key, goes to json.loads whole, as does any other line, so the
    values and the errors are those of json.loads."""
    m = _CANONICAL_EDGES.match(line)
    if m:
        try:
            rec = json.loads("{" + line[m.end() - 1:])
        except (json.JSONDecodeError, RecursionError):
            pass  # raised again below, with its position in the whole line
        else:
            if "edges" not in rec:
                rec["edges"] = np.fromstring(m.group(1).translate(_BRACKETS_TO_SPACES),
                                             dtype=np.intp, sep=",").reshape(-1, 2)
                return rec
    return json.loads(line)


def load_dataset(path) -> tuple[list[FeatureGraph], FeatureSchema]:
    """Parse a dataset file. Any malformed line fails the whole load with its
    line number; a file with no graph records fails as empty."""
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
    if header.get("format", FORMAT_NAME) != FORMAT_NAME:
        fail(1, f"header format must be {FORMAT_NAME!r}, got {header['format']!r}")
    version = header.get("version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        fail(1, f"header version must be {FORMAT_VERSION}, got {version!r}")
    try:
        schema = FeatureSchema(_whole(header["opcode_dim"], "opcode_dim"),
                               _whole(header["permission_dim"], "permission_dim"))
    except ValueError as exc:
        fail(1, f"bad header dims: {exc}")
    if len(raw) == 1:
        raise ValueError(f"{path}: dataset is empty")

    graphs = []
    for lineno, line in enumerate(raw[1:], start=2):
        try:
            rec = _read_record(line)
        except json.JSONDecodeError as exc:
            fail(lineno, f"record is not valid JSON ({exc.msg})")
        except RecursionError:
            fail(lineno, "record is nested too deeply")
        if not isinstance(rec, dict):
            fail(lineno, "record must be an object")
        missing = {"id", "label", "n", "edges", "x"} - rec.keys()
        if missing:
            fail(lineno, f"record missing fields {sorted(missing)}")
        try:
            n = _whole(rec["n"], f"record {rec['id']}: field 'n'")
            label = _whole(rec["label"], f"record {rec['id']}: field 'label'")
            year = (None if rec.get("year") is None
                    else _whole(rec["year"], f"record {rec['id']}: field 'year'"))
        except ValueError as exc:
            fail(lineno, str(exc))
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
                node_count=n,
                edges=rec["edges"],
                features=feats,
                label=label,
                graph_id=str(rec["id"]),
                year_tag=year,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            fail(lineno, str(exc))
        graphs.append(g)
    return graphs, schema


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
        edges = np.argwhere(mask)

        n = n_bg
        if is_mal:
            m = config.motif_node_count
            feats = np.vstack([feats, np.tile(signature, (m, 1))])
            motif = n_bg + np.arange(m)
            ring = np.column_stack([motif, np.roll(motif, -1)])
            wire_in = (int(rng.integers(n_bg)), n_bg + int(rng.integers(m)))
            wire_out = (n_bg + int(rng.integers(m)), int(rng.integers(n_bg)))
            edges = np.concatenate([edges, ring, [wire_in, wire_out]])
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
