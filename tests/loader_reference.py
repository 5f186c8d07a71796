"""The dataset loader with json.loads on every line: the reference that
`graphdata.load_dataset` must agree with, graph for graph and error for
error. It is a helper, not a test module; pytest does not collect it.

The package's loader reads the edge list of a canonical record line with
numpy and hands only the rest of the line to json.loads. This reference
parses every line whole and hands the edge list to `FeatureGraph` as the
list json.loads made. The checks after the parse are the package's own
(`_whole`, `_parse_bit_rows`, `FeatureGraph`), as they are not under test
here.
"""
import json

from graphsentry.graphdata import (FORMAT_NAME, FORMAT_VERSION, FeatureGraph,
                                   FeatureSchema, _parse_bit_rows, _whole)


def load_dataset(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in (line.strip() for line in fh) if ln]
    if not lines:
        raise ValueError(f"{path}: dataset is empty")

    def parse(lineno, what):
        try:
            return json.loads(lines[lineno - 1])
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {what} is not valid JSON ({exc.msg})")
        except RecursionError:
            raise ValueError(f"{path}:{lineno}: {what} is nested too deeply")

    header = parse(1, "header")
    if not (isinstance(header, dict) and "opcode_dim" in header
            and "permission_dim" in header):
        raise ValueError(f"{path}:1: header must carry opcode_dim and permission_dim")
    if header.get("format", FORMAT_NAME) != FORMAT_NAME:
        raise ValueError(f"{path}:1: header format must be {FORMAT_NAME!r}, "
                         f"got {header['format']!r}")
    version = header.get("version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"{path}:1: header version must be {FORMAT_VERSION}, "
                         f"got {version!r}")
    try:
        schema = FeatureSchema(_whole(header["opcode_dim"], "opcode_dim"),
                               _whole(header["permission_dim"], "permission_dim"))
    except ValueError as exc:
        raise ValueError(f"{path}:1: bad header dims: {exc}")
    if len(lines) == 1:
        raise ValueError(f"{path}: dataset is empty")

    graphs = []
    for lineno in range(2, len(lines) + 1):
        rec = parse(lineno, "record")
        try:
            graphs.append(_graph(rec, schema.d))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}")
    return graphs, schema


def _graph(rec, d):
    if not isinstance(rec, dict):
        raise ValueError("record must be an object")
    missing = {"id", "label", "n", "edges", "x"} - rec.keys()
    if missing:
        raise ValueError(f"record missing fields {sorted(missing)}")
    what = f"record {rec['id']}"
    n = _whole(rec["n"], f"{what}: field 'n'")
    label = _whole(rec["label"], f"{what}: field 'label'")
    year = None if rec.get("year") is None else _whole(rec["year"], f"{what}: field 'year'")
    bits = rec["x"]
    if not isinstance(bits, list):
        raise ValueError(f"{what}: feature rows must be a list")
    if len(bits) != n:
        raise ValueError(f"{what}: expected {n} feature rows, got {len(bits)}")
    feats = _parse_bit_rows(bits, d)
    if feats is None:
        raise ValueError(f"{what}: feature rows must be {d}-character bit strings")
    return FeatureGraph(node_count=n, edges=rec["edges"], features=feats, label=label,
                        graph_id=str(rec["id"]), year_tag=year)
