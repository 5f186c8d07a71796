"""Output checks. Each raises CheckFailed naming the first output that is wrong.

The checks take plain values (tuples, dicts, CSV rows) so that the tests in
test_checks.py can hand them corrupted outputs and see each one rejected.
"""
from __future__ import annotations

import numpy as np

import oracle

SCORE_TOL = 1e-9  # oracle vs package: same float64 maths in another order
IG_ATOL = 1e-8    # central differences with step 1e-6 agree to about 1e-10
IG_RTOL = 1e-6


class CheckFailed(AssertionError):
    """An output of the program disagrees with the oracle or the method."""


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


def check_predictions(params: dict, graphs, got, tol: float = SCORE_TOL) -> list[int]:
    """`got[i]` is the program's (label, s0, s1) for `graphs[i]` =
    (id, n, edges, x). Returns the oracle's labels."""
    labels = []
    for (gid, n, edges, x), (label, s0, s1) in zip(graphs, got, strict=True):
        want = oracle.predict(params, n, edges, x)
        if label != want[0] or abs(s0 - want[1]) > tol or abs(s1 - want[2]) > tol:
            _fail(f"{gid}: program scored ({label}, {s0!r}, {s1!r}), "
                  f"oracle ({want[0]}, {want[1]!r}, {want[2]!r})")
        labels.append(want[0])
    return labels


def confusion(truth, pred) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) with malicious (1) as the positive class."""
    t, p = np.asarray(truth), np.asarray(pred)
    return (int(np.sum((t == 1) & (p == 1))), int(np.sum((t == 0) & (p == 1))),
            int(np.sum((t == 0) & (p == 0))), int(np.sum((t == 1) & (p == 0))))


def check_counts(what: str, got: tuple, truth, pred) -> None:
    want = confusion(truth, pred)
    if tuple(got) != want:
        _fail(f"{what}: confusion (tp, fp, tn, fn) {tuple(got)}, oracle {want}")


def check_perturbation(orig_n: int, orig_edges, orig_x, n: int, edges, x,
                       edges_added, what: str) -> None:
    """Nodes, features and original edges kept; exactly `edges_added` added,
    none a self-loop, a duplicate or the reverse of an edge present."""
    orig_edges = [tuple(e) for e in orig_edges]
    edges = [tuple(e) for e in edges]
    added = [tuple(e) for e in edges_added]
    if n != orig_n or not np.array_equal(x, orig_x):
        _fail(f"{what}: nodes or features changed")
    if edges != orig_edges + added:
        _fail(f"{what}: edges are not the original edges followed by the "
              f"{len(added)} reported insertions")
    present = set(orig_edges)
    for s, t in added:
        if s == t or (s, t) in present or (t, s) in present:
            _fail(f"{what}: insertion ({s},{t}) is a self-loop, a duplicate or "
                  f"the reverse of an edge present")
        present.add((s, t))


def check_outcome(params: dict, n: int, edges, x, success: bool, what: str) -> None:
    """A success must be benign under the oracle, a failure still malicious."""
    label = oracle.predict(params, n, edges, x)[0]
    if label != (0 if success else 1):
        _fail(f"{what}: reported {'success' if success else 'failure'} but the "
              f"oracle labels the perturbed graph {label}")


def check_ig(got: dict, want: dict, first_pick, what: str) -> None:
    """Saliency keys and values against the oracle; the first chosen edge
    must carry the top oracle score."""
    if set(got) != set(want):
        _fail(f"{what}: saliency scores {len(got)} candidates, oracle {len(want)}; "
              f"they differ on {sorted(set(got) ^ set(want))[:5]}")
    for edge, value in want.items():
        if abs(got[edge] - value) > IG_ATOL + IG_RTOL * abs(value):
            _fail(f"{what}: IG score of {edge} is {got[edge]!r}, oracle {value!r}")
    top = max(want.values())
    if want[tuple(first_pick)] < top - IG_ATOL - IG_RTOL * abs(top):
        _fail(f"{what}: first insertion {tuple(first_pick)} scores "
              f"{want[tuple(first_pick)]!r} under the oracle, the top is {top!r}")


def check_agreement(victim: dict, surrogate: dict, graphs, agreement: float) -> None:
    """The reported share of `graphs` on which the distilled surrogate (enc.*
    and head.* weights) and the victim give the same label."""
    same = sum(oracle.predict(victim, n, e, x)[0]
               == oracle.predict(surrogate, n, e, x, encoder="enc.")[0]
               for _, n, e, x in graphs)
    if agreement != same / len(graphs):
        _fail(f"distill: agreement {agreement!r}, oracle {same / len(graphs)!r}")


def check_queries(queries: int, counted: int, max_iterations: int, what: str) -> None:
    if queries != counted or counted > max_iterations + 1:
        _fail(f"{what}: {counted} victim queries counted, {queries} reported, "
              f"cap {max_iterations + 1}")


def check_signature_labels(records, signature: str) -> None:
    """Generated graphs are malicious exactly when they hold a signature row."""
    sig = np.array([float(c) for c in signature])
    for rec in records:
        has = bool(np.any(np.all(rec["x"] == sig, axis=1)))
        if has != (rec["label"] == 1):
            _fail(f"{rec['id']}: label {rec['label']} but signature rows "
                  f"{'present' if has else 'absent'}")


def check_metrics_csv(rows: list[list[str]], truth, pred, tol: float = SCORE_TOL) -> None:
    """The `eval` CSV: header, then precision, recall, f1, accuracy, tp, fp, tn, fn."""
    tp, fp, tn, fn = confusion(truth, pred)
    check_counts("eval", tuple(int(v) for v in rows[1][4:8]), truth, pred)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    want = [precision, recall, f1, (tp + tn) / (tp + fp + tn + fn)]
    for name, got, value in zip(rows[0][:4], rows[1][:4], want):
        if abs(float(got) - value) > tol:
            _fail(f"eval: {name} {got}, oracle {value!r}")


def check_embedding_rows(params: dict, records, rows: list[list[str]],
                         tol: float = SCORE_TOL) -> None:
    """The `export-embeddings` CSV: one row per graph, in file order, of id,
    label, the embedding and the two proxy cosines."""
    body = rows[1:]
    if len(body) != len(records):
        _fail(f"export: {len(body)} rows for {len(records)} graphs")
    for rec, row in zip(records, body):
        g = oracle.embedding(params, rec["n"], rec["edges"], rec["x"])
        want = np.concatenate([g, oracle.head_scores(params, g)])
        got = np.array([float(v) for v in row[2:]])
        if row[0] != rec["id"] or int(row[1]) != rec["label"]:
            _fail(f"export: row for {row[0]} (label {row[1]}) where the dataset "
                  f"has {rec['id']} (label {rec['label']})")
        if got.shape != want.shape or np.max(np.abs(got - want)) > tol:
            _fail(f"export: row {rec['id']} differs from the oracle by "
                  f"{np.max(np.abs(got - want)) if got.shape == want.shape else 'shape'}")
