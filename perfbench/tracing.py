"""Spans around the package's public functions, for the traced run.

The tracer replaces public functions and methods with timing wrappers from
outside the package and puts the originals back afterwards; the package
itself carries no tracing. Each span records its name, start, end and parent
(the span open when it began) in flat arrays kept in memory, written out
once the run ends. A span's self time is its duration minus the durations
of its direct children.
"""
from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("autodiff", "model", "losses", "training", "attacks", "graphdata", "cli")

# Public op functions of graphsentry.autodiff and the kind each records.
OP_FUNCTIONS = {
    "add": "add", "sub": "sub", "mul": "mul", "scale": "scale",
    "matmul": "matmul", "relu": "relu", "square": "square", "exp": "exp",
    "log": "log", "sum_all": "sum", "mean_all": "mean", "mean_rows": "mean_rows",
    "dot": "dot", "row_norms": "row_norms", "cosine": "cosine",
    "row_cosine": "row_cosine", "concat": "concat", "gather_rows": "gather_rows",
    "scatter_rows": "scatter_rows", "tile_rows": "tile_rows",
    "edge_aggregate": "edge_aggregate",
}

# Op kinds reported: those that run in some workload. The others (scale,
# square, mean, cosine, row_cosine, gather_rows, scatter_rows, mul, row_norms
# and concat) run only in training the detector itself, which no workload does.
OP_KINDS = ("add", "sub", "matmul", "relu", "exp", "log", "sum", "mean_rows",
            "dot", "tile_rows", "edge_aggregate")

# (module attribute path, span name) for plain functions.
FUNCTION_SPANS = (
    ("autodiff.backward", "autodiff.backward"),
    ("model.bind_params", "model.bind_params"),
    ("model.encode", "model.encode"),
    ("model.propagation_terms", "model.propagation_terms"),
    ("model.predict", "model.predict"),
    ("model.graph_embedding", "model.graph_embedding"),
    ("model.load_checkpoint", "model.load_checkpoint"),
    ("losses.cross_entropy_logits", "losses.cross_entropy"),
    ("training.evaluate", "training.evaluate"),
    ("attacks.candidate_edges", "attacks.candidate_edges"),
    ("attacks.edge_saliency_ig", "attacks.saliency"),
    ("attacks.distill_surrogate", "attacks.distill"),
    ("graphdata.generate_synthetic_dataset", "graphdata.generate"),
    ("graphdata.save_dataset", "graphdata.save_dataset"),
    ("graphdata.load_dataset", "graphdata.load_dataset"),
    ("cli.cmd_gen_data", "cli.gen_data"),
    ("cli.cmd_eval", "cli.eval"),
    ("cli.cmd_export_embeddings", "cli.export_embeddings"),
    ("cli.write_manifest", "cli.write_manifest"),
)

# (class path, method, span name) for methods.
METHOD_SPANS = (
    ("autodiff.Tape", "leaf", "autodiff.leaf"),
    ("training.Adam", "step", "training.adam_step"),
    ("attacks.DetectorVictim", "label", "attacks.label"),
    ("attacks.SurrogateVictim", "label", "attacks.label"),
    ("attacks.DetectorVictim", "margin_grad_batched", "attacks.margin_grad"),
    ("attacks.SurrogateVictim", "margin_grad_batched", "attacks.margin_grad"),
)


def _layer_metrics() -> list[tuple[str, str, tuple]]:
    """(metric, unit, source): source is (field, span) with field one of
    total/self/count, or ("counter", key), or ("derived", key)."""
    out = []
    for k in OP_KINDS:
        out.append((f"autodiff.ops.{k}", "count", ("count", f"autodiff.op.{k}")))
    for k in OP_KINDS:
        out.append((f"autodiff.fwd_s.{k}", "s", ("total", f"autodiff.op.{k}")))
    for k in OP_KINDS:
        out.append((f"autodiff.bwd_s.{k}", "s", ("total", f"autodiff.bwd.{k}")))
    out += [("autodiff.fwd_self_s", "s", ("derived", "fwd_self")),
            ("autodiff.emit_s", "s", ("total", "autodiff.emit")),
            ("autodiff.leaf_s", "s", ("total", "autodiff.leaf")),
            ("autodiff.backward_s", "s", ("total", "autodiff.backward")),
            ("autodiff.backward_self_s", "s", ("self", "autodiff.backward"))]

    def timed(span, self_too=True, calls=False):
        layer, short = span.split(".", 1)
        rows = [(f"{layer}.{short}_s", "s", ("total", span))]
        if self_too:
            rows.append((f"{layer}.{short}_self_s", "s", ("self", span)))
        if calls:
            rows.append((f"{layer}.{short}_calls", "count", ("count", span)))
        return rows

    out += timed("model.bind_params")
    out += timed("model.encode", calls=True)
    out += [("model.propagation_terms_s", "s", ("total", "model.propagation_terms")),
            ("model.propagation_terms_calls", "count", ("count", "model.propagation_terms"))]
    out += timed("model.predict", calls=True)
    out += timed("model.graph_embedding", calls=True)
    out += timed("model.load_checkpoint", self_too=False)
    out += timed("losses.cross_entropy")
    out += [("training.adam_step_s", "s", ("total", "training.adam_step")),
            ("training.adam_step_calls", "count", ("count", "training.adam_step"))]
    out += timed("training.evaluate")
    out += timed("attacks.saliency", calls=True)
    out += [("attacks.margin_grad_s", "s", ("total", "attacks.margin_grad")),
            ("attacks.margin_grad_calls", "count", ("count", "attacks.margin_grad")),
            ("attacks.candidate_edges_s", "s", ("total", "attacks.candidate_edges")),
            ("attacks.ig_rows", "count", ("counter", "ig_rows"))]
    out += timed("attacks.label", calls=True)
    out += [("attacks.distinct_row_ratio", "ratio", ("derived", "distinct_row_ratio"))]
    out += timed("attacks.distill")
    out += [("graphdata.load_dataset_s", "s", ("total", "graphdata.load_dataset")),
            ("graphdata.generate_s", "s", ("total", "graphdata.generate")),
            ("graphdata.save_dataset_s", "s", ("total", "graphdata.save_dataset"))]
    out += timed("cli.gen_data")
    out += timed("cli.eval")
    out += timed("cli.export_embeddings")
    out += timed("cli.write_manifest", self_too=False)
    out += [("trace.spans", "count", ("derived", "spans")),
            ("trace.overhead_s", "s", ("derived", "overhead_s")),
            ("trace.overhead_pct", "%", ("derived", "overhead_pct"))]
    return out


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Installs span wrappers on the package and collects the spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """`fn` timed as a span named `name`; `after(args, kwargs, result)`
        runs once the span has closed."""
        nid = self._intern(name)
        clock = time.perf_counter
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _inside(self, name: str) -> bool:
        """Whether a span named `name` is open."""
        nid = self._ids.get(name)
        return any(self.name[i] == nid for i in self._stack[1:])

    # ---------------------------------------------------------------- install

    def install(self, package) -> None:
        """Wrap the package's public functions. `package` maps module short
        names (autodiff, model, ...) to the imported modules."""
        modules = list(package.values())

        def replace_everywhere(orig, wrapped):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapped)

        def resolve(path):
            mod, attr = path.split(".", 1)
            return package[mod], attr

        ad = package["autodiff"]
        for fname, kind in OP_FUNCTIONS.items():
            replace_everywhere(getattr(ad, fname),
                               self.wrap(f"autodiff.op.{kind}", getattr(ad, fname)))

        # The backward callable is wrapped before the emit span opens, so that
        # emit_s times Tape.emit itself (its checks and the record) and not
        # the tracer's own wrapping.
        timed_emit = self.wrap("autodiff.emit", ad.Tape.__dict__["emit"])

        def emit_with_timed_backward(tape, kind, inputs, value, backward):
            return timed_emit(tape, kind, inputs, value,
                              self.wrap(f"autodiff.bwd.{kind}", backward))

        self._patch_attr(ad.Tape, "emit", emit_with_timed_backward)

        after = {"attacks.saliency": self._count_pairs,
                 "attacks.margin_grad": self._count_rows}
        for path, span in FUNCTION_SPANS:
            mod, attr = resolve(path)
            orig = getattr(mod, attr)
            replace_everywhere(orig, self.wrap(span, orig, after.get(span)))

        for path, method, span in METHOD_SPANS:
            mod, cls_name = resolve(path)
            cls = getattr(mod, cls_name)
            self._patch_attr(cls, method,
                             self.wrap(span, cls.__dict__[method], after.get(span)))

    def _patch_attr(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # ---------------------------------------------------------------- counters

    def _count_rows(self, args, kwargs, result) -> None:
        if self._inside("attacks.saliency"):
            a_batch = args[2] if len(args) > 2 else kwargs["a_batch"]
            self.counters["ig_rows"] += a_batch.shape[0]

    def _count_pairs(self, args, kwargs, result) -> None:
        steps = args[2] if len(args) > 2 else kwargs["ig_steps"]
        pairs = {frozenset(edge) for edge in result}
        self.counters["pair_steps"] += len(pairs) * steps

    # ---------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_span(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (count, total seconds, self seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=dur.size)
        k = len(self.names)
        count = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - child, minlength=k)
        return {n: (int(count[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def metrics(self, overhead_s: float, overhead_pct: float) -> dict[str, dict]:
        spans = self.per_span()
        derived = {
            "fwd_self": sum(spans.get(f"autodiff.op.{k}", (0, 0.0, 0.0))[2]
                            for k in OP_FUNCTIONS.values()),
            "distinct_row_ratio": (self.counters["pair_steps"] / self.counters["ig_rows"]
                                   if self.counters["ig_rows"] else 0.0),
            "spans": len(self.start),
            "overhead_s": overhead_s,
            "overhead_pct": overhead_pct,
        }
        field = {"count": 0, "total": 1, "self": 2}
        out = {}
        for metric, unit, (kind, key) in LAYER_METRICS:
            if kind == "counter":
                value = self.counters[key]
            elif kind == "derived":
                value = derived[key]
            else:
                value = spans.get(key, (0, 0.0, 0.0))[field[kind]]
            out[metric] = {"value": value, "unit": unit}
        return out
