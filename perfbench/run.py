"""graphsentry benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload desk-attack --seed 1 --seconds 35 --trace 0

Run from the repository root. The package is imported from ./src, so the
benchmark measures the checkout it sits in. With --trace 0 the last line of
stdout carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of one traced round, and the spans go to
.bench_work/trace-<workload>-seed<n>.npz. See perfbench/README.md.
"""
from __future__ import annotations

import os

# One thread in all: the process's own, with BLAS kept to it. Must be set
# before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_SECONDS = 2.0
SETUP_CAP = 100


def end_to_end(setup_times, rounds, peak_rss_kib) -> dict:
    """Medians over the run: of the set-ups, and of every stage's samples
    in all rounds."""
    metrics = {"setup_s": (statistics.median(setup_times), "s"),
               "peak_rss_mb": (peak_rss_kib / 1024.0, "MB")}
    for i in range(len(rounds[0].samples)):
        samples = [s for r in rounds for s in r.samples[i]]
        metrics[f"stage{i + 1}_s"] = (statistics.median(t for t, _ in samples), "s")
        metrics[f"stage{i + 1}_rate"] = (
            statistics.median(units / t for t, units in samples), "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def timed_setup(workload) -> float:
    """One set-up, from nothing: what the last one made is dropped and
    collected before the clock starts."""
    workload.release()
    gc.collect()
    tic = time.perf_counter()
    workload.setup()
    return time.perf_counter() - tic


def timed_round(workload):
    tic = time.perf_counter()
    r = workload.run_round()
    return r, time.perf_counter() - tic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphsentry" / "__init__.py").is_file():
        print(f"perfbench: no graphsentry sources at {SRC}/graphsentry; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphsentry
    if Path(graphsentry.__file__).resolve().parent != SRC / "graphsentry":
        print(f"perfbench: imported graphsentry from {graphsentry.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_work"
    tag = f"{args.workload}-seed{args.seed}"
    workload = workloads.WORKLOADS[args.workload](str(ROOT), args.seed,
                                                  str(out_dir / tag))
    # Set up at least SETUP_REPEATS times and for SETUP_SECONDS (at most
    # SETUP_CAP times), so that a set-up of a millisecond is a median of many.
    setup_times = []
    while (len(setup_times) < SETUP_REPEATS
           or sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_CAP):
        setup_times.append(timed_setup(workload))

    rounds, problems = [], []

    def check(r):
        rounds.append(r)
        try:
            workload.check(r)
        except checks.CheckFailed as exc:
            problems.append(str(exc))

    if args.trace == 0:
        measured = 0.0
        while not rounds or measured < args.seconds:
            r, wall = timed_round(workload)
            measured += wall
            check(r)
        metrics = end_to_end(setup_times, rounds,
                             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    else:
        import tracing

        def setup_and_round() -> float:
            secs = timed_setup(workload)
            r, wall = timed_round(workload)
            check(r)
            return secs + wall
        # The traced set-up and round sit between two untraced ones, whose
        # mean it is compared with, so that a drift of the machine's speed
        # during the run is not taken for the tracer's overhead.
        before = setup_and_round()
        tracer = tracing.Tracer()
        tracer.install({name: importlib.import_module(f"graphsentry.{name}")
                        for name in tracing.MODULES})
        try:
            traced = timed_setup(workload)
            r, wall = timed_round(workload)
        finally:
            tracer.restore()
        check(r)
        traced += wall
        plain = (before + setup_and_round()) / 2
        metrics = tracer.metrics(traced - plain, 100.0 * (traced - plain) / plain)
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{tag}.npz")

    result = {"correct": not problems,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{tag}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        # The file also keeps the raw times the medians were taken of.
        fh.write(json.dumps({**result, "setup_times": setup_times,
                             "samples": [r.samples for r in rounds]}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
