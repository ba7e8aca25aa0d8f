"""Frost benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload {sigmod_grid,case_study}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Set-up builds every input from ``--seed``; the timed loop then runs whole
rounds of the workload's ops for ``--seconds`` (see ``harness``); after it,
every op output is checked against an independent reference. The last
stdout line is one JSON object ``{correct, attempted, failed, metrics}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Everything else (per-kind latencies, provenance, the layer
table, the spans) goes to ``.perfbench/result-*.json``. The exit code is
non-zero if any op failed or disagreed with its reference.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402

WORKLOADS = ("sigmod_grid", "case_study")
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: span names that call into a Spark-backed layer: wall_s, calls, jobs,
#: stages and tasks each.
SPARK_LAYERS = (
    "sigmod.sigmod_split",
    "matchers.develop_matcher",
    "confusion.confusion_counts",
    "profiling.profile_dataset",
    "profiling.vocabulary_similarity",
    "diagrams.spark_pair_sweep",
    "blocking.token_blocking",
    "matchers.Matcher.score",
    "setops.venn_regions",
    "setops.missed_by_at_least",
    "selection.around_threshold",
    "selection.incorrect_outliers",
    "selection.representatives",
    "sorting.sort_by_entropy",
    "error_analysis.nearest_correct_pairs",
    "attributes.attribute_influence_report",
    "noground.closure_violation_count",
    "pairs.clustering_from_pairs",
    "cluster_metrics.closest_cluster_f1",
    "cluster_metrics.variation_of_information",
)
DIAGRAM_DATASETS = ("altosight", "cora", "freedb", "songs100k", "songs1m")
OP_KINDS = ("eval", "diagram", "view", "profile")
CARDINALITIES = (
    "sigmod.records",
    "sigmod.labeled_pairs",
    "blocking.candidates",
    "blocking.useful_ratio",
    "incremental.records",
    "incremental.matches",
    "spark.failed_tasks",
)


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for layer in SPARK_LAYERS:
        out.append((f"{layer}.wall_s", "s", "lower"))
        for stat in ("calls", "jobs", "stages", "tasks"):
            out.append((f"{layer}.{stat}", "count", "lower"))
    out += [
        ("generator.diagram_workload.wall_s", "s", "lower"),
        ("generator.diagram_workload.calls", "count", "lower"),
    ]
    out += [(f"incremental.confusion_series.{d}.wall_s", "s", "lower") for d in DIAGRAM_DATASETS]
    out += [
        ("diagrams.diagram_points.wall_s", "s", "lower"),
        ("diagrams.diagram_points.calls", "count", "lower"),
    ]
    out += [(f"op.{k}.wall_s", "s", "lower") for k in OP_KINDS]
    out += [
        (c, "ratio" if c.endswith("ratio") else "count", "higher" if c.endswith("ratio") else "lower")
        for c in CARDINALITIES
    ]
    out.append(("trace.overhead_share", "ratio", "lower"))
    return out


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")

    mod = importlib.import_module(args.workload)
    spark = harness.start_spark(ROOT)
    try:
        return measure(args, mod, spark)
    finally:
        harness.stop_spark(spark)


def measure(args, mod, spark) -> int:
    sc = spark.sparkContext
    tracer = harness.Tracer(enabled=bool(args.trace), sc=sc)

    workload = mod.Workload(spark, tracer, args.seed)
    workload.setup()
    ops = workload.ops()
    setup_s = time.perf_counter() - T0

    rng = np.random.default_rng([args.seed, 1])
    samples, outputs, timed_s, rounds = harness.timed_loop(
        ops, args.seconds, rng, tracer
    )
    rss_mb = harness.peak_rss_mb()

    sizes = workload.sizes()
    checks = workload.verify(outputs)
    try:
        shape_failures = workload.shape(outputs)
    except KeyError as e:  # an op the shape needs never returned
        shape_failures = [f"no output of {e}"]

    errors = [(op, e) for op, es in checks.items() for e in es if e]
    raised = sum(s.raised for s in samples)
    failed = raised + len(errors)
    if shape_failures:
        failed = len(samples)  # the session's headline shape rests on every op
    for op, e in errors:
        print(f"perfbench: {op}: {e}", file=sys.stderr)
    for f in shape_failures:
        print(f"perfbench: shape check failed: {f}", file=sys.stderr)
    correct = failed == 0

    walls = [s.wall_s for s in samples]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "op_gmean_s": (math.exp(statistics.fmean(math.log(w) for w in walls)), "s"),
        "ops_per_s": ((len(samples) - raised) / timed_s, "1/s"),
        "driver_peak_rss_mb": (rss_mb, "MiB"),
    }
    by_kind = {}
    for kind in sorted({s.kind for s in samples}):
        vals = [s.wall_s for s in samples if s.kind == kind]
        tail = harness.tail(vals)
        by_kind[kind] = {
            "n": len(vals),
            "p50_s": statistics.median(vals),
            "tail_s": tail[0] if tail else None,
            "tail_percentile": tail[1] if tail else None,
        }
    tail_all = harness.tail(walls)

    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "rounds": rounds,
        "ops": len(samples),
        "timed_s": timed_s,
        "sizes": sizes,
        "spark": spark.version,
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": harness.DRIVER_MEMORY,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
    }

    layers = tracer.layer_table()
    if args.trace:
        metrics = per_layer_metrics(layers, sizes, tracer, samples)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    report = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({
        **result,
        "config": config,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "fail_ratio": failed / len(samples) if samples else 1.0,
        "by_kind": by_kind,
        "layers": layers,
        "errors": errors,
        "shape_failures": shape_failures,
        "samples": [vars(s) for s in samples],
        "spans": tracer.dump(),
    }, indent=1, default=str))

    for k, v in config.items():
        print(f"config {k} = {v}")
    for kind, st in by_kind.items():
        tail = (f"{st['tail_s']:.4f} s (p{st['tail_percentile']})"
                if st["tail_s"] is not None else "n/a (< 21 samples)")
        print(f"{kind}_p50_s = {st['p50_s']:.4f} s   {kind}_tail_s = {tail}   n = {st['n']}")
    print(f"op_p50_s = {statistics.median(walls):.4f} s   op_tail_s = "
          + (f"{tail_all[0]:.4f} s (p{tail_all[1]})" if tail_all else "n/a (< 21 samples)")
          + f"   n = {len(walls)}")
    print(f"fail_ratio = {failed}/{len(samples)}")
    for k, (v, u) in end_to_end.items():
        print(f"{k} = {v:.6g} {u}")
    if args.trace:
        for k, m in metrics.items():
            if m["value"]:
                print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


def per_layer_metrics(layers, sizes, tracer, samples) -> dict:
    values = dict(sizes)
    for name, st in layers.items():
        for stat, v in st.items():
            values[f"{name}.{stat}"] = v
    values["spark.failed_tasks"] = tracer.failed_tasks()
    op_s = sum(s.wall_s for s in samples)
    values["trace.overhead_share"] = tracer.bookkeeping_s / op_s if op_s else 0.0
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in per_layer_catalogue()
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
