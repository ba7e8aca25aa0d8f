"""Shared machinery of the benchmark: Spark session, tracer, timed loop, stats.

Nothing here imports ``repro``; the workload modules do. The timed loop is a
closed loop with one client: the next op starts when the previous one
returns. Each round runs every op of the workload once, in an order drawn
from the seed; whole rounds repeat until the run has measured
``--seconds``, so every run measures the same mix of ops whatever its
length.
"""
from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: no round starts after this, so a pathologically slow program still ends
#: its run within about three minutes.
MAX_TIMED_S = 90.0

#: Spark session pinned to the Tier-1 configuration (conftest.py).
SHUFFLE_PARTITIONS = 64
DRIVER_MEMORY = "2g"


@dataclass
class Op:
    """One user-visible Frost action; ``run`` returns a small comparable output."""

    name: str
    kind: str  # eval | diagram | view | profile
    run: Callable[[], Any]


@dataclass
class Sample:
    op: str
    kind: str
    wall_s: float
    raised: bool


def worker_count() -> int:
    """k of ``local[k]``: the usable cores, at most 4."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def start_spark(root: Path):
    """A ``local[k]`` session configured like the Tier-1 ``spark`` fixture.

    Spark's scratch space and the JVM's temp dir live under the checkout,
    so the run writes nowhere else.
    """
    scratch = root / ".perfbench" / "spark-local"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    # For the launcher JVM too; without UsePerfData off a JVM writes /tmp/hsperfdata_*.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={scratch} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{worker_count()}] "
        f"--driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is None:
        return
    # The JVM exits when its stdin closes (PythonGatewayServer).
    if proc.stdin:
        proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except Exception:
        proc.kill()
        proc.wait(timeout=30)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    child_s: float = 0.0


class Tracer:
    """In-memory spans around calls into the program's layers.

    A span records name, start, end, parent span and op id. With a Spark
    context, each span runs under its own job group; on exit the span reads
    back its jobs, the stages that ran and their tasks through
    ``statusTracker`` and adds them, with its children's, to its parent, so
    a span is charged for all Spark work its call triggered, lazy upstream
    plans included. Disabled, ``span`` does nothing.
    """

    def __init__(self, enabled: bool, sc=None) -> None:
        self.enabled = enabled
        self.sc = sc
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op_id: int | None = None
        self.bookkeeping_s = 0.0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t = time.perf_counter()
        parent = self.stack[-1] if self.stack else None
        s = Span(len(self.spans), name, parent.id if parent else None, self.op_id, 0.0)
        self.spans.append(s)
        self.stack.append(s)
        if self.sc is not None:
            self.sc.setJobGroup(f"perfbench-{s.id}", name)
        s.start = time.perf_counter()
        self.bookkeeping_s += s.start - t
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self.stack.pop()
            if self.sc is not None:
                self._read_spark(s)
                if parent is not None:
                    self.sc.setJobGroup(f"perfbench-{parent.id}", parent.name)
                else:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)
            if parent is not None:
                parent.jobs += s.jobs
                parent.stages += s.stages
                parent.tasks += s.tasks
                parent.failed_tasks += s.failed_tasks
                parent.child_s += s.end - s.start
            self.bookkeeping_s += time.perf_counter() - s.end

    def _read_spark(self, s: Span) -> None:
        st = self.sc.statusTracker()
        for job_id in st.getJobIdsForGroup(f"perfbench-{s.id}"):
            s.jobs += 1
            info = st.getJobInfo(job_id)
            for stage_id in info.stageIds if info else ():
                stage = st.getStageInfo(stage_id)
                # Stages skipped because their shuffle output was reused ran
                # no task and are not counted.
                if stage and stage.numCompletedTasks + stage.numFailedTasks:
                    s.stages += 1
                    s.tasks += stage.numCompletedTasks
                    s.failed_tasks += stage.numFailedTasks

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, median wall and self time, mean Spark counts."""
        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        out = {}
        for name, spans in sorted(by_name.items()):
            n = len(spans)
            out[name] = {
                "calls": n,
                "wall_s": statistics.median(s.end - s.start for s in spans),
                "self_s": statistics.median(s.end - s.start - s.child_s for s in spans),
                "jobs": sum(s.jobs for s in spans) / n,
                "stages": sum(s.stages for s in spans) / n,
                "tasks": sum(s.tasks for s in spans) / n,
            }
        return out

    def failed_tasks(self) -> int:
        return sum(s.failed_tasks for s in self.spans if s.parent is None)

    def dump(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def timed_loop(
    ops: list[Op],
    seconds: float,
    rng,
    tracer: Tracer,
) -> tuple[list[Sample], dict[str, list[Any]], float, int]:
    """Run whole rounds (at least one) until ``seconds`` have passed.

    Returns the samples, every output per op name (for the reference
    checks, which run after this), the timed wall time and the rounds run.
    """
    samples: list[Sample] = []
    outputs: dict[str, list[Any]] = defaultdict(list)
    t0 = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - t0 < min(seconds, MAX_TIMED_S):
        for i in rng.permutation(len(ops)):
            op = ops[i]
            tracer.op_id = len(samples)
            t = time.perf_counter()
            try:
                with tracer.span(f"op.{op.kind}"):
                    out = op.run()
                raised = False
            except Exception:  # a failing op is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out, raised = None, True
            samples.append(Sample(op.name, op.kind, time.perf_counter() - t, raised))
            if not raised:
                outputs[op.name].append(out)
        rounds += 1
    tracer.op_id = None
    return samples, outputs, time.perf_counter() - t0, rounds


def tail(values: list[float]) -> tuple[float, int] | None:
    """(value, percentile) of the highest percentile with >= 10 samples above it.

    ``None`` when there are too few samples for any such percentile to sit
    at or above the median.
    """
    n = len(values)
    if n < 21:
        return None
    ordered = sorted(values)
    return ordered[n - 11], math.floor(100 * (n - 10) / n)


def peak_rss_mb() -> float:
    """Peak resident set size of this (driver) process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
