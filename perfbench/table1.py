"""Table-1 metric/metric diagrams on the driver, run as part of ``sigmod_grid``.

The five Table-1 workloads at the paper's record and match counts, built by
``generator.diagram_workload``. One op computes one diagram: the Appendix-D
``confusion_series`` at s = 100 thresholds and its ``diagram_points``. These
ops run zero Spark jobs and are the one place the Appendix-D engine
dominates. Records per match run from 0.2 (Altosight) to 66 (FreeDB), which
separates O(|D|) from O(|Matches|) costs.

They ride on ``sigmod_grid`` rather than forming a workload of their own:
alone they take about 2 s per round of single-threaded Python, and on a
shared host the speed of one vCPU swings by about 40 % for seconds at a
time, more than a run of the benchmark's length can average out.

The Songs datasets are checked against the naive engine at one prefix point
drawn from the seed (about 2.4 s at 1M); the three small ones in full.
"""
from __future__ import annotations

import numpy as np

from harness import Op
from reference import Mismatch, close, expect
from repro.core.diagrams import diagram_points
from repro.core.incremental import confusion_series, naive_confusion_series
from repro.matchgen.generator import diagram_workload

N_THRESHOLDS = 100

#: dataset -> (records, matches), the paper's Table-1 counts.
DATASETS = {
    "altosight": (835, 4_005),
    "cora": (1_879, 5_067),
    "freedb": (9_763, 147),
    "songs100k": (100_000, 45_801),
    "songs1m": (1_000_000, 144_349),
}

#: datasets whose whole series is checked against the naive recompute.
FULL_CHECK = ("altosight", "cora", "freedb")


class Table1Diagrams:
    """Set-up, ops and reference checks of the five Table-1 diagrams."""

    def __init__(self, tracer, seed: int) -> None:
        self.tracer = tracer
        states = np.random.SeedSequence([seed, 2]).generate_state(len(DATASETS) + 1)
        self.dataset_seed = dict(zip(DATASETS, (int(s) for s in states)))
        self.check_rng = np.random.default_rng(int(states[-1]))

    def setup(self) -> None:
        self.workloads = {}
        for name, (n_records, n_matches) in DATASETS.items():
            with self.tracer.span("generator.diagram_workload"):
                self.workloads[name] = diagram_workload(
                    n_records=n_records,
                    n_matches=n_matches,
                    # FreeDB-like: matches are a tiny fraction -> pair clusters.
                    mean_cluster=2.2 if n_matches < n_records / 10 else 3.0,
                    seed=self.dataset_seed[name],
                )

    def sizes(self) -> dict[str, int]:
        return {
            "incremental.records": sum(w.n_records for w in self.workloads.values()),
            "incremental.matches": sum(len(w.matches) for w in self.workloads.values()),
        }

    def ops(self) -> list[Op]:
        return [Op(f"diagram:{name}", "diagram", self._diagram(name)) for name in DATASETS]

    def _diagram(self, name):
        w = self.workloads[name]

        def run():
            with self.tracer.span(f"incremental.confusion_series.{name}"):
                series = confusion_series(
                    w.n_records, w.truth_labels, w.matches, N_THRESHOLDS
                )
            with self.tracer.span("diagrams.diagram_points"):
                points = diagram_points(series, "recall", "precision")
            return series, points

        return run

    def verify(self, outputs: dict[str, list]) -> dict[str, list[str | None]]:
        """Series against the naive recompute; points against the series."""
        result = {}
        for op, outs in outputs.items():
            name = op.removeprefix("diagram:")
            ref_error = self._check_series(name, outs[0][0])
            result[op] = [
                ref_error or _check_repeat(outs[0][0], series) or _check_points(series, points)
                for series, points in outs
            ]
        return result

    def _check_series(self, name: str, series) -> str | None:
        w = self.workloads[name]
        try:
            expect(len(series) == N_THRESHOLDS, f"{len(series)} points")
            if name in FULL_CHECK:
                naive = naive_confusion_series(
                    w.n_records, w.truth_labels, w.matches, N_THRESHOLDS
                )
                expect(series == naive, "series differs from the naive recompute")
                return None
            # Point i holds the borders[i] highest-similarity matches; the
            # naive engine with s = 2 recomputes exactly that prefix.
            ordered = sorted(w.matches, key=lambda m: -m[0])
            last = N_THRESHOLDS - 1
            i = int(self.check_rng.integers(1, last + 1))
            k = round(i * len(ordered) / last)
            naive = naive_confusion_series(w.n_records, w.truth_labels, ordered[:k], 2)[-1]
            expect(series[i] == naive, f"point {i}: {series[i]} != naive {naive}")
        except Mismatch as e:
            return str(e)
        return None


def _check_repeat(first, series) -> str | None:
    return None if series == first else "series differs between calls"


def _check_points(series, points) -> str | None:
    if len(points) != len(series):
        return f"{len(points)} diagram points for {len(series)} thresholds"
    for c, (_, row) in zip(series, points.iterrows()):
        p = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
        r = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
        if not (close(row["precision"], p) and close(row["recall"], r)):
            return f"diagram point at {c.threshold} is not the series' precision/recall"
    return None
