"""Workload ``sigmod_grid``: the Appendix-C flow on the four D2/D3 splits.

Set-up generates the four SIGMOD-like splits and develops four matchers
(ml and rule per training split). A round evaluates every matcher once
against its labeled universe (``Matcher.predict`` then ``confusion_counts``,
as ``experiments.table3.evaluate`` does), runs the six Table-2 profiling
calls and computes the five Table-1 diagrams on the driver (``table1``).
The four cells are a fixed subset of the grid (``CELL_SPLITS``).

Table 3 uses six matchers (hybrid too) and 24 cells, about 45 s per pass
even at this scale, which one run cannot afford. The hybrid matchers run the
same plans as the other two kinds with other weights, so leaving them out
loses no layer. The Table-3 shape assertions need every cell and are left
to the Tier-1 tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from harness import Op
from reference import Mismatch, close, confusion, expect, query
from table1 import Table1Diagrams
from repro.core.confusion import confusion_counts
from repro.core.metrics import f1, precision, recall
from repro.matchgen.matchers import develop_matcher
from repro.matchgen.sigmod import sigmod_split
from repro.profiling.dataset_profile import profile_dataset, vocabulary_similarity

SCALE = 0.03
SPLITS = (("D2", "train"), ("D2", "test"), ("D3", "train"), ("D3", "test"))
KINDS = ("ml", "rule")
#: the split each matcher (D2 ml, rule; D3 ml, rule) is applied to: every
#: split once, two cells cross-dataset (D2 -> Z3 collapses, D3 -> Z2
#: transfers).
CELL_SPLITS = (SPLITS[0], SPLITS[3], SPLITS[2], SPLITS[1])


class Workload:
    def __init__(self, spark, tracer, seed: int) -> None:
        self.spark, self.tracer = spark, tracer
        d2, d3 = np.random.SeedSequence(seed).generate_state(2)
        self.dataset_seed = {"D2": int(d2), "D3": int(d3)}
        self.diagrams = Table1Diagrams(tracer, seed)

    def setup(self) -> None:
        span = self.tracer.span
        self.splits = {}
        self.n_records = self.n_labeled = 0
        for ds, sp in SPLITS:
            with span("sigmod.sigmod_split"):
                s = sigmod_split(
                    self.spark, ds, sp, scale=SCALE, seed=self.dataset_seed[ds]
                )
                self.n_records += s.dataset.cache().count()
                self.n_labeled += s.labeled_pairs.cache().count()
                s.gold_pairs.cache().count()
            self.splits[(ds, sp)] = s
        self.matchers = []
        for ds in ("D2", "D3"):
            train = self.splits[(ds, "train")]
            for kind in KINDS:
                with span("matchers.develop_matcher"):
                    m = develop_matcher(
                        f"{kind}@{train.name}",
                        train.labeled_pairs,
                        train.dataset,
                        kind=kind,
                    )
                self.matchers.append(m)
        self.cells = list(zip(self.matchers, CELL_SPLITS))
        self.diagrams.setup()

    def sizes(self) -> dict[str, int]:
        return {
            "sigmod.records": self.n_records,
            "sigmod.labeled_pairs": self.n_labeled,
            **self.diagrams.sizes(),
        }

    def ops(self) -> list[Op]:
        out = [
            Op(f"eval:{m.name}->{self.splits[key].name}", "eval", self._eval(m, key))
            for m, key in self.cells
        ]
        for key in SPLITS:
            out.append(
                Op(f"profile:{self.splits[key].name}", "profile", self._profile(key))
            )
        for ds in ("D2", "D3"):
            out.append(Op(f"vocabulary:{ds}", "profile", self._vocabulary(ds)))
        return out + self.diagrams.ops()

    def _eval(self, matcher, key):
        split = self.splits[key]

        def run():
            pred = matcher.predict(split.labeled_pairs, split.dataset)
            universe = split.labeled_pairs.count()
            with self.tracer.span("confusion.confusion_counts"):
                c = confusion_counts(pred, split.gold_pairs, universe_size=universe)
            return (c.tp, c.fp, c.fn, c.tn), (precision(c), recall(c), f1(c))

        return run

    def _profile(self, key):
        split = self.splits[key]

        def run():
            with self.tracer.span("profiling.profile_dataset"):
                return profile_dataset(
                    split.dataset, split.gold_pairs, labeled_pairs=split.labeled_pairs
                )

        return run

    def _vocabulary(self, ds):
        train, test = self.splits[(ds, "train")], self.splits[(ds, "test")]

        def run():
            with self.tracer.span("profiling.vocabulary_similarity"):
                return vocabulary_similarity(train.dataset, test.dataset)

        return run

    # ----------------------------------------------------------- reference

    def verify(self, outputs: dict[str, list]) -> dict[str, list[str | None]]:
        """Spark ops against DuckDB over the same pair sets; diagrams by ``table1``."""
        frames = []
        for m, key in self.cells:
            split = self.splits[key]
            tag = f"eval:{m.name}->{split.name}"
            frames.append(
                m.predict(split.labeled_pairs, split.dataset)
                .select(F.lit(tag).alias("tag"), "id1", "id2")
            )
        for key, split in self.splits.items():
            frames.append(split.gold_pairs.select(F.lit(f"gold:{split.name}").alias("tag"), "id1", "id2"))
            frames.append(split.labeled_pairs.select(F.lit(f"labeled:{split.name}").alias("tag"), "id1", "id2"))
        union = frames[0]
        for f in frames[1:]:
            union = union.unionByName(f)
        pairs = union.toPandas()
        by_tag = {t: g for t, g in pairs.groupby("tag")}
        empty = pd.DataFrame({"id1": [], "id2": []})
        datasets = {
            split.name: split.dataset.toPandas() for split in self.splits.values()
        }

        refs: dict[str, object] = {}
        for m, key in self.cells:
            name = self.splits[key].name
            tag = f"eval:{m.name}->{name}"
            total = len(by_tag[f"labeled:{name}"])
            refs[tag] = confusion(by_tag.get(tag, empty), by_tag[f"gold:{name}"], total)
        for key, split in self.splits.items():
            refs[f"profile:{split.name}"] = _profile_ref(
                datasets[split.name],
                len(by_tag[f"gold:{split.name}"]),
                len(by_tag[f"labeled:{split.name}"]),
            )
        for ds in ("D2", "D3"):
            train, test = self.splits[(ds, "train")], self.splits[(ds, "test")]
            refs[f"vocabulary:{ds}"] = _vocabulary_ref(
                datasets[train.name], datasets[test.name]
            )

        result = self.diagrams.verify(
            {op: outs for op, outs in outputs.items() if op.startswith("diagram:")}
        )
        for op, outs in outputs.items():
            if not op.startswith("diagram:"):
                result[op] = [_compare(op, out, refs[op]) for out in outs]
        return result

    def shape(self, outputs: dict[str, list]) -> list[str]:
        return []


def _compare(op: str, out, ref) -> str | None:
    try:
        if op.startswith("eval:"):
            counts, (p, r, f) = out
            expect(counts == ref, f"confusion {counts} != DuckDB {ref}")
            tp, fp, fn, _ = ref
            p_ref = tp / (tp + fp) if tp + fp else 0.0
            r_ref = tp / (tp + fn) if tp + fn else 0.0
            f_ref = 2 * p_ref * r_ref / (p_ref + r_ref) if p_ref + r_ref else 0.0
            expect(
                close(p, p_ref) and close(r, r_ref) and close(f, f_ref),
                f"metrics {(p, r, f)} != {(p_ref, r_ref, f_ref)}",
            )
        elif op.startswith("profile:"):
            expect(set(out) == set(ref), f"profile keys {sorted(out)}")
            for k, v in ref.items():
                expect(close(out[k], v), f"{k} = {out[k]} != reference {v}")
        else:
            expect(close(out, ref), f"VS = {out} != reference {ref}")
    except Mismatch as e:
        return str(e)
    return None


def _attrs(df: pd.DataFrame) -> list[str]:
    return [c for c in df.columns if c != "rid"]


def _profile_ref(df: pd.DataFrame, n_gold: int, n_labeled: int) -> dict[str, float]:
    """SP/TX/TC/PR of one split, by DuckDB."""
    attrs = _attrs(df)
    nulls = " + ".join(f"count(*) FILTER (WHERE {a} IS NULL)" for a in attrs)
    words = " UNION ALL ".join(
        f"SELECT len(list_filter(string_split_regex(trim(CAST({a} AS VARCHAR)), '\\s+'),"
        f" t -> t <> '')) AS w FROM d WHERE {a} IS NOT NULL"
        for a in attrs
    )
    row = query(
        f"""
        SELECT ({nulls}) / (count(*) * {len(attrs)}.0) AS sp,
               (SELECT sum(w) / count(*) FROM ({words})) AS tx,
               count(*) AS tc
        FROM d
        """,
        d=df,
    ).iloc[0]
    return {
        "SP": float(row.sp),
        "TX": float(row.tx),
        "TC": float(row.tc),
        "PR": n_gold / n_labeled if n_labeled else 0.0,
    }


def _vocabulary_ref(a: pd.DataFrame, b: pd.DataFrame) -> float:
    """Jaccard of the whitespace-token vocabularies, by DuckDB."""

    def vocab(table: str, attrs: list[str]) -> str:
        text = ", ".join(f"coalesce(CAST({c} AS VARCHAR), '')" for c in attrs)
        return (
            f"SELECT DISTINCT t FROM (SELECT unnest(string_split_regex("
            f"concat_ws(' ', {text}), '\\s+')) AS t FROM {table}) WHERE t <> ''"
        )

    row = query(
        f"""
        WITH v1 AS ({vocab('a', _attrs(a))}), v2 AS ({vocab('b', _attrs(b))})
        SELECT (SELECT count(*) FROM v1 JOIN v2 USING (t)) AS inter,
               (SELECT count(*) FROM (SELECT t FROM v1 UNION SELECT t FROM v2)) AS uni
        """,
        a=a,
        b=b,
    ).iloc[0]
    return float(row.inter) / float(row.uni) if row.uni else 0.0
