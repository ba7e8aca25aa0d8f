"""Independent references the benchmark checks op outputs against.

They run after the timed loop, on data collected from the same inputs the
program saw: DuckDB for everything with SQL semantics, networkx for
connected components, and plain Python for the rest. None of them calls
``repro``.
"""
from __future__ import annotations

import math

import duckdb
import networkx as nx
import pandas as pd


class Mismatch(AssertionError):
    """An op's output disagrees with its reference."""


def query(sql: str, **tables: pd.DataFrame) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def confusion(experiment: pd.DataFrame, gold: pd.DataFrame, total: int) -> tuple:
    """(tp, fp, fn, tn) of two canonical pair sets, by DuckDB."""
    row = query(
        """
        SELECT
          (SELECT count(*) FROM (SELECT DISTINCT id1, id2 FROM e) x
             SEMI JOIN g USING (id1, id2)) AS tp,
          (SELECT count(*) FROM (SELECT DISTINCT id1, id2 FROM e)) AS e_n,
          (SELECT count(*) FROM (SELECT DISTINCT id1, id2 FROM g)) AS g_n
        """,
        e=experiment[["id1", "id2"]],
        g=gold[["id1", "id2"]],
    ).iloc[0]
    tp, fp, fn = int(row.tp), int(row.e_n - row.tp), int(row.g_n - row.tp)
    return tp, fp, fn, total - tp - fp - fn


def components(pairs: pd.DataFrame, rids) -> list[frozenset]:
    """Connected components of ``pairs`` over every record in ``rids``."""
    g = nx.Graph()
    g.add_nodes_from(rids)
    g.add_edges_from(zip(pairs["id1"], pairs["id2"]))
    return [frozenset(c) for c in nx.connected_components(g)]


def pair_count(clusters) -> int:
    return sum(len(c) * (len(c) - 1) // 2 for c in clusters)
