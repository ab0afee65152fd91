"""Fig. 4 harness: running time vs error parameter ε.

Measures FORESTCFCM and SCHURCFCM over an ε grid; the paper's claim is
ε⁻²-ish growth with SCHUR's advantage widening as ε shrinks.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.forest_cfcm import forest_cfcm
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm
from repro.experiments.graphs import build_graph

__all__ = ["run_fig4", "format_fig4"]

EPS_GRID = (0.4, 0.3, 0.2, 0.15)


def run_fig4(
    spark: SparkSession | None,
    *,
    graphs: list[str],
    k: int = 10,
    eps_grid: tuple[float, ...] = EPS_GRID,
    log=print,
) -> list[dict]:
    out: list[dict] = []
    for name in graphs:
        g = build_graph(name)
        log(f"[fig4] {name} (n={g.n})")
        for eps in eps_grid:
            params = Params(eps=eps)
            tf = forest_cfcm(spark, g, k, params).seconds
            ts = schur_cfcm(spark, g, k, params).seconds
            out.append(dict(graph=name, eps=eps, forest_s=tf, schur_s=ts))
            log(f"  eps={eps}: forest={tf:.2f}s schur={ts:.2f}s")
    return out


def format_fig4(rows: list[dict]) -> str:
    out = ["| graph | ε | FOREST (s) | SCHUR (s) |", "|---|---|---|---|"]
    for r in rows:
        out.append(f"| {r['graph']} | {r['eps']} | {r['forest_s']:.2f} | {r['schur_s']:.2f} |")
    return "\n".join(out)
