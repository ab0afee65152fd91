"""Effectiveness harnesses: Figs. 1, 2–3 and 5 as numeric tables.

* :func:`run_fig1` — tiny graphs, ``C(S)`` of every algorithm vs the
  brute-force optimum for ``k = 1..k_max``.
* :func:`run_fig23` — small/medium graphs, ``C(S)`` trajectories of the
  greedy algorithms and the DEGREE / TOP-CFCC heuristics at each prefix.
* :func:`run_fig5` — relative difference of maximized ``C(S)`` vs EXACT
  across an ε grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.core import evaluate
from repro.core.approx import approx_greedy
from repro.core.evaluate import cfcc_of_set, relative_difference
from repro.core.exact import brute_force_optimum, exact_greedy
from repro.core.forest_cfcm import forest_cfcm
from repro.core.heuristics import degree_baseline, top_cfcc_exact, top_cfcc_sampled
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm
from repro.experiments.graphs import build_graph

__all__ = ["run_fig1", "run_fig23", "run_fig5", "format_cfcc_table", "format_fig5"]


@dataclass
class CfccRow:
    graph: str
    k: int
    values: dict[str, float] = field(default_factory=dict)  # algo -> C(S_k)


def _prefix_cfcc(spark, g, S: list[int], ks: list[int]) -> dict[int, float]:
    return {k: cfcc_of_set(spark, g, S[:k]) for k in ks}


def run_fig1(
    spark: SparkSession | None,
    *,
    graphs: list[str] | None = None,
    k_max: int = 4,
    eps: float = 0.2,
    log=print,
) -> list[CfccRow]:
    """Tiny-graph optimality comparison (Fig. 1)."""
    from repro.experiments.graphs import TINY

    graphs = graphs or TINY
    ks = list(range(1, k_max + 1))
    rows: list[CfccRow] = []
    for name in graphs:
        g = build_graph(name)
        log(f"[fig1] {name} (n={g.n})")
        sols = {
            "EXACT": exact_greedy(g, k_max).S,
            "APPROX": approx_greedy(spark, g, k_max, Params(eps=eps)).S,
            "FOREST": forest_cfcm(spark, g, k_max, Params(eps=eps)).S,
            "SCHUR": schur_cfcm(spark, g, k_max, Params(eps=eps)).S,
        }
        per_algo = {a: _prefix_cfcc(spark, g, S, ks) for a, S in sols.items()}
        for k in ks:
            vals = {"OPT": cfcc_of_set(spark, g, brute_force_optimum(g, k)[0])}
            vals.update({a: per_algo[a][k] for a in sols})
            rows.append(CfccRow(graph=name, k=k, values=vals))
    return rows


def run_fig23(
    spark: SparkSession | None,
    *,
    graphs: list[str],
    k: int = 20,
    eps: float = 0.2,
    ks: list[int] | None = None,
    log=print,
) -> list[CfccRow]:
    """Effectiveness trajectories incl. heuristics (Figs. 2–3).

    TOP-CFCC is exact up to ``evaluate._DENSE_LIMIT`` nodes and sampled
    (``top_cfcc_sampled``) above it.
    """
    ks = ks or [1, 5, 10, 15, 20]
    rows: list[CfccRow] = []
    for name in graphs:
        g = build_graph(name)
        log(f"[fig23] {name} (n={g.n})")
        p = Params(eps=eps)
        dense = g.n <= evaluate._DENSE_LIMIT
        sols = {
            "DEGREE": degree_baseline(g, k),
            "TOP-CFCC": top_cfcc_exact(g, k) if dense else top_cfcc_sampled(spark, g, k, p),
            "EXACT": exact_greedy(g, k).S if g.n <= 2500 else None,
            "APPROX": approx_greedy(spark, g, k, p).S,
            "FOREST": forest_cfcm(spark, g, k, p).S,
            "SCHUR": schur_cfcm(spark, g, k, p).S,
        }
        per_algo = {
            a: _prefix_cfcc(spark, g, S, ks) for a, S in sols.items() if S is not None
        }
        for kk in ks:
            rows.append(
                CfccRow(graph=name, k=kk, values={a: per_algo[a][kk] for a in per_algo})
            )
    return rows


def run_fig5(
    spark: SparkSession | None,
    *,
    graphs: list[str],
    k: int = 10,
    eps_grid: tuple[float, ...] = (0.3, 0.2, 0.15),
    log=print,
) -> list[dict]:
    """Relative difference vs EXACT across ε (Fig. 5)."""
    out: list[dict] = []
    for name in graphs:
        g = build_graph(name)
        c_exact = cfcc_of_set(spark, g, exact_greedy(g, k).S)
        log(f"[fig5] {name}: C_exact={c_exact:.4f}")
        for eps in eps_grid:
            c_f = cfcc_of_set(spark, g, forest_cfcm(spark, g, k, Params(eps=eps)).S)
            c_s = cfcc_of_set(spark, g, schur_cfcm(spark, g, k, Params(eps=eps)).S)
            out.append(
                dict(
                    graph=name,
                    eps=eps,
                    forest_rd=relative_difference(c_f, c_exact),
                    schur_rd=relative_difference(c_s, c_exact),
                )
            )
            log(f"  eps={eps}: forest_rd={out[-1]['forest_rd']:.4f} schur_rd={out[-1]['schur_rd']:.4f}")
    return out


def format_cfcc_table(rows: list[CfccRow]) -> str:
    """Markdown: one row per (graph, k), one column per algorithm."""
    algos: list[str] = []
    for r in rows:
        for a in r.values:
            if a not in algos:
                algos.append(a)
    out = ["| graph | k | " + " | ".join(algos) + " |", "|" + "---|" * (2 + len(algos))]
    for r in rows:
        cells = [r.graph, str(r.k)] + [
            f"{r.values[a]:.4f}" if a in r.values else "—" for a in algos
        ]
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)


def format_fig5(rows: list[dict]) -> str:
    out = ["| graph | ε | FOREST rel. diff | SCHUR rel. diff |", "|---|---|---|---|"]
    for r in rows:
        out.append(
            f"| {r['graph']} | {r['eps']} | {r['forest_rd']:.4f} | {r['schur_rd']:.4f} |"
        )
    return "\n".join(out)
