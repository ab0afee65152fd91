"""Table II and Figs. 1, 2–3 and 5 from one sweep of greedy calls.

:func:`sweep` runs every ``(graph, algorithm, ε)`` greedy call once, at
``k = K``: FORESTCFCM and SCHURCFCM at each ε of ``EPS_GRID``,
APPROXGREEDY at ``EPS`` and EXACT once. EXACT and APPROXGREEDY are
skipped above size cutoffs, mirroring the paper's "—" entries. Every
table is read off the stored results of those calls:

* :func:`table2` — seconds per call plus n, m, τ and |T*|. Its ε
  columns are Fig. 4 (running time vs ε).
* :func:`fig23` — ``C(S)`` of each prefix in ``FIG23_KS`` at ε = ``EPS``,
  next to the DEGREE and TOP-CFCC heuristics (Figs. 2–3).
* :func:`fig5` — relative difference of ``C(S[:FIG5_K])`` vs EXACT
  across ε (Fig. 5). A k = 10 run is the first 10 picks of the k = 20
  run, because iteration ``i`` gets the seed ``params.seed + 1000·i``
  whatever k is (``tests/test_greedy.py`` pins this).

Figs. 2–3 and 5 score each distinct group once per graph
(:meth:`GraphRuns.cfcc`).

:func:`fig1` runs on its own: tiny graphs, ``C(S)`` of every algorithm
vs the brute-force optimum for ``k = 1..FIG1_K``. Each table is a
``(header, rows)`` pair that :func:`markdown` formats.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from pyspark.sql import SparkSession

from repro.core import evaluate
from repro.core.approx import approx_greedy
from repro.core.evaluate import cfcc_of_set, relative_difference
from repro.core.exact import brute_force_optimum, exact_greedy
from repro.core.forest_cfcm import GreedyResult, forest_cfcm
from repro.core.heuristics import degree_baseline, top_cfcc_exact, top_cfcc_sampled
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm
from repro.experiments.graphs import TINY, build_graph, graph_stats
from repro.graph.csr import CSRGraph

__all__ = ["GraphRuns", "sweep", "table2", "fig1", "fig23", "fig5", "markdown"]

K = 20  # the paper's group size for Table II and Figs. 2–3
EPS_GRID = (0.4, 0.3, 0.2, 0.15)  # FOREST and SCHUR run at each
EPS = 0.2  # APPROX's ε, and the ε of Figs. 1–3
EXACT_LIMIT = 2500  # EXACT (dense inverse) runs up to this n
APPROX_LIMIT = 13000  # APPROXGREEDY runs up to this n
FIG1_K = 4
FIG23_KS = (1, 5, 10, 15, 20)
FIG5_K = 10

Table = tuple[list[str], list[list]]  # header, rows of raw cells


@dataclass
class GraphRuns:
    """One graph's sweep: its Table II stats and every greedy result.

    ``results`` is keyed by ``(algorithm, ε)``; EXACT's ε is ``None``.
    ``scores`` memoises :meth:`cfcc` by group.
    """

    name: str
    g: CSRGraph
    stats: dict
    results: dict[tuple[str, float | None], GreedyResult]
    scores: dict[frozenset[int], float] = field(default_factory=dict, repr=False)

    def cfcc(self, spark: SparkSession | None, S) -> float:
        """``C(S)``, scored once per distinct group: it depends only on the set.

        Figs. 2–3 and 5 score the same groups again (prefixes that several
        algorithms share, fig5's k = 10 cells that are fig23's), and on
        ba-2000-d8 one dense score costs about 0.66 s.
        """
        key = frozenset(S)
        if key not in self.scores:
            self.scores[key] = cfcc_of_set(spark, self.g, S)
        return self.scores[key]

    def group(self, algo: str, eps: float | None) -> list[int] | None:
        """The size-``K`` group of one call, ``None`` if it was skipped."""
        res = self.results.get((algo, eps))
        return None if res is None else res.S


def sweep(spark: SparkSession | None, graphs: list[str]) -> list[GraphRuns]:
    """Run every ``(graph, algorithm, ε)`` greedy call once at ``k = K``."""
    out: list[GraphRuns] = []
    for name in graphs:
        g = build_graph(name)
        stats = graph_stats(g)
        print(f"[table2] {name}: n={g.n} m={g.m} tau={stats['tau']} |T*|={stats['t_star']}")
        calls = {}
        if g.n <= EXACT_LIMIT:
            calls["EXACT", None] = partial(exact_greedy, g, K)
        if g.n <= APPROX_LIMIT:
            calls["APPROX", EPS] = partial(approx_greedy, spark, g, K, Params(eps=EPS))
        for eps in EPS_GRID:
            calls["FOREST", eps] = partial(forest_cfcm, spark, g, K, Params(eps=eps))
            calls["SCHUR", eps] = partial(schur_cfcm, spark, g, K, Params(eps=eps))
        results = {}
        for (algo, eps), call in calls.items():
            results[algo, eps] = res = call()
            print(f"  {name} {algo} eps={eps} k={K}: {res.seconds:.2f}s")
        out.append(GraphRuns(name, g, stats, results))
    return out


def _seconds(res: GreedyResult | None) -> str | None:
    if res is None:
        return None
    return f"{res.seconds:.3f}" if res.seconds < 100 else f"{res.seconds:.1f}"


def table2(runs: list[GraphRuns]) -> Table:
    """Table II: n, m, τ, |T*| and the seconds of every call (Fig. 4 is its ε columns)."""
    header = ["graph", "n", "m", "τ", "\\|T*\\|", "EXACT", "APPROX",
              *(f"F ε={e}" for e in EPS_GRID), *(f"S ε={e}" for e in EPS_GRID)]
    rows = [
        [r.name, r.stats["n"], r.stats["m"], r.stats["tau"], r.stats["t_star"],
         _seconds(r.results.get(("EXACT", None))),
         _seconds(r.results.get(("APPROX", EPS))),
         *(_seconds(r.results.get(("FOREST", e))) for e in EPS_GRID),
         *(_seconds(r.results.get(("SCHUR", e))) for e in EPS_GRID)]
        for r in runs
    ]
    return header, rows


def fig23(spark: SparkSession | None, runs: list[GraphRuns]) -> Table:
    """Figs. 2–3: ``C(S)`` of each prefix in ``FIG23_KS``, heuristics included.

    TOP-CFCC is exact up to ``evaluate._DENSE_LIMIT`` nodes and sampled
    (``top_cfcc_sampled``) above it.
    """
    algos = ["DEGREE", "TOP-CFCC", "EXACT", "APPROX", "FOREST", "SCHUR"]
    rows = []
    for r in runs:
        g = r.g
        top = (top_cfcc_exact(g, K) if g.n <= evaluate._DENSE_LIMIT
               else top_cfcc_sampled(spark, g, K, Params(eps=EPS)))
        groups = [degree_baseline(g, K), top, r.group("EXACT", None),
                  r.group("APPROX", EPS), r.group("FOREST", EPS), r.group("SCHUR", EPS)]
        for k in FIG23_KS:
            rows.append([r.name, k, *(None if S is None else r.cfcc(spark, S[:k]) for S in groups)])
    return ["graph", "k", *algos], rows


def fig5(spark: SparkSession | None, runs: list[GraphRuns]) -> Table:
    """Fig. 5: relative difference of ``C(S[:FIG5_K])`` vs EXACT across ε."""
    rows = []
    for r in runs:
        exact = r.group("EXACT", None)
        if exact is None:
            continue
        c_exact = r.cfcc(spark, exact[:FIG5_K])
        for eps in EPS_GRID:
            rows.append([r.name, str(eps), *(
                relative_difference(r.cfcc(spark, r.group(a, eps)[:FIG5_K]), c_exact)
                for a in ("FOREST", "SCHUR"))])
    return ["graph", "ε", "FOREST rel. diff", "SCHUR rel. diff"], rows


def fig1(spark: SparkSession | None) -> Table:
    """Fig. 1: ``C(S)`` of every algorithm vs the brute-force optimum on the ``TINY`` graphs."""
    rows = []
    for name in TINY:
        g = build_graph(name)
        print(f"[fig1] {name} (n={g.n})")
        p = Params(eps=EPS)
        groups = [
            exact_greedy(g, FIG1_K).S,
            approx_greedy(spark, g, FIG1_K, p).S,
            forest_cfcm(spark, g, FIG1_K, p).S,
            schur_cfcm(spark, g, FIG1_K, p).S,
        ]
        for k in range(1, FIG1_K + 1):
            opt = cfcc_of_set(spark, g, brute_force_optimum(g, k)[0])
            rows.append([name, k, opt, *(cfcc_of_set(spark, g, S[:k]) for S in groups)])
    return ["graph", "k", "OPT", "EXACT", "APPROX", "FOREST", "SCHUR"], rows


def markdown(table: Table) -> str:
    """A markdown table: "—" for a skipped cell, floats to 4 decimals."""
    header, rows = table

    def cell(v) -> str:
        if v is None:
            return "—"
        return f"{v:.4f}" if isinstance(v, float) else str(v)

    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    out += ["| " + " | ".join(cell(v) for v in row) + " |" for row in rows]
    return "\n".join(out)
