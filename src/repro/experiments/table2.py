"""Table II reproduction: running times of all four algorithms.

For each suite graph: descriptive stats (n, m, τ, |T*|) and wall-clock
seconds for EXACT, APPROXGREEDY, FORESTCFCM and SCHURCFCM with
ε ∈ {0.3, 0.2, 0.15} at k = 20 (the paper's setting). EXACT and
APPROXGREEDY are skipped above size cutoffs, mirroring the paper's "—"
entries (EXACT infeasible at medium scale, APPROX at large scale).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.core.approx import approx_greedy
from repro.core.exact import exact_greedy
from repro.core.forest_cfcm import forest_cfcm
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm
from repro.experiments.graphs import SUITE, build_graph, graph_stats

__all__ = ["Table2Row", "run_table2", "format_table2", "PAPER_TABLE2"]

EPS_GRID = (0.3, 0.2, 0.15)

# Paper Table II rows analogous to our suite (seconds, 72-core server).
# Keys are our graph names; values: (EXACT, APPROX, FOREST eps .3/.2/.15,
# SCHUR eps .3/.2/.15); None = "—" in the paper.
PAPER_TABLE2: dict[str, dict] = {
    "road-1000": dict(analog="Euroroads", exact=4.824, approx=8.491,
                      forest=(0.328, 0.497, 0.825), schur=(0.283, 0.451, 0.709)),
    "ba-2000-d8": dict(analog="Hamsterster", exact=33.70, approx=34.43,
                       forest=(0.747, 1.273, 1.993), schur=(0.532, 0.992, 1.659)),
    "ba-1500-d30": dict(analog="buzznet", exact=None, approx=10121,
                        forest=(80.79, 126.8, 196.0), schur=(73.59, 126.7, 176.2)),
    "ba-4000-d22": dict(analog="Facebook", exact=274.6, approx=196.2,
                        forest=(2.446, 4.321, 6.901), schur=(1.695, 3.448, 5.608)),
    "ba-4200-d3": dict(analog="GR-QC", exact=298.8, approx=60.41,
                       forest=(2.876, 5.450, 9.008), schur=(2.404, 4.867, 8.246)),
    "ba-6500-d2": dict(analog="Routeviews", exact=1130, approx=39.88,
                       forest=(4.440, 8.499, 14.21), schur=(3.938, 8.029, 13.65)),
    "ba-8600-d3": dict(analog="HEP-Th", exact=2676, approx=157.4,
                       forest=(8.125, 15.76, 25.50), schur=(6.679, 13.39, 22.76)),
    "ba-12000-d11": dict(analog="Astro-Ph", exact=24456, approx=1118,
                         forest=(22.10, 44.24, 74.35), schur=(18.73, 35.69, 59.81)),
}


@dataclass
class Table2Row:
    name: str
    stats: dict
    exact_s: float | None = None
    approx_s: float | None = None
    forest_s: dict = field(default_factory=dict)  # eps -> seconds
    schur_s: dict = field(default_factory=dict)


def run_table2(
    spark: SparkSession | None,
    *,
    graph_names: list[str] | None = None,
    k: int = 20,
    eps_grid: tuple[float, ...] = EPS_GRID,
    exact_limit: int = 2500,
    approx_limit: int = 13000,
    log=print,
) -> list[Table2Row]:
    """Run the Table II measurement over the suite (or a subset)."""
    names = graph_names or list(SUITE)
    rows: list[Table2Row] = []
    for name in names:
        g = build_graph(name)
        row = Table2Row(name=name, stats=graph_stats(g))
        log(f"[table2] {name}: n={g.n} m={g.m} tau={row.stats['tau']} |T*|={row.stats['t_star']}")
        if g.n <= exact_limit:
            row.exact_s = exact_greedy(g, k).seconds
            log(f"  exact: {row.exact_s:.2f}s")
        if g.n <= approx_limit:
            row.approx_s = approx_greedy(spark, g, k, Params(eps=0.2)).seconds
            log(f"  approx: {row.approx_s:.2f}s")
        for eps in eps_grid:
            row.forest_s[eps] = forest_cfcm(spark, g, k, Params(eps=eps)).seconds
            log(f"  forest eps={eps}: {row.forest_s[eps]:.2f}s")
            row.schur_s[eps] = schur_cfcm(spark, g, k, Params(eps=eps)).seconds
            log(f"  schur  eps={eps}: {row.schur_s[eps]:.2f}s")
        rows.append(row)
    return rows


def _fmt(v: float | None) -> str:
    if v is None:
        return "—"
    return f"{v:.3f}" if v < 100 else f"{v:.1f}"


def format_table2(rows: list[Table2Row], eps_grid: tuple[float, ...] = EPS_GRID) -> str:
    """Markdown table in the layout of the paper's Table II."""
    hdr_eps = " | ".join(f"F ε={e}" for e in eps_grid) + " | " + " | ".join(
        f"S ε={e}" for e in eps_grid
    )
    out = [
        f"| graph | n | m | τ | \\|T*\\| | EXACT | APPROX | {hdr_eps} |",
        "|" + "---|" * (7 + 2 * len(eps_grid)),
    ]
    for r in rows:
        cells = [
            r.name,
            str(r.stats["n"]),
            str(r.stats["m"]),
            str(r.stats["tau"]),
            str(r.stats["t_star"]),
            _fmt(r.exact_s),
            _fmt(r.approx_s),
            *[_fmt(r.forest_s.get(e)) for e in eps_grid],
            *[_fmt(r.schur_s.get(e)) for e in eps_grid],
        ]
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)
