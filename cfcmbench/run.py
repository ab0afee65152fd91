#!/usr/bin/env python3
"""Greedy-CFCM benchmark: FORESTCFCM, SCHURCFCM and APPROXGREEDY end to end.

Run from the repository root:

    python3 cfcmbench/run.py --workload ba2000-spark --seed 1 --seconds 45 --trace 0
    python3 cfcmbench/run.py --workload ba2000-spark --seed 1 --seconds 45 --trace 1
    python3 cfcmbench/run.py --smoke

One run sets up (Spark session, warm-up job, graph build) several times,
then calls the three algorithms in turn on a fixed list of greedy seeds
derived from ``--seed`` until ``--seconds`` are spent. A speed probe runs
between calls, and every timing is scaled to the probe's reference time
(see ``probe.py``). EXACT greedy is computed once, after the timed calls,
and every group must reach ``(1 − ε)`` of EXACT's centrality.

The last line of standard output is the result; the line before it holds
the metadata (raw seconds, probe times, versions). With ``--trace 1`` the
run also makes a traced call after each untraced one and reports
per-layer metrics (``tracing.py``). The exit code is non-zero on any
failed call or check. ``--smoke`` runs every workload's code path on
karate, traced and untraced, and checks the metric names in
``BENCHMARK.json``. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
TMP = ROOT / ".cfcmbench_tmp"
OUT = ROOT / ".cfcmbench_out"


@dataclass(frozen=True)
class Workload:
    graph: str
    spark: bool
    k: int
    eps: float


WORKLOADS = {
    # Headline case: the Wilson walk, subtree sums over 31 JL columns, the
    # Spark fan-out and SCHUR's 50x50 Schur algebra all carry weight.
    "ba2000-spark": Workload("ba-2000-d8", True, 3, 0.3),
    # No Spark layer, so a Spark-layer change must not move it; long walks,
    # many BFS levels and an ill-conditioned CG stress kernel and solver.
    "road1000-driver": Workload("road-1000", False, 3, 0.4),
    # Fig. 1 regime: the kernel is ~2 % of a call, so this measures Spark
    # orchestration; a kernel change must not move it.
    "karate-spark": Workload("karate", True, 3, 0.2),
}
ALGS = ("forest", "schur", "approx")
N_SEEDS = 16  # greedy seeds cycled by a run
SETUP_REPS = {True: 3, False: 5}

# name -> (unit, better)
E2E = {
    "setup_s": ("s", "lower"),
    "forest_s": ("s", "lower"),
    "schur_s": ("s", "lower"),
    "approx_s": ("s", "lower"),
    "forest_quality": ("ratio", "higher"),
    "schur_quality": ("ratio", "higher"),
    "approx_quality": ("ratio", "higher"),
    "driver_rss_mb": ("MB", "lower"),
}
LAYER = {
    "graph.build_s": ("s", "lower"),
    "wilson.walk_ms_per_forest": ("ms", "lower"),
    "wilson.subtree_ms_per_forest": ("ms", "lower"),
    "estimators.chunk_ms_per_forest": ("ms", "lower"),
    "estimators.bfs_tree_ms": ("ms", "lower"),
    "distributed.sample_s": ("s", "lower"),
    "distributed.forests": ("count", "lower"),
    "distributed.spark_jobs": ("count", "lower"),
    "distributed.cap_share": ("ratio", "lower"),
    "distributed.broadcast_mb": ("MB", "lower"),
    "distributed.efficiency": ("ratio", "higher"),
    "distributed.overhead_s": ("s", "lower"),
    "forest_cfcm.first_iter_s": ("s", "lower"),
    "forest_cfcm.delta_self_s": ("s", "lower"),
    "schur_cfcm.select_T_s": ("s", "lower"),
    "schur_cfcm.delta_self_s": ("s", "lower"),
    "schur_cfcm.t_size": ("count", "lower"),
    "approx.jl_s": ("s", "lower"),
    "approx.solves": ("count", "lower"),
    "approx.efficiency": ("ratio", "higher"),
    "cg.solve_ms": ("ms", "lower"),
    "cg.iters": ("count", "lower"),
    "jl.rademacher_ms": ("ms", "lower"),
    "evaluate.score_s": ("s", "lower"),
    "greedy.driver_share": ("ratio", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}
EVAL_RTOL = 1e-6  # benchmark evaluator vs repro.core.evaluate.cfcc_of_set


class Evaluator:
    """Exact ``C(S) = n / Tr(L_{-S}^{-1})`` for many small groups from one ``L†``.

    With ``P = L†`` and ``r ∈ S``, ``(L_{-r}^{-1})_ij = P_ij − P_ir − P_jr + P_rr``;
    removing the rest ``D`` of ``S`` is a Schur-complement downdate, so each
    group costs O(n·|S|²) after the one O(n³) pseudoinverse.
    """

    def __init__(self, g) -> None:
        from repro.linalg.laplacian import laplacian_dense, laplacian_pinv

        self.n = g.n
        self.P = laplacian_pinv(laplacian_dense(g))
        self.diag = np.diag(self.P).copy()

    def cfcc(self, S) -> float:
        P = self.P
        r, D = S[0], np.asarray(S[1:], dtype=np.int64)
        k_diag = self.diag - 2.0 * P[:, r] + P[r, r]  # diag of L_{-r}^{-1}, 0 at r
        tr = float(k_diag.sum())
        if len(D):
            K_D = P[:, D] - P[:, [r]] - P[r, D][None, :] + P[r, r]  # columns D, row r is 0
            K_DD = K_D[D]
            K_RD = K_D.copy()
            K_RD[D] = 0.0
            tr -= float(k_diag[D].sum()) + float(np.trace(np.linalg.solve(K_DD, K_RD.T @ K_RD)))
        return self.n / tr


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _java_version(sc) -> str | None:
    if sc is not None:
        return str(sc._jvm.System.getProperty("java.version"))
    try:
        out = subprocess.run(["java", "-version"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    first = (out.stderr or out.stdout).splitlines()
    return first[0] if first else None


def _metric(name: str, value: float, table: dict) -> dict:
    return {"value": float(value), "unit": table[name][0]}


@dataclass
class Result:
    metrics: dict
    meta: dict
    correct: bool
    attempted: int
    failed: int


def run_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool, setup_reps: int) -> Result:
    import pyspark

    import spark_env
    import tracing
    from probe import P_REF_S, PROBE_ITERS, ProbePool, scaled
    from repro.core import approx, exact, forest_cfcm, schur_cfcm
    from repro.core.params import Params
    from repro.experiments.graphs import build_graph

    nproc = os.cpu_count() or 1
    cores = nproc if wl.spark else 1
    fns = {
        "forest": forest_cfcm.forest_cfcm,
        "schur": schur_cfcm.schur_cfcm,
        "approx": approx.approx_greedy,
    }
    probes = ProbePool(cores)
    spark, daemons = None, []
    try:
        # --- Set-up, repeated; setup_s is the median. The first repetition
        # also launches the JVM; it is kept in the metadata.
        setups = []
        p_prev = probes.measure()
        for _ in range(setup_reps):
            if spark is not None:
                spark_env.stop(spark, daemons)
                spark = None
            t0 = time.perf_counter()
            if wl.spark:
                spark, daemons = spark_env.start(nproc)
            t1 = time.perf_counter()
            g = build_graph(wl.graph)
            t2 = time.perf_counter()
            p = probes.measure()
            setups.append({"raw_s": t2 - t0, "build_raw_s": t2 - t1, "probe_before": p_prev, "probe_after": p,
                           "scaled_s": scaled(t2 - t0, p_prev, p), "build_s": scaled(t2 - t1, p_prev, p)})
            p_prev = p
        sc = spark.sparkContext if spark is not None else None
        tracer = tracing.Tracer(sc) if trace else None
        # Untimed warm-up: one k=1 call per algorithm loads the program into
        # the Spark workers and warms the JVM paths the timed calls use.
        for alg in ALGS:
            fns[alg](spark, g, 1, Params(eps=wl.eps, seed=seed))
        p_prev = probes.measure()

        # --- Timed greedy calls: algorithms interleaved call by call, whole
        # rounds only, stopping before a round would overrun --seconds.
        seeds = [int(s) for s in np.random.default_rng([seed, 0xCFC]).integers(0, 2**31 - 1, size=N_SEEDS)]
        calls: list[dict] = []
        t_start = time.perf_counter()
        r = 0
        while True:
            t_round = time.perf_counter()
            params = Params(eps=wl.eps, seed=seeds[r % N_SEEDS])
            for alg in ALGS:
                for traced in (False, True) if trace else (False,):
                    rec = {"alg": alg, "seed": params.seed, "traced": traced, "probe_before": p_prev}
                    try:
                        if traced:
                            res = tracer.call(alg, fns[alg], spark, g, wl.k, params)
                            rec["wall_s"] = tracer.runs[-1]["wall"]
                        else:
                            t0 = time.perf_counter()
                            res = fns[alg](spark, g, wl.k, params)
                            rec["wall_s"] = time.perf_counter() - t0
                        rec["S"] = [int(u) for u in res.S]
                    except Exception as exc:  # counted as a failed call; the run goes on
                        traceback.print_exc()
                        rec["error"] = f"{type(exc).__name__}: {exc}"
                    p_prev = probes.measure()
                    rec["probe_after"] = p_prev
                    if "wall_s" in rec:
                        rec["scaled_s"] = scaled(rec["wall_s"], rec["probe_before"], p_prev)
                    if traced:
                        tracer.runs[-1]["scale"] = P_REF_S / (0.5 * (rec["probe_before"] + p_prev))
                    calls.append(rec)
            r += 1
            now = time.perf_counter()
            if now - t_start + (now - t_round) > seconds:
                break
        loop_s = time.perf_counter() - t_start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # --- Correctness gate, outside every timing.
        t0 = time.perf_counter()
        ex = exact.exact_greedy(g, wl.k)
        ev = Evaluator(g)
        c_exact = ev.cfcc(ex.S)
        exact_s = time.perf_counter() - t0
        c_cache = {frozenset(ex.S): c_exact}
        for rec in calls:
            S = rec.get("S")
            if S is None:
                rec["ok"] = False
                continue
            if len(S) != wl.k or len(set(S)) != wl.k or not all(0 <= u < g.n for u in S):
                rec["ok"] = False
                rec["error"] = f"invalid group {S}"
                continue
            key = frozenset(S)
            if key not in c_cache:
                c_cache[key] = ev.cfcc(S)
            rec["quality"] = c_cache[key] / c_exact
            rec["ok"] = rec["quality"] >= 1.0 - wl.eps
        failed = sum(not rec["ok"] for rec in calls)
        checks_ok = True

        meta = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "graph": wl.graph, "n": g.n, "m": g.m, "k": wl.k, "eps": wl.eps,
            "nproc": nproc, "cores": cores, "master": sc.master if sc is not None else None,
            "commit": _git_commit(),
            "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                         "pyspark": pyspark.__version__, "java": _java_version(sc)},
            "probe": {"iters": PROBE_ITERS, "p_ref_s": P_REF_S, "times_s": probes.times},
            "setups": setups, "rounds": r, "loop_s": loop_s, "exact_s": exact_s,
            "exact": {"S": [int(u) for u in ex.S], "C": c_exact},
            "calls": calls,
        }

        def ok_calls(alg, traced=False):
            return [c for c in calls if c["alg"] == alg and c["traced"] == traced and c["ok"]]

        metrics: dict = {}
        samples: dict = {}
        if not trace:
            metrics["setup_s"] = _metric("setup_s", statistics.median(s["scaled_s"] for s in setups), E2E)
            samples["setup_s"] = len(setups)
            meta["raw"] = {"setup_s": statistics.median(s["raw_s"] for s in setups)}
            meta["gap"] = {}
            for alg in ALGS:
                cs = ok_calls(alg)
                if cs:
                    metrics[f"{alg}_s"] = _metric(f"{alg}_s", statistics.median(c["scaled_s"] for c in cs), E2E)
                    q = statistics.mean(c["quality"] for c in cs)
                    metrics[f"{alg}_quality"] = _metric(f"{alg}_quality", q, E2E)
                    samples[f"{alg}_s"] = samples[f"{alg}_quality"] = len(cs)
                    meta["raw"][f"{alg}_s"] = statistics.median(c["wall_s"] for c in cs)
                    meta["gap"][f"{alg}_gap"] = 1.0 - q
            metrics["driver_rss_mb"] = _metric("driver_rss_mb", rss_mb, E2E)
            samples["driver_rss_mb"] = 1
        else:
            metrics["graph.build_s"] = _metric(
                "graph.build_s", statistics.median(s["build_s"] for s in setups), LAYER)
            # evaluate layer: the program's own scorer on one group per
            # algorithm, which also cross-checks the benchmark's evaluator.
            score_s, eval_err = [], 0.0
            cfcc_of_set = tracing.resolve("repro.core.evaluate", "cfcc_of_set")
            for alg in ALGS:
                cs = ok_calls(alg, True)
                if cs and cfcc_of_set is not None:
                    pa = probes.measure()
                    t0 = time.perf_counter()
                    c = cfcc_of_set(spark, g, cs[0]["S"])
                    dt = time.perf_counter() - t0
                    score_s.append(scaled(dt, pa, probes.measure()))
                    eval_err = max(eval_err, abs(c - c_cache[frozenset(cs[0]["S"])]) / c)
            if score_s:
                metrics["evaluate.score_s"] = _metric("evaluate.score_s", statistics.mean(score_s), LAYER)
            meta["evaluator_rel_err"] = eval_err
            checks_ok &= eval_err <= EVAL_RTOL
            # Tracing overhead: traced vs untraced medians of the same seeds.
            med = {t: sum(statistics.median(c["scaled_s"] for c in ok_calls(a, t)) for a in ALGS
                          if ok_calls(a, t)) for t in (False, True)}
            if med[False] > 0:
                metrics["trace.overhead_share"] = _metric("trace.overhead_share", med[True] / med[False] - 1.0, LAYER)
            consistency = tracer.consistency()
            meta["consistency"] = {"tol_s": tracing.CONSISTENCY_TOL_S, "tol_share": tracing.CONSISTENCY_TOL_SHARE,
                                   "calls": consistency}
            checks_ok &= all(c["ok"] for c in consistency)
            pa = probes.measure()
            replays = tracing.replay_all(tracer, spark_mode=wl.spark)
            replay_scale = P_REF_S / (0.5 * (pa + probes.measure()))
            for key, value in tracing.layer_metrics(tracer, replays, cores, replay_scale).items():
                metrics[key] = _metric(key, value, LAYER)
            meta["missing_functions"] = tracing.missing_functions()
            meta["spans"] = tracer.dump()
        meta["samples"] = samples
        return Result(metrics, meta, checks_ok and failed == 0, len(calls), failed)
    finally:
        if spark is not None:
            spark_env.stop(spark, daemons)
        probes.close()


def _emit(res: Result) -> None:
    OUT.mkdir(exist_ok=True)
    m = res.meta
    path = OUT / f"{m['workload']}-seed{m['seed']}-trace{m['trace']}.json"
    path.write_text(json.dumps(m, default=str))
    meta_line = {k: v for k, v in m.items() if k not in ("calls", "spans", "setups")}
    print(json.dumps({"meta": meta_line, "details": str(path.relative_to(ROOT))}, default=str))
    print(json.dumps({"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": res.metrics}))


def smoke() -> int:
    """Every workload's code path on karate, traced and untraced; checks BENCHMARK.json names."""
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    missing = tracing.missing_functions()
    if missing:
        print(f"smoke: functions no longer in the program: {missing}", file=sys.stderr)
    seen = set()
    for name, wl in WORKLOADS.items():
        small = replace(wl, graph="karate", k=2, eps=0.3)
        if small in seen:  # same code path as a workload already run
            continue
        seen.add(small)
        for trace, key, table in ((False, "end_to_end", E2E), (True, "per_layer", LAYER)):
            t0 = time.perf_counter()
            res = run_workload(name, small, 0, 0.0, trace, 1)
            print(f"smoke: {name} trace={int(trace)} correct={res.correct} failed={res.failed}/{res.attempted} "
                  f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
            if not res.correct:
                problems.append(f"{name} trace={int(trace)}: failed {res.failed} of {res.attempted} calls or a check")
            for mdef in spec[key]:
                got = res.metrics.get(mdef["name"])
                want = (mdef["unit"], mdef["better"])
                if got is None:
                    why = f"; missing functions: {missing}" if missing else ""
                    problems.append(f"{name}: {key} metric {mdef['name']} not measured{why}")
                elif mdef["name"] not in table or (got["unit"], table[mdef["name"]][1]) != want:
                    problems.append(f"{name}: {mdef['name']} emitted as {got['unit']}, "
                                    f"{table.get(mdef['name'], ('?', '?'))[1]}; BENCHMARK.json says {want}")
            extra = set(res.metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{name}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own test and exit")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"cfcmbench: no program source under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    import spark_env

    spark_env.configure(TMP, os.cpu_count() or 1)
    try:
        if args.smoke:
            return smoke()
        res = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                           SETUP_REPS[WORKLOADS[args.workload].spark])
    finally:
        spark_env.shutdown_jvm()
        shutil.rmtree(TMP, ignore_errors=True)
    _emit(res)
    return 0 if res.correct and res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
