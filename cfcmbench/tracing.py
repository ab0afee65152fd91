"""Outside-in layer trace of the greedy algorithms.

A :class:`Tracer` patches the program's driver-side public functions
where their callers look them up (e.g.
``repro.core.forest_cfcm.adaptive_forest_stats``), so each call records
a span: name, start, end, parent span and greedy-run id. Spans stay in
memory; a layer's self time is its span minus its child spans.

Functions that run inside Spark tasks (the Wilson walk, the subtree
sums, ``chunk_stats``, the CG solves) cannot be wrapped there. They are
measured by replay on the driver after the timed calls, on the inputs
the traced calls captured (same roots, weights and seeds).

``repro.graph.dataframe_ops``, ``exact`` and ``heuristics`` are not on
the production path and get no layer metric.
"""
from __future__ import annotations

import importlib
import inspect
import pickle
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute): each is patched in the module that calls it.
TARGETS = [
    ("repro.core.forest_cfcm", "first_node_scores"),
    ("repro.core.schur_cfcm", "first_node_scores"),
    ("repro.core.forest_cfcm", "forest_delta"),
    ("repro.core.schur_cfcm", "forest_delta"),
    ("repro.core.forest_cfcm", "adaptive_forest_stats"),
    ("repro.core.schur_cfcm", "adaptive_forest_stats"),
    ("repro.core.forest_cfcm", "rademacher_matrix"),
    ("repro.core.schur_cfcm", "rademacher_matrix"),
    ("repro.core.schur_cfcm", "select_T"),
    ("repro.core.schur_cfcm", "schur_delta"),
    ("repro.core.approx", "jl_diag_estimates"),
    ("repro.forest.distributed", "bfs_tree_for_roots"),
]
# Called by replay on the driver after the timed calls.
REPLAYED = [
    ("repro.forest.estimators", "bfs_tree_for_roots"),
    ("repro.forest.estimators", "chunk_stats"),
    ("repro.forest.wilson", "sample_forest"),
    ("repro.forest.wilson", "forest_depths"),
    ("repro.forest.wilson", "subtree_sums_T"),
    ("repro.linalg.cg", "solve_submatrix"),
    ("repro.linalg.cg", "laplacian_matvec"),
    ("repro.core.evaluate", "cfcc_of_set"),
]
SAMPLING = "adaptive_forest_stats"
CHUNK = 16  # forests per replayed chunk, the sampler's batch size
MAX_REPLAYS = 12  # sampling calls replayed per run
# A greedy call's span self times must add up to its wall time within this.
CONSISTENCY_TOL_S = 0.002
CONSISTENCY_TOL_SHARE = 0.01


def resolve(module: str, attr: str):
    """The named function, or None if the program no longer has it."""
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def missing_functions() -> list[str]:
    return [f"{m}.{a}" for m, a in TARGETS + REPLAYED if resolve(m, a) is None]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run: int = -1
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of traced greedy calls; patches are live only inside :meth:`call`."""

    def __init__(self, sc=None) -> None:
        self.sc = sc
        self.spans: list[Span] = []
        self.runs: list[dict] = []  # per greedy run: alg, wall, scale
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str, info: dict) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, run=len(self.runs), info=info))
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            info: dict = {}
            if name in (SAMPLING, "jl_diag_estimates"):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info["args"] = dict(bound.arguments)
            if name == SAMPLING and self.sc is not None:
                info["group"] = f"cfcmbench-{len(self.spans)}"
                self.sc.setJobGroup(info["group"], name)
            i = self._open(name, info)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if name == SAMPLING:
                info["forests"] = out[0].n_forests
            elif name == "select_T":
                info["t_size"] = len(out)
            return out

        return traced

    def call(self, alg: str, fn, *args):
        """Run one greedy call with every target patched; its wall time goes to ``runs``."""
        for mod_name, attr in TARGETS:
            fn_t = resolve(mod_name, attr)
            if fn_t is not None:
                mod = importlib.import_module(mod_name)
                self._saved.append((mod, attr, fn_t))
                setattr(mod, attr, self._wrap(attr, fn_t))
        t0 = time.perf_counter()
        i = self._open(alg, {})
        try:
            return fn(*args)
        finally:
            self._close(i)
            wall = time.perf_counter() - t0
            for mod, attr, fn_t in reversed(self._saved):
                setattr(mod, attr, fn_t)
            self._saved.clear()
            if self.sc is not None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.runs.append({"alg": alg, "wall": wall, "scale": 1.0})

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, child)]

    def consistency(self) -> list[dict]:
        """Per greedy call: do the span self times plus gaps add up to its wall time?"""
        selfs = self.self_times()
        out = []
        for r, run in enumerate(self.runs):
            total = sum(max(st, 0.0) for s, st in zip(self.spans, selfs) if s.run == r)
            tol = CONSISTENCY_TOL_S + CONSISTENCY_TOL_SHARE * run["wall"]
            out.append({"run": r, "wall": run["wall"], "self_sum": total, "ok": abs(total - run["wall"]) <= tol})
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run,
             **{k: v for k, v in s.info.items() if k in ("forests", "t_size", "jobs", "group")}}
            for s in self.spans
        ]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def replay_sampling(args: dict, spark_mode: bool) -> dict:
    """Re-run one chunk of a captured ``adaptive_forest_stats`` call on the driver."""
    bfs_tree_for_roots = resolve("repro.forest.estimators", "bfs_tree_for_roots")
    chunk_stats = resolve("repro.forest.estimators", "chunk_stats")
    sample_forest = resolve("repro.forest.wilson", "sample_forest")
    forest_depths = resolve("repro.forest.wilson", "forest_depths")
    subtree_sums_T = resolve("repro.forest.wilson", "subtree_sums_T")
    g, W, t_nodes = args["g"], args["W"], args["t_nodes"]
    base_seed = int(np.random.SeedSequence(args["seed"]).generate_state(1)[0])
    out: dict = {}
    if bfs_tree_for_roots is None:
        return out
    bfs = bfs_tree_for_roots(g, args["roots"])
    W_T = np.ascontiguousarray(W.T) if W is not None else None
    t_col, n_t = None, 0
    if t_nodes:
        t_col = np.full(g.n, -1, dtype=np.int64)
        t_col[np.asarray(t_nodes, dtype=np.int64)] = np.arange(len(t_nodes))
        n_t = len(t_nodes)
    out["broadcast_mb"] = (
        len(pickle.dumps((g, bfs, W_T, t_col, n_t), protocol=pickle.HIGHEST_PROTOCOL)) / 2**20
        if spark_mode else 0.0
    )
    if chunk_stats is not None:
        _, dt = _timed(chunk_stats, g, bfs, W_T, t_col, n_t, base_seed, CHUNK)
        out["chunk_ms_per_forest"] = 1e3 * dt / CHUNK
    if sample_forest is not None:
        subtree = W_T is not None and forest_depths is not None and subtree_sums_T is not None
        walk = sub = 0.0
        for b in range(CHUNK):
            (parent, _), dt = _timed(sample_forest, g, bfs.roots, np.random.default_rng([base_seed, b]))
            walk += dt
            if subtree:
                t0 = time.perf_counter()
                subtree_sums_T(parent, forest_depths(parent), W_T)
                sub += time.perf_counter() - t0
        out["walk_ms_per_forest"] = 1e3 * walk / CHUNK
        if subtree:
            out["subtree_ms_per_forest"] = 1e3 * sub / CHUNK
    return out


def replay_cg(args: dict) -> dict:
    """Solve one numerator and one denominator system of a captured APPROX iteration.

    The right-hand sides are drawn as ``jl_diag_estimates`` draws them
    (Rademacher ``p`` zero on ``S``, and ``Bᵀq``), from the captured seed.
    """
    solve_submatrix = resolve("repro.linalg.cg", "solve_submatrix")
    matvec = resolve("repro.linalg.cg", "laplacian_matvec")
    if solve_submatrix is None or matvec is None:
        return {}
    cg = importlib.import_module("repro.linalg.cg")
    g, S, params = args["g"], list(args["S"]), args["params"]
    w = params.jl_width(g.n)
    rng = np.random.default_rng(args["seed"])
    edges = g.edge_array()
    q = rng.choice(np.array([-1.0, 1.0]), size=len(edges)) / np.sqrt(w)
    b_den = np.zeros(g.n)
    np.add.at(b_den, edges[:, 0], q)
    np.subtract.at(b_den, edges[:, 1], q)
    p = rng.choice(np.array([-1.0, 1.0]), size=g.n) / np.sqrt(w)
    p[np.asarray(S, dtype=np.int64)] = 0.0
    calls = [0]

    def counted(*a, **kw):
        calls[0] += 1
        return matvec(*a, **kw)

    times = []
    cg.laplacian_matvec = counted
    try:
        for b in (p, b_den):
            times.append(_timed(solve_submatrix, g, b, S, tol=params.cg_tol)[1])
    finally:
        cg.laplacian_matvec = matvec
    return {"solve_ms": 1e3 * statistics.mean(times), "iters": calls[0] / len(times)}


def _mean(xs):
    xs = list(xs)
    return statistics.mean(xs) if xs else None


def replay_all(tracer: Tracer, spark_mode: bool) -> dict:
    """Driver replays of the in-task functions, on inputs the traced calls captured."""
    samp = [s.info["args"] for s in tracer.spans if s.name == SAMPLING]
    jl = [s.info["args"] for s in tracer.spans if s.name == "jl_diag_estimates" and s.info["args"]["S"] is not None]
    return {
        "sampling": [replay_sampling(a, spark_mode) for a in samp[:MAX_REPLAYS]],
        "cg": replay_cg(jl[-1]) if jl else {},
    }


def layer_metrics(tracer: Tracer, replays: dict, cores: int, replay_scale: float) -> dict:
    """Per-layer values from the spans and the replays.

    Span times are scaled by their greedy call's probe factor and replay
    times by the replay phase's, like every other timing. Metrics whose
    functions no longer exist are left out.
    """
    selfs = tracer.self_times()
    spans = tracer.spans
    scale = [tracer.runs[s.run]["scale"] for s in spans]
    alg = [tracer.runs[s.run]["alg"] for s in spans]
    dur = [s.dur * f for s, f in zip(spans, scale)]
    slf = [st * f for st, f in zip(selfs, scale)]

    def pick(name, vals, algo=None):
        return [v for s, a, v in zip(spans, alg, vals) if s.name == name and (algo is None or a == algo)]

    if tracer.sc is not None:
        st = tracer.sc.statusTracker()
        for s in spans:
            if "group" in s.info:
                s.info["jobs"] = len(st.getJobIdsForGroup(s.info["group"]))

    m: dict = {}
    m["forest_cfcm.first_iter_s"] = _mean(pick("first_node_scores", dur, "forest"))
    m["forest_cfcm.delta_self_s"] = _mean(pick("forest_delta", slf, "forest"))
    m["schur_cfcm.select_T_s"] = _mean(pick("select_T", dur))
    m["schur_cfcm.delta_self_s"] = _mean(pick("schur_delta", slf))
    m["schur_cfcm.t_size"] = _mean(s.info["t_size"] for s in spans if s.name == "select_T")
    m["jl.rademacher_ms"] = _mean(1e3 * d for d in pick("rademacher_matrix", dur))
    m["estimators.bfs_tree_ms"] = _mean(1e3 * d for d in pick("bfs_tree_for_roots", dur))

    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    busy = sum(d for s, d in zip(spans, dur) if s.name in (SAMPLING, "jl_diag_estimates"))
    wall = sum(dur[i] for i in roots)
    m["greedy.driver_share"] = (wall - busy) / wall if wall > 0 else None

    # APPROX: solves per greedy call and their parallel efficiency.
    jl = [(s, d) for s, d in zip(spans, dur) if s.name == "jl_diag_estimates"]
    n_solves = [
        (1 if s.info["args"]["S"] is None else 2) * s.info["args"]["params"].jl_width(s.info["args"]["g"].n)
        for s, _ in jl
    ]
    approx_runs = sum(1 for r in tracer.runs if r["alg"] == "approx")
    m["approx.jl_s"] = _mean(d for _, d in jl)
    m["approx.solves"] = sum(n_solves) / approx_runs if approx_runs else None
    cg = replays["cg"]
    if cg:
        m["cg.solve_ms"] = cg["solve_ms"] * replay_scale
        m["cg.iters"] = cg["iters"]
        m["approx.efficiency"] = sum(n_solves) * m["cg.solve_ms"] / 1e3 / (cores * sum(d for _, d in jl))

    # Sampling: spans plus one replayed chunk per call.
    samp = [(s, d) for s, d in zip(spans, dur) if s.name == SAMPLING]
    reps = replays["sampling"]
    for key, name, unit_scale in [
        ("walk_ms_per_forest", "wilson.walk_ms_per_forest", replay_scale),
        ("subtree_ms_per_forest", "wilson.subtree_ms_per_forest", replay_scale),
        ("chunk_ms_per_forest", "estimators.chunk_ms_per_forest", replay_scale),
        ("broadcast_mb", "distributed.broadcast_mb", 1.0),
    ]:
        vals = [r[key] * unit_scale for r in reps if key in r]
        m[name] = _mean(vals)
    if samp:
        caps = [a["config"].max_forests(a["g"].n, a["eps"]) for a in (s.info["args"] for s, _ in samp)]
        m["distributed.sample_s"] = _mean(d for _, d in samp)
        m["distributed.forests"] = _mean(s.info["forests"] for s, _ in samp)
        m["distributed.spark_jobs"] = _mean(s.info.get("jobs", 0) for s, _ in samp)
        m["distributed.cap_share"] = _mean(
            float(s.info["forests"] >= cap) for (s, _), cap in zip(samp, caps)
        )
        paired = [(s.info["forests"], d, r["chunk_ms_per_forest"] * replay_scale / 1e3)
                  for (s, d), r in zip(samp, reps) if "chunk_ms_per_forest" in r]
        if paired:
            m["distributed.efficiency"] = sum(f * c for f, _, c in paired) / (cores * sum(d for _, d, _ in paired))
            m["distributed.overhead_s"] = _mean(d - f * c / cores for f, d, c in paired)
    return {k: v for k, v in m.items() if v is not None}
