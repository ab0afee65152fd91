"""Rooted spanning forest sampling (Wilson's algorithm) and estimators.

``wilson`` is the local cycle-popping sampler (Algorithm 1 RANDOMFOREST),
vectorized over a chunk of forests; ``estimators`` turns a chunk of
sampled forests into summed per-node estimator contributions (the counter
updates of Algorithms 2–4 in telescoped form, see DESIGN.md §2), and
``distributed`` fans the sampling out across Spark tasks: a fixed budget
of ⌈r_c·ε⁻²·log₂ 2n⌉ forests per call, in one Spark job, instead of the
paper's doubling rounds with an empirical-Bernstein early stop (which
never fired before that budget; DESIGN.md §5).
"""
from repro.forest.wilson import forest_depths, sample_forest, sample_forests, subtree_sums_T

__all__ = ["forest_depths", "sample_forest", "sample_forests", "subtree_sums_T"]
