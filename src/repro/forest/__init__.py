"""Rooted spanning forest sampling (Wilson's algorithm) and estimators.

``wilson`` is the local sampler (Algorithm 1 RANDOMFOREST): Wilson's
walk in a small C kernel, a chunk of forests per call; ``estimators`` turns a chunk of
sampled forests into summed per-node estimator contributions (the counter
updates of Algorithms 2–4 in telescoped form, see DESIGN.md §2), and
``distributed`` fans the sampling out across Spark tasks: a fixed budget
of ⌈r_c·ε⁻²·log₂ 2n⌉ forests per call, in one Spark job, instead of the
paper's doubling rounds with an empirical-Bernstein early stop (which
never fired before that budget; DESIGN.md §5).
"""
