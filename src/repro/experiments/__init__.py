"""Experiment harness reproducing the paper's evaluation artifacts.

``table2`` runs every ``(graph, algorithm, ε)`` greedy call of the
evaluation once and reads Table II, Fig. 4 (Table II's ε columns),
Figs. 2–3 and Fig. 5 off the results; it also holds Fig. 1's
tiny-graph brute-force run. ``graphs`` defines the synthetic graph
suite that stands in for the paper's datasets (DESIGN.md §5).
"""
