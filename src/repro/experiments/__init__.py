"""Experiment harnesses reproducing the paper's evaluation artifacts.

``table2`` holds the running-time table, ``effectiveness`` Fig. 1
(tiny-graph optimality), Figs. 2–3 (effectiveness trajectories) and
Fig. 5 (quality vs ε), and ``epsilon`` Fig. 4 (running time vs ε).
``graphs`` defines the synthetic graph suite that stands in for the
paper's datasets (DESIGN.md §5), with the paper's measured numbers
recorded alongside for EXPERIMENTS.md.
"""
