"""The paper's algorithms and baselines.

* ``forest_cfcm`` — FORESTCFCM (Algorithm 3) on top of forest sampling.
* ``schur_cfcm`` — SCHURCFCM (Algorithms 4–5) with the Schur complement.
* ``approx`` — APPROXGREEDY baseline [29] (JL + Laplacian solves).
* ``exact`` — EXACT greedy (dense inverse + downdates) and brute force.
* ``heuristics`` — DEGREE and TOP-CFCC.
* ``evaluate`` — CFCC evaluation (dense, or Hutchinson+CG at scale).
"""
