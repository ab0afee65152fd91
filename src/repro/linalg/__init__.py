"""Dense and iterative Laplacian linear algebra substrates.

``laplacian`` holds the dense ground-truth toolkit (used by the EXACT
baseline and by every unbiasedness test), ``cg`` the Jacobi-preconditioned
conjugate-gradient solver that stands in for the paper's nearly-linear
Laplacian solver [39], and ``jl`` the Johnson–Lindenstrauss projection of
Lemma 3.4.
"""
