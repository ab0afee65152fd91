"""Johnson–Lindenstrauss projections (Lemma 3.4).

``rademacher_matrix(w, d)`` draws the ``±1/√w`` projection matrix; norms
of ``d``-vectors are preserved within ``(1 ± ε)`` for
``w ≥ 24 ε⁻² log n``. The theoretical constant is famously loose; the
practical width used by the algorithms is set in
``repro.core.params.Params.jl_width`` and documented in DESIGN.md §5.
"""
from __future__ import annotations

import numpy as np

__all__ = ["rademacher_matrix"]


def rademacher_matrix(w: int, d: int, *, rng: np.random.Generator) -> np.ndarray:
    """``(w, d)`` matrix with i.i.d. ``±1/√w`` entries."""
    return rng.choice(np.array([-1.0, 1.0]), size=(w, d)) / np.sqrt(w)
