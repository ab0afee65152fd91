"""Shared algorithm parameters.

The paper's theoretical widths/sample sizes (`w = 24(ε/7)⁻² log n`,
`r = Θ(ε⁻²τ²d_max^{2τ+2} log n)`) are acknowledged as conservative. The
knobs here keep the paper's *scalings* (``ε⁻²``, ``log n``) with
practical constants — DESIGN.md §5.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.forest.distributed import SampleConfig

__all__ = ["Params"]


@dataclass(frozen=True)
class Params:
    """Knobs shared by FORESTCFCM / SCHURCFCM / APPROXGREEDY.

    ``eps`` is the one accuracy dial, as in the paper: it sets both the JL
    width ``jl_width(n)`` = max(8, ⌈0.25·ε⁻²·log₂ n⌉) and the fixed forest
    budget ``sample.max_forests(n, eps)`` = ⌈r_c·ε⁻²·log₂ 2n⌉ that every
    sampling call draws in one Spark job. There is no adaptive stop: the
    paper's empirical Bernstein stop (Lemma 3.6) never fired before that
    budget in 84 measured calls, so it is not implemented (DESIGN.md §5).
    """

    eps: float = 0.2
    seed: int = 0
    sample: SampleConfig = field(default_factory=SampleConfig)
    cg_tol: float = 1e-6  # APPROXGREEDY solver tolerance

    def jl_width(self, n: int) -> int:
        """Practical JL width, keeping the paper's ``ε⁻² log n`` scaling."""
        return max(8, int(np.ceil(0.25 * self.eps**-2 * np.log2(max(n, 2)))))
