"""Every module under ``repro`` imports, its ``__all__`` names resolve, and the program uses both.

The benchmark's tracer (``cfcmbench/tracing.py``) binds program functions
by name and reads some of their parameters; the last tests pin the names
and signatures it relies on, so that a rename fails here rather than
silently dropping per-layer metrics from ``cfcmbench/run.py --trace 1``.
"""
import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))
ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ["src", "jobs", "cfcmbench"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [a for a in getattr(mod, "__all__", []) if not hasattr(mod, a)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _imported_names(path: Path) -> set[str]:
    """Dotted names in a file's absolute imports; ``from a import b`` gives ``a`` and ``a.b``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def test_every_module_is_reached_by_the_program():
    # No module that only tests reach: each one is imported by a program
    # file other than its own (importing ``a.b.c`` imports ``a.b`` too).
    imports = {
        path: _imported_names(path)
        for d in PROGRAM_DIRS
        for path in (ROOT / d).rglob("*.py")
    }
    unreached = []
    for name in MODULES:
        spec = importlib.util.find_spec(name)
        own = Path(spec.origin).resolve()
        if not any(
            n == name or n.startswith(name + ".")
            for path, names in imports.items()
            if path.resolve() != own
            for n in names
        ):
            unreached.append(name)
    assert not unreached, f"modules no program file imports: {unreached}"


# Dense ground truths that tests compare the estimators against; the
# program itself computes these quantities by sampling.
TEST_ORACLES = {
    f"repro.linalg.laplacian.{a}"
    for a in ("cfcc_single_all", "marginal_gain_exact", "marginal_gain_all_exact",
              "absorption_probabilities", "schur_complement")
}


def test_every_public_name_is_read_by_the_program():
    # No public name that only tests read: each name in a module's
    # ``__all__`` is loaded somewhere in program code, as a bare name or
    # as an attribute (definitions, imports and ``__all__`` don't count).
    used = set()
    for d in PROGRAM_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unread = [
        f"{name}.{a}"
        for name in MODULES
        for a in getattr(importlib.import_module(name), "__all__", [])
        if a not in used and f"{name}.{a}" not in TEST_ORACLES
    ]
    assert not unread, f"public names no program code reads: {unread}"


@pytest.fixture()
def tracing(monkeypatch):
    """``cfcmbench/tracing.py``, loaded read-only under a private module name."""
    spec = importlib.util.spec_from_file_location("cfcmbench_tracing", ROOT / "cfcmbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def test_tracer_finds_its_functions(tracing):
    # These three were already gone when the contract was pinned (FORESTDELTA
    # moved to forest_cfcm); nothing else may go missing.
    known = {
        "repro.core.schur_cfcm.forest_delta",
        "repro.core.schur_cfcm.adaptive_forest_stats",
        "repro.core.schur_cfcm.rademacher_matrix",
    }
    assert set(tracing.missing_functions()) <= known


def test_tracer_signatures(karate):
    from repro.core.approx import jl_diag_estimates
    from repro.core.params import Params
    from repro.forest.distributed import adaptive_forest_stats
    from repro.forest.estimators import chunk_stats
    from tests.test_forest_estimators import ones_row

    # The tracer binds these calls' arguments and reads them by name.
    sampling = inspect.signature(adaptive_forest_stats).parameters
    assert {"g", "roots", "W", "eps", "t_nodes", "seed", "config"} <= set(sampling)
    assert {"g", "S", "params", "seed"} <= set(inspect.signature(jl_diag_estimates).parameters)
    # It calls chunk_stats with 7 positional arguments.
    positional = [p for p in inspect.signature(chunk_stats).parameters.values()
                  if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD]
    assert len(positional) == 7
    # It reads the forest count off the first element of the sampling call's result.
    stats, _ = adaptive_forest_stats(None, karate, [33], ones_row(karate.n, [33]), 0.4)
    assert stats.n_forests > 0
    params = Params()
    assert params.cg_tol > 0 and params.jl_width(karate.n) >= 8
    assert params.sample.max_forests(karate.n, params.eps) > 0
