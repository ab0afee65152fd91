"""Every module under ``repro`` imports, its ``__all__`` names resolve, and the program uses it."""
import ast
import importlib
import importlib.util
import pkgutil
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
