"""NumPy stays the only runtime dependency: every absolute import in the
package names NumPy or a module of the standard library. No module imports
``gc``: the package keeps collections rare by allocating few containers,
not by tuning or switching off the collector."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stgf"
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_numpy_and_the_standard_library(path):
    outside = [name for name in absolute_imports(path) if name.split(".")[0] not in ALLOWED]
    assert outside == [], f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_leaves_the_garbage_collector_alone(path):
    assert "gc" not in absolute_imports(path), f"{path.name} imports gc"
