"""NumPy stays the only runtime dependency: every absolute import in the
package names NumPy or a module of the standard library. No module imports
``gc``: the package keeps collections rare by allocating few containers,
not by tuning or switching off the collector. Every file the package
writes goes through ``data.write_files``: no other code opens a file for
writing. Every text file the package reads or writes is UTF-8: each text
read or write names its encoding, so none depends on the locale. Only
``data`` names a covariate kind, so the rule for which model fields a
dataset fixes has one owner."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stgf"
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
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


def file_writes(path: Path) -> list[str]:
    """Calls in ``path`` that write a file, outside ``data._write_file``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    seam = set()
    for node in ast.walk(tree):
        if path.name == "data.py" and isinstance(node, ast.FunctionDef) and node.name == "_write_file":
            seam |= {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in seam:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        # open(file, mode) or a path's .open(mode)
        at = 0 if isinstance(func, ast.Attribute) else 1
        modes = [*node.args[at : at + 1], *(k.value for k in node.keywords if k.arg == "mode")]
        writes_mode = any(
            isinstance(m, ast.Constant) and isinstance(m.value, str) and set(m.value) & set("wax+")
            for m in modes
        )
        if name in ("write_text", "write_bytes", "tofile") or (name == "open" and writes_mode):
            found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_writes_files_only_through_write_files(path):
    assert file_writes(path) == [], f"{path.name} writes a file itself"


def text_io_without_encoding(path: Path) -> list[str]:
    """Calls in ``path`` that read or write text without ``encoding=``:
    ``read_text``, ``write_text``, ``io.TextIOWrapper``, and ``open`` in a
    mode without ``b``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.Call) or any(k.arg == "encoding" for k in node.keywords):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        # open(file, mode) or a path's .open(mode); no mode means text
        at = 0 if isinstance(func, ast.Attribute) else 1
        modes = [*node.args[at : at + 1], *(k.value for k in node.keywords if k.arg == "mode")]
        binary = any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes)
        if name in ("read_text", "write_text", "TextIOWrapper") or (name == "open" and not binary):
            found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_names_the_encoding_of_every_text_read_and_write(path):
    assert text_io_without_encoding(path) == [], f"{path.name} uses the locale's encoding"


def test_the_encoding_check_sees_each_kind_of_text_call(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "p.read_text()\n"
        "p.write_text(s)\n"
        "open(f)\n"
        "open(f, 'w')\n"
        "p.open()\n"
        "io.TextIOWrapper(b)\n"
        "open(f, 'rb')\n"
        "p.open('wb')\n"
        "open(f, mode='ab')\n"
        "p.read_text(encoding='utf-8')\n"
        "open(f, 'w', encoding='utf-8')\n",
        encoding="utf-8",
    )
    assert text_io_without_encoding(source) == [
        "line 1: read_text", "line 2: write_text", "line 3: open", "line 4: open",
        "line 5: open", "line 6: TextIOWrapper",
    ]


KINDS = ("categorical", "continuous")


def kind_constants(path: Path) -> list[str]:
    """String constants in ``path`` that are a covariate kind."""
    return [
        f"line {node.lineno}: {node.value}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in KINDS
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "data.py"), ids=lambda p: p.name
)
def test_only_data_names_a_covariate_kind(path):
    assert kind_constants(path) == [], f"{path.name} names a covariate kind; data.py owns them"


def test_the_kind_check_sees_each_covariate_kind(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        'f.kind == "categorical"\n'
        'kinds = ("continuous",)\n'
        '"a categorical field"\n'
        'b"continuous"\n',
        encoding="utf-8",
    )
    assert kind_constants(source) == ["line 1: categorical", "line 2: continuous"]
