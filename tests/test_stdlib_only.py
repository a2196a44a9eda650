"""gzasp has no runtime dependency beyond the standard library: every
import in its modules names gzasp itself (relative imports included) or a
module of sys.stdlib_module_names. The modules are parsed, not imported."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gzasp").glob("*.py"))


def imported_names(path: Path) -> list[tuple[int, str]]:
    """(line, module) for every import statement in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "gzasp" if node.level else node.module))
    return found


def test_the_package_is_found():
    assert "semantics.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_name_gzasp_or_the_standard_library(path):
    for line, name in imported_names(path):
        top = name.split(".")[0]
        assert top == "gzasp" or top in sys.stdlib_module_names, f"{path.name}:{line}: {name}"


def test_a_third_party_import_is_listed(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import os\nfrom . import core\nimport numpy.linalg\n")
    assert imported_names(source) == [(1, "os"), (2, "gzasp"), (3, "numpy.linalg")]
    assert "numpy" not in sys.stdlib_module_names
