"""The two evolution engines share no evolution code.

Their agreement is the package's correctness argument, so neither
``paths.py`` nor ``operators.py`` may import the other.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fockpath"
ENGINES = ("paths", "operators")


def imported_modules(source: str) -> set[str]:
    """Last dotted component of every module or name an import mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_imports_no_other_engine(engine):
    (other,) = set(ENGINES) - {engine}
    source = (PACKAGE / f"{engine}.py").read_text(encoding="utf-8")
    assert other not in imported_modules(source)


def test_import_scan_sees_every_import_form():
    for line in (
        "from . import operators",
        "from .operators import substitute_modes",
        "import fockpath.operators as ops",
        "from fockpath.operators import apply_transform",
    ):
        assert "operators" in imported_modules(line)
