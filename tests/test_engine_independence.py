"""The two evolution engines share no evolution code.

Their agreement is the package's correctness argument, so neither
``paths.py`` nor ``operators.py`` may import the other.  Every module's
imports are also kept in use, so a name one module no longer needs does not
stay behind.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import fockpath
from fockpath import cli, paths

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


def test_operators_engine_keeps_no_slot_step_of_the_path_sum_engine():
    """Which slot a rerouted mode takes is the path-sum engine's own step,
    ``paths._element_slots``; the operators engine composes its images over
    modes instead, so a defect in that step shows as a disagreement.  No
    other module defines the step or imports it."""
    holders = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        defined = any(
            isinstance(node, ast.FunctionDef) and node.name == "_element_slots"
            for node in ast.walk(ast.parse(source))
        )
        if defined or "_element_slots" in imported_modules(source):
            holders.append((path.stem, defined))
    assert holders == [("paths", True)]


def test_a_defect_in_the_slot_step_makes_the_engines_disagree(tmp_path, capsys, monkeypatch):
    """A mutant of ``paths._element_slots`` that swaps a rerouting element's
    output modes: the engines must then disagree (exit 3) on one photon at
    an unbalanced splitter, and the mutant must have run."""
    real = paths._element_slots
    swaps = []

    def swapped(state, t):
        if set(t.in_modes) != set(t.out_modes):
            swaps.append(t)
            t = SimpleNamespace(in_modes=t.in_modes, out_modes=t.out_modes[::-1])
        return real(state, t)

    monkeypatch.setattr(paths, "_element_slots", swapped)
    f = tmp_path / "unbalanced.fpc"
    f.write_text(
        "port a\nport b\nport c\nport d\nsource a fock 1\n"
        "rbs r=0.6+0i t=0+0.8i a b -> c d\n"
    )
    assert cli.main(["run", str(f), "--engine", "both"]) == 3
    assert "disagree" in capsys.readouterr().err
    assert swaps


def test_import_scan_sees_every_import_form():
    for line in (
        "from . import operators",
        "from .operators import substitute_modes",
        "import fockpath.operators as ops",
        "from fockpath.operators import apply_transform",
    ):
        assert "operators" in imported_modules(line)


def declares_all(module: str) -> bool:
    """Whether the package module ``module`` assigns ``__all__``."""
    path = PACKAGE / f"{module}.py"
    return path.exists() and any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for t in node.targets
    )


def _unread_imports(source: str) -> list[tuple[str, bool, int]]:
    """``(name, marked, count)`` for each name the source imports and never
    reads or lists in ``__all__``: whether its line carries ``# noqa: F401``,
    and how many such names that line holds.  ``from .X import *`` counts as
    read when package module ``X`` declares ``__all__``, since then the
    names it brings are that list; otherwise it is reported as ``X.*``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.ImportFrom) and node.names[0].name == "*":
            if not (node.level == 1 and declares_all(node.module)):
                imported.append((f"{node.module}.*", node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend(
                (alias.asname or alias.name.split(".")[0], alias.lineno)
                for alias in node.names
            )
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    }
    unread = [(name, line) for name, line in imported if name not in read | exported]
    per_line = Counter(line for _, line in unread)
    return [(name, "# noqa: F401" in lines[line - 1], per_line[line]) for name, line in unread]


def unused_imports(source: str) -> list[str]:
    """Names the source imports and never reads or lists in ``__all__``.

    A line marked ``# noqa: F401`` may keep one such name: those are kept on
    purpose for code that looks them up on the module.  Two unused names on
    one marked line are both reported, since the mark can stand for only one.
    """
    return sorted(
        name for name, marked, count in _unread_imports(source) if not marked or count > 1
    )


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_module_imports_only_names_it_uses(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert unused_imports(source) == []


def test_package_exports_only_names_their_modules_export():
    """Every name ``__init__`` imports from ``.X`` is in ``X.__all__``, for
    each module ``X`` that declares one, and every module it star-imports
    declares one, so each module's ``__all__`` is the package's only list
    of what it exports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            exported = importlib.import_module(f"fockpath.{node.module}").__dict__.get("__all__")
            if node.names[0].name == "*":
                if exported is None:
                    missing.append(f"{node.module}.__all__")
            elif exported is not None:
                missing += [
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name not in exported
                ]
    assert missing == []


def test_unused_import_scan():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import b, c  # noqa: F401\n"
        "from .d import (\n"
        "    e,\n"
        "    f,  # noqa: F401\n"
        "    g,\n"
        ")\n"
        "from .h import i, j  # noqa: F401\n"
        "from .fock import *\n"
        "from .nowhere import *\n"
        "__all__ = ['g'] + [k for k in fock.__all__]\n"
        "print(np.pi, e, b, i)\n"
    )
    # the star import from a module that declares __all__ is read; the
    # other brings names no list owns
    assert unused_imports(source) == ["nowhere.*", "os"]
    # a second unused name on a marked line is not covered by the mark
    assert unused_imports(source.replace("np.pi, e, b", "np.pi, e")) == [
        "b",
        "c",
        "nowhere.*",
        "os",
    ]


def _load_tracer():
    """``perfbench/tracer.py``, loaded by path: its top level imports only
    the standard library."""
    path = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_exist_and_cover_every_kept_import():
    """The perfbench tracer wraps functions at the module attribute their
    callers look up; a name removed from the package breaks ``--trace``.
    Every import the package keeps without reading it, which only a
    ``# noqa: F401`` mark may do, is such a site."""
    tracer = _load_tracer()
    sites = {(module, attr) for module, attr, *_ in tracer.SPAN_SITES + tracer.COUNT_SITES}
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(sites)
        if not hasattr(importlib.import_module(f"fockpath.{module}"), attr)
    ]
    assert missing == []
    kept = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name, _, _ in _unread_imports(path.read_text(encoding="utf-8"))
    }
    assert kept - sites == set()


def test_star_imports_shadow_no_name():
    """``__init__`` star-imports its modules, so a name two modules export
    would silently bind to the later one.  The engines' shared entry points
    therefore stay out of both lists and off the package; they are reached
    as ``fockpath.paths.evolve`` and ``fockpath.operators.evolve``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    starred = [
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.names[0].name == "*"
    ]
    owners = {}
    for module in starred:
        for name in importlib.import_module(f"fockpath.{module}").__all__:
            owners.setdefault(name, []).append(module)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
    assert sorted(fockpath.__all__) == sorted(["__version__", *owners])
    assert [
        name
        for name, (module,) in owners.items()
        if getattr(fockpath, name) is not getattr(importlib.import_module(f"fockpath.{module}"), name)
    ] == []
    # every module but the command-line front end is part of the package's
    # surface, and every module declares what it exports
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(starred) == sorted(modules - {"cli"})
    assert [m for m in sorted(modules) if not declares_all(m)] == []
    assert not hasattr(fockpath, "evolve") and not hasattr(fockpath, "apply_transform")
