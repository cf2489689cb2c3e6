"""Hygiene without a linter: no module of the package or of its tests
imports a name it never uses, the package keeps only the top-level
functions and classes it runs, apart from a short list kept on purpose,
no two test modules define the same helper, and only the refusals read
the scan bound."""

import ast
import pathlib

import pytest

import splitlab

PACKAGE = pathlib.Path(splitlab.__file__).parent
TESTS = pathlib.Path(__file__).parent
# package modules by name, test modules as tests/<name>
MODULES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
MODULES |= {f"tests/{p.name}": p for p in TESTS.glob("*.py")}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement (anywhere in the module, also
    under TYPE_CHECKING or inside a function) that no Name or attribute
    root refers to.  `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_detector_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "from typing import TYPE_CHECKING, Iterator\n"
        "if TYPE_CHECKING:\n"
        "    from .fields import FieldCtx, TowerCtx\n"
        "def f(t: TowerCtx) -> Iterator[int]:\n"
        "    yield 1\n"
    )
    assert unused_imports(source) == ["FieldCtx (line 5)", "itertools (line 2)"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_uses_every_import(module):
    source = MODULES[module].read_text(encoding="utf-8")
    assert unused_imports(source) == []


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, as module.name, that no module
    refers to by a Name, an attribute or a `from ... import` in a module
    other than __init__ (whose re-exports are not uses).  A definition's
    references to its own name do not count."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined[f"{module}.{own}"] = own
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and module != "__init__":
                    names = [alias.name for alias in node.names]
                else:
                    continue
                used.update(name for name in names if name != own)
    return sorted(qual for qual, name in defined.items() if name not in used)


# top-level names that no module of the package runs, and why each stays
KEPT = {
    "lfsr.enumerate_recurrences": "a benchmark target (bench_trace) and the full-scan test oracle",
    "linalg.char_poly": "a benchmark target (bench_trace) and the census kernel's test oracle",
    "linalg.rref": "public algebra kept for test oracles",
    "splitting.bases_formula": "public algebra kept for test oracles",
    "splitting.is_T_splitting": "public algebra kept for test oracles",
    "splitting.is_alpha_splitting": "public algebra kept for test oracles",
    "splitting.transform_subspace": "public algebra kept for test oracles",
    "verify.default_grid": "a benchmark target: bench_workloads reads the default grids",
}


def test_detector_sees_unreferenced_definitions():
    sources = {
        "__init__": "from .a import unused\n",
        "a": (
            "def used():\n    pass\n"
            "def unused():\n    return unused\n"
            "class Kept:\n    pass\n"
        ),
        "b": "from . import a\nfrom .a import used as alias\nx = a.Kept\n",
    }
    assert unreferenced(sources) == ["a.unused"]


def test_package_keeps_only_what_it_runs():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced(sources) == sorted(KEPT)


def repeated_helpers(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes not named test_*, as
    name: module, module, ..., that more than one module defines."""
    defined: dict[str, list[str]] = {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("test_"):
                    defined.setdefault(stmt.name, []).append(module)
    return sorted(f"{name}: {', '.join(mods)}" for name, mods in defined.items() if len(mods) > 1)


def test_detector_sees_repeated_helpers():
    sources = {
        "a": "def draw():\n    pass\ndef test_draw():\n    pass\nclass Oracle:\n    pass\n",
        "b": "def draw():\n    pass\ndef test_draw():\n    pass\n",
        "c": "from a import Oracle\nclass Oracle(Oracle):\n    pass\n",
    }
    assert repeated_helpers(sources) == ["Oracle: a, c", "draw: a, b"]


def test_test_modules_share_their_helpers():
    """The samplers and oracles used by several test modules live in
    tests/sampling.py; no test module defines its own copy."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))}
    assert repeated_helpers(sources) == []


def scan_bound_callers(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, as module.name, whose body calls
    scan_bound, by its bare name or as an attribute."""
    callers = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name == "scan_bound":
                        callers.add(f"{module}.{getattr(stmt, 'name', '<module>')}")
    return sorted(callers)


def test_the_scan_bound_never_picks_a_route():
    """The bound only refuses work: check_scan compares a scan's need with
    it, factorize stops trial division at it and period_preperiod stops
    its walk at it.  Nothing else reads it, so no route depends on it."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert scan_bound_callers(sources) == [
        "config.check_scan", "integers.factorize", "lfsr.period_preperiod",
    ]
