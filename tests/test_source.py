"""Invariants of the library source itself, checked on its syntax trees."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stablab"


def forbidden(source: str) -> list[str]:
    """Imports of `linprog` or of `scipy.linalg`, and `linprog` attribute uses.

    The martingale polytope is handled node by node and the entropy dual's
    basis is tree-local, so the library needs neither a global LP nor dense
    SVD-based linear algebra from scipy.
    """
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{a.name}" for a in node.names] + [node.module or ""]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        hits += [n for n in names if n.split(".")[-1] == "linprog"
                 or n == "scipy.linalg" or n.startswith("scipy.linalg.")]
    return hits


@pytest.mark.parametrize("source", [
    "from scipy.optimize import brentq, linprog",
    "import scipy.linalg",
    "from scipy.linalg import null_space",
    "from scipy import linalg",
    "import scipy.optimize\nscipy.optimize.linprog([1.0])",
])
def test_forbidden_imports_are_caught(source):
    assert forbidden(source)


def test_src_imports_no_lp_and_no_scipy_linalg():
    files = sorted(SRC.rglob("*.py"))
    assert files
    hits = {str(p.relative_to(SRC)): forbidden(p.read_text()) for p in files}
    assert not {p: h for p, h in hits.items() if h}


ROUTE_NAMES = {"DENSE_NEWTON_MAX", "_dense_route"}
RETIRED = {"gains_matrix", "_gains_scatter"}


def route_names(source: str) -> set[str]:
    """Uses, imports and definitions of the Newton route's cut and predicate.

    `entropic` alone decides between the dense and the tree-sparse step, so
    no other module may name either."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            hits.add(node.id)
        elif isinstance(node, ast.Attribute):
            hits.add(node.attr)
        elif isinstance(node, ast.alias):
            hits.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            hits.add(node.name)
    return hits & ROUTE_NAMES


def retired_definitions(source: str) -> set[str]:
    """Definitions of the retired global gains builders: the layout
    `entropic._Moves` owns the gains matrix."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            hits.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            hits.add(node.id)
    return hits & RETIRED


@pytest.mark.parametrize("source", [
    "from .entropic import _dense_route",
    "from .entropic import DENSE_NEWTON_MAX as cut",
    "from . import entropic\nentropic._dense_route(tree)",
    "if K * d <= DENSE_NEWTON_MAX:\n    pass",
])
def test_route_names_are_caught(source):
    assert route_names(source)


@pytest.mark.parametrize("source", [
    "def gains_matrix(tree):\n    return None",
    "class ScenarioTree:\n    def _gains_scatter(self):\n        return None",
    "gains_matrix = lambda tree: None",
])
def test_retired_definitions_are_caught(source):
    assert retired_definitions(source)


def test_only_entropic_knows_the_newton_route():
    files = sorted(SRC.rglob("*.py"))
    assert "entropic.py" in {p.name for p in files}
    hits = {str(p.relative_to(SRC)): route_names(p.read_text()) for p in files
            if p.name != "entropic.py"}
    assert not {p: h for p, h in hits.items() if h}
    retired = {str(p.relative_to(SRC)): retired_definitions(p.read_text()) for p in files}
    assert not {p: h for p, h in retired.items() if h}
