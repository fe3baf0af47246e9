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
