"""Invariants of the library source itself, checked on its syntax trees and,
for the import path, in a fresh interpreter."""
import ast
import os
import subprocess
import sys
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


def scipy_imports(source: str) -> list[str]:
    """Imports of scipy or of any scipy submodule, at any depth, including
    `import_module` and `__import__` calls that name one.

    The library runs on numpy alone; scipy is a test dependency."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        elif isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if callee not in ("import_module", "__import__"):
                continue
            names = [a.value for a in node.args
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        else:
            continue
        hits += [n for n in names if n == "scipy" or n.startswith("scipy.")]
    return hits


@pytest.mark.parametrize("source", [
    "import scipy",
    "import numpy as np, scipy.optimize as so",
    "from scipy import optimize",
    "from scipy.optimize import nnls",
    "from scipy.optimize._nnls import nnls as solve",
    "def fit(X, y):\n    from scipy.optimize import nnls\n    return nnls(X, y)",
    "import importlib\nopt = importlib.import_module('scipy.optimize')",
    "nnls = __import__('scipy.optimize', fromlist=['nnls']).nnls",
])
def test_scipy_imports_are_caught(source):
    assert scipy_imports(source)


@pytest.mark.parametrize("source", [
    "import numpy as np",
    "from .sweeps import fit_rate",
    "from . import scipy_free",
    "import scipyx",
])
def test_other_imports_are_not_caught(source):
    assert not scipy_imports(source)


def test_src_imports_no_scipy():
    files = sorted(SRC.rglob("*.py"))
    assert "sweeps.py" in {p.name for p in files}
    hits = {str(p.relative_to(SRC)): scipy_imports(p.read_text()) for p in files}
    assert not {p: h for p, h in hits.items() if h}


def test_cli_starts_without_scipy():
    code = ("import stablab.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"


ROUTE_NAMES = {"DENSE_NEWTON_MAX", "_dense_route"}
RETIRED = {"gains_matrix", "_gains_scatter", "_martingale_basis", "_log_wealth",
           "_spec_number", "_random_wealth", "martingale_polytope_probes", "PROBE_VERTICES",
           "PROBE_INTERIOR", "_centroid_measure", "single_step_tree", "AdaptedProcess",
           "exponential_hedge", "is_martingale_measure"}


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
    """Definitions of the retired global gains builders, of the entropy
    dual's null-space basis, of the fraction solver's per-leaf log-wealth, of
    the tree spec's own number check, of the numeraire audit's random
    wealths, of the random martingale probes and their counts, of the
    viability check's centroid measure, of the one-step tree alias, of the
    per-node process wrapper and of two pass-throughs: the
    layout `entropic._Moves` owns the gains matrix, the entropy dual takes
    the primal's Newton step, the fraction solver's evaluation grows the
    wealth once per node, `market._number` reads every number of a spec or
    config, the audit bounds every box strategy in one backward pass, the
    supermartingale certificate and the price bounds take their suprema in
    exact backward passes, viability is a yes/no check over the node
    vertices, `branching_tree(..., 1)` builds a one-step tree, a process is a
    plain per-node array, and callers call `solve_primal(tree, u, x0 - B)`
    and compare `martingale_residual` with their own tolerance."""
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
    "def _martingale_basis(tree, q0):\n    return q0",
    "def _log_wealth(moves, pi, keep=False):\n    return None, None",
    "def _spec_number(value, what):\n    return float(value)",
    "def _random_wealth(tree, rng, x0, shrink=0.6):\n    return None",
    "def martingale_polytope_probes(tree, seed=0):\n    return []",
    "PROBE_VERTICES = 8",
    "PROBE_INTERIOR = 4",
    "def _centroid_measure(tree):\n    return None",
    "def single_step_tree(s0, factors, probs):\n    return None",
    "@dataclass(frozen=True)\nclass AdaptedProcess:\n    values: np.ndarray",
    "def exponential_hedge(tree, utility, claim=0.0, x0=0.0):\n    return None",
    "def is_martingale_measure(tree, m, tol=1e-10):\n    return True",
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


PATH_NAMES = {"bincount", "paths"}


def path_names(source: str) -> set[str]:
    """Uses, imports, bindings and definitions of `bincount` or `paths`.

    Every product with the gains takes per-node moves and goes through the
    layout `entropic._Moves`, which alone knows the (leaf, date) paths, so
    the fraction solver sums along no path itself."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            hits.add(node.id)
        elif isinstance(node, ast.Attribute):
            hits.add(node.attr)
        elif isinstance(node, ast.alias):
            hits.add(node.name.split(".")[-1])
        elif isinstance(node, ast.arg):
            hits.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            hits.add(node.name)
    return hits & PATH_NAMES


@pytest.mark.parametrize("source", [
    "same = np.bincount(slots, outer.ravel(), K * d * d)",
    "from numpy import bincount as add_up",
    "cols = tree.column[tree.paths[:, :-1]]",
    "def solve(tree, paths):\n    return None",
    "paths = tree.cached('paths', build)",
    "logX = np.take(logg, moves.paths[:, 1:], axis=0).sum(axis=1)",
])
def test_path_names_are_caught(source):
    assert path_names(source)


def test_the_fraction_solver_reads_no_paths():
    assert not path_names((SRC / "positive.py").read_text())


SOLVERS = {"_holding_step", "_tree_step", "_dense_step", "solve", "lstsq", "pinv", "inv"}
DENSE_STEP_CALLERS = {"_holding_step", "_tree_step", "_one_step_min"}


def step_problems(source: str) -> list[str]:
    """Newton steps taken outside the shared system.

    `minimal_entropy_measure` must reach a linear solve only through
    `_holding_step`, and `_dense_step` (under any imported name) may be used
    only by `_holding_step`, `_tree_step` and the one-step kernel
    `_one_step_min`, each top-level definition counted with what it nests."""
    module = ast.parse(source)
    dense = {"_dense_step"} | {a.asname for node in ast.walk(module)
                               if isinstance(node, ast.ImportFrom)
                               for a in node.names if a.name == "_dense_step" and a.asname}
    problems = []
    for top in module.body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        used = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
        owner = getattr(top, "name", "module level")
        if used & dense and owner not in DENSE_STEP_CALLERS:
            problems.append(f"{owner} uses _dense_step")
        if owner == "minimal_entropy_measure" and (used & (SOLVERS | dense)) != {"_holding_step"}:
            problems.append(f"minimal_entropy_measure solves by {sorted(used & (SOLVERS | dense))}")
    return problems


@pytest.mark.parametrize("source", [
    "def minimal_entropy_measure(tree, u):\n    return _newton(x, evaluate, 1e-12, 'entropy')",
    "def minimal_entropy_measure(tree, u):\n    return _dense_step(hess, grad)",
    "def minimal_entropy_measure(tree, u):\n    return np.linalg.solve(hess, grad)",
    "def minimal_entropy_measure(tree, u):\n    def derivatives(mu):\n"
    "        return _tree_step(tree, move, a, b)\n    return _holding_step(tree, m, w, a, b)",
    "def solve_primal(tree, u):\n    return _dense_step(hess, grad)",
    "step = _dense_step(hess, grad)",
    "from .entropic import _dense_step as solve_block\n"
    "def opportunity_process(tree, p):\n    return solve_block(hess, grad)",
    "class Dual:\n    def step(self):\n        return entropic._dense_step(hess, grad)",
])
def test_stray_newton_steps_are_caught(source):
    assert step_problems(source)


def test_the_entropy_dual_takes_the_primal_step():
    files = sorted(SRC.rglob("*.py"))
    sources = {str(p.relative_to(SRC)): p.read_text() for p in files}
    assert "def minimal_entropy_measure" in sources["entropic.py"]
    assert not {p: h for p, h in ((p, step_problems(s)) for p, s in sources.items()) if h}


def users(source: str, name: str) -> set[str]:
    """The top-level definitions that name `name`, under any imported name,
    other than its own definition or assignment; each counted with what it
    nests."""
    module = ast.parse(source)
    names = {name} | {a.asname for node in ast.walk(module) if isinstance(node, ast.ImportFrom)
                      for a in node.names if a.name == name and a.asname}
    hits = set()
    for top in module.body:
        if isinstance(top, (ast.Import, ast.ImportFrom)) or getattr(top, "name", None) == name:
            continue
        if isinstance(top, ast.Assign) and name in {getattr(t, "id", None) for t in top.targets}:
            continue
        used = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
        if used & names:
            hits.add(getattr(top, "name", "module level"))
    return hits


@pytest.mark.parametrize("source, name, user", [
    ("def solve_primal(tree, u):\n    return _newton(h, evaluate, GRAD_TOL, 'primal')",
     "GRAD_TOL", "solve_primal"),
    ("from .entropic import _one_step_min as kernel\n"
     "def opportunity_process(tree, p):\n    return kernel(cond, dR, L, p, unit)",
     "_one_step_min", "opportunity_process"),
    ("class Start:\n    def build(self):\n        return entropic._one_step_min(c, m, 1.0, None, u)",
     "_one_step_min", "Start"),
    ("def _myopic(tree):\n    def one(x):\n        return _newton(x, evaluate, 1e-12, 'myopic')\n"
     "    return one", "_newton", "_myopic"),
])
def test_users_are_caught(source, name, user):
    assert users(source, name) == {user}


def test_the_primal_names_no_gradient_tolerance():
    # the primal stops on the Newton decrement relative to its shortfall; the
    # absolute gradient tolerance is the entropy dual's alone
    assert users((SRC / "entropic.py").read_text(), "GRAD_TOL") == {"minimal_entropy_measure"}


def test_no_power_gradient_tolerance():
    # the fraction solver stops on the Newton decrement relative to its
    # shortfall, as the primal does; the gradient tolerance it had is gone
    assert not [p.name for p in sorted(SRC.rglob("*.py")) if "POWER_TOL" in p.read_text()]


def test_one_step_min_is_the_only_one_step_kernel():
    # one kernel serves the starts (one helper, for the exponential start of
    # the primal and the power start of the fraction solver) and the power
    # opportunity process, and no other Newton loop solves one-step problems
    sources = {p.name: p.read_text() for p in sorted(SRC.rglob("*.py"))}
    defined = {name for name, source in sources.items()
               if "_one_step_min" in {top.name for top in ast.parse(source).body
                                      if isinstance(top, ast.FunctionDef)}}
    assert defined == {"entropic.py"}
    found = {(name, user) for name, source in sources.items()
             for user in users(source, "_one_step_min")}
    assert found == {("entropic.py", "_one_step_start"), ("positive.py", "opportunity_process")}
    starts = {(name, user) for name, source in sources.items()
              for user in users(source, "_one_step_start")}
    assert starts == {("entropic.py", "_exponential_start"), ("positive.py", "solve_power_field")}
    loops = {(name, user) for name, source in sources.items() for user in users(source, "_newton")}
    assert loops == {("entropic.py", "solve_primal"), ("entropic.py", "minimal_entropy_measure"),
                     ("entropic.py", "_one_step_min"), ("positive.py", "solve_power_field")}


GEOMETRY = {"_node_vertices", "_layout"}


def date_walkers(source: str) -> set[str]:
    """Top-level definitions among the one-step geometry's functions that name
    `child_blocks`.

    The vertices and frames are per node, so they take one batched SVD per
    child count over every date at once (`count_blocks`), not one per date."""
    return {top.name for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef) and top.name in GEOMETRY
            and any(isinstance(n, ast.Attribute) and n.attr == "child_blocks"
                    for n in ast.walk(top))}


@pytest.mark.parametrize("source", [
    "def _layout(tree, move):\n    for level in tree.child_blocks:\n        pass",
    "def _node_vertices(tree):\n    blocks = [b for level in tree.child_blocks for b in level]",
])
def test_date_walkers_are_caught(source):
    assert date_walkers(source)


def test_the_geometry_walks_child_counts():
    source = (SRC / "entropic.py").read_text()
    defined = {top.name for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)}
    assert GEOMETRY <= defined
    assert not date_walkers(source)


BROAD = {"Exception", "BaseException"}


def broad_handlers(source: str) -> list[str]:
    """The top-level definition around each `except` clause that catches
    `Exception`, `BaseException` or, bare, everything.

    A bad config or tree spec raises ConfigError or TreeValidationError
    where its entry is read, so no handler turns stray errors into config
    errors.  The sweep grid's `_run_grid` alone catches every error: it
    records the failing grid point and stops the sweep there."""
    hits = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler):
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(t is None or getattr(t, "id", getattr(t, "attr", None)) in BROAD
                       for t in caught):
                    hits.append(getattr(top, "name", "module level"))
    return hits


@pytest.mark.parametrize("source", [
    "try:\n    f()\nexcept Exception:\n    pass",
    "def market_tree(market):\n    try:\n        return build_tree(market)\n"
    "    except Exception as e:\n        raise ConfigError(str(e)) from e",
    "try:\n    f()\nexcept (KeyError, Exception) as e:\n    pass",
    "try:\n    f()\nexcept:\n    pass",
    "try:\n    f()\nexcept BaseException:\n    pass",
    "class Loader:\n    def read(self):\n        try:\n            f()\n"
    "        except builtins.Exception:\n            pass",
])
def test_broad_handlers_are_caught(source):
    assert broad_handlers(source)


@pytest.mark.parametrize("source", [
    "try:\n    f()\nexcept ValueError:\n    pass",
    "try:\n    f()\nexcept (TypeError, TreeValidationError) as e:\n    pass",
    "try:\n    f()\nexcept ConfigError:\n    raise\n"
    "except ValueError as e:\n    raise ConfigError(e)",
    "try:\n    f()\nexcept ExceptionGroup:\n    pass",
])
def test_narrow_handlers_are_not_caught(source):
    assert not broad_handlers(source)


def test_only_the_sweep_grid_catches_every_error():
    files = sorted(SRC.rglob("*.py"))
    hits = {str(p.relative_to(SRC)): broad_handlers(p.read_text()) for p in files}
    assert {p: h for p, h in hits.items() if h} == {"sweeps.py": ["_run_grid"]}
