"""Perturbation sweeps, rate fits, probabilistic audits, and report emission.

A sweep solves the same market under a one-parameter family of utilities and
records error functionals against the unperturbed member: terminal-wealth L1
distance, value gap, the predictable-bracket distance between strategies,
Davis and indifference price gaps, and the L1 distance of dual densities.
Rate fitting follows the asymptotic reading: the headline fit uses only the
smallest half of the grid, with the full-grid fit reported alongside.

Reports serialize to CSV (17 significant digits, fixed column order) and
JSON (sorted keys); identical config and seed give byte-identical output.
Grid points are solved in order, and a sweep stops at the first point that
fails.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .entropic import extract_dual, minimal_entropy_measure, solve_primal
from .market import (ScenarioTree, bracket_distance, build_tree,
                     conditional_expectation)
from .pricing import _check_tol, davis_price, indifference_price
from .positive import (exponential_hedge, ratio_diagnostics,
                       scaled_strategy_distance, solve_power_field)
from .utilities import (UtilityField, conjugate_sandwich_audit,
                        make_exponential, make_perturbed_exponential,
                        make_perturbed_power, make_power,
                        make_power_family_member, shifted_inverse_mix)

__all__ = [
    "ConfigError", "SweepSpec", "RateFit", "SweepReport", "AuditReport",
    "load_config", "make_claim", "sweep_delta", "sweep_p", "fit_rate",
    "audit_probabilistic_lemmas", "report_csv", "report_json",
    "shipped_families",
]

SCHEMA_VERSION = 1

DELTA_COLUMNS = ["delta", "f", "g", "l1_wealth_err", "value_err",
                 "bracket_dist", "davis_err", "indiff_err", "dq_l1"]
P_COLUMNS = ["p", "fmix", "pure_distance", "member_distance",
             "ratio_product", "rp_l1", "y_ratio"]


class ConfigError(ValueError):
    """Invalid sweep configuration."""


# ----------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SweepSpec:
    kind: str                      # "delta" | "p"
    market: dict
    family: dict
    grid: tuple
    claim: object
    x0: float
    tol: float
    seed: int

    def tree(self) -> ScenarioTree:
        try:
            return build_tree(self.market)
        except Exception as e:
            raise ConfigError(f"bad market spec: {e}") from e


def load_config(doc: dict, kind: str) -> SweepSpec:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("market", "family", "grid"):
        if key not in doc:
            raise ConfigError(f"config missing required key {key!r}")
    grid = tuple(float(v) for v in doc["grid"])
    if len(grid) < 1:
        raise ConfigError("grid must be non-empty")
    diffs = np.diff(grid)
    if len(grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("grid must be strictly monotone")
    if kind == "delta":
        if any(v < 0 for v in grid):
            raise ConfigError("delta grid values must be >= 0")
    elif kind == "p":
        if any(v >= 0 for v in grid):
            raise ConfigError("p grid values must be < 0")
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    spec = SweepSpec(
        kind=kind,
        market=doc["market"],
        family=dict(doc["family"]),
        grid=grid,
        claim=doc.get("claim", {"kind": "zero"}),
        x0=float(doc.get("x0", 0.0 if kind == "delta" else 1.0)),
        tol=_check_tol(doc.get("tol", 1e-9), ConfigError),
        seed=int(doc.get("seed", 0)),
    )
    if kind == "p" and spec.x0 <= 0.0:
        raise ConfigError("p sweeps need positive initial capital")
    # force an early validation of family parameters
    tree = spec.tree()
    make_claim(tree, spec.claim)
    try:
        if kind == "delta":
            fam = _delta_family(spec.family)
            for d in grid:
                fam(d)
        else:
            _p_family(spec.family)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"bad family: {e}") from e
    return spec


def make_claim(tree: ScenarioTree, claim) -> np.ndarray:
    """Leaf values of a config's claim entry (zero, constant, call, or explicit)."""
    if isinstance(claim, dict):
        kind = claim.get("kind", "zero")
        if kind == "zero":
            B = np.zeros(tree.n_leaves)
        elif kind == "constant":
            B = np.full(tree.n_leaves, float(claim.get("value", 0.0)))
        elif kind == "call":
            strike = float(claim.get("strike", 1.0))
            asset = int(claim.get("asset", 0))
            B = np.maximum(tree.terminal_prices()[:, asset] - strike, 0.0)
        else:
            raise ConfigError(f"unknown claim kind {kind!r}")
    else:
        B = np.asarray(claim, dtype=float)
        if B.shape != (tree.n_leaves,):
            raise ConfigError(f"explicit claim needs {tree.n_leaves} leaf values")
    if not np.all(np.isfinite(B)):
        raise ConfigError("claim must be finite")
    if np.any(B < 0.0):
        raise ConfigError("claim must be nonnegative")
    return B


def _delta_family(fam: dict):
    kind = fam.get("kind", "sine")
    a = float(fam.get("a", 0.2))
    omega = float(fam.get("omega", 1.0))
    slope = float(fam.get("alpha_slope", 0.0))
    if kind == "exponential":
        return lambda d: make_perturbed_exponential(d, alpha=1.0 + d, kind="sine", a=0.0)
    if kind in ("sine", "constant-shift", "constant_shift"):
        return lambda d: make_perturbed_exponential(
            d, alpha=1.0 + slope * d, kind=kind, a=a, omega=omega)
    raise ConfigError(f"unknown delta family kind {kind!r}")


def _p_family(fam: dict):
    kind = fam.get("kind", "power")
    if kind == "power":
        return None, None
    if kind == "power-member":
        p0 = float(fam.get("p0", -7.0))
        b = float(fam.get("b", 0.05))
        nu = float(fam.get("nu", 1.0))
        base = make_perturbed_power(p0, b=b, nu=nu)
        return base, shifted_inverse_mix(p0)
    raise ConfigError(f"unknown p family kind {kind!r}")


# ----------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class RateFit:
    model: str
    functional: str
    subset: str                 # "half" | "full"
    coefficients: dict
    r_squared: float
    n_points: int


@dataclass
class SweepReport:
    kind: str
    columns: list
    rows: list                  # list of dicts, grid order
    fits: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows], dtype=float)


def report_csv(report: SweepReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow(["%.17g" % row[c] for c in report.columns])
    return buf.getvalue()


def report_json(report: SweepReport) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": report.kind,
        "columns": report.columns,
        "rows": [{c: row[c] for c in report.columns} for row in report.rows],
        "fits": {
            name: {
                "model": f.model, "functional": f.functional, "subset": f.subset,
                "coefficients": f.coefficients, "r_squared": f.r_squared,
                "n_points": f.n_points,
            } for name, f in sorted(report.fits.items())
        },
        "meta": report.meta,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# delta sweep


def sweep_delta(spec: SweepSpec) -> SweepReport:
    """Solve the real-line problem along the delta grid and record the error
    functionals against the unperturbed (exponential) member."""
    tree = spec.tree()
    B = make_claim(tree, spec.claim)
    fam = _delta_family(spec.family)
    U0 = make_exponential(1.0)
    base = solve_primal(tree, U0, spec.x0)
    Q = extract_dual(tree, U0, base)
    davis0 = davis_price(Q, B).price
    indiff0 = indifference_price(tree, U0, spec.x0, B, tol=spec.tol).price

    def one(delta: float) -> dict:
        U = fam(delta)
        sol = solve_primal(tree, U, spec.x0)
        dual = extract_dual(tree, U, sol)
        return {
            "delta": delta,
            "f": U.f_bound,
            "g": U.g_bound,
            "l1_wealth_err": float(Q.measure.weights @ np.abs(sol.total - base.total)),
            "value_err": abs(sol.value - base.value),
            "bracket_dist": bracket_distance(tree, Q.measure, sol.strategy, base.strategy),
            "davis_err": abs(davis_price(dual, B).price - davis0),
            "indiff_err": abs(indifference_price(tree, U, spec.x0, B, tol=spec.tol).price
                              - indiff0),
            "dq_l1": float(np.sum(np.abs(dual.measure.weights - Q.measure.weights))),
        }

    rows, meta = _run_grid(one, spec.grid)
    meta.update(seed=spec.seed, tol=spec.tol, x0=spec.x0, family=spec.family,
                schema_version=SCHEMA_VERSION)
    report = SweepReport(kind="delta", columns=DELTA_COLUMNS, rows=rows, meta=meta)
    if len(rows) >= 4 and not meta.get("incomplete"):
        for subset in ("half", "full"):
            try:
                report.fits[f"loglog_{subset}"] = fit_rate(
                    report, "loglog_slope", functional="l1_wealth_err", subset=subset)
                report.fits[f"f2g_{subset}"] = fit_rate(
                    report, "f2_plus_g", functional="l1_wealth_err", subset=subset)
            except ValueError:
                pass
    return report


# ----------------------------------------------------------------------
# p sweep


def sweep_p(spec: SweepSpec) -> SweepReport:
    """Solve positive-wealth problems along the p grid and compare against
    the money positions of the exponential hedge of the same claim."""
    tree = spec.tree()
    B = make_claim(tree, spec.claim)
    field_w = UtilityField.from_claim(make_power(min(spec.grid)), B)
    hedge = exponential_hedge(tree, make_exponential(1.0), B, spec.x0)
    base, fmix = _p_family(spec.family)

    def one(p: float) -> dict:
        pure = solve_power_field(tree, make_power(p), spec.x0, field_w)
        pure_dist = scaled_strategy_distance(tree, p, pure.strategy, hedge.strategy)
        if base is None:
            member_dist = pure_dist
            product = 0.0
            rp_l1 = 0.0
            y_ratio = 1.0
            w = 1.0
        else:
            member = make_power_family_member(base, p, fmix)
            sol = solve_power_field(tree, member, spec.x0, field_w)
            member_dist = scaled_strategy_distance(tree, p, sol.strategy, hedge.strategy)
            diag = ratio_diagnostics(tree, member, sol, pure)
            product = diag.mean_product
            rp_l1 = diag.rp_l1
            y_ratio = diag.y_ratio
            w = fmix(p)
        return {
            "p": p, "fmix": w,
            "pure_distance": pure_dist, "member_distance": member_dist,
            "ratio_product": product, "rp_l1": rp_l1, "y_ratio": y_ratio,
        }

    rows, meta = _run_grid(one, spec.grid)
    meta.update(seed=spec.seed, tol=spec.tol, x0=spec.x0, family=spec.family,
                schema_version=SCHEMA_VERSION)
    report = SweepReport(kind="p", columns=P_COLUMNS, rows=rows, meta=meta)
    if len(rows) >= 4 and not meta.get("incomplete"):
        for subset in ("half", "full"):
            try:
                report.fits[f"inverse_{subset}"] = fit_rate(
                    report, "inverse_one_minus_p", functional="pure_distance",
                    subset=subset)
            except ValueError:
                pass
    return report


def _run_grid(one, grid):
    rows = []
    meta = {}
    for g in grid:
        try:
            rows.append(one(g))
        except Exception as e:
            meta["incomplete"] = True
            meta["error"] = f"grid point {g!r}: {e}"
            break
    return rows, meta


# ----------------------------------------------------------------------
# rate fitting


def fit_rate(report: SweepReport, model: str, functional: str | None = None,
             subset: str = "half") -> RateFit:
    """Fit a convergence-rate model to one recorded functional.

    The "half" subset keeps the ceil(n/2) grid points closest to the limit
    (smallest delta, most negative p); asymptotic statements are about that
    end of the grid.
    """
    if len(report.rows) < 4:
        raise ValueError("rate fits need at least 4 grid points")
    if functional is None:
        functional = "l1_wealth_err" if report.kind == "delta" else "pure_distance"
    y = report.column(functional)
    if report.kind == "delta":
        xkey = report.column("delta")
        order = np.argsort(xkey)           # ascending: smallest delta first
    else:
        xkey = report.column("p")
        order = np.argsort(xkey)           # ascending: most negative p first
    if subset == "half":
        keep = order[:math.ceil(len(order) / 2)]
    elif subset == "full":
        keep = order
    else:
        raise ValueError(f"unknown subset {subset!r}")
    keep = np.sort(keep)
    y = y[keep]

    if model == "f2_plus_g":
        X = np.column_stack([report.column("f")[keep] ** 2, report.column("g")[keep]])
        coef, _ = nnls(X, y)
        pred = X @ coef
        return RateFit(model=model, functional=functional, subset=subset,
                       coefficients={"C1": float(coef[0]), "C2": float(coef[1])},
                       r_squared=_rentered(y, pred), n_points=len(y))
    if model == "inverse_one_minus_p":
        x = 1.0 / (1.0 - report.column("p")[keep])
        denom = float(x @ x)
        if denom == 0.0:
            raise ValueError("degenerate abscissa for inverse fit")
        c = float(x @ y) / denom
        return RateFit(model=model, functional=functional, subset=subset,
                       coefficients={"C": c}, r_squared=_rentered(y, c * x),
                       n_points=len(y))
    if model == "loglog_slope":
        x = report.column("delta")[keep] if report.kind == "delta" \
            else 1.0 / (1.0 - report.column("p")[keep])
        ok = (x > 0.0) & (y > 0.0)
        if int(ok.sum()) < 2:
            raise ValueError("not enough positive points for a log-log fit")
        lx, ly = np.log(x[ok]), np.log(y[ok])
        slope, intercept = np.polyfit(lx, ly, 1)
        return RateFit(model=model, functional=functional, subset=subset,
                       coefficients={"slope": float(slope),
                                     "intercept": float(intercept)},
                       r_squared=_rentered(ly, slope * lx + intercept),
                       n_points=int(ok.sum()))
    raise ValueError(f"unknown rate model {model!r}")


def _rentered(y: np.ndarray, pred: np.ndarray) -> float:
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res <= 1e-28 else 0.0
    return 1.0 - ss_res / ss_tot


# ----------------------------------------------------------------------
# probabilistic audits


@dataclass(frozen=True)
class AuditReport:
    trials: int
    seed: int
    doob_violations: int
    doob_max_ratio: float
    sandwich_max_violation: float
    families: tuple

    @property
    def ok(self) -> bool:
        return self.doob_violations == 0 and self.sandwich_max_violation <= 1e-8


def shipped_families():
    """The utility families exercised by the default audit."""
    return (
        ("exponential_alpha_1", make_exponential(1.0)),
        ("exponential_alpha_1.5", make_exponential(1.5)),
        ("sine_delta_0.2", make_perturbed_exponential(0.2, a=0.2, omega=1.0)),
        ("constant_shift_delta_0.1", make_perturbed_exponential(
            0.1, kind="constant-shift", a=0.2)),
        ("power_p_-2", make_power(-2.0)),
        ("perturbed_power_p_-7", make_perturbed_power(-7.0, b=0.05, nu=1.0)),
    )


def audit_probabilistic_lemmas(tree: ScenarioTree, seed: int = 42,
                               trials: int = 1000,
                               qs=(0.25, 0.5, 0.75)) -> AuditReport:
    """Random-supermartingale maximal-inequality audit plus sandwich audits.

    Each trial builds Z = M - A under the entropy-minimal measure: M a
    centered martingale from random terminal values, A a nondecreasing
    adapted drift, so Z_0 = 0 and Z is a supermartingale.  The bound checked
    is E[sup_t |Z_t|^q] <= 2^q / (1-q) * E[|Z_T|]^q for each exponent q.
    """
    if trials < 100:
        raise ValueError("audits need at least 100 trials")
    Q = minimal_entropy_measure(tree, make_exponential(1.0)).measure
    rng = np.random.default_rng(seed)
    violations = 0
    max_ratio = 0.0
    leaves = tree.leaves
    qw = Q.weights
    for _ in range(trials):
        xi = rng.normal(size=tree.n_leaves) * rng.uniform(0.5, 2.0)
        M = conditional_expectation(tree, Q, xi).values
        M = M - M[0]
        drift = np.zeros(tree.n_nodes)
        inc = rng.uniform(0.0, 0.5, size=tree.n_nodes)
        for nodes in tree.levels[1:]:
            drift[nodes] = drift[tree.parent[nodes]] + inc[nodes]
        Z = M - drift
        path_sup = np.max(np.abs(Z[tree.paths]), axis=1)
        zT = float(qw @ np.abs(Z[leaves]))
        for q in qs:
            lhs = float(qw @ path_sup ** q)
            rhs = 2.0 ** q / (1.0 - q) * zT ** q
            if rhs > 0.0:
                max_ratio = max(max_ratio, lhs / rhs)
            if lhs > rhs * (1.0 + 1e-12) + 1e-15:
                violations += 1
    sandwich = 0.0
    fams = shipped_families()
    for _, fam in fams:
        sandwich = max(sandwich, conjugate_sandwich_audit(fam).max_violation)
    return AuditReport(trials=trials, seed=seed, doob_violations=violations,
                       doob_max_ratio=max_ratio, sandwich_max_violation=sandwich,
                       families=tuple(name for name, _ in fams))
