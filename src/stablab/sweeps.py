"""Perturbation sweeps, rate fits, probabilistic audits, and report emission.

A sweep solves the same market under a one-parameter family of utilities and
records error functionals against the unperturbed member: terminal-wealth L1
distance, value gap, the predictable-bracket distance between strategies,
Davis and indifference price gaps, and the L1 distance of dual densities.
Rate fitting follows the asymptotic reading: the headline fit uses only the
smallest half of the grid, with the full-grid fit reported alongside.

Reports serialize to CSV (17 significant digits, fixed column order) and
JSON (sorted keys); an identical config gives byte-identical output.
Grid points are solved in order, and a sweep stops at the first point that
fails.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .entropic import extract_dual, minimal_entropy_measure, solve_primal
from .market import (ScenarioTree, TreeValidationError, _number, bracket_distance,
                     build_tree, conditional_probs)
from .pricing import _check_claim, _check_tol, _indifference, davis_price
from .positive import ratio_diagnostics, scaled_strategy_distance, solve_power_field
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


config_number = functools.partial(_number, error=ConfigError)


# ----------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SweepSpec:
    """A sweep config.  Building one checks the kind and the grid (non-empty,
    finite numbers, strictly monotone, every delta >= 0 or every p < 0), keeping
    the grid as floats, and builds its tree,
    the claim's leaf values and the family member at each grid point into
    `inputs`; ConfigError when any is bad."""
    kind: str                      # "delta" | "p"
    market: dict
    family: dict
    grid: tuple
    claim: object
    x0: float
    tol: float
    seed: int
    inputs: tuple = field(init=False, repr=False, compare=False)  # (tree, B, members)

    def __post_init__(self):
        if self.kind not in ("delta", "p"):
            raise ConfigError(f"unknown sweep kind {self.kind!r}")
        if len(self.grid) < 1:
            raise ConfigError("grid must be non-empty")
        object.__setattr__(self, "grid", tuple(config_number(v, "grid value") for v in self.grid))
        diffs = np.diff(self.grid)
        if len(self.grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("grid must be strictly monotone")
        if self.kind == "delta" and not all(v >= 0 for v in self.grid):
            raise ConfigError("delta grid values must be >= 0")
        if self.kind == "p" and not all(v < 0 for v in self.grid):
            raise ConfigError("p grid values must be < 0")
        if self.kind == "p" and self.x0 <= 0.0:
            raise ConfigError("p sweeps need positive initial capital")
        tree = market_tree(self.market)
        B = make_claim(tree, self.claim)
        try:
            if self.kind == "delta":
                member = _delta_family(self.family)
            else:
                member = _p_family(self.family)
            members = {g: member(g) for g in self.grid}
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"bad family: {e}") from e
        object.__setattr__(self, "inputs", (tree, B, members))


def market_tree(market) -> ScenarioTree:
    """The tree of a config's market entry; ConfigError when it does not build."""
    try:
        return build_tree(market)
    except TreeValidationError as e:
        raise ConfigError(f"bad market spec: {e}") from e


def load_config(doc: dict, kind: str) -> SweepSpec:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("market", "family", "grid"):
        if key not in doc:
            raise ConfigError(f"config missing required key {key!r}")
    if not isinstance(doc["family"], dict) or not isinstance(doc["grid"], list):
        raise ConfigError("family must be a JSON object and grid a list of numbers")
    return SweepSpec(
        kind=kind,
        market=doc["market"],
        family=dict(doc["family"]),
        grid=tuple(doc["grid"]),
        claim=doc.get("claim", {"kind": "zero"}),
        x0=config_number(doc.get("x0", 0.0 if kind == "delta" else 1.0), "x0"),
        tol=_check_tol(doc.get("tol", 1e-9), ConfigError),
        seed=config_number(doc.get("seed", 0), "seed", kind=int),
    )


def make_claim(tree: ScenarioTree, claim) -> np.ndarray:
    """Leaf values of a config's claim entry (zero, constant, call, or explicit)."""
    if isinstance(claim, dict):
        kind = claim.get("kind", "zero")
        if kind == "zero":
            B = np.zeros(tree.n_leaves)
        elif kind == "constant":
            B = np.full(tree.n_leaves, config_number(claim.get("value", 0.0), "claim value"))
        elif kind == "call":
            strike = config_number(claim.get("strike", 1.0), "claim strike")
            asset = config_number(claim.get("asset", 0), "claim asset", kind=int)
            if not 0 <= asset < tree.n_assets:
                raise ConfigError(f"claim asset must lie in [0, {tree.n_assets}), got {asset}")
            B = np.maximum(tree.terminal_prices()[:, asset] - strike, 0.0)
        else:
            raise ConfigError(f"unknown claim kind {kind!r}")
    elif isinstance(claim, list) and len(claim) == tree.n_leaves:
        B = np.array([config_number(v, f"claim leaf {k}") for k, v in enumerate(claim)])
    else:
        raise ConfigError(f"explicit claim needs {tree.n_leaves} leaf values")
    return _check_claim(B, ConfigError)


def _delta_family(fam: dict):
    kind = fam.get("kind", "sine")
    a, omega, slope = (config_number(fam.get(k, v), f"family {k}")
                       for k, v in (("a", 0.2), ("omega", 1.0), ("alpha_slope", 0.0)))
    if kind == "exponential":
        return lambda d: make_perturbed_exponential(d, alpha=1.0 + d, kind="sine", a=0.0)
    if kind in ("sine", "constant-shift", "constant_shift"):
        return lambda d: make_perturbed_exponential(
            d, alpha=1.0 + slope * d, kind=kind, a=a, omega=omega)
    raise ConfigError(f"unknown delta family kind {kind!r}")


def _p_family(fam: dict):
    """p -> (the family member at p, its mix weight); (None, 1.0) for pure power."""
    kind = fam.get("kind", "power")
    if kind == "power":
        return lambda p: (None, 1.0)
    if kind == "power-member":
        base = make_perturbed_power(*(config_number(fam.get(k, v), f"family {k}")
                                      for k, v in (("p0", -7.0), ("b", 0.05), ("nu", 1.0))))
        fmix = shifted_inverse_mix(base.p)
        return lambda p: (make_power_family_member(base, p, fmix), fmix(p))
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
    tree, B, members = spec.inputs
    U0 = make_exponential(1.0)
    base = solve_primal(tree, U0, spec.x0)
    Q = extract_dual(tree, U0, base)
    davis0 = davis_price(Q, B).price
    indiff0 = _indifference(tree, U0, spec.x0, B, spec.tol, base, Q).price

    def one(delta: float) -> dict:
        U = members[delta]
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
            "indiff_err": abs(_indifference(tree, U, spec.x0, B, spec.tol, sol, dual).price
                              - indiff0),
            "dq_l1": float(np.sum(np.abs(dual.measure.weights - Q.measure.weights))),
        }

    return _sweep_report(spec, "delta", DELTA_COLUMNS, one,
                         [("loglog", "loglog_slope", "l1_wealth_err"),
                          ("f2g", "f2_plus_g", "l1_wealth_err")])


# ----------------------------------------------------------------------
# p sweep


def sweep_p(spec: SweepSpec) -> SweepReport:
    """Solve positive-wealth problems along the p grid and compare against
    the money positions of the exponential hedge of the same claim."""
    tree, B, members = spec.inputs
    field_w = UtilityField.from_claim(B)
    hedge = solve_primal(tree, make_exponential(1.0), spec.x0 - B)

    def one(p: float) -> dict:
        pure = solve_power_field(tree, make_power(p), spec.x0, field_w)
        pure_dist = scaled_strategy_distance(tree, p, pure.strategy, hedge.strategy)
        member, w = members[p]
        if member is None:
            member_dist, product, rp_l1, y_ratio = pure_dist, 0.0, 0.0, 1.0
        else:
            sol = solve_power_field(tree, member, spec.x0, field_w)
            member_dist = scaled_strategy_distance(tree, p, sol.strategy, hedge.strategy)
            diag = ratio_diagnostics(tree, member, sol, pure)
            product, rp_l1, y_ratio = diag.mean_product, diag.rp_l1, diag.y_ratio
        return {
            "p": p, "fmix": w,
            "pure_distance": pure_dist, "member_distance": member_dist,
            "ratio_product": product, "rp_l1": rp_l1, "y_ratio": y_ratio,
        }

    return _sweep_report(spec, "p", P_COLUMNS, one,
                         [("inverse", "inverse_one_minus_p", "pure_distance")])


def _sweep_report(spec: SweepSpec, kind: str, columns: list, one, fits) -> SweepReport:
    """The report of `one` run over the spec's grid, the spec in its meta.
    Where the grid ran through with at least 4 points, each subset takes the
    fits (name, model, functional) in order; the first that fails skips the
    subset's rest."""
    rows, meta = _run_grid(one, spec.grid)
    meta.update(seed=spec.seed, tol=spec.tol, x0=spec.x0, family=spec.family,
                schema_version=SCHEMA_VERSION)
    report = SweepReport(kind=kind, columns=columns, rows=rows, meta=meta)
    if len(rows) >= 4 and not meta.get("incomplete"):
        for subset in ("half", "full"):
            try:
                for name, model, functional in fits:
                    report.fits[f"{name}_{subset}"] = fit_rate(
                        report, model, functional=functional, subset=subset)
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

    "f2_plus_g" fits y ~ C1 f^2 + C2 g by least squares over C1, C2 >= 0;
    "inverse_one_minus_p" fits y ~ C / (1 - p) by least squares;
    "loglog_slope" fits a line to log y against log delta, or against
    log(1 / (1 - p)), over the points where both are positive.

    The "half" subset keeps the ceil(n/2) grid points closest to the limit
    (smallest delta, most negative p); asymptotic statements are about that
    end of the grid.
    """
    if len(report.rows) < 4:
        raise ValueError("rate fits need at least 4 grid points")
    if functional is None:
        functional = "l1_wealth_err" if report.kind == "delta" else "pure_distance"
    y = report.column(functional)
    # ascending: smallest delta, or most negative p, first
    order = np.argsort(report.column("delta" if report.kind == "delta" else "p"))
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
        coef = _nnls2(X, y)
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


def _nnls2(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """argmin |X c - y| over c >= 0 for an (n, 2) X, from its KKT candidates.

    At the optimum each coefficient is 0 or has zero gradient, so the answer
    is the least-squares solution when X has full column rank and that
    solution is non-negative, and otherwise the better one-column fit
    max(0, x_j.y / x_j.x_j), or 0 (Lawson & Hanson, *Solving Least Squares
    Problems*, ch. 23).  A rank-deficient X always has a one-column optimum.
    """
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("rate fits need finite values")
    # power-of-two scales change no rounding and keep x.x clear of underflow
    ex = np.frexp(np.abs(X).max(axis=0))[1]
    ey = np.frexp(np.abs(y).max())[1]
    X, y = np.ldexp(X, -ex), np.ldexp(y, -ey)
    c, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < 2 or np.any(c < 0.0):
        # row j fits column j alone, or is zero where x_j.y <= 0
        xx = np.maximum((X * X).sum(axis=0), np.finfo(float).tiny)
        fits = np.diag(np.maximum(X.T @ y, 0.0) / xx)
        a, b = fits @ X.T
        # |y - a|^2 - |y - b|^2 = (b - a).(2y - a - b): no y in b - a, so the
        # sign survives where both fits barely lower |y|
        c = fits[1] if (b - a) @ (2.0 * y - a - b) > 0.0 else fits[0]
    return np.ldexp(c, ey - ex)


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


# the audit takes as many trials per block as keep block * n_nodes * (T+1)
# within this many doubles, so its memory does not grow with the trial count
AUDIT_BLOCK_DOUBLES = 2 ** 18
AUDIT_EXPONENTS = (0.25, 0.5, 0.75)   # the exponents q of the maximal inequality


def audit_probabilistic_lemmas(tree: ScenarioTree, seed: int = 42,
                               trials: int = 1000) -> AuditReport:
    """Random-supermartingale maximal-inequality audit plus sandwich audits.

    Each trial builds Z = M - A under the entropy-minimal measure: M a
    centered martingale from random terminal values, A a nondecreasing
    adapted drift, so Z_0 = 0 and Z is a supermartingale.  The bound checked
    is E[sup_t |Z_t|^q] <= 2^q / (1-q) * E[|Z_T|]^q for each q in AUDIT_EXPONENTS.

    Trials run in blocks of AUDIT_BLOCK_DOUBLES / (n_nodes * (T+1)).  The
    draws stay per trial and in order: normal leaf values, then n_nodes + 1
    uniforms r on [0, 1) whose first gives the scale 0.5 + 1.5 r and the
    rest the drift increments 0.5 r, bit for bit what `uniform(0.5, 2)`
    and `uniform(0, 0.5, n_nodes)` draw.  Each block takes one backward pass
    for M, one pass per date for A, one max for the path suprema and one
    weighted sum per exponent.  Every weighted sum is an elementwise product
    summed along the last axis of a C-ordered array, so each trial's row
    equals its own `(w * v).sum()`.  No BLAS dot: its rounding depends on
    the operands' memory layout (a strided row and its contiguous copy
    give different bits).
    """
    if trials < 100:
        raise ValueError("audits need at least 100 trials")
    Q = minimal_entropy_measure(tree, make_exponential(1.0)).measure
    rng = np.random.default_rng(seed)
    violations = 0
    max_ratio = 0.0
    n, L = tree.n_nodes, tree.n_leaves
    leaves = tree.leaves
    qw = Q.weights
    _, cond = conditional_probs(tree, Q)
    block = max(1, AUDIT_BLOCK_DOUBLES // (n * tree.paths.shape[1]))
    for start in range(0, trials, block):
        b = min(block, trials - start)
        xi = np.empty((b, L))
        draws = np.empty((b, n + 1))
        for j in range(b):
            xi[j] = rng.normal(size=L)
            rng.random(out=draws[j])
        M = np.zeros((b, n))
        M[:, leaves] = xi * (0.5 + 1.5 * draws[:, :1])
        # np.take gathers in C order; M[:, kids] would gather column-major,
        # and numpy sums such rows in another order
        for level in reversed(tree.child_blocks):
            for nodes, kids in level:
                M[:, nodes] = (cond[kids] * np.take(M, kids, axis=1)).sum(axis=-1)
        inc = 0.5 * draws[:, 1:]
        drift = np.zeros((b, n))
        for nodes in tree.levels[1:]:
            drift[:, nodes] = drift[:, tree.parent[nodes]] + inc[:, nodes]
        absZ = np.abs(M - M[:, :1] - drift)
        path_sup = np.max(np.take(absZ, tree.paths, axis=1), axis=-1)
        zT = (qw * np.take(absZ, leaves, axis=1)).sum(axis=-1).tolist()
        for q in AUDIT_EXPONENTS:
            lhs = (qw * path_sup ** q).sum(axis=-1)
            # Python's scalar pow; numpy's vector power can differ by an ulp
            rhs = 2.0 ** q / (1.0 - q) * np.array([z ** q for z in zT])
            pos = rhs > 0.0
            if np.any(pos):
                max_ratio = max(max_ratio, float(np.max(lhs[pos] / rhs[pos])))
            violations += int(np.count_nonzero(lhs > rhs * (1.0 + 1e-12) + 1e-15))
    sandwich = 0.0
    fams = shipped_families()
    for _, fam in fams:
        sandwich = max(sandwich, conjugate_sandwich_audit(fam).max_violation)
    return AuditReport(trials=trials, seed=seed, doob_violations=violations,
                       doob_max_ratio=max_ratio, sandwich_max_violation=sandwich,
                       families=tuple(name for name, _ in fams))
