"""Command-line interface.

Subcommands: solve, price, sweep-delta, sweep-p, audit.  Configs are JSON
documents naming a market, a utility or family, and optionally a claim;
outputs are CSV and JSON files under --out.  Exit codes: 0 success, 2
configuration or validation error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .entropic import extract_dual, solve_primal, verify_optimality
from .positive import opportunity_process, solve_power_field
from .pricing import _check_tol, _indifference, davis_price
from .sweeps import (ConfigError, SCHEMA_VERSION, audit_probabilistic_lemmas,
                     config_number, load_config, make_claim, market_tree,
                     report_csv, report_json, sweep_delta, sweep_p)
from .utilities import (UtilityField, UtilityOnRPlus, make_exponential,
                        make_perturbed_exponential, make_perturbed_power,
                        make_power, make_power_family_member,
                        shifted_inverse_mix)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

DEFAULT_MARKET = {"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 2}}


def _read_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def _utility_from(doc):
    if not isinstance(doc, dict):
        raise ConfigError("utility must be a JSON object")

    def num(key, default=None):
        return config_number(doc.get(key, default), f"utility {key}")

    kind = doc.get("kind", "exponential")
    if kind == "exponential":
        return make_exponential(num("alpha", 1.0))
    if kind in ("sine", "constant-shift", "constant_shift"):
        return make_perturbed_exponential(num("delta", 0.0), alpha=num("alpha", 1.0),
                                          kind=kind, a=num("a", 0.2), omega=num("omega", 1.0))
    if kind == "power":
        return make_power(num("p"))
    if kind == "power-member":
        base = make_perturbed_power(num("p0", -7.0), b=num("b", 0.05), nu=num("nu", 1.0))
        return make_power_family_member(base, num("p"), shifted_inverse_mix(base.p))
    raise ConfigError(f"unknown utility kind {kind!r}")


def _write(out_dir: str, name: str, text: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text)
    return path


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# subcommands


def _problem(doc: dict, command: str, claim: dict):
    """The tree, utility, claim leaf values and x0 of a solve or price config;
    `claim` is the claim entry a config without one gets."""
    if "market" not in doc:
        raise ConfigError(f"{command} config needs a 'market' entry")
    tree = market_tree(doc["market"])
    return (tree, _utility_from(doc.get("utility", {})),
            make_claim(tree, doc.get("claim", claim)), config_number(doc.get("x0", 0.0), "x0"))


def _cmd_solve(args) -> int:
    tree, utility, B, x0 = _problem(_read_config(args.config), "solve", {"kind": "zero"})
    if isinstance(utility, UtilityOnRPlus):
        if x0 <= 0.0:
            raise ConfigError("positive-half-line solves need x0 > 0")
        field = UtilityField.from_claim(B) if np.any(B != 0.0) else None
        sol = solve_power_field(tree, utility, x0, field)
        dp = opportunity_process(tree, utility.p, x0,
                                 field) if utility.amp == 0.0 and utility.shift == 0.0 else None
        out = {
            "schema_version": SCHEMA_VERSION,
            "problem": "positive",
            "value": sol.value,
            "y": sol.y,
            "gradient_norm": sol.gradient_norm,
            "fractions": sol.strategy.values.tolist(),
            "wealth": sol.wealth.tolist(),
        }
        if dp is not None:
            out["dp_value"] = dp.value
            out["dp_value_gap"] = abs(dp.value - sol.value)
    else:
        sol = solve_primal(tree, utility, x0 - B)
        dual = extract_dual(tree, utility, sol)
        report = verify_optimality(tree, utility, sol, dual)
        out = {
            "schema_version": SCHEMA_VERSION,
            "problem": "real-line",
            "value": sol.value,
            "y": dual.y,
            "gradient_norm": sol.gradient_norm,
            "shares": sol.strategy.values.tolist(),
            "wealth": sol.wealth.tolist(),
            "dual_weights": dual.measure.weights.tolist(),
            "dual_residual": dual.residual,
            "first_order_residual": report.first_order_residual,
            "martingale_defect": report.martingale_defect,
            "supermartingale_slack": report.supermartingale_slack,
        }
    path = _write(args.out, "solve.json", _dump(out))
    print(f"solve: value {out['value']:.12g} -> {path}")
    return EXIT_OK


def _cmd_price(args) -> int:
    doc = _read_config(args.config)
    tol = _check_tol(args.tol if args.tol is not None else doc.get("tol", 1e-9))
    tree, utility, B, x0 = _problem(doc, "price", {"kind": "call", "strike": 1.0})
    if isinstance(utility, UtilityOnRPlus):
        raise ConfigError("pricing needs a real-line utility")
    sol = solve_primal(tree, utility, x0)
    dual = extract_dual(tree, utility, sol)
    davis = davis_price(dual, B)
    indiff = _indifference(tree, utility, x0, B, tol, sol, dual)
    out = {
        "schema_version": SCHEMA_VERSION,
        "davis": davis.price,
        "indifference": indiff.price,
        "indifference_residual": indiff.residual,
        "bracket": list(indiff.bracket),
        "x0": x0,
    }
    path = _write(args.out, "price.json", _dump(out))
    print(f"price: davis {davis.price:.12g}, indifference {indiff.price:.12g} -> {path}")
    return EXIT_OK


def _sweep_cmd(args, kind: str) -> int:
    doc = _read_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.tol is not None:
        doc["tol"] = args.tol
    spec = load_config(doc, kind)
    report = sweep_delta(spec) if kind == "delta" else sweep_p(spec)
    stem = Path(args.config).stem
    csv_path = _write(args.out, f"{stem}.csv", report_csv(report))
    json_path = _write(args.out, f"{stem}.json", report_json(report))
    status = "incomplete" if report.meta.get("incomplete") else "ok"
    print(f"sweep-{kind}: {len(report.rows)} rows ({status}) -> {csv_path}, {json_path}")
    if report.meta.get("incomplete"):
        print(f"aborted: {report.meta.get('error')}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_audit(args) -> int:
    doc = _read_config(args.config) if args.config else {}
    tree = market_tree(doc.get("market", DEFAULT_MARKET))
    report = audit_probabilistic_lemmas(tree, seed=args.seed if args.seed is not None else 42,
                                        trials=args.trials)
    out = {
        "schema_version": SCHEMA_VERSION,
        "trials": report.trials,
        "seed": report.seed,
        "doob_violations": report.doob_violations,
        "doob_max_ratio": report.doob_max_ratio,
        "sandwich_max_violation": report.sandwich_max_violation,
        "families": list(report.families),
        "ok": report.ok,
    }
    path = _write(args.out, "audit.json", _dump(out))
    print(f"audit: {report.trials} trials, {report.doob_violations} violations, "
          f"sandwich max {report.sandwich_max_violation:.3e} -> {path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# parser and dispatch


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="stablab",
        description="Utility-maximization stability laboratory on scenario trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    extra = {"seed": dict(type=int, default=None, help="override config seed"),
             "tol": dict(type=float, default=None, help="override config tolerance"),
             "trials": dict(type=int, default=1000, help="number of random trials")}
    # each subcommand takes --config, --out and only the extra flags it reads
    for name, func, text, flags in (
            ("solve", _cmd_solve, "solve one utility-maximization problem", ()),
            ("price", _cmd_price, "Davis and indifference prices for a claim", ("tol",)),
            ("sweep-delta", lambda a: _sweep_cmd(a, "delta"),
             "perturbation sweep on the real line", ("seed", "tol")),
            ("sweep-p", lambda a: _sweep_cmd(a, "p"),
             "exponent sweep on the positive half-line", ("seed", "tol")),
            ("audit", _cmd_audit, "probabilistic lemma audits", ("seed", "trials"))):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=name != "audit", help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        for flag in flags:
            p.add_argument(f"--{flag}", **extra[flag])
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as e:
        # NonConvergence, NoMartingaleMeasure and AdmissibilityViolation land here
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as e:  # ConfigError and TreeValidationError among them
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
