"""The benchmark's workloads: inputs drawn from the seed, operations, output checks.

Each operation's `run` is the timed call into stablab's public API; its
`check` runs untimed afterwards and returns the numbers to compare with the
recorded reference plus the certificate and invariant problems it found.
Trees are built inside `run`, because a user pays for that on every run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import stablab as sl
import stablab.cli

WORKLOADS = ("cli_configs", "depth_ladder", "price_sweep")

# reference values must agree within ATOL + RTOL * |reference|
RTOL = 1e-6
ATOL = 1e-9
# certificate gates
FIRST_ORDER_TOL = 1e-9       # |y dQ/dP - U'(total)|, leafwise
DEFECT_TOL = 1e-8            # wealth drift under the dual measure
SLACK_TOL = 1e-9             # E_probe[X_T] <= 0
MEASURE_TOL = 1e-8           # dual measure vs minimal-entropy measure, per leaf
SCALE_RTOL = 1e-9            # dual scale y, relative
DP_RTOL = 1e-10              # power Newton value vs opportunity-process value
PRICE_TOL = 1e-9             # prices inside the no-arbitrage interval

U2D05 = {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5}
SINE_FAMILY = {"kind": "sine", "a": 0.2, "omega": 1.0}
DELTA_GRID = [0.2, 0.1, 0.05, 0.025, 0.0125]


class OpFailed(RuntimeError):
    """The program returned without raising but reported failure."""


@dataclass
class Outcome:
    values: dict                              # numbers compared with the reference
    problems: list = field(default_factory=list)
    bytes_out: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    timed: bool = True          # False: a known-failure probe, kept out of the timings
    referenced: bool = True     # values are seed-independent and recorded in reference.json
    warm: bool = True           # a timed op run once, untimed, before the timed passes


@dataclass
class Workload:
    name: str
    ops: list
    inputs: dict                # what the seed generated, for the result record


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Load the workload's configs and generate its inputs from `seed`."""
    if name == "cli_configs":
        return _cli_configs(seed, root, work)
    if name == "depth_ladder":
        return _depth_ladder(seed)
    if name == "price_sweep":
        return _price_sweep(seed)
    raise ValueError(f"unknown workload {name!r}")


def compare(reference: dict, values: dict, rtol: float = RTOL, atol: float = ATOL) -> list:
    problems = []
    for key, want in reference.items():
        have = values.get(key)
        if have is None:
            problems.append(f"{key}: missing (reference {want!r})")
        elif not abs(have - want) <= atol + rtol * abs(want):
            problems.append(f"{key}: {have!r} differs from reference {want!r}")
    return problems


def flatten(doc, prefix: str = "") -> dict:
    """Numeric leaves of a JSON document, keyed by their dotted path."""
    out = {}
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        if isinstance(doc, (int, float)) and not isinstance(doc, bool):
            out[prefix] = float(doc)
        return out
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _gate(problems: list, label: str, value: float, limit: float) -> None:
    if not (abs(value) <= limit):
        problems.append(f"{label} {value:.3e} above {limit:.1e}")


def _same_bytes(first: dict, key: str, data: bytes, problems: list) -> None:
    """Outputs of one configuration must be byte-identical across passes."""
    digest = hashlib.sha256(data).hexdigest()
    if first.setdefault(key, digest) != digest:
        problems.append(f"{key}: output bytes differ from the first pass")


# ----------------------------------------------------------------------
# cli_configs: every subcommand on the shipped configs, in-process


CLI_OPS = (
    ("solve", "solve_exponential.json"),
    ("price", "price_call.json"),
    ("sweep-delta", "binomial_sine.json"),
    ("sweep-delta", "binomial_exponential.json"),
    ("sweep-delta", "trinomial_sine.json"),
    ("sweep-p", "binomial_power.json"),
    ("audit", None),
)


def _cli_configs(seed: int, root: Path, work: Path) -> Workload:
    configs = {cfg: root / "configs" / cfg for _, cfg in CLI_OPS if cfg is not None}
    for path in configs.values():
        json.loads(path.read_text())       # a missing or malformed config fails the set-up
    first = {}
    ops = []
    for command, cfg in CLI_OPS:
        name = command if cfg is None else f"{command}:{Path(cfg).stem}"
        out = work / "cli" / name.replace(":", "-")
        if cfg is None:
            argv = [command, "--trials", "1000", "--seed", str(seed), "--out", str(out)]
        else:
            argv = [command, "--config", str(configs[cfg]), "--out", str(out)]
        ops.append(Op(name, _cli_run(argv), _cli_check(command, cfg, out, seed, first),
                      referenced=cfg is not None))
    return Workload("cli_configs", ops, {"audit_seed": seed,
                                                "configs": sorted(configs)})


def _cli_run(argv):
    def run():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = stablab.cli.main(argv)
        if rc != 0:
            raise OpFailed(f"exit code {rc}: {err.getvalue().strip()}")
        return rc
    return run


def _cli_check(command, cfg, out: Path, seed: int, first: dict):
    def check(_):
        problems = []
        files = sorted(p for p in out.iterdir() if p.is_file())
        nbytes = sum(p.stat().st_size for p in files)
        if command in ("sweep-delta", "sweep-p"):
            stem = Path(cfg).stem
            csv_bytes = (out / f"{stem}.csv").read_bytes()
            json_bytes = (out / f"{stem}.json").read_bytes()
            _same_bytes(first, f"{stem}.csv", csv_bytes, problems)
            _same_bytes(first, f"{stem}.json", json_bytes, problems)
            values = flatten(json.loads(json_bytes), "json")
            lines = csv_bytes.decode().splitlines()
            header = lines[0].split(",")
            for r, line in enumerate(lines[1:]):
                for col, cell in zip(header, line.split(",")):
                    values[f"csv.{r}.{col}"] = float(cell)
            return Outcome(values, problems, nbytes)
        doc = json.loads((out / f"{command}.json").read_text())
        values = flatten(doc)
        if command == "solve":
            _gate(problems, "gradient_norm", doc["gradient_norm"], 1e-11)
            _gate(problems, "first_order_residual", doc["first_order_residual"], FIRST_ORDER_TOL)
            _gate(problems, "martingale_defect", doc["martingale_defect"], DEFECT_TOL)
            if doc["supermartingale_slack"] > SLACK_TOL:
                problems.append(f"supermartingale_slack {doc['supermartingale_slack']:.3e}")
        elif command == "price":
            lo, hi = doc["bracket"]
            for key in ("davis", "indifference"):
                if not lo - PRICE_TOL <= doc[key] <= hi + PRICE_TOL:
                    problems.append(f"{key} price {doc[key]!r} outside [{lo}, {hi}]")
        else:   # audit: the values depend on the seed, so only invariants are checked
            if not (doc["ok"] and doc["doob_violations"] == 0 and doc["trials"] == 1000
                    and doc["seed"] == seed and doc["sandwich_max_violation"] <= 1e-8):
                problems.append(f"audit report failed its invariants: {doc}")
        return Outcome(values, problems, nbytes)
    return check


# ----------------------------------------------------------------------
# depth_ladder: one cold, certified solve per tree


def _depth_ladder(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    # shapes are fixed; only the branch probabilities come from the seed, since
    # the probe-LP time swings tenfold under 1% changes of the branch factors
    tri_probs = rng.dirichlet(np.full(3, 8.0)).tolist()
    two_probs = rng.dirichlet(np.full(4, 8.0)).tolist()
    ops = []
    for steps in (4, 6, 8, 9, 10):
        spec = {"lattice": dict(U2D05, steps=steps)}
        # the default probe LPs alone take 12.5 s at T=10
        probes = [] if steps == 10 else None
        # the warm-up runs only the cheapest rungs: they load everything the
        # others use, and a whole warm-up pass would cost as much as a timed one
        ops.append(Op(f"binomial_T{steps}", _rung(lambda spec=spec: sl.build_tree(spec), probes),
                      _rung_check, warm=steps == 4))
    ops.append(Op("trinomial_T6", _rung(
        lambda: sl.branching_tree(1.0, [1.2, 1.0, 0.85], tri_probs, 6), None),
        _rung_check, referenced=False, warm=False))
    two_factors = [[1.15, 1.10], [1.10, 0.85], [0.90, 1.15], [0.85, 0.90]]
    ops.append(Op("two_asset_T4", _rung(
        lambda: sl.branching_tree([1.0, 1.0], two_factors, two_probs, 4), None),
        _rung_check, referenced=False))
    return Workload("depth_ladder", ops, {"trinomial_probs": tri_probs,
                                                 "two_asset_probs": two_probs})


def _rung(make_tree, probes):
    def run():
        tree = make_tree()
        u = sl.make_exponential(1.0)
        sol = sl.solve_primal(tree, u)
        dual = sl.extract_dual(tree, u, sol)
        report = sl.verify_optimality(tree, u, sol, dual, probes=probes)
        entropy = sl.minimal_entropy_measure(tree, u)
        power = sl.solve_power_field(tree, sl.make_power(-2.0), 1.0)
        dp = sl.opportunity_process(tree, -2.0, 1.0)
        return sol, dual, report, entropy, power, dp
    return run


def _rung_check(result) -> Outcome:
    sol, dual, report, entropy, power, dp = result
    problems = []
    _gate(problems, "first_order_residual", report.first_order_residual, FIRST_ORDER_TOL)
    _gate(problems, "martingale_defect", report.martingale_defect, DEFECT_TOL)
    if report.supermartingale_slack > SLACK_TOL:
        problems.append(f"supermartingale_slack {report.supermartingale_slack:.3e}")
    _gate(problems, "dual vs entropy measure",
          float(np.max(np.abs(entropy.measure.weights - dual.measure.weights))), MEASURE_TOL)
    _gate(problems, "dual vs entropy scale", (entropy.y - dual.y) / dual.y, SCALE_RTOL)
    _gate(problems, "power Newton vs DP value", (power.value - dp.value) / dp.value, DP_RTOL)
    values = {"value": sol.value, "y": dual.y, "power_value": power.value}
    return Outcome(values, problems)


# ----------------------------------------------------------------------
# price_sweep: Davis and indifference prices, warm re-solves on one tree


def crr_spec(steps: int, q: float, sigma: float = 0.2) -> dict:
    u = math.exp(sigma / math.sqrt(steps))
    return {"lattice": {"s0": 1.0, "u": u, "d": 1.0 / u, "q": q, "steps": steps}}


def _price_sweep(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    # the lattice is complete, so every price below is independent of the
    # real-world probability q: the seed changes the trees, not the answers
    q = float(0.5 + 0.05 * rng.random())
    ops = []
    for steps in (6, 8):
        for strike in (0.9, 1.0, 1.1):
            # the T=6 prices warm up every function the T=8 ones call
            ops.append(Op(f"price_T{steps}_K{strike}",
                          _price_run(crr_spec(steps, q), strike), _price_check,
                          warm=steps == 6))
    sweep_doc = {"market": crr_spec(6, q), "family": SINE_FAMILY, "grid": DELTA_GRID,
                 "claim": {"kind": "call", "strike": 1.0}, "x0": 0.0, "seed": seed}
    ops.append(Op("sweep_delta_T6", _sweep_run(sweep_doc), _sweep_check({}),
                  referenced=False))
    # known failures at this commit (NonConvergence); attempted every pass,
    # counted in the failure fraction and kept out of the timings
    for steps in (4, 5):
        ops.append(Op(f"probe_indifference_u2d05_T{steps}",
                      _price_run({"lattice": dict(U2D05, steps=steps)}, 1.0, davis=False),
                      _price_check, timed=False, referenced=False))
    probe_doc = {"market": {"lattice": dict(U2D05, steps=4)}, "family": SINE_FAMILY,
                 "grid": DELTA_GRID, "claim": {"kind": "call", "strike": 1.0}, "x0": 0.0,
                 "seed": seed}
    ops.append(Op("probe_sweep_delta_u2d05_T4", _sweep_run(probe_doc), _sweep_check({}),
                  timed=False, referenced=False))
    ops.append(Op("probe_endowment_minus20_T2", _endowment_run, _endowment_check,
                  timed=False, referenced=False))
    return Workload("price_sweep", ops, {"q": q})


def _call(tree, strike):
    return np.maximum(tree.terminal_prices()[:, 0] - strike, 0.0)


def _price_run(spec, strike, davis=True):
    """Prices of a call; the probes (davis=False) price by indifference only
    and leave the bound LP to the check, which runs only if they succeed."""
    def run():
        tree = sl.build_tree(spec)
        u = sl.make_exponential(1.0)
        claim = _call(tree, strike)
        prices = {}
        if davis:
            dual = sl.extract_dual(tree, u, sl.solve_primal(tree, u, 0.0))
            prices["davis"] = sl.davis_price(dual, claim).price
        prices["indifference"] = sl.indifference_price(tree, u, 0.0, claim).price
        bounds = sl.martingale_price_bounds(tree, claim) if davis else None
        return tree, claim, prices, bounds
    return run


def _price_check(result) -> Outcome:
    tree, claim, prices, bounds = result
    lo, hi = bounds or sl.martingale_price_bounds(tree, claim)
    problems = [f"{key} price {value!r} outside no-arbitrage bounds [{lo!r}, {hi!r}]"
                for key, value in prices.items()
                if not lo - PRICE_TOL <= value <= hi + PRICE_TOL]
    return Outcome(prices, problems)


def _sweep_run(doc):
    def run():
        report = sl.sweep_delta(sl.load_config(doc, "delta"))
        if report.meta.get("incomplete"):
            raise OpFailed(report.meta.get("error", "sweep incomplete"))
        return report, sl.report_csv(report), sl.report_json(report)
    return run


def _sweep_check(first: dict):
    def check(result) -> Outcome:
        report, csv_text, json_text = result
        problems = []
        _same_bytes(first, "csv", csv_text.encode(), problems)
        _same_bytes(first, "json", json_text.encode(), problems)
        # a complete market: every utility prices the call alike and the
        # martingale measure is unique, while the optimal wealth does move
        wealth = report.column("l1_wealth_err")
        for key, tol in (("davis_err", PRICE_TOL), ("indiff_err", 1e-8), ("dq_l1", MEASURE_TOL)):
            _gate(problems, f"max {key}", float(np.max(report.column(key))), tol)
        if not (np.all(wealth > 0.0) and np.all(np.diff(wealth) < 0.0)):
            problems.append(f"l1_wealth_err not positive and falling with delta: {wealth}")
        return Outcome({}, problems)
    return check


def _endowment_run():
    tree = sl.build_tree({"lattice": dict(U2D05, steps=2)})
    return tree, sl.solve_primal(tree, sl.make_exponential(1.0), -20.0)


def _endowment_check(result) -> Outcome:
    # exponential utility is cash-translation invariant: the strategy ignores
    # a constant endowment and the value scales by exp(20)
    tree, sol = result
    ref = sl.solve_primal(tree, sl.make_exponential(1.0), 0.0)
    problems = []
    _gate(problems, "strategy shift", float(np.max(np.abs(sol.strategy.values
                                                          - ref.strategy.values))), 1e-8)
    _gate(problems, "value scaling", sol.value / (math.exp(20.0) * ref.value) - 1.0, 1e-8)
    return Outcome({}, problems)
