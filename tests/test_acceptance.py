"""End-to-end acceptance suite.

Each test prints one `ACCEPTANCE <n> [PASS/FAIL]` line (visible even under
capture) and then asserts, so a red line and a red test always agree.

Check 2a (sine family, second-order wealth error) is expected to fail, and
the failure is a property of the problem, not of the solver.  On a complete
market the dual measure q is pinned by the market alone, so the optimal
terminal wealth is X_delta = I_delta(y_delta q/P) exactly.  Differentiating
in delta at 0 gives a nonzero first-order term proportional to
sin(omega X_0) minus its dual-weighted mean, so E_Q|X_delta - X_0| grows
like a * MAD_Q(sin(omega X_0)) * delta + O(delta^2).  The measured slope
(~1.005) and coefficient (~0.078) match that law to three digits; a
second-order rate would need the first-order term to vanish, which on this
market happens only for perturbations that vanish identically on the
support of X_0.  The test asserts the stated [1.7, 2.3] window anyway and
reports the measured slope rather than weakening the check.
"""
import json
import time

import numpy as np
import pytest

from conftest import (one_step_trinomial, random_viable_tree,
                      three_step_binomial, two_step_binomial)
from stablab import (auxiliary_measure, davis_price, extract_dual, fit_rate,
                     indifference_price, load_config, make_exponential,
                     make_perturbed_exponential, make_perturbed_power,
                     make_power, make_power_family_member,
                     martingale_polytope_probes, minimal_entropy_measure,
                     numeraire_audit, ratio_defects, audit_probabilistic_lemmas,
                     scaled_strategy_distance, shifted_inverse_mix,
                     solve_power_field, solve_primal, sweep_delta, sweep_p,
                     verify_optimality)
from stablab.cli import main

GRID = [0.2, 0.1, 0.05, 0.025, 0.0125]
LATTICE2 = {"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 2}}


@pytest.fixture
def report(capsys):
    def _report(n, ok, detail=""):
        line = f"ACCEPTANCE {n} [{'PASS' if ok else 'FAIL'}]"
        if detail:
            line += f" {detail}"
        with capsys.disabled():
            print(line)
        return ok
    return _report


@pytest.fixture(scope="module")
def rate_sweeps():
    t0 = time.perf_counter()
    sine = sweep_delta(load_config({
        "market": LATTICE2, "family": {"kind": "sine", "a": 0.2, "omega": 1.0},
        "grid": GRID}, "delta"))
    expo = sweep_delta(load_config({
        "market": LATTICE2, "family": {"kind": "exponential"},
        "grid": GRID}, "delta"))
    return sine, expo, time.perf_counter() - t0


def test_exponential_scaling_law(report):
    tree = three_step_binomial()
    t0 = time.perf_counter()
    base = solve_primal(tree, make_exponential(1.0))
    worst = 0.0
    for alpha in (1.5, 1.1, 1.01):
        sol = solve_primal(tree, make_exponential(alpha))
        worst = max(worst, float(np.max(np.abs(
            sol.strategy.values - base.strategy.values / alpha))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"nodewise deviation {worst:.2e}, {elapsed:.3f}s")
    assert ok


def test_second_order_rate_sine_family(rate_sweeps, report):
    sine, _, _ = rate_sweeps
    slope = sine.fits["loglog_half"].coefficients["slope"]
    ok = 1.7 <= slope <= 2.3
    report("2a", ok, f"measured log-log slope {slope:.4f}, target [1.7, 2.3]")
    assert ok, (
        f"terminal-wealth error of the sine family scales like delta^1 "
        f"(measured slope {slope:.4f}); see the monotone-trend checks for "
        f"what the sweep does certify")


def test_first_order_rate_exponential_family(rate_sweeps, report):
    _, expo, elapsed = rate_sweeps
    slope = expo.fits["loglog_half"].coefficients["slope"]
    ok = 0.95 <= slope <= 1.05 and elapsed < 10.0
    report("2b", ok, f"measured log-log slope {slope:.4f}, sweeps {elapsed:.2f}s")
    assert ok


def test_duality_certificates_on_random_trees(report):
    rng = np.random.default_rng(1234)
    worst = 0.0
    for k in range(50):
        tree = random_viable_tree(rng)
        if k % 2 == 0:
            u = make_exponential(float(rng.uniform(0.5, 2.0)))
        else:
            u = make_perturbed_exponential(float(rng.uniform(0.0, 0.5)),
                                           omega=float(rng.uniform(0.5, 2.0)))
        sol = solve_primal(tree, u)
        dual = extract_dual(tree, u, sol)
        probes = martingale_polytope_probes(tree)
        rep = verify_optimality(tree, u, sol, dual, probes=probes)
        worst = max(worst, rep.first_order_residual, rep.martingale_defect,
                    rep.supermartingale_slack, max(rep.probe_slacks))
    ok = worst <= 1e-8
    report(3, ok, f"worst certificate residual {worst:.2e} over 50 trees")
    assert ok


def brute_force_entropy_weights():
    # one-parameter family of trinomial martingale measures:
    # q = (t/2, 1 - 1.5 t, t); refine a 41-point grid 12 times
    P = np.full(3, 1.0 / 3.0)
    lo, hi = 1e-9, 2.0 / 3.0 - 1e-9
    for _ in range(12):
        ts = np.linspace(lo, hi, 41)
        qs = np.stack([ts / 2.0, 1.0 - 1.5 * ts, ts], axis=1)
        H = np.full(len(ts), np.inf)
        valid = np.all(qs > 0.0, axis=1)
        H[valid] = np.sum(qs[valid] * np.log(qs[valid] / P), axis=1)
        i = int(np.argmin(H))
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    t = 0.5 * (lo + hi)
    return np.array([t / 2.0, 1.0 - 1.5 * t, t])


def test_minimal_entropy_matches_brute_force(report):
    tree = one_step_trinomial()
    dual = minimal_entropy_measure(tree, make_exponential(1.0))
    ref = brute_force_entropy_weights()
    dev = float(np.max(np.abs(dual.measure.weights - ref)))
    ok = dev <= 1e-6
    report(4, ok, f"max weight deviation {dev:.2e}")
    assert ok


def test_price_stability_sweep(report):
    with open("configs/trinomial_sine.json") as fh:
        doc = json.load(fh)
    rep = sweep_delta(load_config(doc, "delta"))
    davis = rep.column("davis_err")
    indiff = rep.column("indiff_err")
    mono = bool(np.all(np.diff(davis) <= 1e-10)
                and np.all(np.diff(indiff) <= 1e-10))
    small = davis[-1] < 1e-4 and indiff[-1] < 1e-4

    tree = two_step_binomial()
    u = make_exponential(1.0)
    B = np.maximum(tree.terminal_prices()[:, 0] - 1.0, 0.0)
    dv = davis_price(extract_dual(tree, u, solve_primal(tree, u)), B).price
    ip = indifference_price(tree, u, 0.0, B).price
    complete = abs(dv - 1.0 / 3.0) <= 1e-8 and abs(ip - 1.0 / 3.0) <= 1e-8

    ok = mono and small and complete
    report(5, ok, f"gaps at finest delta: davis {davis[-1]:.2e}, "
                  f"indifference {indiff[-1]:.2e}")
    assert ok


def test_power_to_exponential_convergence(report):
    t0 = time.perf_counter()
    rep = sweep_p(load_config({
        "market": LATTICE2,
        "family": {"kind": "power-member", "p0": -7.0, "b": 0.05, "nu": 1.0},
        "grid": [-7.0, -15.0, -31.0, -63.0], "x0": 1.0}, "p"))
    elapsed = time.perf_counter() - t0
    pure = rep.column("pure_distance")
    member = rep.column("member_distance")
    decreasing = bool(np.all(np.diff(pure) < 0.0))
    fit = fit_rate(rep, "inverse_one_minus_p", functional="pure_distance",
                   subset="full")
    ok = (decreasing and fit.r_squared >= 0.99
          and member[-1] <= 2.0 * pure[-1] and elapsed < 30.0)
    report(6, ok, f"1/(1-p) fit R^2 {fit.r_squared:.5f}, sweep {elapsed:.2f}s")
    assert ok


def test_ratio_process_structure(report):
    tree = two_step_binomial()
    base = make_perturbed_power(-7.0, b=0.05, nu=1.0)
    fmix = shifted_inverse_mix(-7.0)
    worst_sup, worst_sub, worst_exp = 0.0, 0.0, 0.0
    for p in (-7.0, -15.0, -31.0, -63.0):
        pure = solve_power_field(tree, make_power(p))
        member = solve_power_field(tree, make_power_family_member(base, p, fmix))
        aux = auxiliary_measure(tree, make_power(p), pure)
        sup_d, sub_d = ratio_defects(tree, aux, member.wealth, pure.wealth, p)
        audit = numeraire_audit(tree, aux, pure.wealth, p, trials=10, seed=0)
        worst_sup = max(worst_sup, sup_d)
        worst_sub = min(worst_sub, sub_d)
        worst_exp = max(worst_exp, audit.max_expectation)
    ok = worst_sup <= 1e-9 and worst_sub >= -1e-9 and worst_exp <= 1.0 + 1e-9
    report(7, ok, f"defects sup {worst_sup:.2e} / sub {worst_sub:.2e}, "
                  f"numeraire max {worst_exp - 1.0:+.2e}")
    assert ok


def test_probabilistic_lemma_audits(report):
    rep = audit_probabilistic_lemmas(two_step_binomial(), seed=42, trials=1000)
    ok = rep.doob_violations == 0 and rep.sandwich_max_violation <= 1e-8
    report(8, ok, f"{rep.doob_violations} maximal-inequality violations, "
                  f"sandwich max {rep.sandwich_max_violation:.2e}")
    assert ok


def test_report_determinism(report, tmp_path, capsys):
    outputs = []
    for sub in ("a", "b"):
        rc = main(["sweep-delta", "--config", "configs/trinomial_sine.json",
                   "--out", str(tmp_path / sub)])
        assert rc == 0
        outputs.append(((tmp_path / sub / "trinomial_sine.csv").read_bytes(),
                        (tmp_path / sub / "trinomial_sine.json").read_bytes()))
    capsys.readouterr()
    ok = outputs[0] == outputs[1]
    report(9, ok, "byte-identical CSV and JSON across runs")
    assert ok
