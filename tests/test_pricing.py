import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablab.pricing
from conftest import (one_step_trinomial, random_viable_tree, reference_indifference_price,
                      trinomial_tree, two_asset_tree, two_step_binomial)
from stablab import (DualMeasure, Measure, NonConvergence, build_tree, davis_price,
                     extract_dual, indifference_price, make_exponential,
                     make_perturbed_exponential, martingale_price_bounds, solve_primal)
from stablab.pricing import _indifference


def call_claim(tree, strike=1.0):
    return np.maximum(tree.terminal_prices()[:, 0] - strike, 0.0)


def dual_for(tree, utility):
    return extract_dual(tree, utility, solve_primal(tree, utility))


@pytest.mark.parametrize("alpha", [0.7, 1.0, 2.4])
def test_complete_market_prices_are_replication_cost(alpha):
    # binomial: unique martingale measure, so every pricing rule agrees
    tree = two_step_binomial()
    u = make_exponential(alpha)
    B = call_claim(tree)
    assert davis_price(dual_for(tree, u), B).price == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert indifference_price(tree, u, 0.0, B).price == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_complete_market_price_is_utility_independent():
    tree = two_step_binomial()
    B = call_claim(tree)
    u = make_perturbed_exponential(0.3, omega=1.3)
    assert indifference_price(tree, u, 0.0, B).price == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_stock_itself_prices_to_spot():
    tree = two_step_binomial()
    S_T = tree.terminal_prices()[:, 0]
    assert davis_price(dual_for(tree, make_exponential(1.0)), S_T).price \
        == pytest.approx(1.0, abs=1e-10)


def test_constant_claim_shortcut():
    tree = two_step_binomial()
    res = indifference_price(tree, make_exponential(1.0), 0.0, 2.5)
    assert res.price == 2.5
    assert res.bracket == (2.5, 2.5)
    assert res.residual <= 1e-9


def test_cash_invariance():
    tree = two_step_binomial()
    u = make_exponential(1.3)
    B = call_claim(tree)
    prices = [indifference_price(tree, u, x0, B).price for x0 in (0.0, 1.0, 5.0)]
    assert np.max(np.abs(np.diff(prices))) < 1e-7


@pytest.mark.parametrize("make", [lambda: trinomial_tree(4),
                                  lambda: random_viable_tree(np.random.default_rng(3), 3),
                                  lambda: random_viable_tree(np.random.default_rng(11), 4),
                                  two_step_binomial],
                         ids=["trinomial_T4", "random_T3", "random_T4", "binomial_T2"])
def test_prices_are_cash_invariant_far_out(make):
    # exponential utility is cash-translation invariant, so the price does not
    # depend on x0, even where the value rounds to its supremum; on the
    # complete two-step lattice it is the replication price 1/3
    tree = make()
    u = make_exponential(1.0)
    B = call_claim(tree)
    prices = np.array([indifference_price(tree, u, x0, B).price for x0 in (0.0, 10.0, 20.0, 40.0)])
    assert np.max(np.abs(prices - prices[0])) <= 1e-12 * prices[0]
    if tree.n_leaves == 4:
        lo, hi = martingale_price_bounds(tree, B)
        assert lo == pytest.approx(1.0 / 3.0, rel=1e-15) and hi == pytest.approx(lo, rel=1e-15)
        assert np.max(np.abs(prices - lo)) <= 1e-12 * lo


def test_incomplete_market_gap_and_bounds():
    tree = one_step_trinomial()
    B = call_claim(tree)
    lo, hi = martingale_price_bounds(tree, B)
    assert lo == pytest.approx(0.0, abs=1e-10)
    assert hi == pytest.approx(1.0 / 3.0, abs=1e-10)
    prices = []
    for alpha in (0.7, 1.0, 2.0):
        u = make_exponential(alpha)
        dv = davis_price(dual_for(tree, u), B)
        iv = indifference_price(tree, u, 0.0, B)
        assert iv.bracket == (0.0, 1.0)
        assert lo - 1e-9 <= iv.price <= dv.price <= hi + 1e-9
        # buyer's price sits strictly below the marginal (Davis) price here
        assert dv.price - iv.price > 5e-3
        prices.append(iv.price)
    # more risk aversion -> lower buyer's price
    assert prices[0] > prices[1] > prices[2]
    # Davis price does not depend on alpha (dual measure is alpha-invariant)
    d1 = davis_price(dual_for(tree, make_exponential(0.7)), B).price
    d2 = davis_price(dual_for(tree, make_exponential(2.0)), B).price
    assert d1 == pytest.approx(d2, abs=1e-9)


def test_monotone_in_claim():
    tree = one_step_trinomial()
    u = make_exponential(1.0)
    B1 = call_claim(tree, strike=1.0)
    B2 = B1 + 0.25
    p1 = indifference_price(tree, u, 0.0, B1).price
    p2 = indifference_price(tree, u, 0.0, B2).price
    assert p2 >= p1 + 0.25 - 1e-8


def test_claim_validation():
    tree = two_step_binomial()
    u = make_exponential(1.0)
    dual = dual_for(tree, u)
    with pytest.raises(ValueError):
        davis_price(dual, np.array([1.0, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        davis_price(dual, np.array([1.0, np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError):
        indifference_price(tree, u, 0.0, np.array([1.0, -0.5, 0.0, 0.0]))
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            indifference_price(tree, u, 0.0, call_claim(tree), tol=tol)


def crr_tree(steps, sigma=0.2, q=0.52):
    u = math.exp(sigma / math.sqrt(steps))
    return build_tree({"lattice": {"s0": 1.0, "u": u, "d": 1.0 / u, "q": q, "steps": steps}})


def counting_solves(monkeypatch, iterations=None):
    """A one-element list counting the primal solves `indifference_price`
    makes; each solve's Newton iterations are appended to `iterations`, if
    given."""
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        sol = solve_primal(*args, **kwargs)
        if iterations is not None:
            iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(stablab.pricing, "solve_primal", counted)
    return count


@pytest.mark.parametrize("tree, utility, claim", [
    *[(crr_tree(steps), make_exponential(1.0), strike)
      for steps in (2, 6, 8) for strike in (0.9, 1.0, 1.1)],
    *[(tree(), make_exponential(alpha), 1.0)
      for tree in (trinomial_tree, two_asset_tree) for alpha in (1.0, 2.5)],
    (crr_tree(6), make_perturbed_exponential(0.3, omega=1.3), 1.0),
    (trinomial_tree(), make_perturbed_exponential(0.2), 1.0),
    (crr_tree(6), make_exponential(1.0), None),
])
def test_price_matches_bisection(tree, utility, claim):
    # claim None is the constant claim 0.4
    B = 0.4 if claim is None else call_claim(tree, claim)
    res = indifference_price(tree, utility, 0.0, B)
    assert abs(res.price - reference_indifference_price(tree, utility, 0.0, B)) <= 1e-12
    assert res.residual <= 1e-12


@pytest.mark.parametrize("tree, level", [(trinomial_tree(2), 1.1), (one_step_trinomial(), 2.5)])
def test_noise_level_claim_prices_at_an_endpoint(tree, level):
    # the claim spans 4e-16, so both endpoint gaps are rounding noise, and here
    # one of them has the wrong sign
    B = np.full(tree.n_leaves, level)
    B[0] += 1e-16
    B[-1] += 3e-16
    u = make_exponential(1.0)
    res = indifference_price(tree, u, -0.3, B)
    assert res.price in res.bracket
    assert abs(res.price - reference_indifference_price(tree, u, -0.3, B)) <= 1e-12


@pytest.mark.parametrize("steps", [6, 8])
def test_price_takes_few_solves(monkeypatch, steps):
    # complete market: the Davis price is the root, so the base solve and one
    # solve there price the call
    tree = crr_tree(steps)
    count = counting_solves(monkeypatch)
    for strike in (0.9, 1.0, 1.1):
        count[0] = 0
        indifference_price(tree, make_exponential(1.0), 0.0, call_claim(tree, strike))
        assert count[0] <= 3


def wide_lattice(steps):
    return build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": steps}})


@pytest.mark.parametrize("tree, strikes", [
    *[(crr_tree(steps), (0.9, 1.0, 1.1)) for steps in (6, 8)],
    *[(wide_lattice(steps), (1.0,)) for steps in range(4, 9)],
])
def test_claim_solve_starts_at_its_optimum(monkeypatch, tree, strikes):
    # complete market: the hedge under the dual measure replicates the call,
    # so the claim solve starts at its optimum and stops without a step
    iterations = []
    counting_solves(monkeypatch, iterations)
    for strike in strikes:
        iterations.clear()
        indifference_price(tree, make_exponential(1.0), 0.0, call_claim(tree, strike))
        assert len(iterations) >= 2 and set(iterations[1:]) == {1}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 3), x0=st.floats(-2.0, 2.0),
       level=st.floats(0.05, 0.95))
def test_price_from_the_hedge_matches_bisection(seed, steps, x0, level):
    # random incomplete trees: the first claim solve starts off its optimum
    tree = random_viable_tree(np.random.default_rng(seed), steps)
    S = tree.terminal_prices()[:, 0]
    B = call_claim(tree, S.min() + level * (S.max() - S.min()))
    u = make_exponential(1.0)
    price = indifference_price(tree, u, x0, B).price
    lo, hi = martingale_price_bounds(tree, B)
    assert lo - 1e-12 <= price <= hi + 1e-12
    assert abs(price - reference_indifference_price(tree, u, x0, B)) <= 1e-12


def test_constant_claim_takes_two_solves(monkeypatch):
    count = counting_solves(monkeypatch)
    indifference_price(two_step_binomial(), make_exponential(1.0), 0.0, 2.5)
    assert count[0] == 2


def test_prices_are_cash_invariant_below_zero():
    # the value gap is judged relative to the base shortfall, which scales
    # like the values by e^{-alpha x0}: the trinomial call prices far below
    # zero as it does above, and the relative residual stays small
    tree = trinomial_tree(4)
    B = call_claim(tree)
    results = [indifference_price(tree, make_exponential(1.0), x0, B)
               for x0 in (-20.0, -10.0, 0.0, 10.0, 20.0)]
    prices = np.array([r.price for r in results])
    assert np.max(np.abs(prices - prices[2])) <= 1e-12 * prices[2]
    assert max(r.residual for r in results) <= 1e-12


@pytest.mark.parametrize("steps", [4, 5, 6, 8])
def test_wide_lattice_call_prices_at_the_bounds(monkeypatch, steps):
    # u=2/d=0.5: the primal solves at the claim's range ends fail, and the
    # Newton iteration from the Davis price never makes them
    tree = build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": steps}})
    B = call_claim(tree)
    count = counting_solves(monkeypatch)
    res = indifference_price(tree, make_exponential(1.0), 0.0, B)
    assert count[0] <= 3
    lo, hi = martingale_price_bounds(tree, B)
    assert abs(res.price - lo) <= 1e-10 and abs(res.price - hi) <= 1e-10


@pytest.mark.parametrize("x0", [20.0, 40.0])
def test_price_where_the_value_rounds_flat_is_the_bound(x0):
    # far out on the exponential the value rounds to its supremum, but the
    # primal minimizes its shortfall below the supremum and stops on the
    # Newton decrement relative to it: it hedges as at x0 = 0, and the price
    # is the complete market's 1/3
    tree = two_step_binomial()
    B = call_claim(tree)
    res = indifference_price(tree, make_exponential(1.0), x0, B)
    lo, hi = martingale_price_bounds(tree, B)
    assert lo == pytest.approx(1.0 / 3.0, rel=1e-15) and hi == pytest.approx(lo, rel=1e-15)
    assert abs(res.price - lo) <= 1e-12 * lo


def test_newton_failure_names_the_iterate(monkeypatch):
    tree = one_step_trinomial()
    u = make_exponential(1.0)
    B = call_claim(tree)
    calls = [0]

    def failing(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 2:
            raise NonConvergence("primal Newton did not reach gradient tolerance", 2.5e-10)
        return solve_primal(*args, **kwargs)

    # the first iterate is the Davis price
    davis = davis_price(dual_for(tree, u), B).price
    monkeypatch.setattr(stablab.pricing, "solve_primal", failing)
    with pytest.raises(NonConvergence, match=rf"^indifference Newton iteration 1 at price "
                                             rf"{re.escape(repr(davis))}: primal Newton did not "
                                             r"reach gradient tolerance \(residual 2\.500e-10\)$") \
            as err:
        indifference_price(tree, u, 0.0, B)
    assert err.value.residual == 2.5e-10


def test_newton_refuses_a_start_below_the_price():
    # the Davis price bounds the root from above; a start at min B lies below
    # it, so the first step rises, and the price stops rather than climb
    tree = one_step_trinomial()
    u = make_exponential(1.0)
    B = call_claim(tree)
    base = solve_primal(tree, u)
    low = DualMeasure(Measure((B == B.min()) / np.sum(B == B.min())), 1.0, 0.0)
    with pytest.raises(NonConvergence, match=r"^indifference Newton iteration 1 at price 0\.0: "
                                             r"step \d\.\d{3}e-\d\d does not fall") as err:
        _indifference(tree, u, 0.0, B, 1e-9, base, low)
    assert err.value.residual > 0.0


def test_newton_gives_up_after_its_steps(monkeypatch):
    # the incomplete trinomial needs more than one Newton step
    tree = one_step_trinomial()
    monkeypatch.setattr(stablab.pricing, "PRICE_STEPS", 1)
    with pytest.raises(NonConvergence, match=r"^indifference Newton iteration 1 at price "
                                             r"\S+: no convergence in 1 steps") as err:
        indifference_price(tree, make_exponential(1.0), 0.0, call_claim(tree))
    assert err.value.residual > 0.0
