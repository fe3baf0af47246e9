import itertools
import math

import numpy as np
import pytest

from conftest import (child_lists, depth_first_two_asset_tree, one_step_binomial,
                      random_viable_tree, reference_opportunity_process,
                      trinomial_tree, two_asset_tree, two_step_binomial)
from stablab import (AdmissibilityViolation, NoMartingaleMeasure, NonConvergence,
                     Strategy, UtilityField, auxiliary_measure, branching_tree,
                     build_tree, conditional_probs, make_exponential,
                     make_perturbed_power, make_power,
                     make_power_family_member, numeraire_audit,
                     opportunity_process, ratio_defects, ratio_diagnostics,
                     scaled_strategy_distance, share_amounts,
                     shifted_inverse_mix, solve_power_field, solve_primal,
                     wealth_multiplicative)
from stablab.positive import _admissible_box


def uniform_fraction(p: float) -> float:
    """Optimal constant fraction on the u=2, d=0.5, q=0.5 lattice.

    FOC (1+pi)^(p-1) = (1-pi/2)^(p-1)/2 gives pi = (k-1)/(1+k/2) with
    k = 2^(1/(1-p)).
    """
    k = 2.0 ** (1.0 / (1.0 - p))
    return (k - 1.0) / (1.0 + 0.5 * k)


def test_one_step_closed_form_p_minus_1():
    tree = one_step_binomial()
    sol = solve_power_field(tree, make_power(-1.0))
    pi = (np.sqrt(2.0) - 1.0) / (1.0 + np.sqrt(2.0) / 2.0)
    assert sol.strategy.values[0, 0] == pytest.approx(pi, abs=1e-11)
    assert pi == pytest.approx(0.24264068711928521, abs=1e-15)
    # value = L0 * x0^p / p with L0 the one-step opportunity coefficient
    L0 = 0.9714045207910317
    assert sol.value == pytest.approx(-L0, abs=1e-11)
    assert sol.y == pytest.approx(L0, abs=1e-10)


@pytest.mark.parametrize("p", [-0.5, -2.0, -7.0, -31.0])
def test_fraction_is_constant_across_nodes(p):
    # iid branches: the same one-step problem repeats at every node
    tree = two_step_binomial()
    sol = solve_power_field(tree, make_power(p))
    pi = uniform_fraction(p)
    assert np.allclose(sol.strategy.values[tree.nonterminal, 0], pi, atol=1e-9)


def test_auxiliary_measure_one_step():
    tree = one_step_binomial()
    u = make_power(-1.0)
    sol = solve_power_field(tree, u)
    aux = auxiliary_measure(tree, u, sol)
    # weights prop. to P/growth; up weight is sqrt(2) - 1
    assert aux.weights[0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-10)
    assert abs(aux.weights.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("p", [-2.0, -7.0])
def test_forward_solver_matches_dynamic_programming(p):
    tree = two_step_binomial()
    sol = solve_power_field(tree, make_power(p), x0=1.3)
    dp = opportunity_process(tree, p, x0=1.3)
    assert sol.value == pytest.approx(dp.value, rel=1e-12)
    assert sol.y == pytest.approx(dp.y, rel=1e-10)
    assert np.max(np.abs(sol.strategy.values[tree.nonterminal]
                         - dp.strategy.values[tree.nonterminal])) < 1e-8


def test_forward_vs_dp_with_terminal_field():
    tree = two_step_binomial()
    p = -3.0
    B = np.maximum(tree.terminal_prices()[:, 0] - 1.0, 0.0)
    field = UtilityField.from_claim(B)
    sol = solve_power_field(tree, make_power(p), x0=1.0, field=field)
    dp = opportunity_process(tree, p, x0=1.0, field=field)
    assert sol.value == pytest.approx(dp.value, rel=1e-12)
    assert np.max(np.abs(sol.strategy.values[tree.nonterminal]
                         - dp.strategy.values[tree.nonterminal])) < 1e-8


def test_field_value_keeps_precision_when_wealth_power_is_small():
    # large call weights push the optimum to wealths where x**p << 1; the value
    # must not lose them to a cancellation against the utility's constant terms
    tree = build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 5}})
    p = -7.0
    B = np.maximum(tree.terminal_prices()[:, 0] - 1.0, 0.0)
    field = UtilityField.from_claim(B)
    sol = solve_power_field(tree, make_power(p), x0=1.0, field=field)
    dp = opportunity_process(tree, p, x0=1.0, field=field)
    assert sol.value == pytest.approx(dp.value, rel=1e-13, abs=0.0)


def test_random_trees_forward_vs_dp():
    rng = np.random.default_rng(31)
    for _ in range(8):
        tree = random_viable_tree(rng)
        p = -float(rng.uniform(0.5, 10.0))
        sol = solve_power_field(tree, make_power(p))
        dp = opportunity_process(tree, p)
        assert sol.value == pytest.approx(dp.value, rel=1e-11)
        assert sol.gradient_norm <= 1e-11


def ud_lattice(steps):
    return build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": steps}})


def crr_lattice(steps, q=0.52, sigma=0.2):
    u = math.exp(sigma / math.sqrt(steps))
    return build_tree({"lattice": {"s0": 1.0, "u": u, "d": 1.0 / u, "q": q, "steps": steps}})


def depth_ladder_extras():
    """The trinomial T=6 and two-asset T=4 trees of the benchmark's depth
    ladder, with the branch probabilities it draws from seed 7."""
    rng = np.random.default_rng(7)
    tri, two = rng.dirichlet(np.full(3, 8.0)), rng.dirichlet(np.full(4, 8.0))
    factors = [[1.15, 1.10], [1.10, 0.85], [0.90, 1.15], [0.85, 0.90]]
    return (branching_tree(1.0, [1.2, 1.0, 0.85], tri, 6),
            branching_tree([1.0, 1.0], factors, two, 4))


def call_field(tree):
    return UtilityField.from_claim(np.maximum(tree.terminal_prices()[:, 0] - 1.0, 0.0))


# Without a field, every node of a child block of these trees solves one and
# the same problem, and the block Newton repeats the node-by-node recursion
# bit for bit.
BIT_EQUAL_DP = (
    [(f"u2d05_T{T}_p{p}", lambda T=T: ud_lattice(T), p)
     for T in range(1, 11) for p in (-0.5, -2.0, -7.0, -63.0)]
    + [("ladder_trinomial_T6", lambda: depth_ladder_extras()[0], -2.0),
       ("ladder_two_asset_T4", lambda: depth_ladder_extras()[1], -2.0)]
    + [(f"{name}_p{p}", make, p) for p in (-0.5, -2.0, -7.0)
       for name, make in (("crr_T6", lambda: crr_lattice(6)), ("crr_T8", lambda: crr_lattice(8)),
                          ("trinomial_T4", trinomial_tree), ("two_asset_T3", two_asset_tree))])


@pytest.mark.parametrize("make_tree,p", [case[1:] for case in BIT_EQUAL_DP],
                         ids=[case[0] for case in BIT_EQUAL_DP])
def test_dp_matches_the_node_by_node_recursion(make_tree, p):
    tree = make_tree()
    L, frac, value, y, converged = reference_opportunity_process(tree, p, 1.3)
    dp = opportunity_process(tree, p, 1.3)
    assert converged
    assert np.array_equal(dp.values, L) and np.array_equal(dp.strategy.values, frac)
    assert dp.value == value and dp.y == y


@pytest.mark.parametrize("make_tree,p,field", [
    (lambda: ud_lattice(3), -2.0, True), (lambda: ud_lattice(4), -7.0, True),
    (lambda: crr_lattice(6), -63.0, False), (trinomial_tree, -63.0, False),
    (two_asset_tree, -63.0, False), (lambda: trinomial_tree(3), -2.0, True)])
def test_dp_stays_close_to_the_node_by_node_recursion(make_tree, p, field):
    tree = make_tree()
    field = call_field(tree) if field else None
    L, frac, _, _, converged = reference_opportunity_process(tree, p, 1.0, field)
    dp = opportunity_process(tree, p, 1.0, field)
    assert converged
    assert np.max(np.abs(dp.values - L) / L) <= 1e-13
    assert np.max(np.abs(dp.strategy.values - frac)) <= 1e-8


def test_dp_raises_where_the_node_loop_gives_up():
    # the call field's weights span e^63: the node loop stops unconverged at
    # some nodes and returned their coefficients without an error
    tree = ud_lattice(6)
    field = call_field(tree)
    assert not reference_opportunity_process(tree, -0.5, 1.0, field)[-1]
    with pytest.raises(NonConvergence, match="opportunity"):
        opportunity_process(tree, -0.5, 1.0, field)


def test_the_field_reaches_the_numeraire_certificate():
    # under a call field the optimum is the numeraire of the field-weighted
    # auxiliary measure alone: with D = 1 instead, the one-step condition
    # below misses by 0.0319 and the audit's defect reads 0.181
    tree = build_tree({"lattice": {"s0": 1.0, "u": 1.2, "d": 0.9, "q": 0.6, "steps": 4}})
    p = -7.0
    sol = solve_power_field(tree, make_power(p), field=call_field(tree))
    aux = auxiliary_measure(tree, make_power(p), sol)
    W, cond = conditional_probs(tree, aux)
    children = child_lists(tree)
    for n in tree.nonterminal[W[tree.nonterminal] > 0.0]:
        dR = tree.d_returns[children[n]]
        # E_aux[dR / (1 + pi . dR) | n], the first-order condition at n
        assert np.max(np.abs(cond[children[n]] @ (dR / (1.0 + dR @ sol.strategy.values[n])
                                                  [:, None]))) <= 1e-12
    assert numeraire_audit(tree, aux, sol.wealth, p).max_super_defect <= 1e-12


def test_dp_checks_viability():
    tree = depth_first_two_asset_tree(3)
    with pytest.raises(NoMartingaleMeasure):
        solve_power_field(tree, make_power(-2.0))
    with pytest.raises(NoMartingaleMeasure):
        opportunity_process(tree, -2.0)


def test_perturbed_member_still_admissible_and_optimal():
    tree = two_step_binomial()
    u = make_perturbed_power(-2.0, b=0.1, nu=1.0)
    sol = solve_power_field(tree, u)
    assert np.all(sol.terminal > 0.0)
    assert sol.gradient_norm <= 1e-11
    # perturbation moves the optimum but not far: certified ratio sandwich
    pure = solve_power_field(tree, make_power(-2.0))
    diag = ratio_diagnostics(tree, u, sol, pure)
    assert diag.mean_product <= diag.product_bound + 1e-15
    assert diag.y_lower - 1e-12 <= diag.y_ratio <= diag.y_upper + 1e-12


def test_ratio_diagnostics_self_comparison():
    tree = two_step_binomial()
    u = make_power(-2.0)
    sol = solve_power_field(tree, u)
    diag = ratio_diagnostics(tree, u, sol, sol)
    assert diag.mean_product <= 1e-12
    assert diag.r_l1 <= 1e-12 and diag.rp_l1 <= 1e-12
    assert diag.y_ratio == pytest.approx(1.0, abs=1e-12)


def test_ratio_defects_of_member_vs_pure():
    tree = two_step_binomial()
    p = -7.0
    base = make_perturbed_power(p, b=0.05, nu=1.0)
    pure = solve_power_field(tree, make_power(p))
    member = solve_power_field(tree, base)
    aux = auxiliary_measure(tree, make_power(p), pure)
    sup_d, sub_d = ratio_defects(tree, aux, member.wealth, pure.wealth, p)
    assert sup_d <= 1e-9
    assert sub_d >= -1e-9


def test_numeraire_audit_random_wealths():
    tree = two_step_binomial()
    for p in (-1.0, -7.0):
        sol = solve_power_field(tree, make_power(p))
        aux = auxiliary_measure(tree, make_power(p), sol)
        audit = numeraire_audit(tree, aux, sol.wealth, p)
        assert audit.max_expectation <= 1.0 + 1e-9
        assert audit.max_super_defect <= 1e-9
        assert audit.min_sub_defect >= -1e-9


def box_vertex_maximum(tree, aux, tilde):
    """max over the corners of `_admissible_box` of E_aux[X_T / tilde_T], X_0 = tilde_0.

    Each corner's leaf wealth is a product of growth factors along the leaf's
    path: growth is exactly 0 at some corners, where `wealth_multiplicative`
    refuses the strategy."""
    box = _admissible_box(tree)
    K = tree.nonterminal
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=K.size * tree.n_assets)))
    pi = np.zeros((corners.shape[0], tree.n_nodes, tree.n_assets))
    pi[:, K] = corners.reshape(-1, K.size, tree.n_assets) * box[K]
    growth = np.ones((corners.shape[0], tree.n_nodes))
    growth[:, 1:] = 1.0 + np.einsum("vnd,nd->vn", pi[:, tree.parent[1:]], tree.d_returns[1:])
    XT = tilde[0] * np.prod(growth[:, tree.paths], axis=-1)
    return float(np.max((XT / tilde[tree.leaves]) @ aux.weights))


def moved_optimum(tree, p, nodes, scale, seed=3):
    """aux of the power-p optimum, and the wealth whose fractions at `nodes`
    are the optimum's moved by scale * N(0, 1) each."""
    sol = solve_power_field(tree, make_power(p))
    pi = sol.strategy.values.copy()
    pi[nodes] += scale * np.random.default_rng(seed).standard_normal(pi[nodes].shape)
    return (auxiliary_measure(tree, make_power(p), sol),
            wealth_multiplicative(tree, Strategy(pi, "fractions"), sol.wealth[0]))


@pytest.mark.parametrize("make_tree", [two_step_binomial, lambda: trinomial_tree(2),
                                       lambda: two_asset_tree(2)],
                         ids=["binomial-T2", "trinomial-T2", "two-asset-T2"])
def test_numeraire_audit_is_the_box_vertex_maximum(make_tree):
    # the expectation is affine in each node's fractions, so a corner attains
    # its supremum: 8, 16 and 1024 corners
    tree = make_tree()
    aux, tilde = moved_optimum(tree, -3.0, tree.nonterminal, 0.05)
    best = box_vertex_maximum(tree, aux, tilde)
    assert best > 1.0 + 1e-3
    assert numeraire_audit(tree, aux, tilde, -3.0).max_expectation == pytest.approx(best, rel=1e-14)


@pytest.mark.parametrize("make_tree", [two_step_binomial, lambda: trinomial_tree(3),
                                       lambda: two_asset_tree(2)],
                         ids=["binomial-T2", "trinomial-T3", "two-asset-T2"])
def test_numeraire_audit_names_the_one_moved_node(make_tree):
    tree = make_tree()
    node = int(tree.levels[1][-1])
    aux, tilde = moved_optimum(tree, -3.0, node, 0.01)
    audit = numeraire_audit(tree, aux, tilde, -3.0)
    assert audit.worst_node == node
    assert audit.max_expectation - 1.0 > 1e-9
    assert audit.max_super_defect > 1e-9 and audit.min_sub_defect < -1e-9


@pytest.mark.parametrize("make_tree", [two_step_binomial, lambda: trinomial_tree(3)],
                         ids=["binomial-T2", "trinomial-T3"])
def test_numeraire_audit_certifies_the_perturbed_members(make_tree):
    # the family members' own optimal wealth is the numeraire under their own aux
    tree = make_tree()
    base = make_perturbed_power(-7.0, b=0.05, nu=1.0)
    for p in (-7.0, -15.0, -31.0, -63.0):
        member = make_power_family_member(base, p, shifted_inverse_mix(-7.0))
        sol = solve_power_field(tree, member)
        audit = numeraire_audit(tree, auxiliary_measure(tree, member, sol), sol.wealth, p)
        assert audit.max_expectation <= 1.0 + 1e-9
        assert audit.max_super_defect <= 1e-9 and audit.min_sub_defect >= -1e-9


def test_exponential_hedge_is_translation_invariant():
    tree = two_step_binomial()
    u = make_exponential(1.0)
    B = np.maximum(tree.terminal_prices()[:, 0] - 1.0, 0.0)
    h0 = solve_primal(tree, u, 0.0 - B)
    h5 = solve_primal(tree, u, 5.0 - B)
    assert np.max(np.abs(h0.strategy.values - h5.strategy.values)) < 1e-10
    # zero claim reduces to the plain investment problem
    plain = solve_primal(tree, u)
    hz = solve_primal(tree, u, 0.0 - 0.0 * B)
    assert np.max(np.abs(plain.strategy.values - hz.strategy.values)) < 1e-12


def test_share_amounts_and_scaled_distance():
    tree = two_step_binomial()
    hedge = solve_primal(tree, make_exponential(1.0))
    amounts = share_amounts(tree, hedge.strategy)
    # money positions are share counts times prices; constant here since the
    # optimal share scales like 1/price
    assert np.allclose(amounts[tree.nonterminal, 0], np.log(2.0) / 1.5, atol=1e-11)
    p = -15.0
    sol = solve_power_field(tree, make_power(p))
    d = scaled_strategy_distance(tree, p, sol.strategy, hedge.strategy)
    exact = abs((1.0 - p) * uniform_fraction(p) - np.log(2.0) / 1.5)
    assert d == pytest.approx(exact, abs=1e-9)
    with pytest.raises(ValueError):
        share_amounts(tree, sol.strategy)
    with pytest.raises(ValueError):
        scaled_strategy_distance(tree, p, hedge.strategy, hedge.strategy)


def test_scaled_distance_shrinks_with_depth():
    tree = two_step_binomial()
    hedge = solve_primal(tree, make_exponential(1.0))
    dists = [scaled_strategy_distance(tree, p,
                                      solve_power_field(tree, make_power(p)).strategy,
                                      hedge.strategy)
             for p in (-7.0, -15.0, -31.0, -63.0)]
    assert all(np.diff(dists) < 0.0)
    # asymptotically C/(1-p): ratios of consecutive distances track the
    # ratios of 1/(1-p)
    ratio = dists[-1] / dists[-2]
    assert ratio == pytest.approx(32.0 / 64.0, abs=0.02)


def test_validation_errors():
    tree = two_step_binomial()
    with pytest.raises(ValueError):
        solve_power_field(tree, make_power(-2.0), x0=0.0)
    with pytest.raises(ValueError):
        opportunity_process(tree, 0.5)
    bad = Strategy.constant(tree, [5.0], "fractions")
    with pytest.raises(AdmissibilityViolation):
        from stablab import wealth_multiplicative
        wealth_multiplicative(tree, bad, 1.0)


def test_deep_exponent_is_still_certified():
    tree = two_step_binomial()
    p = -63.0
    sol = solve_power_field(tree, make_power(p))
    assert sol.gradient_norm <= 1e-11
    assert np.allclose(sol.strategy.values[tree.nonterminal, 0],
                       uniform_fraction(p), atol=1e-10)
    member = make_power_family_member(make_perturbed_power(-7.0, b=0.05, nu=1.0),
                                      p, shifted_inverse_mix(-7.0))
    msol = solve_power_field(tree, member)
    assert msol.gradient_norm <= 1e-11
    assert np.all(msol.terminal > 0.0)
