import sys
import threading
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import stablab.entropic as entropic
from conftest import (collinear_two_asset_tree,
                      depth_first_two_asset_tree, flat_node_tree, gains_per_leaf,
                      mixed_branching_tree, near_collinear_two_asset_tree,
                      near_degenerate_tree, one_step_binomial, one_step_theta,
                      one_step_trinomial, random_viable_tree, reference_path_products,
                      reference_price_bounds, reference_vertex, three_step_binomial,
                      trinomial_tree, two_asset_tree, two_step_binomial, vertex_measure)
from stablab import (Measure, NoMartingaleMeasure, NonConvergence,
                     PrimalSolution, Strategy, UtilityOnR, branching_tree, build_tree,
                     extract_dual, generalized_entropy, make_exponential,
                     make_perturbed_exponential, make_power, martingale_price_bounds, martingale_residual,
                     minimal_entropy_measure, rescale_to_unit_alpha, solve_power_field,
                     solve_primal, verify_optimality)
from stablab.cli import main


def arbitrage_tree():
    """Both branches move the price up: no martingale measure."""
    return build_tree({"nodes": [
        {"parent": -1, "prices": [1.0]},
        {"parent": 0, "prob": 0.5, "prices": [1.5]},
        {"parent": 0, "prob": 0.5, "prices": [1.1]},
    ]})


def deep_arbitrage_tree(flat_root_move=False):
    """Two-step tree whose date-1 node 2 moves up on both branches; with
    flat_root_move the root gets a third, flat move, so martingale measures
    exist that never reach node 2, but no equivalent one."""
    moves = (2.0, 0.5, 1.0) if flat_root_move else (2.0, 0.5)
    nodes = [{"parent": -1, "prob": 1.0, "prices": [1.0]}]
    nodes += [{"parent": 0, "prob": 1.0 / len(moves), "prices": [s]} for s in moves]
    for parent, factors in zip(range(1, len(moves) + 1), ((2.0, 0.5), (1.2, 1.1), (2.0, 0.5))):
        for f in factors:
            nodes.append({"parent": parent, "prob": 0.5,
                          "prices": [nodes[parent]["prices"][0] * f]})
    return build_tree({"nodes": nodes})


def polish_tree():
    """Root moves to 1.5, 0.5, 1.5 and 1.000000001, then x1.5 or x0.5: one
    root vertex puts 2e-9 on the down move, near absolute tolerances of 1e-9."""
    nodes = [{"parent": -1, "prob": 1.0, "prices": [1.0]}]
    for s in (1.5, 0.5, 1.5, 1.000000001):
        nodes.append({"parent": 0, "prob": 0.25, "prices": [s]})
    for parent in range(1, 5):
        for f in (1.5, 0.5):
            nodes.append({"parent": parent, "prob": 0.5,
                          "prices": [nodes[parent]["prices"][0] * f]})
    return build_tree({"nodes": nodes})


def test_gains_matrix_reproduces_wealth():
    # the price layout's gains matrix, and its gather, map holdings to terminal wealth
    rng = np.random.default_rng(5)
    for _ in range(5):
        tree = random_viable_tree(rng)
        moves = entropic._price_moves(tree)
        A = moves.dense
        h = rng.normal(size=A.shape[1])
        vals = np.zeros((tree.n_nodes, tree.n_assets))
        vals[tree.nonterminal] = h.reshape(-1, tree.n_assets)
        from stablab import wealth_additive
        X = wealth_additive(tree, Strategy(vals, "shares"))
        assert np.allclose(A @ h, X[tree.leaves], atol=1e-12)
        assert np.allclose(moves.gains(h, moves.node), X[tree.leaves], atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tree=st.builds(lambda seed, steps: random_viable_tree(np.random.default_rng(seed), steps),
                      st.integers(0, 2 ** 32 - 1), st.integers(1, 4)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(tree=collinear_two_asset_tree(), seed=0)
@example(tree=near_collinear_two_asset_tree(), seed=1)
@example(tree=two_asset_tree(3), seed=2)
def test_node_products_match_the_path_form(tree, seed):
    # the per-node gains and adjoint against their (leaf, date) path form and
    # the dense matrix, for moves of width d (the gains) and d*d (the
    # fraction solver's same-node blocks)
    rng = np.random.default_rng(seed)
    moves = entropic._price_moves(tree)
    K, d = tree.nonterminal.shape[0], tree.n_assets
    r = rng.normal(size=tree.n_leaves)
    for m in (d, d * d):
        move = rng.normal(size=(tree.n_nodes, m))
        h = rng.normal(size=K * m)
        gains, adjoint = moves.gains(h, move), moves.adjoint(r, move)
        ref_gains, ref_adjoint = reference_path_products(tree, move, h, r)
        # the sums of absolute terms bound every rounding error
        abs_gains, abs_adjoint = reference_path_products(tree, np.abs(move), np.abs(h),
                                                         np.abs(r))
        A = moves.matrix(move)
        assert A.shape == (tree.n_leaves, K * m)
        for got, want, scale in ((gains, ref_gains, abs_gains), (gains, A @ h, abs_gains),
                                 (adjoint, ref_adjoint, abs_adjoint),
                                 (adjoint, A.T @ r, abs_adjoint)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-13 * scale.max())


@pytest.mark.parametrize("make_tree", [depth_first_two_asset_tree, trinomial_tree])
def test_gains_matrix_matches_per_leaf_loop(make_tree):
    tree = make_tree()
    A = entropic._price_moves(tree).dense
    assert np.array_equal(A, gains_per_leaf(tree))
    assert entropic._price_moves(tree).dense is A
    assert not A.flags.writeable


def test_gains_matrix_first_use_from_threads():
    tree = trinomial_tree(5)
    start = threading.Barrier(4)
    out = [None] * 4

    def fill(k):
        start.wait(timeout=10)
        out[k] = entropic._price_moves(tree).dense

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert all(np.array_equal(a, gains_per_leaf(tree)) for a in out)
    assert any(a is entropic._price_moves(tree).dense for a in out)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.7])
def test_one_step_closed_form(alpha):
    tree = one_step_binomial()
    sol = solve_primal(tree, make_exponential(alpha))
    theta = one_step_theta(alpha, 0.5, 1.0, 0.5)
    assert sol.strategy.values[0, 0] == pytest.approx(theta, abs=1e-12)
    assert sol.gradient_norm <= 1e-12


def test_two_step_shares_scale_with_price():
    # iid branches make the one-step problem repeat at every node: the
    # optimal share at node i is ln(2)/(1.5*alpha*S_i)
    tree = two_step_binomial()
    alpha = 1.3
    sol = solve_primal(tree, make_exponential(alpha))
    for i in tree.nonterminal:
        expect = np.log(2.0) / (1.5 * alpha * tree.prices[i, 0])
        assert sol.strategy.values[i, 0] == pytest.approx(expect, abs=1e-11)


def test_three_step_value_exact():
    # e^{-H(Q|P)} per step is 3/2^(5/3); alpha = 1.5 gives -(2/3)*(27/32)
    tree = three_step_binomial()
    sol = solve_primal(tree, make_exponential(1.5))
    assert sol.value == pytest.approx(-9.0 / 16.0, abs=1e-12)


def test_dual_measure_one_step():
    tree = one_step_binomial()
    u = make_exponential(1.0)
    sol = solve_primal(tree, u)
    dual = extract_dual(tree, u, sol)
    assert np.allclose(dual.measure.weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert dual.y == pytest.approx(3.0 * 2.0 ** (-5.0 / 3.0), abs=1e-12)
    assert dual.residual <= 1e-12


def test_dual_scale_is_alpha_invariant():
    # optimal exposures alpha*X are alpha-free, so E_P[exp(-alpha X)] is too
    tree = two_step_binomial()
    ys = []
    for alpha in (1.0, 2.0):
        u = make_exponential(alpha)
        ys.append(extract_dual(tree, u, solve_primal(tree, u)).y)
    assert ys[0] == pytest.approx(ys[1], abs=1e-12)


def test_uniqueness_from_different_starts():
    tree = two_step_binomial()
    u = make_perturbed_exponential(0.3, a=0.2, omega=1.0)
    a = solve_primal(tree, u)
    warm = Strategy(np.full((tree.n_nodes, 1), 0.7), "shares")
    b = solve_primal(tree, u, initial=warm)
    assert np.max(np.abs(a.strategy.values - b.strategy.values)) < 1e-9
    assert a.value == pytest.approx(b.value, abs=1e-13)


def test_rescaled_solve_agrees():
    # x -> alpha*U(x/alpha) at endowment alpha*xi is the same problem in
    # units scaled by alpha: alpha times the holdings and alpha times the value
    tree = two_step_binomial()
    u = make_perturbed_exponential(0.2, alpha=1.8, a=0.2, omega=1.1)
    a, xi = u.alpha, 0.3
    direct = solve_primal(tree, u, xi)
    via = solve_primal(tree, rescale_to_unit_alpha(u), a * xi)
    assert np.max(np.abs(direct.strategy.values - via.strategy.values / a)) < 1e-9
    assert direct.value == pytest.approx(via.value / a, abs=1e-12)


def test_cash_translation():
    tree = two_step_binomial()
    alpha = 1.5
    u = make_exponential(alpha)
    base = solve_primal(tree, u)
    shifted = solve_primal(tree, u, endowment=2.0)
    assert shifted.value == pytest.approx(np.exp(-alpha * 2.0) * base.value, rel=1e-12)
    assert np.max(np.abs(shifted.strategy.values - base.strategy.values)) < 1e-10


def test_leafwise_endowment_first_order():
    rng = np.random.default_rng(17)
    tree = two_step_binomial()
    u = make_exponential(1.0)
    xi = rng.uniform(-1.0, 1.0, size=tree.n_leaves)
    sol = solve_primal(tree, u, endowment=xi)
    dual = extract_dual(tree, u, sol)
    rep = verify_optimality(tree, u, sol, dual)
    assert rep.first_order_residual <= 1e-10
    assert rep.martingale_defect <= 1e-10


def test_extract_dual_rejects_bad_solution():
    tree = two_step_binomial()
    u = make_exponential(1.0)
    sol = solve_primal(tree, u)
    bogus = PrimalSolution(strategy=sol.strategy, wealth=sol.wealth, value=sol.value,
                           shortfall=sol.shortfall, endowment=sol.endowment,
                           total=sol.total + np.array([1.0, 0.0, 0.0, -1.0]),
                           gradient_norm=sol.gradient_norm, iterations=sol.iterations)
    with pytest.raises(NonConvergence):
        extract_dual(tree, u, bogus)


def test_flat_node_holds_nothing():
    # the flat node's holding has no gains: its frame drops it, so the primal
    # and fraction steps leave it exactly 0; the entropy dual's step solves
    # the same system, which the zero gains column leaves regular there too
    tree = flat_node_tree()
    u = make_exponential(1.0)
    sol = solve_primal(tree, u)
    power = solve_power_field(tree, make_power(-2.0))
    entropy = minimal_entropy_measure(tree, u)
    assert sol.strategy.values[1, 0] == 0.0
    assert power.strategy.values[1, 0] == 0.0
    dual = extract_dual(tree, u, sol)
    rep = verify_optimality(tree, u, sol, dual)
    assert rep.first_order_residual <= 1e-10
    assert rep.martingale_defect <= 1e-10
    assert power.gradient_norm <= 1e-11
    assert np.max(np.abs(entropy.measure.weights - dual.measure.weights)) < 1e-9


def test_newton_exhausts_its_steps():
    # a linear objective has no minimizer: every step is accepted, none converges
    def evaluate(x):
        return float(x[0]), lambda: (np.ones(1), 1.0,
                                     lambda: entropic._dense_step(np.zeros((1, 1)),
                                                                  np.ones((1, 1)))[:, 0])

    with pytest.raises(NonConvergence, match="did not reach gradient tolerance") as exc:
        entropic._newton(np.zeros(1), evaluate, 1e-12, "linear")
    assert exc.value.residual == 1.0


def test_newton_reports_a_stalled_line_search():
    def evaluate(x):
        return (0.0 if not np.any(x) else np.inf), lambda: (
            np.array([1.0, -2.0]), 2.0,
            lambda: entropic._dense_step(np.eye(2), np.array([[1.0], [-2.0]]))[:, 0])

    with pytest.raises(NonConvergence, match="line search stalled") as exc:
        entropic._newton(np.zeros(2), evaluate, 1e-12, "walled")
    assert exc.value.residual == 2.0


def test_full_steps_past_the_growth_boundary_are_halved():
    # one node at p = -7 whose child weights span e^-290: the iterates reach
    # the growth boundary 1/0.009635734288427567 to 15 digits, and once
    # lambda^2 / f <= DECREMENT.full the full step lands past it.  An
    # infeasible full step is halved, so the node either solves or raises
    # NonConvergence, and no derivative is taken at an infeasible point
    cond = np.array([[0.16545635937097683, 0.6666666666666666, 0.16787697396235648]])
    dR = np.array([[[-0.009635734288427567], [0.0], [0.009729485020851802]]])
    Lc = np.array([[5.789128759681388e-128, 1.1839035850494668e-64, 1.0]])
    try:
        values, x = entropic._one_step_min(cond, dR, Lc, -7.0, np.zeros((1, 1, 1)))
    except NonConvergence as exc:
        assert exc.residual <= entropic.DECREMENT.full
    else:
        assert np.all(np.isfinite(values)) and np.all(1.0 + dR[0] @ x[0] > 0.0)


def test_primal_names_a_start_whose_value_overflows():
    # e^800 overflows, so the expected utility of holding nothing is -inf:
    # the solve stops there, before a derivative overflows too (the suite
    # turns a RuntimeWarning into an error)
    with pytest.raises(NonConvergence,
                       match=r"^primal start value is not finite \(residual inf\)$") as exc:
        solve_primal(two_step_binomial(), make_exponential(1.0), -800.0)
    assert exc.value.residual == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("every_time", [True, False])
def test_entropy_fallback_never_leaves_the_martingale_set(monkeypatch, bad, every_time):
    # a non-finite multiplier, even in one holding and on one step only,
    # makes the step and the gradient on the martingale set non-finite, so the
    # steepest-descent fallback is rejected too and no iterate leaves G' mu = 0
    real = entropic._holding_step
    calls = []

    def broken(*args):
        lam = real(*args)
        calls.append(lam)
        if every_time or len(calls) == 1:
            lam[-1] = bad
        return lam

    monkeypatch.setattr(entropic, "_holding_step", broken)
    with pytest.raises(NonConvergence, match="entropy line search stalled"):
        minimal_entropy_measure(trinomial_tree(2), make_exponential(1.0))
    assert len(calls) == 1


@pytest.mark.parametrize("make", [lambda: trinomial_tree(2), mixed_branching_tree],
                         ids=["trinomial_T2", "mixed_branching"])
@pytest.mark.parametrize("utility", [make_exponential(1.0), make_perturbed_exponential(0.2)],
                         ids=["exponential", "sine"])
def test_minimal_entropy_matches_a_generic_constrained_solver(make, utility):
    # an independent check of the multi-step entropy dual: SLSQP on
    # E_P[V(mu/P)] under the dense constraints G' mu = 0, from mu = P
    tree = make()
    G = gains_per_leaf(tree)
    P = tree.path_prob[tree.leaves]

    def entropy(mu):
        return float(P @ np.asarray(utility.conjugate(mu / P)))

    ref = minimize(entropy, P, jac=lambda mu: np.asarray(utility.conjugate_prime(mu / P)),
                   method="SLSQP", bounds=[(1e-9, None)] * tree.n_leaves,
                   constraints=[{"type": "eq", "fun": lambda mu: G.T @ mu,
                                 "jac": lambda mu: G.T}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    assert ref.success
    dual = minimal_entropy_measure(tree, utility)
    mu = dual.y * dual.measure.weights
    assert np.abs(mu - ref.x).max() <= 1e-7 * mu.max()
    assert dual.y == pytest.approx(ref.x.sum(), rel=1e-7)
    assert entropy(mu) <= entropy(ref.x) + 1e-14


def test_entropy_step_solves_the_inverse_marginal_once(monkeypatch):
    # each entropy evaluation of the line search solves U'(x) = mu/P once, and
    # the Newton iteration at an accepted iterate reuses that solve; the
    # start's one-step kernel runs its own Newton, which solves none
    calls = {"inverse_marginal": 0, "conjugate": 0}
    for name in calls:
        def counted(self, y, real=getattr(UtilityOnR, name), name=name):
            calls[name] += 1
            return real(self, y)
        monkeypatch.setattr(UtilityOnR, name, counted)
    iterations, evaluations = [], []
    newton = entropic._newton

    def counted_newton(x, evaluate, tol, what):
        if what != "entropy":
            return newton(x, evaluate, tol, what)

        def counted_evaluate(mu):
            evaluations.append(mu)
            return evaluate(mu)
        out = newton(x, counted_evaluate, tol, what)
        iterations.append(out[3])
        return out

    monkeypatch.setattr(entropic, "_newton", counted_newton)
    tree = build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 8}})
    minimal_entropy_measure(tree, make_perturbed_exponential(0.2))
    assert len(iterations) == 1 and calls["conjugate"] == 0
    assert calls["inverse_marginal"] == len(evaluations) < 12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_entropy_dual_starts_at_its_optimum_on_iid_trees(monkeypatch, alpha):
    # with iid returns the exponential optimum is each node's one-step one, so
    # the product q of the one-step exponential measures, scaled by
    # exp(-E_q[log(q/P)]), is the optimal pair at any alpha: the entropy
    # Newton stops at its start
    iterations = []
    newton = entropic._newton

    def counted(x, evaluate, tol, what):
        out = newton(x, evaluate, tol, what)
        if what == "entropy":
            iterations.append(out[3])
        return out

    monkeypatch.setattr(entropic, "_newton", counted)
    trees = (build_tree({"lattice": {"s0": 1.0, "u": 1.2, "d": 0.9, "q": 0.6, "steps": 8}}),
             trinomial_tree(4), two_asset_tree(3))
    u = make_exponential(alpha)
    for tree in trees:
        direct = minimal_entropy_measure(tree, u)
        via_primal = extract_dual(tree, u, solve_primal(tree, u))
        w = via_primal.measure.weights
        assert np.max(np.abs(direct.measure.weights / w - 1.0)) <= 1e-12
        assert direct.y == pytest.approx(via_primal.y, rel=1e-12)
    assert iterations == [1] * len(trees)


def test_generalized_entropy_frozen_value():
    tree = one_step_binomial()
    q = Measure([1.0 / 3.0, 2.0 / 3.0])
    val = generalized_entropy(tree, q, make_exponential(1.0))
    assert val == pytest.approx(-0.9433669877348675, abs=1e-14)
    # uniform measure has entropy -1 (V(1) = -1); the martingale one is larger
    assert generalized_entropy(tree, tree.market_measure(),
                               make_exponential(1.0)) == pytest.approx(-1.0)
    assert val > -1.0


def test_minimal_entropy_agrees_with_primal_dual():
    for tree in (two_step_binomial(), one_step_trinomial()):
        for u in (make_exponential(1.0), make_exponential(2.0)):
            via_primal = extract_dual(tree, u, solve_primal(tree, u))
            direct = minimal_entropy_measure(tree, u)
            assert np.max(np.abs(direct.measure.weights
                                 - via_primal.measure.weights)) < 1e-9
            assert direct.y == pytest.approx(via_primal.y, abs=1e-9)
            assert direct.residual <= 1e-9


def test_trinomial_minimal_entropy_frozen():
    # 1-parameter martingale family (t/2, 1 - 1.5t, t); entropy minimized by
    # grid refinement over t gave these weights
    dual = minimal_entropy_measure(one_step_trinomial(), make_exponential(1.0))
    assert np.allclose(dual.measure.weights,
                       [0.21798835, 0.34603494, 0.43597671], atol=1e-7)
    assert dual.y == pytest.approx(0.9632938582807699, abs=1e-9)


def test_complete_market_measure_is_unique():
    tree = two_step_binomial()
    dual = minimal_entropy_measure(tree, make_exponential(1.0))
    assert np.allclose(dual.measure.weights,
                       [1.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0, 4.0 / 9.0], atol=1e-9)


def test_no_martingale_measure_raises():
    tree = arbitrage_tree()
    # viability is decided once per tree; its failure must stick
    for _ in range(2):
        with pytest.raises(NoMartingaleMeasure, match=r"equivalent .* node 0 \(date 0\)"):
            solve_primal(tree, make_exponential(1.0))
    assert tree.cached("arbitrage_node", None) == 0
    with pytest.raises(NoMartingaleMeasure):
        minimal_entropy_measure(tree, make_exponential(1.0))
    with pytest.raises(NoMartingaleMeasure, match=r"node 0 \(date 0\)"):
        vertex_measure(tree, np.zeros(tree.n_leaves))


def test_no_martingale_measure_names_the_failing_node():
    # node 2 cannot be reached by a martingale measure, so none exists at all
    tree = deep_arbitrage_tree()
    call = np.maximum(tree.terminal_prices()[:, 0] - 1.0, 0.0)
    for solve in (lambda: solve_primal(tree, make_exponential(1.0)),
                  lambda: vertex_measure(tree, call),
                  lambda: martingale_price_bounds(tree, call)):
        with pytest.raises(NoMartingaleMeasure, match=r"node 2 \(date 1\)"):
            solve()
    # a flat root move leaves martingale measures that skip node 2
    tree = deep_arbitrage_tree(flat_root_move=True)
    with pytest.raises(NoMartingaleMeasure, match=r"node 2 \(date 1\)"):
        entropic.assert_market_viable(tree)
    flat = np.flatnonzero(tree.paths[:, 1] == 3)
    for m in sampled_measures(tree):
        assert martingale_residual(tree, m) <= 1e-15
        assert m.weights[flat].sum() == pytest.approx(1.0, abs=1e-15)
    call = np.maximum(tree.terminal_prices()[:, 0] - 1.0, 0.0)
    assert martingale_price_bounds(tree, call) == pytest.approx(
        reference_price_bounds(tree, call), abs=1e-12)


def sampled_measures(tree, seed=0, vertices=8, mixtures=4):
    """The vertex measures of `vertices` random leaf costs, then `mixtures`
    Dirichlet mixtures of them, all drawn from `seed`."""
    rng = np.random.default_rng(seed)
    V = np.array([vertex_measure(tree, cost).weights
                  for cost in rng.standard_normal((vertices, tree.n_leaves))])
    return [Measure(w) for w in chain(V, rng.dirichlet(np.ones(vertices), mixtures) @ V)]


def test_polytope_probes():
    tree = one_step_trinomial()
    probes = sampled_measures(tree, seed=3)
    for m in probes:
        assert martingale_residual(tree, m) <= 1e-9
    # the costs reach both vertices: the flat move alone, or up and down
    assert np.allclose(np.unique([m.weights for m in probes[:8]], axis=0),
                       [[0.0, 1.0, 0.0], [1.0 / 3.0, 0.0, 2.0 / 3.0]], rtol=0.0, atol=1e-15)
    # deterministic for fixed costs
    again = sampled_measures(tree, seed=3)
    for a, b in zip(probes, again):
        assert np.array_equal(a.weights, b.weights)
    # complete market: every measure is the unique one
    bino = two_step_binomial()
    for m in sampled_measures(bino):
        assert np.allclose(m.weights, [1.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0, 4.0 / 9.0],
                           atol=1e-9)


def binomial(steps):
    return branching_tree(1.0, [2.0, 0.5], [0.5, 0.5], steps)


def crr(steps, sigma=0.2):
    u = float(np.exp(sigma / np.sqrt(steps)))
    return branching_tree(100.0, [u, 1.0 / u], [0.5, 0.5], steps)


PROBE_TREES = {f"binomial_T{T}": (lambda T=T: binomial(T)) for T in range(1, 9)}
PROBE_TREES.update(crr_T6=lambda: crr(6), trinomial_T3=lambda: trinomial_tree(3),
                   two_asset_T3=lambda: two_asset_tree(3),
                   near_degenerate=near_degenerate_tree)


@pytest.mark.parametrize("name", sorted(PROBE_TREES))
def test_probes_match_the_full_lp_loop(name):
    # each random cost's vertex, by the backward pass and by the global LP
    tree = PROBE_TREES[name]()
    for seed in (0, 1, 3):
        for cost in np.random.default_rng(seed).standard_normal((8, tree.n_leaves)):
            m = vertex_measure(tree, cost)
            if name == "near_degenerate":
                # sigma_min 3.1e-13: the LP's vertices are themselves defined by
                # its tolerances, so only the drift is compared
                assert martingale_residual(tree, m) <= 1e-12
            else:
                assert np.max(np.abs(m.weights - reference_vertex(tree, cost).weights)) <= 1e-12


def node_vertices(tree):
    """{node: (its vertices, as rows of child weights)}."""
    return {int(i): v[v.any(axis=1)] for nodes, _, verts in entropic._node_vertices(tree)
            for i, v in zip(nodes, verts)}


def test_single_point_flag_needs_a_well_conditioned_full_rank():
    # (tree, C = [1'; gains'] has full column rank, one vertex per node)
    for tree, full_rank, single in ((one_step_trinomial(), False, False),
                                    (one_step_binomial(), True, True),
                                    (two_step_binomial(), True, True),
                                    (near_degenerate_tree(), True, False)):
        C = np.vstack([np.ones((1, tree.n_leaves)), gains_per_leaf(tree).T])
        assert bool(np.linalg.matrix_rank(C) == tree.n_leaves) is full_rank
        counts = [len(v) for v in node_vertices(tree).values()]
        assert all(n == 1 for n in counts) is single
    # near degenerate: the full support plus two pairs whose drifts, 6.2e-13
    # and 3.1e-13 of the largest move, lie within VERTEX_TOL
    verts = node_vertices(near_degenerate_tree())[0]
    assert sorted(tuple(np.flatnonzero(v)) for v in verts) == [(0, 1), (0, 1, 2), (0, 2)]


def test_node_vertex_counts():
    # binomial: q_up = 1/3 at every node
    for v in node_vertices(three_step_binomial()).values():
        assert np.allclose(v, [[1.0 / 3.0, 2.0 / 3.0]], rtol=0.0, atol=1e-15)
    # one-step trinomial (+1, 0, -1/2): the flat move alone, or up and down
    verts = node_vertices(one_step_trinomial())[0]
    assert np.allclose(verts, [[0.0, 1.0, 0.0], [1.0 / 3.0, 0.0, 2.0 / 3.0]],
                       rtol=0.0, atol=1e-15)
    # the flat node's vertices are its unit vectors
    assert np.array_equal(node_vertices(flat_node_tree())[1], np.eye(2))
    # collinear root: the pairs across 0 on the line; below, each four-way
    # node's two pairs of exactly opposite moves
    verts = node_vertices(collinear_two_asset_tree())
    assert np.allclose(verts[0], [[1.0 / 3.0, 0.0, 2.0 / 3.0], [0.0, 2.0 / 3.0, 1.0 / 3.0]],
                       rtol=0.0, atol=1e-15)
    for i in (1, 2, 3):
        assert np.allclose(verts[i], [[0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0]],
                           rtol=0.0, atol=1e-15)


def test_probes_resolve_small_vertex_weights():
    tree = polish_tree()
    u = make_exponential(1.0)
    sol = solve_primal(tree, u)
    assert all(martingale_residual(tree, m) <= 1e-12 for m in sampled_measures(tree))
    report = verify_optimality(tree, u, sol, extract_dual(tree, u, sol))
    assert report.supermartingale_slack <= 1e-12


@pytest.mark.parametrize("steps", [11, 12])
def test_deep_binomial_polytope_is_one_point(steps):
    # 2048 and 4096 leaves: a complete tree is one point, which one pass finds
    tree = binomial(steps)
    ups = (steps + np.log2(tree.terminal_prices()[:, 0]).round().astype(int)) // 2
    unique = (1.0 / 3.0) ** ups * (2.0 / 3.0) ** (steps - ups)
    probes = sampled_measures(tree)
    # every cost reaches the same vertex
    assert all(np.array_equal(m.weights, probes[0].weights) for m in probes[:8])
    for m in probes:
        assert np.max(np.abs(m.weights - unique) / unique) <= 1e-12
    call = np.maximum(tree.terminal_prices()[:, 0] - 1.0, 0.0)
    lo, hi = martingale_price_bounds(tree, call)
    assert lo == pytest.approx(hi, rel=1e-12)
    assert lo == pytest.approx(unique @ call, rel=1e-12)


def test_verify_optimality_rejects_non_martingale_probe():
    tree = two_step_binomial()
    u = make_exponential(1.0)
    sol = solve_primal(tree, u)
    dual = extract_dual(tree, u, sol)
    with pytest.raises(ValueError):
        verify_optimality(tree, u, sol, dual, probes=[tree.market_measure()])


def test_verify_optimality_slacks_vanish_at_zero_endowment():
    # terminal gains of any strategy integrate to zero under every
    # martingale measure, so all probe slacks sit at numerical zero
    tree = one_step_trinomial()
    u = make_exponential(1.0)
    sol = solve_primal(tree, u)
    rep = verify_optimality(tree, u, sol, extract_dual(tree, u, sol))
    assert abs(rep.supermartingale_slack) <= 1e-10
    assert rep.first_order_residual <= 1e-10


def test_supermartingale_slack_is_the_supremum_over_all_measures():
    # a planted violation: the optimal wealth plus 1e-3 at one leaf; its
    # supremum over the martingale polytope is 1e-3 times the leaf's largest
    # martingale weight, which sampled measures under-read
    tree = branching_tree(1.0, [1.2, 1.0, 0.85], [0.3, 0.4, 0.3], 3)
    u = make_exponential(1.0)
    sol = solve_primal(tree, u)
    dual = extract_dual(tree, u, sol)
    probes = sampled_measures(tree, mixtures=0)
    slacks = []
    for leaf in tree.leaves:
        values = sol.wealth.copy()
        values[leaf] += 1e-3
        bumped = replace(sol, wealth=values)
        rep = verify_optimality(tree, u, bumped, dual, probes=probes)
        hi = martingale_price_bounds(tree, bumped.wealth[tree.leaves])[1]
        assert abs(rep.supermartingale_slack - hi) <= 1e-15 * abs(hi)
        assert rep.probe_slacks.size == len(probes)
        assert rep.probe_slacks.max() <= rep.supermartingale_slack + 1e-15
        slacks.append(rep.supermartingale_slack)
    assert slacks[10] >= 4e-4


def test_verify_optimality_draws_nothing(monkeypatch, tmp_path):
    # the certificate is one exact pass: no probe measures, no random numbers
    def refuse(*args, **kwargs):
        raise AssertionError("a random draw on the solve path")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    tree = trinomial_tree(3)
    u = make_exponential(1.0)
    sol = solve_primal(tree, u)
    rep = verify_optimality(tree, u, sol, extract_dual(tree, u, sol))
    assert rep.supermartingale_slack <= 1e-12 and rep.probe_slacks.size == 0
    assert main(["solve", "--config", "configs/solve_exponential.json",
                 "--out", str(tmp_path)]) == 0


def test_price_bounds():
    bino = two_step_binomial()
    call = np.maximum(bino.terminal_prices()[:, 0] - 1.0, 0.0)
    lo, hi = martingale_price_bounds(bino, call)
    assert lo == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert hi == pytest.approx(1.0 / 3.0, abs=1e-9)
    tri = one_step_trinomial()
    call3 = np.maximum(tri.terminal_prices()[:, 0] - 1.0, 0.0)
    lo3, hi3 = martingale_price_bounds(tri, call3)
    # q_up ranges over (0, 1/3] on the martingale family
    assert lo3 == pytest.approx(0.0, abs=1e-9)
    assert hi3 == pytest.approx(1.0 / 3.0, abs=1e-9)
    with pytest.raises(ValueError, match="finite"):
        martingale_price_bounds(tri, np.array([1.0, np.nan, 0.0]))


# besides random trees: the incomplete depth-ladder shapes, a date with three
# child counts, and a node whose two assets move together, so its martingale
# kernel is larger than the child count minus d + 1
AWKWARD_TREES = (
    lambda: branching_tree(1.0, [1.2, 1.0, 0.85], [0.25, 0.45, 0.3], 6),
    lambda: branching_tree([1.0, 1.0], [[1.15, 1.10], [1.10, 0.85], [0.90, 1.15], [0.85, 0.90]],
                           [0.2, 0.3, 0.3, 0.2], 4),
    mixed_branching_tree,
    collinear_two_asset_tree,
)


def test_random_trees_solve_cleanly():
    # the cone minimizer is P*U'(optimal wealth) for every family member,
    # so the two routes must agree even for perturbed utilities on
    # incomplete trees
    rng = np.random.default_rng(23)
    for tree in chain((random_viable_tree(rng) for _ in range(10)),
                      (make() for make in AWKWARD_TREES)):
        u = make_perturbed_exponential(rng.uniform(0.0, 0.4),
                                       alpha=rng.uniform(0.7, 1.6),
                                       a=0.2, omega=rng.uniform(0.5, 1.5))
        sol = solve_primal(tree, u)
        assert sol.gradient_norm <= 1e-12
        dual = extract_dual(tree, u, sol)
        assert dual.residual <= 1e-10
        mem = minimal_entropy_measure(tree, u)
        assert np.max(np.abs(mem.measure.weights - dual.measure.weights)) < 1e-8
        assert mem.y == pytest.approx(dual.y, rel=1e-8)


def test_fenchel_duality_gap():
    # E_P[V(y dm/dP)] + y E_m[xi] dominates the primal value for every
    # martingale m and scale y, with equality at the extracted dual pair
    rng = np.random.default_rng(29)
    tree = one_step_trinomial()
    u = make_perturbed_exponential(0.25, a=0.2, omega=1.3)
    xi = rng.uniform(-0.5, 0.5, size=tree.n_leaves)
    sol = solve_primal(tree, u, endowment=xi)
    dual = extract_dual(tree, u, sol)
    P = tree.path_prob[tree.leaves]

    def dual_value(m, y):
        return float(P @ np.asarray(u.conjugate(y * m.weights / P))
                     + y * (m.weights @ xi))

    assert dual_value(dual.measure, dual.y) == pytest.approx(sol.value, abs=1e-9)
    for m in sampled_measures(tree, seed=1):
        for y in (0.5 * dual.y, dual.y, 2.0 * dual.y):
            assert dual_value(m, y) >= sol.value - 1e-9


def test_summed_first_order_inequality():
    # E_Q[(1 - F(X^d)e^{-(X^d - X^0)}) (X^d - X^0)] <= 0 for the base
    # measure Q: both orderings of the marginal-utility comparison lose money
    for tree in (two_step_binomial(), one_step_trinomial()):
        u0 = make_exponential(1.0)
        base = solve_primal(tree, u0)
        Q = extract_dual(tree, u0, base)
        for delta in (0.05, 0.2, 0.4):
            u = make_perturbed_exponential(delta, a=0.2, omega=1.0)
            sol = solve_primal(tree, u)
            dX = sol.total - base.total
            term = (1.0 - np.asarray(u.ratio(sol.total)) * np.exp(-dX)) * dX
            assert float(Q.measure.weights @ term) <= 1e-12
