"""The primal and fraction solvers' two Newton routes: the tree-sparse step
against the dense one (the reference, `conftest.on_route`), holdings that the
moves cannot see, in those solvers and in the opportunity process, and trees
too large for the dense route."""
import dataclasses
import time

import numpy as np
import pytest

import stablab.entropic as entropic
import stablab.positive as positive
from conftest import (collinear_two_asset_tree, flat_node_tree, near_collinear_two_asset_tree,
                      near_degenerate_tree, on_route, random_viable_tree, reference_layout)
from stablab import (branching_tree, build_tree, extract_dual, make_exponential,
                     make_perturbed_exponential, make_perturbed_power, make_power,
                     minimal_entropy_measure,
                     opportunity_process, share_amounts, solve_power_field, solve_primal,
                     verify_optimality)
from stablab.entropic import GRAD_TOL, _dense_route
from stablab.utilities import UtilityOnR, UtilityOnRPlus, _CertifiedUtility

U2D05 = {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5}
TWO_FACTORS = [[1.15, 1.10], [1.10, 0.85], [0.90, 1.15], [0.85, 0.90]]


def lattice(steps):
    return build_tree({"lattice": dict(U2D05, steps=steps)})


# K*d on either side of DENSE_NEWTON_MAX = 64, and the depth_ladder shapes
ROUTE_TREES = {
    "binomial_T7": (lambda: lattice(7), False),                     # K*d = 127
    "trinomial_T5": (lambda: branching_tree(1.0, [1.2, 1.0, 0.85], [0.25, 0.45, 0.3], 5),
                     False),                                        # 121
    "two_asset_T4": (lambda: branching_tree([1.0, 1.0], TWO_FACTORS,
                                            [0.15, 0.35, 0.3, 0.2], 4), False),   # 170
    "binomial_T8": (lambda: lattice(8), False),                     # 255
    "trinomial_T6": (lambda: branching_tree(1.0, [1.2, 1.0, 0.85], [0.25, 0.45, 0.3], 6),
                     False),                                        # 364
    **{f"binomial_T{T}": (lambda T=T: lattice(T), T <= 6) for T in (4, 6, 9, 10)},
    "collinear_two_asset": (collinear_two_asset_tree, True),
}


def forbid_dense_gains(monkeypatch):
    """Make building any (L, K*d) gains matrix fail: the layout builds them all."""
    def refuse(*args):
        raise AssertionError("the tree route built a dense gains matrix")
    monkeypatch.setattr(entropic._Moves, "matrix", refuse)


@pytest.mark.parametrize("name", sorted(ROUTE_TREES))
def test_tree_route_matches_the_dense_route(name, monkeypatch):
    make, dense_by_default = ROUTE_TREES[name]
    tree = make()
    assert _dense_route(tree) == dense_by_default
    u = make_perturbed_exponential(0.3, alpha=1.2, a=0.2, omega=0.9)
    power = make_power(-7.0)
    with monkeypatch.context() as m:
        forbid_dense_gains(m)
        sol = on_route(m, False, solve_primal, tree, u)
        pw = on_route(m, False, solve_power_field, tree, power)
    ref = on_route(monkeypatch, True, solve_primal, tree, u)
    ref_pw = on_route(monkeypatch, True, solve_power_field, tree, power)
    for got, want in ((sol, ref), (pw, ref_pw)):
        assert got.iterations == want.iterations
        scale = np.abs(want.strategy.values).max()
        assert np.abs(got.strategy.values - want.strategy.values).max() <= 1e-13 * scale
        assert got.value == pytest.approx(want.value, rel=1e-14)


def solve_counting_gains(monkeypatch, dense, tree, u, reuse):
    """solve_primal on a route with its gains products counted; with reuse
    False, every Newton step recomputes the wealth its line search found for
    the same holdings."""
    count = [0]
    gains, newton = entropic._Moves.gains, entropic._newton

    def counted(self, h, move):
        count[0] += 1
        return gains(self, h, move)

    def fresh(x, evaluate, tol, what):
        def recomputed(h):
            return evaluate(h)[0], lambda: evaluate(h.copy())[1]()
        return newton(x, recomputed, tol, what)

    with monkeypatch.context() as m:
        m.setattr(entropic._Moves, "gains", counted)
        if not reuse:
            m.setattr(entropic, "_newton", fresh)
        return on_route(m, dense, solve_primal, tree, u), count[0]


@pytest.mark.parametrize("name", sorted(ROUTE_TREES))
def test_primal_reuses_the_line_search_wealth(name, monkeypatch):
    # each accepted iterate takes one gains product, in the line search; the
    # Newton step reuses its wealth and so takes the same steps
    tree = ROUTE_TREES[name][0]()
    u = make_perturbed_exponential(0.3, alpha=1.2, a=0.2, omega=0.9)
    for dense in (True, False):
        sol, count = solve_counting_gains(monkeypatch, dense, tree, u, True)
        ref, ref_count = solve_counting_gains(monkeypatch, dense, tree, u, False)
        assert np.array_equal(sol.strategy.values, ref.strategy.values)
        assert sol.value == ref.value and sol.iterations == ref.iterations
        if not dense:
            assert count < ref_count and ref_count - count == sol.iterations


def wealth_evaluations(monkeypatch, solve, *args):
    """solve(*args), with the wealth evaluations of each Newton iteration it
    ran: (its label, per `evaluate` call the number it made, the number made
    outside them).  A wealth evaluation is a new array the solver evaluates
    the utility at (a gains product of the primal, a growth pass of the
    fraction solver, an inverse-marginal solve of the entropy dual), or a
    moves product of the one-step kernel (the opportunity process and the
    starts of the primal and the fraction solver)."""
    runs, live, depth = [], [], [0]
    newton, one_step = entropic._newton, entropic._one_step_min

    def counted_newton(x, evaluate, tol, what):
        run = {"what": what, "calls": [], "outside": 0, "seen": {}, "inside": False}
        runs.append(run)
        live.append(run)

        def counted(y):
            run["calls"].append(0)
            run["inside"] = True
            try:
                return evaluate(y)
            finally:
                run["inside"] = False

        try:
            return newton(x, counted, tol, what)
        finally:
            live.pop()

    def saw(x):
        if live and id(x) not in live[-1]["seen"]:
            run = live[-1]
            run["seen"][id(x)] = x
            if run["inside"]:
                run["calls"][-1] += 1
            else:
                run["outside"] += 1

    def wrapped(real, record):
        # the utility's own inner calls (an inverse marginal's root search) are not the solver's
        def method(self, x):
            if record and not depth[0]:
                saw(x)
            depth[0] += 1
            try:
                return real(self, x)
            finally:
                depth[0] -= 1
        return method

    class Moves(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[0] is self:
                saw(np.empty(0))
            return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

    with monkeypatch.context() as m:
        for cls in (UtilityOnR, UtilityOnRPlus):
            for name in ("value", "marginal", "curvature", "shortfall"):
                if hasattr(cls, name):
                    m.setattr(cls, name, wrapped(getattr(cls, name), True))
        m.setattr(_CertifiedUtility, "inverse_marginal",
                  wrapped(_CertifiedUtility.inverse_marginal, False))
        m.setattr(entropic, "_newton", counted_newton)
        m.setattr(positive, "_newton", counted_newton)
        for module in (entropic, positive):
            m.setattr(module, "_one_step_min",
                      lambda cond, dR, *rest: one_step(cond, dR.view(Moves), *rest))
        solve(*args)
    return [(run["what"], run["calls"], run["outside"]) for run in runs]


@pytest.mark.parametrize("name", sorted(ROUTE_TREES))
def test_every_solver_evaluates_each_point_once(name, monkeypatch):
    # the derivatives at an accepted point come from the evaluation that
    # accepted it: every wealth evaluation is an `evaluate` call's, one per
    # call that reaches the wealth (an infeasible point may stop before it)
    tree = ROUTE_TREES[name][0]()
    u = make_perturbed_exponential(0.3, alpha=1.2, a=0.2, omega=0.9)
    # the perturbed power, unlike pure power, is not optimal at its start
    power = make_perturbed_power(-7.0, b=0.2, nu=0.9)
    runs = []
    for dense in (True, False):
        for solve, utility in ((solve_primal, u), (solve_power_field, power),
                               (minimal_entropy_measure, u)):
            runs += wealth_evaluations(monkeypatch, on_route, monkeypatch, dense, solve, tree,
                                       utility)
    dp = wealth_evaluations(monkeypatch, opportunity_process, tree, -7.0)
    # the first primal solve also runs the exponential start's one-step kernel,
    # once per child count, and keeps it on the tree for the second and for
    # the entropy dual's start; every fraction solve runs the power start's
    # kernel, once per child count
    blocks = ["predictor"] * len(tree.count_blocks)
    assert [what for what, _, _ in runs] == blocks + ["primal"] + blocks + [
        "fraction", "entropy", "primal"] + blocks + ["fraction", "entropy"]
    assert len(dp) == sum(len(level) for level in tree.child_blocks)
    for _, calls, outside in runs + dp:
        assert outside == 0 and calls[0] == 1 and set(calls) <= {0, 1}
    # every solve takes a step, and so do the starts and the opportunity
    # process on some block (where P is a martingale measure, a start block is
    # optimal)
    assert min(len(calls) for what, calls, _ in runs if what != "predictor") > 1
    assert max(len(calls) for what, calls, _ in runs if what == "predictor") > 1
    assert max(len(calls) for _, calls, _ in dp) > 1


def test_layout_screen_keeps_the_svd_layout(monkeypatch):
    # the Gram screen skips the SVD only at nodes the SVD would find of full
    # rank: every layout is bit for bit the one that takes the SVD of every
    # node, null holdings included, and well-conditioned full-rank trees take
    # no SVD (near_degenerate_tree, sigma_min / sigma_max = 5e-13, takes one).
    # The second asset of the last trees moves c times the first's return, so
    # their Gram matrices are singular only up to rounding
    rng = np.random.default_rng(43)
    trees = [make() for name, (make, _) in ROUTE_TREES.items() if name != "collinear_two_asset"]
    trees += [random_viable_tree(rng, 2 + k % 3) for k in range(30)]
    screened = len(trees)
    trees += [near_degenerate_tree()]
    rank_deficient = [collinear_two_asset_tree(), flat_node_tree(),
                      near_collinear_two_asset_tree()]
    rank_deficient += [branching_tree([1.0, 1.0], [[1.1, 1.0 + 0.1 * c], [1.0, 1.0],
                                                   [0.9, 1.0 - 0.1 * c]], [0.3, 0.4, 0.3], 3)
                       for c in (0.7, 0.3, 1.0 / 3.0)]
    svd = np.linalg.svd
    rows = []

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return svd(a, *args, **kwargs)

    for k, tree in enumerate(trees + rank_deficient):
        for move in (tree.d_prices, tree.d_returns):
            framed, frames, null = reference_layout(tree, move)
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", counted)
                moves = entropic._layout(tree, move)
            assert np.array_equal(moves.node, framed)
            assert np.array_equal(moves.frames, frames)
            assert np.array_equal(moves.null, null)
            assert null.any() == (k >= len(trees))
            if k < screened:
                assert not rows
            rows.clear()


@pytest.mark.parametrize("T", [4, 8, 12, 14])
def test_closed_form_power_fractions_at_depth(T):
    # an iid binomial lattice: the pure power fraction is one constant pi*
    # with ((1 + pi* r_u) / (1 + pi* r_d))^(p-1) = -(1 - q) r_d / (q r_u) at
    # every node; it is each node's one-step optimum, so the solve starts
    # there and stops after its first Newton step
    for u, d, q in ((1.2, 0.9, 0.6), (2.0, 0.5, 0.5)):
        tree = build_tree({"lattice": {"s0": 1.0, "u": u, "d": d, "q": q, "steps": T}})
        ru, rd = u - 1.0, d - 1.0
        for p in (-2.0, -7.0, -31.0):
            kappa = (-(1.0 - q) * rd / (q * ru)) ** (1.0 / (p - 1.0))
            want = (kappa - 1.0) / (ru - kappa * rd)
            sol = solve_power_field(tree, make_power(p))
            assert np.max(np.abs(sol.strategy.values[tree.nonterminal, 0] / want - 1.0)) <= 1e-12
            assert sol.iterations == 1


def test_equal_subproblems_give_equal_fractions():
    # every node of an iid trinomial tree faces the same one-step problem, so
    # the pure power fraction is the same at every node
    tree = branching_tree(1.0, [1.2, 1.0, 0.85], [0.3, 0.4, 0.3], 5)
    pi = solve_power_field(tree, make_power(-7.0)).strategy.values[tree.nonterminal, 0]
    assert pi.max() - pi.min() <= 1e-12 * np.abs(pi).max()


def test_near_collinear_holdings_are_dropped():
    # the root's two assets move together up to rounding: the frame keeps one
    # holding, along the moves, and both solvers converge
    tree = near_collinear_two_asset_tree()
    u = make_perturbed_exponential(0.3, alpha=1.2, a=0.2, omega=0.9)
    sol = solve_primal(tree, u)
    rep = verify_optimality(tree, u, sol, extract_dual(tree, u, sol))
    assert rep.first_order_residual <= 1e-10 and rep.martingale_defect <= 1e-10
    assert rep.supermartingale_slack <= 1e-10
    h = sol.strategy.values[0]
    assert abs(h @ [1.0, -2.0]) <= 1e-12 * np.linalg.norm(h)
    power = solve_power_field(tree, make_power(-2.0))
    assert power.gradient_norm <= 1e-11
    # the root returns are x * (1, 1/4)
    pi = power.strategy.values[0]
    assert abs(pi @ [1.0, -4.0]) <= 1e-12 * np.linalg.norm(pi)
    assert power.value == pytest.approx(opportunity_process(tree, -2.0).value, rel=1e-10)


def test_flat_node_holds_nothing_on_the_tree_route(monkeypatch):
    tree = flat_node_tree()
    sol = on_route(monkeypatch, False, solve_primal, tree, make_perturbed_exponential(0.2))
    power = on_route(monkeypatch, False, solve_power_field, tree, make_power(-2.0))
    assert sol.strategy.values[1, 0] == 0.0 and power.strategy.values[1, 0] == 0.0
    assert sol.gradient_norm <= GRAD_TOL and power.gradient_norm <= 1e-11


def test_dp_holds_fractions_in_the_node_frames():
    # the opportunity process takes the fraction solver's frames: on the
    # near-collinear root it returns the same minimum-norm fractions, and the
    # flat node holds exactly nothing
    for tree in (near_collinear_two_asset_tree(), flat_node_tree()):
        dp = opportunity_process(tree, -2.0)
        power = solve_power_field(tree, make_power(-2.0))
        scale = np.abs(power.strategy.values).max()
        assert np.abs(dp.strategy.values - power.strategy.values).max() <= 1e-12 * scale
    assert dp.strategy.values[1, 0] == 0.0


def test_every_layout_carries_frames():
    # frames, null and unit are arrays on every tree: the identity, False and
    # zero blocks on full-rank nodes, so no solver branches on their absence;
    # the tree's own paths are the only array with a leaf axis
    trees = (lattice(3), branching_tree([1.0, 1.0], TWO_FACTORS, [0.15, 0.35, 0.3, 0.2], 2),
             flat_node_tree(), near_collinear_two_asset_tree())
    for tree in trees:
        K, d = tree.nonterminal.shape[0], tree.n_assets
        for moves in (entropic._price_moves(tree), entropic._return_moves(tree)):
            assert moves.paths is tree.paths
            fields = {f.name: getattr(moves, f.name) for f in dataclasses.fields(moves)}
            assert list(fields) == ["node", "up", "paths", "frames", "null", "unit"]
            assert fields["node"].shape == (tree.n_nodes, d)
            assert np.array_equal(moves.up, tree.column[tree.parent[1:]])
            assert not any(tree.n_leaves in a.shape for name, a in fields.items()
                           if name != "paths")
            assert moves.frames.shape == (K, d, d)
            assert moves.null.shape == (K, d) and moves.null.dtype == bool
            assert np.array_equal(moves.unit, moves.null[:, :, None] * np.eye(d))
            assert not any(a.flags.writeable for a in (moves.frames, moves.null, moves.unit))
            full = ~moves.null.any(axis=1)
            assert np.array_equal(moves.frames[full],
                                  np.broadcast_to(np.eye(d), (full.sum(), d, d)))
    # the first two trees have full rank everywhere, the last two do not
    assert not any(entropic._price_moves(tree).null.any() for tree in trees[:2])
    assert all(entropic._price_moves(tree).null.any() for tree in trees[2:])


def test_t13_lattice_solves_without_the_gains(monkeypatch):
    # K = 8191: the dense (L, K) gains alone would take 537 MB; the whole
    # rung, the supermartingale certificate included, runs without building any
    forbid_dense_gains(monkeypatch)
    tree = lattice(13)
    u = make_exponential(1.0)
    sol = solve_primal(tree, u)
    dual = extract_dual(tree, u, sol)
    rep = verify_optimality(tree, u, sol, dual)
    entropy = minimal_entropy_measure(tree, u)
    power = solve_power_field(tree, make_power(-2.0))
    dp = opportunity_process(tree, -2.0)
    assert sol.gradient_norm <= GRAD_TOL
    assert rep.first_order_residual <= 1e-10 and rep.martingale_defect <= 1e-10
    assert rep.supermartingale_slack <= 1e-10 and rep.probe_slacks.size == 0
    assert entropy.y == pytest.approx(dual.y, rel=1e-12)
    assert np.abs(entropy.measure.weights - dual.measure.weights).max() <= 1e-12
    assert power.value == pytest.approx(dp.value, rel=1e-10)


def test_t8_trinomial_entropy_dual_on_the_tree_step(monkeypatch):
    # L = 6561: the perturbed entropy dual takes its steps from the primal's
    # Riccati pass, with no gains matrix, in about 0.3 s on 2 CPUs (a dense
    # null-space basis of the martingale conditions took 14 s and 513 MB)
    forbid_dense_gains(monkeypatch)
    tree = branching_tree(1.0, [1.2, 1.0, 0.85], [0.25, 0.45, 0.3], 8)
    u = make_perturbed_exponential(0.2)
    dual = extract_dual(tree, u, solve_primal(tree, u))
    start = time.perf_counter()
    entropy = minimal_entropy_measure(tree, u)
    elapsed = time.perf_counter() - start
    assert entropy.y == pytest.approx(dual.y, rel=1e-10)
    assert entropy.residual <= 1e-14
    assert elapsed < 1.5


def test_dense_step_divides_one_by_one_blocks():
    # LAPACK solves a 1x1 block with one right-hand column by one division:
    # the path that skips it agrees bit for bit, entries of either sign
    # spanning 1e-8..1e8
    rng = np.random.default_rng(32)
    hess, grad = (rng.choice([-1.0, 1.0], (4000, 1, 1)) * 10.0 ** rng.uniform(-8, 8, (4000, 1, 1))
                  for _ in range(2))
    assert np.array_equal(entropic._dense_step(hess, grad), np.linalg.solve(hess, -grad))
    assert np.array_equal(entropic._dense_step(hess[0], grad[0]),
                          np.linalg.solve(hess[0], -grad[0]))
    # a zero block of either sign takes the least-squares step 0; NaN propagates
    hess = np.array([0.0, -0.0, np.nan, 2.0]).reshape(4, 1, 1)
    grad = np.array([1.0, -3.0, 1.0, np.nan]).reshape(4, 1, 1)
    step = entropic._dense_step(hess, grad)[:, 0, 0]
    assert np.array_equal(step[:2], [0.0, 0.0]) and np.isnan(step[2:]).all()


def count_solves(monkeypatch, solve, *args):
    """(`_dense_step` calls, `np.linalg.solve` calls) made by solve(*args)."""
    counts = [0, 0]
    step, lapack = entropic._dense_step, np.linalg.solve

    def counted_step(*a):
        counts[0] += 1
        return step(*a)

    def counted_lapack(*a, **k):
        counts[1] += 1
        return lapack(*a, **k)

    with monkeypatch.context() as m:
        m.setattr(entropic, "_dense_step", counted_step)
        m.setattr(np.linalg, "solve", counted_lapack)
        solve(*args)
    return tuple(counts)


def test_one_asset_tree_route_makes_no_lapack_solve(monkeypatch):
    # every block of a one-asset tree is 1x1, so the Riccati pass and the
    # opportunity process divide; two assets still solve their 2x2 blocks
    tree = lattice(8)
    two = ROUTE_TREES["two_asset_T4"][0]()
    assert not _dense_route(tree) and not _dense_route(two)
    u = make_perturbed_exponential(0.3, alpha=1.2, a=0.2, omega=0.9)
    power = make_power(-7.0)
    for solve, utility in ((solve_primal, u), (minimal_entropy_measure, u),
                           (solve_power_field, power)):
        steps, lapack = count_solves(monkeypatch, solve, tree, utility)
        assert steps > 0 and lapack == 0
        steps, lapack = count_solves(monkeypatch, solve, two, utility)
        assert steps > 0 and lapack == steps
    steps, lapack = count_solves(monkeypatch, opportunity_process, tree, -7.0)
    assert steps > 0 and lapack == 0


@pytest.mark.parametrize("T", [8, 12])
def test_closed_form_values_at_depth(T):
    # an iid binomial lattice: the exponential value is -(1/alpha) e^{-T H},
    # H the one-step entropy of the risk-neutral q* against q, and the pure
    # power value (E[(1 + pi* R)^p])^T / p, pi* the one-step optimal fraction
    u, d, q = 1.2, 0.9, 0.6
    tree = build_tree({"lattice": {"s0": 1.0, "u": u, "d": d, "q": q, "steps": T}})
    assert not _dense_route(tree)
    qs = (1.0 - d) / (u - d)
    H = qs * np.log(qs / q) + (1.0 - qs) * np.log((1.0 - qs) / (1.0 - q))
    for alpha in (0.7, 1.0):
        want = -np.exp(-T * H) / alpha
        assert abs(solve_primal(tree, make_exponential(alpha)).value - want) <= 1e-14 * abs(want)
    ru, rd = u - 1.0, d - 1.0
    for p in (-2.0, -7.0):
        kappa = (-(1.0 - q) * rd / (q * ru)) ** (1.0 / (p - 1.0))
        pi = (kappa - 1.0) / (ru - kappa * rd)
        want = (q * (1.0 + pi * ru) ** p + (1.0 - q) * (1.0 + pi * rd) ** p) ** T / p
        assert abs(solve_power_field(tree, make_power(p)).value - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("T", [4, 8, 12])
def test_closed_form_exponential_strategy_at_depth(T):
    # an iid binomial lattice: the exponential money position h*S is
    # log(q (1 - q*) / (q* (1 - q))) / (alpha (u - d)) at every node, at any
    # endowment (cash invariance), and it is each node's one-step optimum, so
    # the solve starts there and stops after its first Newton step
    u, d, q = 1.2, 0.9, 0.6
    tree = build_tree({"lattice": {"s0": 1.0, "u": u, "d": d, "q": q, "steps": T}})
    qs = (1.0 - d) / (u - d)
    for alpha in (0.7, 1.0, 2.0):
        want = np.log(q * (1.0 - qs) / (qs * (1.0 - q))) / (alpha * (u - d))
        for x0 in (0.0, 20.0, -20.0):
            sol = solve_primal(tree, make_exponential(alpha), x0)
            money = share_amounts(tree, sol.strategy)[tree.nonterminal, 0]
            assert np.max(np.abs(money / want - 1.0)) <= 1e-12
            assert sol.iterations == 1
