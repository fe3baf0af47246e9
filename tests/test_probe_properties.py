"""Property tests over random small trees: the backward pass's vertex of a
random cost and its price bounds against the global LPs, the level-wise one-step reductions
against their per-node loops, the block-wise opportunity process against its
node-by-node recursion, the entropy dual's Newton step against the dense KKT
solve, the tree-sparse Newton step against the dense solve, and the one-step
geometry against its date-by-date blocks."""
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stablab.entropic as entropic
import stablab.pricing

from conftest import (assert_reductions_match_references,
                      collinear_two_asset_tree, flat_node_tree, gains_per_leaf,
                      mixed_branching_tree,
                      near_degenerate_tree, random_viable_tree, trinomial_tree, two_asset_tree,
                      reference_indifference_price, reference_layout,
                      reference_opportunity_process, reference_price_bounds, reference_vertex,
                      vertex_measure)
from stablab import (Measure, ScenarioTree, Strategy, UtilityField, branching_tree,
                     build_tree,
                     indifference_price, make_exponential, make_perturbed_exponential, make_power,
                     martingale_price_bounds, martingale_residual,
                     minimal_entropy_measure, opportunity_process, solve_primal)
from stablab.entropic import VERTEX_TOL, _layout, _node_vertices, _tree_step


def whole_percent(hi):
    """A move of 1% to hi."""
    return st.integers(1, round(100 * hi)).map(lambda k: k / 100.0)


def any_scale(hi):
    """A move of mantissa * 10^-k, k = 0..9, at most hi: near-degenerate moves
    of 1e-9 to 1e-5 leave a node's martingale conditions full rank but badly
    conditioned."""
    return st.builds(lambda m, k: min(m * 10.0 ** -k, hi),
                     st.floats(1.0, 9.99), st.integers(0, 9))


@st.composite
def small_viable_trees(draw, move, complete=False):
    """1-2 assets, 2-4 branches per node (at least 3 for two assets), T <= 3.

    One asset: an up and a down move at every node, then any moves.  Two
    assets: p in the open first quadrant, r in the closed second one and
    -(p + r), which puts 0 inside their hull, then any moves.  So every node
    admits an equivalent martingale measure.  `move(hi)` draws a size in
    (0, hi].  A complete tree has d + 1 branches at every node.
    """
    d = draw(st.integers(1, 2))
    steps = draw(st.integers(1, 3))

    def size(hi):
        return draw(move(hi))

    def signed(hi):
        return draw(st.sampled_from([-1.0, 0.0, 1.0])) * size(hi)

    nodes = [{"parent": -1, "prob": 1.0, "prices": [1.0] * d}]
    frontier = [0]
    for _ in range(steps):
        grown = []
        for i in frontier:
            nb = d + 1 if complete else draw(st.integers(d + 1 if d == 2 else 2, 4))
            if d == 1:
                rets = [[size(0.6)], [-size(0.6)]]
            else:
                p = [size(0.4), size(0.4)]
                r = [-size(0.4), draw(st.sampled_from([0.0, 1.0])) * size(0.4)]
                rets = [p, r, [-p[0] - r[0], -p[1] - r[1]]]
            rets += [[signed(0.6 / d) for _ in range(d)] for _ in range(nb - len(rets))]
            w = np.array([draw(st.floats(0.1, 1.0)) for _ in range(nb)])
            prices = nodes[i]["prices"]
            for ret, q in zip(rets, w / w.sum()):
                nodes.append({"parent": i, "prob": float(q),
                              "prices": [s * (1.0 + x) for s, x in zip(prices, ret)]})
                grown.append(len(nodes) - 1)
        frontier = grown
    return build_tree({"nodes": nodes})


def random_costs(tree, seed, n=8):
    return np.random.default_rng(seed).standard_normal((n, tree.n_leaves))


# Whole-percent moves keep every node's vertex systems well conditioned, so the
# backward pass finds each random cost's LP vertex up to rounding.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(tree=small_viable_trees(whole_percent), seed=st.integers(0, 7))
def test_probes_on_random_trees(tree, seed):
    for cost in random_costs(tree, seed):
        m = vertex_measure(tree, cost)
        assert abs(m.weights.sum() - 1.0) <= 1e-12
        assert martingale_residual(tree, m) <= 1e-9
        assert np.max(np.abs(m.weights - reference_vertex(tree, cost).weights)) <= 1e-12


# Near-degenerate moves fix a complete tree's one martingale measure only up to
# eps / sigma_min, and the LP's vertices are defined by its absolute 1e-9
# tolerances (their drifts reach 1e-4 of the largest move), so the LP is no
# reference here.  The drift of every cost's vertex, and of a Dirichlet mixture
# of them, stays within VERTEX_TOL of the largest move, and a tree with one
# vertex per node yields its single point for every cost (the mixture's weights
# may read 1 - 2^-53).
@settings(max_examples=60, deadline=None, derandomize=True)
@given(tree=small_viable_trees(any_scale, complete=True), seed=st.integers(0, 7))
def test_probes_on_near_degenerate_trees(tree, seed):
    V = np.array([vertex_measure(tree, cost).weights for cost in random_costs(tree, seed)])
    mixture = np.random.default_rng(seed).dirichlet(np.ones(len(V))) @ V
    for q in (*V, mixture):
        assert abs(q.sum() - 1.0) <= 1e-12
        assert martingale_residual(tree, Measure(q)) <= VERTEX_TOL * np.abs(tree.d_prices).max()
    if all(np.all(verts.any(axis=2).sum(axis=1) == 1) for _, _, verts in _node_vertices(tree)):
        assert all(np.array_equal(q, V[0]) for q in V)
        assert np.allclose(mixture, V[0], rtol=1e-15, atol=0.0)


# The bounds LP and the two backward passes reach the same extreme vertex.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(tree=small_viable_trees(whole_percent), data=st.data())
def test_price_bounds_match_the_lps(tree, data):
    payoff = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=tree.n_leaves,
                                         max_size=tree.n_leaves)))
    for got, ref in zip(martingale_price_bounds(tree, payoff),
                        reference_price_bounds(tree, payoff)):
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))


@st.composite
def random_trees_and_measures(draw):
    """1-3 assets, 2-5 branches per node, T <= 3, nodes numbered breadth- or
    depth-first; a leaf measure with some zero weights, so some nodes go
    unreached."""
    d = draw(st.integers(1, 3))
    steps = draw(st.integers(1, 3))
    depth_first = draw(st.booleans())
    nodes = [{"parent": -1, "prob": 1.0, "prices": [1.0] * d}]
    time = [0]
    frontier = [0]
    while frontier:
        i = frontier.pop(-1 if depth_first else 0)
        if time[i] == steps:
            continue
        w = np.array([draw(st.floats(0.1, 1.0)) for _ in range(draw(st.integers(2, 5)))])
        for q in w / w.sum():
            moves = [draw(st.floats(-0.5, 0.5)) for _ in range(d)]
            nodes.append({"parent": i, "prob": float(q),
                          "prices": [s * (1.0 + x) for s, x in zip(nodes[i]["prices"], moves)]})
            time.append(time[i] + 1)
            frontier.append(len(nodes) - 1)
    tree = build_tree({"nodes": nodes})
    w = np.array([draw(st.sampled_from([0.0, 0.0, 1.0])) * draw(st.floats(0.01, 1.0))
                  for _ in range(tree.n_leaves)])
    w[draw(st.integers(0, tree.n_leaves - 1))] += 1.0
    return tree, Measure(w / w.sum())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=random_trees_and_measures(), seed=st.integers(0, 2 ** 32 - 1))
def test_one_step_reductions_on_random_trees(case, seed):
    tree, m = case
    assert_reductions_match_references(tree, m, np.random.default_rng(seed))


@st.composite
def viable_branching_trees(draw):
    """`branching_tree` with 1-3 assets and T <= 3.  The first d moves form a
    column diagonally dominant matrix, the next is minus a positive mix of
    them, so 0 is interior to their hull; up to two more moves are free."""
    d = draw(st.integers(1, 3))
    R = np.diag([draw(whole_percent(0.4)) for _ in range(d)])
    for j in range(d):
        for i in range(d):
            if i != j:
                R[i, j] = draw(st.floats(-0.5, 0.5)) * R[j, j] / d
    mix = np.array([draw(st.floats(0.2, 1.0)) for _ in range(d)])
    moves = [*R.T, -(R @ mix)]
    moves += [[draw(st.floats(-0.5, 0.5)) for _ in range(d)]
              for _ in range(draw(st.integers(0, 2)))]
    w = np.array([draw(st.floats(0.1, 1.0)) for _ in moves])
    return branching_tree(np.ones(d), [1.0 + np.asarray(m) for m in moves], w / w.sum(),
                          draw(st.integers(1, 3)))


# The block Newton accepts steps by an Armijo test and steps every node of a
# block together, so it may stop a few ulps away from the node-by-node loop.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(tree=st.one_of(small_viable_trees(whole_percent), viable_branching_trees()),
       p=st.floats(-40.0, -0.3), data=st.data())
def test_opportunity_process_on_random_trees(tree, p, data):
    field = None
    if data.draw(st.booleans()):
        logs = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=tree.n_leaves,
                                  max_size=tree.n_leaves))
        field = UtilityField(np.exp(logs))
    L, frac, _, _, converged = reference_opportunity_process(tree, p, 1.0, field)
    if not converged:
        return
    dp = opportunity_process(tree, p, 1.0, field)
    assert np.max(np.abs(dp.values - L) / L) <= 1e-13
    assert np.max(np.abs(dp.strategy.values - frac)) <= 1e-8


@st.composite
def collinear_two_asset_trees(draw):
    """Two assets, T <= 2, 2-4 branches per node; at each node the moves lie
    on one line through 0 with an up and a down move, or (from three
    branches) span the plane around 0 as in `small_viable_trees`.  Dyadic
    sizes keep a collinear node's increments exactly proportional."""
    dyadic = st.integers(1, 24).map(lambda k: k / 64.0)
    nodes = [{"parent": -1, "prob": 1.0, "prices": [1.0, 2.0]}]
    frontier = [0]
    for _ in range(draw(st.integers(1, 2))):
        grown = []
        for i in frontier:
            nb = draw(st.integers(2, 4))
            if nb == 2 or draw(st.booleans()):
                slope = draw(st.sampled_from([-2.0, -0.5, 0.5, 1.0, 2.0]))
                xs = [draw(dyadic), -draw(dyadic)]
                xs += [draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(dyadic)
                       for _ in range(nb - 2)]
                rets = [[x, slope * x] for x in xs]
            else:
                p = [draw(dyadic), draw(dyadic)]
                r = [-draw(dyadic), draw(dyadic)]
                rets = [p, r, [-p[0] - r[0], -p[1] - r[1]]]
                rets += [[draw(dyadic), -draw(dyadic)] for _ in range(nb - 3)]
            w = np.array([draw(st.floats(0.1, 1.0)) for _ in range(nb)])
            prices = nodes[i]["prices"]
            for ret, q in zip(rets, w / w.sum()):
                nodes.append({"parent": i, "prob": float(q),
                              "prices": [s + x for s, x in zip(prices, ret)]})
                grown.append(len(nodes) - 1)
        frontier = grown
    return build_tree({"nodes": nodes})


def first_entropy_step(tree, utility):
    """(mu0, step) of `minimal_entropy_measure`'s first Newton step, at its start."""
    seen = {}

    def capture(x, evaluate, tol, what):
        value, derivatives = evaluate(x)
        _, _, step = derivatives()
        seen.update(mu=x, step=step())
        return x, value, 0.0, 1

    with pytest.MonkeyPatch.context() as m:
        m.setattr(entropic, "_newton", capture)
        minimal_entropy_measure(tree, utility)
    return seen["mu"], seen["step"]


# The entropy step is the equality-constrained Newton step of
# F(mu) = E_P[V(mu/P)] on G' mu = 0, G the gains: dmu of the KKT system
# [diag(V''/P) U; U' 0] [dmu; lam] = [-V'; 0], whose Hessian block is
# diag(P/V'')^-1.  U is an orthonormal basis of range(G) from its SVD, the
# same constraint as G' dmu = 0 where G has dependent columns (the flat node,
# collinear moves) and with the KKT matrix conditioned like diag(V''/P), not
# like kappa(G)^2.  Rounding in G fixes null(G') only up to eps * kappa(G),
# kappa(G) its largest over its least nonzero singular value: the slack that
# covers near_degenerate_tree (kappa 1.8e12); elsewhere it is ~1e-14.
@settings(max_examples=80, deadline=None, derandomize=True)
@given(tree=st.one_of(
    st.builds(lambda seed, steps: random_viable_tree(np.random.default_rng(seed), steps),
              st.integers(0, 2 ** 32 - 1), st.integers(1, 3)),
    small_viable_trees(whole_percent),
    collinear_two_asset_trees()),
    utility=st.sampled_from([make_exponential(1.0), make_perturbed_exponential(0.2)]))
@example(tree=flat_node_tree(), utility=make_exponential(1.0))
@example(tree=near_degenerate_tree(), utility=make_exponential(1.0))
@example(tree=mixed_branching_tree(), utility=make_perturbed_exponential(0.2))
@example(tree=collinear_two_asset_tree(), utility=make_exponential(1.0))
def test_entropy_step_solves_the_kkt_system(tree, utility):
    mu, step = first_entropy_step(tree, utility)
    G = gains_per_leaf(tree)
    P = tree.path_prob[tree.leaves]
    curv = np.asarray(utility.conjugate_curvature(mu / P)) / P
    slope = np.asarray(utility.conjugate_prime(mu / P))
    U, sv, _ = np.linalg.svd(G, full_matrices=False)
    rank = int(np.sum(sv > max(G.shape) * np.finfo(float).eps * sv[0]))
    U = U[:, :rank]
    kkt = np.block([[np.diag(curv), U], [U.T, np.zeros((rank, rank))]])
    want = np.linalg.solve(kkt, np.concatenate([-slope, np.zeros(rank)]))[:tree.n_leaves]
    slack = np.finfo(float).eps * sv[0] / sv[rank - 1]
    assert np.linalg.norm(step - want) <= (1e-10 + slack) * np.linalg.norm(want)
    # the step keeps the gains' expectation at rounding level
    scale = (np.abs(G).T @ np.abs(slope / curv)).max()
    assert np.abs(G.T @ step).max() <= (1e-14 + slack) * scale


COMPLETE_TREES = {f"binomial_T{T}": (lambda T=T: branching_tree(1.0, [2.0, 0.5], [0.5, 0.5], T))
                  for T in range(1, 11)}
COMPLETE_TREES["two_asset_T3"] = lambda: branching_tree(
    [1.0, 1.0], [[1.15, 1.10], [1.10, 0.85], [0.85, 0.95]], [0.3, 0.3, 0.4], 3)


@pytest.mark.parametrize("name", sorted(COMPLETE_TREES))
def test_complete_trees_have_the_interior_point_as_basis(name):
    # a complete tree's martingale cone has its one measure q0, the product of
    # each node's one vertex, as its basis, so the entropy Newton only finds
    # the scale and returns q0
    tree = COMPLETE_TREES[name]()
    q0 = vertex_measure(tree, np.zeros(tree.n_leaves)).weights
    m = minimal_entropy_measure(tree, make_exponential(1.0)).measure.weights
    assert np.abs(m - q0).max() <= 1e-13 * q0.max()


# The Riccati pass eliminates the nodes of the Newton system G' diag(a) G +
# blockdiag(E), G the gains, deepest first, and so solves it exactly; E makes
# it regular where G has a zero column (the flat node).
@settings(max_examples=60, deadline=None, derandomize=True)
@given(tree=st.one_of(small_viable_trees(whole_percent), viable_branching_trees(),
                      st.sampled_from([flat_node_tree(), mixed_branching_tree(),
                                       trinomial_tree(3), two_asset_tree(2),
                                       branching_tree(1.0, [2.0, 0.5], [0.5, 0.5], 4)])),
       seed=st.integers(0, 2 ** 32 - 1), blocks=st.booleans())
def test_tree_step_solves_the_newton_system(tree, seed, blocks):
    rng = np.random.default_rng(seed)
    G = gains_per_leaf(tree)
    K, d = tree.nonterminal.shape[0], tree.n_assets
    a = rng.uniform(0.1, 2.0, tree.n_leaves)
    b = rng.standard_normal(tree.n_leaves)
    extra = np.zeros((K, d, d))
    H = G.T @ (G * a[:, None])
    if blocks or np.linalg.matrix_rank(H) < K * d:
        root = rng.standard_normal((K, d, d)) * np.abs(G).max()
        extra = root @ root.transpose(0, 2, 1)
        H.reshape(K, d, K, d)[np.arange(K), :, np.arange(K), :] += extra
    want = np.linalg.solve(H, -(G.T @ b))
    got = _tree_step(tree, tree.d_prices, a, b, extra)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@st.composite
def trinomial_calls(draw):
    """A trinomial `branching_tree` (an up, a middle and a down factor, T <= 3)
    and a call struck between its least and greatest terminal prices."""
    up, mid, down = (draw(st.floats(1.05, 1.5)), draw(st.floats(0.96, 1.04)),
                     draw(st.floats(0.6, 0.95)))
    w = np.array([draw(st.floats(0.1, 1.0)) for _ in range(3)])
    tree = branching_tree(1.0, [up, mid, down], w / w.sum(), draw(st.integers(1, 3)))
    S = tree.terminal_prices()[:, 0]
    strike = S.min() + draw(st.floats(0.05, 0.95)) * (S.max() - S.min())
    return tree, np.maximum(S - strike, 0.0)


# Newton from the Davis price falls monotonically onto the indifference price.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=trinomial_calls(), x0=st.floats(-2.0, 2.0), alpha=st.floats(0.5, 2.0))
def test_indifference_newton_falls_onto_the_price(case, x0, alpha):
    tree, B = case
    u = make_exponential(alpha)
    iterates = []

    def recording(tree, utility, endowment=0.0, *, initial=None):
        if initial is not None:
            # the claim is 0 on the lowest leaf, where the endowment is x0 - p
            iterates.append(x0 - endowment[np.argmin(B)])
        return solve_primal(tree, utility, endowment, initial=initial)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(stablab.pricing, "solve_primal", recording)
        price = indifference_price(tree, u, x0, B).price
    assert iterates and np.all(np.diff(iterates) <= 0.0)
    assert min(iterates) >= price - 1e-12
    assert abs(price - reference_indifference_price(tree, u, x0, B)) <= 1e-12


# The primal's answer does not depend on where it starts: at its one-step
# exponential start, at no holdings, or warm at the solve without the claim,
# it stops on the Newton decrement relative to the shortfall E_P[U(inf) - U].
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(2, 4), delta=st.floats(0.05, 0.4),
       alpha=st.floats(0.5, 2.0), x0=st.floats(-5.0, 5.0), level=st.floats(0.1, 0.9))
def test_primal_does_not_depend_on_its_start(seed, steps, delta, alpha, x0, level):
    tree = random_viable_tree(np.random.default_rng(seed), steps)
    u = make_perturbed_exponential(delta, alpha=alpha)
    S = tree.terminal_prices()[:, 0]
    B = np.maximum(S - (S.min() + level * (S.max() - S.min())), 0.0)
    ref = solve_primal(tree, u, x0 - B)
    scale = np.abs(ref.strategy.values).max()
    shortfall = tree.path_prob[tree.leaves] @ u.shortfall(ref.total)
    for start in (Strategy.zero(tree), solve_primal(tree, u, x0).strategy):
        sol = solve_primal(tree, u, x0 - B, initial=start)
        assert np.abs(sol.strategy.values - ref.strategy.values).max() <= 1e-12 * scale
        assert abs(sol.value - ref.value) <= 1e-12 * shortfall


def reference_node_vertices(tree):
    """`entropic._node_vertices` as it ran date by date: one batched SVD per
    child block and support size, single-child supports included."""
    d = tree.n_assets
    e = np.eye(d + 1)[d]
    out = []
    for nodes, kids in (block for level in tree.child_blocks for block in level):
        k, c = kids.shape
        dS = tree.d_prices[kids]
        dS = dS / np.maximum(np.abs(dS).max(axis=(1, 2)), np.finfo(float).tiny)[:, None, None]
        verts = []
        for s in range(1, min(d + 1, c) + 1):
            supp = np.array(list(combinations(range(c), s)))
            m = len(supp)
            M = np.concatenate([dS[:, supp].transpose(0, 1, 3, 2), np.ones((k, m, 1, s))],
                               axis=2)
            u, sv, vh = np.linalg.svd(M, full_matrices=False)
            good = sv[..., -1] > (d + 1) * np.finfo(float).eps * sv[..., 0]
            pinv = np.divide(vh, sv[..., None], out=np.zeros_like(vh),
                             where=good[..., None, None]).swapaxes(-1, -2) @ u.swapaxes(-1, -2)
            q = pinv[..., d]
            q += (pinv @ (e - (M @ q[..., None])[..., 0])[..., None])[..., 0]
            q /= np.where(good, q.sum(axis=-1), 1.0)[..., None]
            drift = np.abs(np.matmul(q[..., None, :], dS[:, supp])[..., 0, :]).max(axis=-1)
            good &= (drift <= VERTEX_TOL) & np.all(q > VERTEX_TOL, axis=-1)
            verts.append(np.zeros((k, m, c)))
            verts[-1][:, np.arange(m)[:, None], supp] = np.where(good[..., None], q, 0.0)
        out.append((nodes, kids, np.concatenate(verts, axis=1)))
    return out


def depth_first(tree):
    """`tree` with its nodes renumbered depth first, every subtree before its
    next sibling, so that ids interleave across dates."""
    order = []

    def visit(i):
        order.append(i)
        for j in np.flatnonzero(tree.parent == i):
            visit(j)

    visit(0)
    renumber = np.empty(tree.n_nodes, dtype=np.int64)
    renumber[order] = np.arange(tree.n_nodes)
    parent = np.where(tree.parent[order] < 0, -1, renumber[tree.parent[order]])
    return ScenarioTree(parent, tree.time[order], tree.prob[order], tree.prices[order])


# Stacking every date's block of one child count changes how many matrices
# each batched SVD and product takes, not what each one computes, so the
# geometry is bit for bit the per-date one.  The trees cover zero moves
# (factor 1.0), a move of 1e-13 (a one-child vertex by VERTEX_TOL alone),
# ids interleaved across dates, collinear and near-degenerate moves,
# arbitrage nodes and mixed child counts.
@settings(max_examples=120, deadline=None, derandomize=True)
@given(tree=st.one_of(
    small_viable_trees(whole_percent), small_viable_trees(any_scale),
    random_trees_and_measures().map(lambda case: case[0]), viable_branching_trees(),
    collinear_two_asset_trees()))
@example(tree=flat_node_tree())
@example(tree=mixed_branching_tree())
@example(tree=near_degenerate_tree())
@example(tree=collinear_two_asset_tree())
@example(tree=branching_tree([1.0, 1.0], [[1.1, 1.1], [1.0, 1.0], [0.9, 0.9]],
                             [0.3, 0.4, 0.3], 3))
@example(tree=branching_tree(1.0, [1.5, 1.0 + 1e-13, 0.5], [0.3, 0.4, 0.3], 2))
@example(tree=depth_first(trinomial_tree(3)))
@example(tree=depth_first(two_asset_tree(2)))
def test_geometry_matches_its_per_date_blocks(tree):
    got, want = _node_vertices(tree), reference_node_vertices(tree)
    assert len(got) == len(want)
    for block, ref in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(block, ref))
    for move in (tree.d_prices, tree.d_returns):
        moves = _layout(tree, move)
        framed, frames, null = reference_layout(tree, move)
        assert np.array_equal(moves.node, framed)
        assert np.array_equal(moves.frames, frames)
        assert np.array_equal(moves.null, null)
