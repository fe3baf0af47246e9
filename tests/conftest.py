"""Shared market builders, closed-form one-step optima, random tree generator,
the measure of one backward pass over per-node vertices and, as its
references, global LPs over the martingale polytope (the vertex of a cost,
and the two price bounds), the per-node loops of the one-step reductions
and of the opportunity process, the bisection for the indifference price,
the dense Newton route of the primal and fraction solvers, the dense
price-gains matrix built leaf by leaf, the (leaf, date) path form of the
gains products and the SVD of every node's moves, as references for those."""
import numpy as np
from scipy.optimize import linprog

from stablab import (Measure, NoMartingaleMeasure, ScenarioTree, Strategy,
                     bracket_distance, branching_tree, build_tree,
                     conditional_expectation, conditional_probs, martingale_residual, node_weights, ratio_defects, solve_primal)
import stablab.entropic as entropic
from stablab.entropic import _wealth_martingale_defect
from stablab.market import _path_products
from stablab.positive import _admissible_box


def one_step_binomial() -> ScenarioTree:
    return build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 1}})


def two_step_binomial() -> ScenarioTree:
    return build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 2}})


def three_step_binomial() -> ScenarioTree:
    return build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 3}})


def one_step_trinomial() -> ScenarioTree:
    """Price moves to 2.0 / 1.0 / 0.5 with uniform probabilities; incomplete."""
    third = 1.0 / 3.0
    return build_tree({"nodes": [
        {"parent": -1, "prob": 1.0, "prices": [1.0]},
        {"parent": 0, "prob": third, "prices": [2.0]},
        {"parent": 0, "prob": third, "prices": [1.0]},
        {"parent": 0, "prob": third, "prices": [0.5]},
    ]})


def trinomial_tree(steps: int = 4) -> ScenarioTree:
    """Incomplete one-asset lattice: factors 1.25 / 1.0 / 0.8 at every node."""
    return branching_tree(1.0, [1.25, 1.0, 0.8], [0.3, 0.4, 0.3], steps)


def two_asset_tree(steps: int = 3) -> ScenarioTree:
    """Incomplete two-asset lattice: four branches per node, one in each quadrant."""
    factors = [[1.15, 1.10], [1.10, 0.85], [0.90, 1.15], [0.85, 0.90]]
    return branching_tree([1.0, 1.0], factors, [0.2, 0.3, 0.3, 0.2], steps)


def one_step_theta(alpha: float, q: float, a: float, b: float) -> float:
    """Optimal share when the price gain is +a with probability q and -b else.

    First-order condition q*a*exp(-alpha*h*a) = (1-q)*b*exp(alpha*h*b) solved
    in closed form; the standard lattice (u=2, d=0.5, q=0.5, s=1) gives
    ln(2)/(1.5*alpha).
    """
    return np.log(q * a / ((1.0 - q) * b)) / (alpha * (a + b))


def random_viable_tree(rng: np.random.Generator, steps: int = 2) -> ScenarioTree:
    """Random one-asset tree, 2-3 branches per node, factors straddling 1.

    Every node has at least one up factor > 1 and one down factor < 1, so an
    equivalent martingale measure always exists.
    """
    nodes = [{"parent": -1, "prob": 1.0, "prices": [1.0]}]
    frontier = [(0, 1.0)]
    for _ in range(steps):
        new_frontier = []
        for node_id, price in frontier:
            nb = int(rng.integers(2, 4))
            factors = [rng.uniform(1.05, 2.2), rng.uniform(0.4, 0.95)]
            if nb == 3:
                factors.insert(1, rng.uniform(0.5, 2.0))
            probs = rng.dirichlet(np.ones(nb) * 2.0)
            probs = np.clip(probs, 0.02, None)
            probs = probs / probs.sum()
            for f, q in zip(factors, probs):
                nodes.append({"parent": node_id, "prob": float(q),
                              "prices": [price * f]})
                new_frontier.append((len(nodes) - 1, price * f))
        frontier = new_frontier
    return build_tree({"nodes": nodes})


def depth_first_two_asset_tree(steps: int = 3) -> ScenarioTree:
    """Two-asset tree from an explicit node list in depth-first order.

    Node ids are topologically ordered but not grouped by date: every subtree
    is listed before its next sibling.  Three branches at even dates, two at
    odd ones; prices drift with the node id so no two increments coincide.
    """
    factors = [(1.2, 1.1), (0.9, 1.25), (1.0, 0.8)]
    probs = {3: [0.3, 0.45, 0.25], 2: [0.4, 0.6]}
    nodes = []

    def grow(parent, prob, prices, t):
        nodes.append({"parent": parent, "prob": prob, "prices": prices})
        me = len(nodes) - 1
        if t < steps:
            nb = 3 if t % 2 == 0 else 2
            for f, q in zip(factors, probs[nb]):
                grow(me, q, [p * g * (1.0 + 0.003 * me) for p, g in zip(prices, f)], t + 1)

    grow(-1, 1.0, [1.0, 2.0], 0)
    return build_tree({"nodes": nodes})


def flat_node_tree() -> ScenarioTree:
    """Two-step tree whose up node has no price move."""
    return build_tree({"nodes": [
        {"parent": -1, "prob": 1.0, "prices": [1.0]},
        {"parent": 0, "prob": 0.5, "prices": [2.0]},
        {"parent": 0, "prob": 0.5, "prices": [0.5]},
        {"parent": 1, "prob": 0.4, "prices": [2.0]},
        {"parent": 1, "prob": 0.6, "prices": [2.0]},
        {"parent": 2, "prob": 0.5, "prices": [1.0]},
        {"parent": 2, "prob": 0.5, "prices": [0.25]},
    ]})


def near_degenerate_tree() -> ScenarioTree:
    """Complete one-step two-asset tree whose moves of 1e-8 and 1e-5 leave
    C q = b full rank but so ill-conditioned that a second LP vertex, 1e-8
    away from the unique solution, passes the polish's 1e-9 tolerances."""
    return build_tree({"nodes": [
        {"parent": -1, "prob": 1.0, "prices": [1.0, 1.0]},
        {"parent": 0, "prob": 0.3, "prices": [1.4, 1.0 + 1e-8]},
        {"parent": 0, "prob": 0.5, "prices": [1.0 - 1e-5, 1.0]},
        {"parent": 0, "prob": 0.2, "prices": [0.6 + 1e-5, 1.0 - 1e-8]},
    ]})


def mixed_branching_tree() -> ScenarioTree:
    """One-asset T=2 tree whose date-1 nodes have 2, 4 and 3 children."""
    moves = {0: [1.3, 1.0, 0.8], 1: [1.2, 0.9], 2: [1.4, 1.1, 0.95, 0.7], 3: [1.25, 1.0, 0.85]}
    nodes = [{"parent": -1, "prob": 1.0, "prices": [1.0]}]
    for parent in range(4):
        factors = moves[parent]
        for f in factors:
            nodes.append({"parent": parent, "prob": 1.0 / len(factors),
                          "prices": [nodes[parent]["prices"][0] * f]})
    return build_tree({"nodes": nodes})


def collinear_two_asset_tree() -> ScenarioTree:
    """Two-asset T=2 tree: the root's three moves lie on one line through 0,
    so its gains have rank 1, not 2; the date-1 nodes branch four ways.  The
    moves are dyadic, so the second asset's increments are exactly half the
    first's and the primal Hessian is exactly singular."""
    factors = [[1.15, 1.10], [1.10, 0.85], [0.90, 1.15], [0.85, 0.90]]
    nodes = [{"parent": -1, "prob": 1.0, "prices": [1.0, 2.0]}]
    for x, q in zip((0.25, 0.0625, -0.125), (0.3, 0.3, 0.4)):
        nodes.append({"parent": 0, "prob": q, "prices": [1.0 + x, 2.0 + x / 2.0]})
    for parent in (1, 2, 3):
        s = nodes[parent]["prices"]
        for f, q in zip(factors, (0.2, 0.3, 0.3, 0.2)):
            nodes.append({"parent": parent, "prob": q, "prices": [s[0] * f[0], s[1] * f[1]]})
    return build_tree({"nodes": nodes})


def near_collinear_two_asset_tree() -> ScenarioTree:
    """`collinear_two_asset_tree` with the root moves x * (1, 1/2) for
    x = 0.2, 0.05, -0.1, built as prices 1 + x and 2 + x/2: the second
    asset's increments are half the first's only up to rounding, so the
    primal Hessian is singular only up to rounding."""
    factors = [[1.15, 1.10], [1.10, 0.85], [0.90, 1.15], [0.85, 0.90]]
    nodes = [{"parent": -1, "prob": 1.0, "prices": [1.0, 2.0]}]
    for x, q in zip((0.2, 0.05, -0.1), (0.3, 0.3, 0.4)):
        nodes.append({"parent": 0, "prob": q, "prices": [1.0 + x, 2.0 + x / 2.0]})
    for parent in (1, 2, 3):
        s = nodes[parent]["prices"]
        for f, q in zip(factors, (0.2, 0.3, 0.3, 0.2)):
            nodes.append({"parent": parent, "prob": q, "prices": [s[0] * f[0], s[1] * f[1]]})
    return build_tree({"nodes": nodes})


def on_route(monkeypatch, dense, solve, *args):
    """solve(*args) with the primal and fraction Newton steps on the dense
    route (the reference) or, with dense False, on the tree-sparse one,
    whatever the tree's size."""
    with monkeypatch.context() as m:
        m.setattr(entropic, "DENSE_NEWTON_MAX", np.iinfo(np.int64).max if dense else -1)
        return solve(*args)


def gains_per_leaf(tree):
    """(L, K*d) map from stacked non-terminal holdings to terminal gains: one
    slice update per leaf and date."""
    K = tree.nonterminal.shape[0]
    d = tree.n_assets
    col_of = {int(node): k for k, node in enumerate(tree.nonterminal)}
    A = np.zeros((tree.n_leaves, K * d))
    for leaf_k in range(tree.n_leaves):
        for t in range(tree.horizon):
            node = tree.paths[leaf_k, t]
            child = tree.paths[leaf_k, t + 1]
            c0 = col_of[int(node)] * d
            A[leaf_k, c0:c0 + d] += tree.d_prices[child]
    return A


def reference_layout(tree, move):
    """(framed moves, frames, null) of `entropic._layout` as it ran date by
    date, with no screen: one batched SVD of every node of each child block."""
    K, d = tree.nonterminal.shape[0], tree.n_assets
    framed = move.copy()
    frames = np.tile(np.eye(d), (K, 1, 1))
    null = np.zeros((K, d), dtype=bool)
    for nodes, kids in (block for level in tree.child_blocks for block in level):
        _, sv, vh = np.linalg.svd(move[kids])
        rank = np.sum(sv > max(kids.shape[1], d) * np.finfo(float).eps * sv[:, :1], axis=1)
        low = rank < d
        V = vh[low].transpose(0, 2, 1)
        drop = np.arange(d) >= rank[low][:, None]
        framed[kids[low]] = np.where(drop[:, None, :], 0.0, np.matmul(move[kids[low]], V))
        frames[tree.column[nodes[low]]] = V
        null[tree.column[nodes[low]]] = drop
    return framed, frames, null


def reference_path_products(tree, move, h, r):
    """The gains products of the per-node moves move (n, m) in their (leaf,
    date) path form: (gains, adjoint), gains[l] = sum_t h[cols[l, t]] . w[l, t]
    for the stacked holdings h (K*m,), cols[l, t] the column of the node at
    date t on leaf l's path and w[l, t] the move into its child there, and
    adjoint the transposed product of the leaf vector r, one bincount over
    the (leaf, date) slots (for m = d*d, the fraction solver's same-node
    Hessian blocks)."""
    K, m = tree.nonterminal.shape[0], move.shape[1]
    cols = tree.column[tree.paths[:, :-1]]
    w = move[tree.paths[:, 1:]]
    gains = np.einsum("ltd,ltd->l", h.reshape(-1, m)[cols], w)
    slots = (cols[..., None] * m + np.arange(m)).ravel()
    return gains, np.bincount(slots, (r[:, None, None] * w).ravel(), K * m)


def vertex_measure(tree, cost):
    """The martingale measure minimizing cost . q: the product of the argmin
    vertices of one `_cheapest_vertices` pass."""
    cond = entropic._cheapest_vertices(tree, cost)[1]
    return Measure(_path_products(tree, cond)[tree.leaves])


def reference_vertex(tree, cost):
    """The vertex of the martingale polytope minimizing cost . q by one global
    LP, polished: refit by least squares on the LP's support where that stays
    a measure, else the LP's solution renormalized."""
    A = gains_per_leaf(tree)
    L = tree.n_leaves
    C = np.vstack([np.ones((1, L)), A.T])
    b = np.zeros(C.shape[0])
    b[0] = 1.0
    res = linprog(cost, A_eq=C, b_eq=b, bounds=[(0.0, 1.0)] * L, method="highs")
    if not res.success:
        raise NoMartingaleMeasure("vertex LP infeasible")
    supp = res.x > 1e-9
    if np.any(supp):
        qs, *_ = np.linalg.lstsq(C[:, supp], b, rcond=None)
        if not np.any(qs < -1e-10):
            out = np.zeros_like(res.x)
            out[supp] = np.clip(qs, 0.0, None)
            if abs(out.sum() - 1.0) <= 1e-9 and np.max(np.abs(C @ out - b)) <= 1e-9:
                return Measure(out / out.sum())
    raw = np.clip(res.x, 0.0, None)
    raw = raw / raw.sum()
    assert np.max(np.abs(C @ raw - b)) <= 1e-10
    return Measure(raw)


def reference_price_bounds(tree, payoff):
    """[min, max] of E_m[payoff] over the martingale polytope, one global LP each."""
    A = gains_per_leaf(tree)
    L = tree.n_leaves
    C = np.vstack([np.ones((1, L)), A.T])
    b = np.zeros(C.shape[0])
    b[0] = 1.0
    out = []
    for sign in (1.0, -1.0):
        res = linprog(sign * np.asarray(payoff, dtype=float), A_eq=C, b_eq=b,
                      bounds=[(0.0, 1.0)] * L, method="highs")
        if not res.success:
            raise NoMartingaleMeasure("price-bound LP infeasible")
        out.append(sign * res.fun)
    return out[0], out[1]


# ----------------------------------------------------------------------
# per-node references for the level-wise one-step reductions: the loops the
# library ran before it walked `child_blocks`, kept to check it bit for bit


def child_lists(tree):
    """Child ids of every node, ascending, read off `tree.parent` one node at a time."""
    children = [[] for _ in range(tree.n_nodes)]
    for i in range(1, tree.n_nodes):
        children[tree.parent[i]].append(i)
    return [np.array(ch, dtype=np.int64) for ch in children]


def reference_node_weights(tree, m):
    w = np.zeros(tree.n_nodes)
    w[tree.leaves] = m.weights
    for i in range(tree.n_nodes - 1, 0, -1):
        w[tree.parent[i]] += w[i]
    return w


def reference_conditional_probs(tree, m):
    """(W, cond) with cond[i] the child distribution of node i (None at leaves)."""
    children = child_lists(tree)
    W = reference_node_weights(tree, m)
    cond = [None] * tree.n_nodes
    for i in tree.nonterminal:
        ch = children[i]
        if W[i] > 0.0:
            cond[i] = W[ch] / W[i]
        else:
            cond[i] = tree.prob[ch]
    return W, cond


def reference_conditional_expectation(tree, m, terminal):
    children = child_lists(tree)
    W, cond = reference_conditional_probs(tree, m)
    val = np.zeros(tree.n_nodes)
    val[tree.leaves] = terminal
    for i in tree.nonterminal[::-1]:
        ch = children[i]
        val[i] = cond[i] @ val[ch]
    return val


def reference_martingale_residual(tree, m):
    children = child_lists(tree)
    W, cond = reference_conditional_probs(tree, m)
    worst = 0.0
    for i in tree.nonterminal:
        if W[i] <= 0.0:
            continue
        drift = cond[i] @ tree.d_prices[children[i]]
        worst = max(worst, float(np.max(np.abs(drift))))
    return worst


def reference_bracket_distance(tree, m, a, b):
    children = child_lists(tree)
    inc = tree.d_prices if a.mode == "shares" else tree.d_returns
    W, cond = reference_conditional_probs(tree, m)
    delta = a.values - b.values
    total = 0.0
    for i in tree.nonterminal:
        if W[i] <= 0.0:
            continue
        ch = children[i]
        w = cond[i]
        proj = inc[ch] @ delta[i]
        mean = w @ proj
        total += W[i] * float(w @ (proj - mean) ** 2)
    return total


def reference_wealth_martingale_defect(tree, m, X):
    children = child_lists(tree)
    W, cond = reference_conditional_probs(tree, m)
    worst = 0.0
    for i in tree.nonterminal:
        if W[i] <= 0.0:
            continue
        worst = max(worst, abs(float(cond[i] @ X[children[i]]) - X[i]))
    return worst


def reference_ratio_defects(tree, aux, wealth, tilde, p):
    children = child_lists(tree)
    W, cond = reference_conditional_probs(tree, aux)
    r = wealth / tilde
    rp = r ** p
    sup_d, sub_d = 0.0, 0.0
    for i in tree.nonterminal:
        if W[i] <= 0.0:
            continue
        ch = children[i]
        sup_d = max(sup_d, float(cond[i] @ r[ch]) - r[i])
        sub_d = min(sub_d, float(cond[i] @ rp[ch]) - rp[i])
    return sup_d, sub_d


def reference_admissible_box(tree):
    children = child_lists(tree)
    d = tree.n_assets
    box = np.zeros((tree.n_nodes, d))
    for i in tree.nonterminal:
        dR = tree.d_returns[children[i]]
        amax = np.max(np.abs(dR), axis=0)
        amax[amax == 0.0] = 1.0
        box[i] = 1.0 / (amax * d)
    return box


def reference_doob_audit(tree, Q, seed, trials, qs=(0.25, 0.5, 0.75)):
    """(violations, max ratio) of the audit's supermartingale trials, trial by
    trial and node by node, from the draws normal, uniform, uniform per trial;
    every weighted sum is `(w * v).sum()`."""
    children = child_lists(tree)
    _, cond = reference_conditional_probs(tree, Q)
    rng = np.random.default_rng(seed)
    violations = 0
    max_ratio = 0.0
    qw = Q.weights
    for _ in range(trials):
        M = np.zeros(tree.n_nodes)
        M[tree.leaves] = rng.normal(size=tree.n_leaves) * rng.uniform(0.5, 2.0)
        for i in tree.nonterminal[::-1]:
            M[i] = (cond[i] * M[children[i]]).sum()
        M = M - M[0]
        drift = np.zeros(tree.n_nodes)
        inc = rng.uniform(0.0, 0.5, size=tree.n_nodes)
        for i in range(1, tree.n_nodes):
            drift[i] = drift[tree.parent[i]] + inc[i]
        Z = M - drift
        path_sup = np.max(np.abs(Z[tree.paths]), axis=1)
        zT = float((qw * np.abs(Z[tree.leaves])).sum())
        for q in qs:
            lhs = float((qw * path_sup ** q).sum())
            rhs = 2.0 ** q / (1.0 - q) * zT ** q
            if rhs > 0.0:
                max_ratio = max(max_ratio, lhs / rhs)
            if lhs > rhs * (1.0 + 1e-12) + 1e-15:
                violations += 1
    return violations, max_ratio


def assert_reductions_match_references(tree, m, rng):
    """Every one-step reduction under m equals its per-node reference bit for bit,
    on random leaf values, strategies and positive wealths."""
    children = child_lists(tree)
    W, cond = conditional_probs(tree, m)
    W_ref, cond_ref = reference_conditional_probs(tree, m)
    assert np.array_equal(node_weights(tree, m), W_ref) and np.array_equal(W, W_ref)
    assert cond.shape == tree.prob.shape and cond[0] == 1.0
    for i in tree.nonterminal:
        assert np.array_equal(cond[children[i]], cond_ref[i])
    x = rng.normal(size=tree.n_leaves)
    assert np.array_equal(conditional_expectation(tree, m, x),
                          reference_conditional_expectation(tree, m, x))
    assert martingale_residual(tree, m) == reference_martingale_residual(tree, m)
    shape = (tree.n_nodes, tree.n_assets)
    for mode in ("shares", "fractions"):
        a, b = Strategy(rng.normal(size=shape), mode), Strategy(rng.normal(size=shape), mode)
        assert bracket_distance(tree, m, a, b) == reference_bracket_distance(tree, m, a, b)
    X = rng.normal(size=tree.n_nodes)
    assert _wealth_martingale_defect(tree, m, X) == reference_wealth_martingale_defect(tree, m, X)
    wealth = rng.uniform(0.5, 2.0, size=tree.n_nodes)
    tilde = rng.uniform(0.5, 2.0, size=tree.n_nodes)
    assert ratio_defects(tree, m, wealth, tilde, -3.0) == \
        reference_ratio_defects(tree, m, wealth, tilde, -3.0)
    assert np.array_equal(_admissible_box(tree), reference_admissible_box(tree))


def reference_node_power_min(cond, dR, Lc, p, tol=1e-13, max_iter=100):
    """One node's damped Newton with a plain-decrease line search, as the
    opportunity process ran it node by node.  Returns (value, fraction,
    converged); a stalled search or max_iter steps leave converged False."""
    d = dR.shape[1]
    pi = np.zeros(d)

    def parts(pv):
        g = 1.0 + dR @ pv
        if np.any(g <= 0.0):
            return None, None, None
        with np.errstate(over="ignore"):
            gp = cond * Lc * g ** p
        if not np.all(np.isfinite(gp)):
            return None, None, None
        return g, gp, float(gp.sum())

    g, gp, val = parts(pi)
    for _ in range(max_iter):
        w = dR / g[:, None]
        grad = p * (gp @ w)
        scale = float(gp.sum())
        if np.max(np.abs(grad)) <= tol * max(scale, 1e-300) * max(1.0, -p):
            return val, pi, True
        hess = p * (p - 1.0) * (w.T @ (w * gp[:, None]))
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad / max(scale, 1e-300)
        stepsize = 1.0
        while stepsize >= 1e-14:
            gc, gpc, vc = parts(pi + stepsize * step)
            if vc is not None and vc <= val + 1e-15 * (1.0 + abs(val)):
                pi = pi + stepsize * step
                g, gp, val = gc, gpc, vc
                break
            stepsize *= 0.5
        else:
            return val, pi, False
    return val, pi, False


def reference_opportunity_process(tree, p, x0=1.0, field=None):
    """(values, fractions, value, y, converged) of the node-by-node recursion."""
    children = child_lists(tree)
    Lvals = np.zeros(tree.n_nodes)
    Lvals[tree.leaves] = 1.0 if field is None else np.asarray(field.weights, dtype=float)
    frac = np.zeros((tree.n_nodes, tree.n_assets))
    _, cond = conditional_probs(tree, tree.market_measure())
    converged = True
    for i in tree.nonterminal[::-1]:
        ch = children[i]
        Lvals[i], frac[i], ok = reference_node_power_min(cond[ch], tree.d_returns[ch],
                                                         Lvals[ch], p)
        converged = converged and ok
    return (Lvals, frac, float(Lvals[0] * x0 ** p / p), float(Lvals[0] * x0 ** (p - 1.0)),
            converged)


def reference_indifference_price(tree, utility, x0, B):
    """The indifference price by 60 bisection steps on the value gap over
    [min B, max B], each solve warm-started from the previous optimum."""
    B = np.broadcast_to(np.asarray(B, dtype=float), (tree.n_leaves,))
    base = solve_primal(tree, utility, x0)
    warm = base.strategy

    def gap(p):
        nonlocal warm
        sol = solve_primal(tree, utility, x0 + B - p, initial=warm)
        warm = sol.strategy
        return sol.value - base.value

    a, b = float(np.min(B)), float(np.max(B))
    if b - a <= 0.0:
        return a
    flo, fhi = gap(a), gap(b)
    if flo < -1e-12 or fhi > 1e-12:
        raise RuntimeError(
            f"indifference bracket failed: value differences ({flo:.3e}, {fhi:.3e})")
    for _ in range(60):
        mid = 0.5 * (a + b)
        if gap(mid) >= 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
