"""Shared market builders, closed-form one-step optima, random tree generator,
the probe loop that solves every LP, as a reference for the probes, and the
per-node loops of the one-step reductions, as references for those."""
import numpy as np
from scipy.optimize import linprog

from stablab import (AdaptedProcess, Measure, NoMartingaleMeasure, ScenarioTree,
                     Strategy, bracket_distance, branching_tree, build_tree,
                     conditional_expectation, conditional_probs, gains_matrix,
                     martingale_residual, node_weights, ratio_defects)
from stablab.entropic import _wealth_martingale_defect
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


def reference_probes(tree, seed, lp=linprog):
    """The default probe loop solving every random-cost LP, with a polish after each."""
    A = gains_matrix(tree)
    L = tree.n_leaves
    C = np.vstack([np.ones((1, L)), A.T])
    b = np.zeros(C.shape[0])
    b[0] = 1.0
    rng = np.random.default_rng(seed)
    vertices = []
    seen = set()
    for _ in range(24):
        if len(vertices) >= 8:
            break
        cost = rng.standard_normal(L)
        res = lp(cost, A_eq=C, b_eq=b, bounds=[(0.0, 1.0)] * L, method="highs")
        if not res.success:
            continue
        supp = res.x > 1e-9
        q = None
        if np.any(supp):
            qs, *_ = np.linalg.lstsq(C[:, supp], b, rcond=None)
            if not np.any(qs < -1e-10):
                out = np.zeros_like(res.x)
                out[supp] = np.clip(qs, 0.0, None)
                if abs(out.sum() - 1.0) <= 1e-9 and np.max(np.abs(C @ out - b)) <= 1e-9:
                    q = out / out.sum()
        if q is None:
            raw = np.clip(res.x, 0.0, None)
            raw = raw / raw.sum()
            if np.max(np.abs(C @ raw - b)) > 1e-10:
                continue
            q = raw
        key = tuple(np.round(q, 10))
        if key not in seen:
            seen.add(key)
            vertices.append(q)
    if not vertices:
        raise NoMartingaleMeasure("polytope probing found no martingale measure")
    probes = [Measure(v) for v in vertices]
    V = np.vstack(vertices)
    for _ in range(4):
        w = rng.dirichlet(np.ones(len(vertices)))
        probes.append(Measure(w @ V))
    return probes


def assert_same_probes(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert np.array_equal(a.weights, b.weights)


# ----------------------------------------------------------------------
# per-node references for the level-wise one-step reductions: the loops the
# library ran before it walked `child_blocks`, kept to check it bit for bit


def reference_node_weights(tree, m):
    w = np.zeros(tree.n_nodes)
    w[tree.leaves] = m.weights
    for i in range(tree.n_nodes - 1, 0, -1):
        w[tree.parent[i]] += w[i]
    return w


def reference_conditional_probs(tree, m):
    """(W, cond) with cond[i] the child distribution of node i (None at leaves)."""
    W = reference_node_weights(tree, m)
    cond = [None] * tree.n_nodes
    for i in tree.nonterminal:
        ch = tree.children[i]
        if W[i] > 0.0:
            cond[i] = W[ch] / W[i]
        else:
            cond[i] = tree.prob[ch]
    return W, cond


def reference_conditional_expectation(tree, m, terminal):
    W, cond = reference_conditional_probs(tree, m)
    val = np.zeros(tree.n_nodes)
    val[tree.leaves] = terminal
    for i in tree.nonterminal[::-1]:
        ch = tree.children[i]
        val[i] = cond[i] @ val[ch]
    return val


def reference_martingale_residual(tree, m):
    W, cond = reference_conditional_probs(tree, m)
    worst = 0.0
    for i in tree.nonterminal:
        if W[i] <= 0.0:
            continue
        drift = cond[i] @ tree.d_prices[tree.children[i]]
        worst = max(worst, float(np.max(np.abs(drift))))
    return worst


def reference_bracket_distance(tree, m, a, b):
    inc = tree.d_prices if a.mode == "shares" else tree.d_returns
    W, cond = reference_conditional_probs(tree, m)
    delta = a.values - b.values
    total = 0.0
    for i in tree.nonterminal:
        if W[i] <= 0.0:
            continue
        ch = tree.children[i]
        w = cond[i]
        proj = inc[ch] @ delta[i]
        mean = w @ proj
        total += W[i] * float(w @ (proj - mean) ** 2)
    return total


def reference_wealth_martingale_defect(tree, m, wealth):
    W, cond = reference_conditional_probs(tree, m)
    worst = 0.0
    X = wealth.values
    for i in tree.nonterminal:
        if W[i] <= 0.0:
            continue
        worst = max(worst, abs(float(cond[i] @ X[tree.children[i]]) - X[i]))
    return worst


def reference_ratio_defects(tree, aux, wealth, tilde, p):
    W, cond = reference_conditional_probs(tree, aux)
    r = wealth.values / tilde.values
    rp = r ** p
    sup_d, sub_d = 0.0, 0.0
    for i in tree.nonterminal:
        if W[i] <= 0.0:
            continue
        ch = tree.children[i]
        sup_d = max(sup_d, float(cond[i] @ r[ch]) - r[i])
        sub_d = min(sub_d, float(cond[i] @ rp[ch]) - rp[i])
    return sup_d, sub_d


def reference_admissible_box(tree):
    d = tree.n_assets
    box = np.zeros((tree.n_nodes, d))
    for i in tree.nonterminal:
        dR = tree.d_returns[tree.children[i]]
        amax = np.max(np.abs(dR), axis=0)
        amax[amax == 0.0] = 1.0
        box[i] = 1.0 / (amax * d)
    return box


def reference_doob_audit(tree, Q, seed, trials, qs=(0.25, 0.5, 0.75)):
    """(violations, max ratio) of the audit's supermartingale trials, node by node."""
    rng = np.random.default_rng(seed)
    violations = 0
    max_ratio = 0.0
    qw = Q.weights
    for _ in range(trials):
        xi = rng.normal(size=tree.n_leaves) * rng.uniform(0.5, 2.0)
        M = reference_conditional_expectation(tree, Q, xi)
        M = M - M[0]
        drift = np.zeros(tree.n_nodes)
        inc = rng.uniform(0.0, 0.5, size=tree.n_nodes)
        for i in range(1, tree.n_nodes):
            drift[i] = drift[tree.parent[i]] + inc[i]
        Z = M - drift
        path_sup = np.max(np.abs(Z[tree.paths]), axis=1)
        zT = float(qw @ np.abs(Z[tree.leaves]))
        for q in qs:
            lhs = float(qw @ path_sup ** q)
            rhs = 2.0 ** q / (1.0 - q) * zT ** q
            if rhs > 0.0:
                max_ratio = max(max_ratio, lhs / rhs)
            if lhs > rhs * (1.0 + 1e-12) + 1e-15:
                violations += 1
    return violations, max_ratio


def assert_reductions_match_references(tree, m, rng):
    """Every one-step reduction under m equals its per-node reference bit for bit,
    on random leaf values, strategies and positive wealths."""
    W, cond = conditional_probs(tree, m)
    W_ref, cond_ref = reference_conditional_probs(tree, m)
    assert np.array_equal(node_weights(tree, m), W_ref) and np.array_equal(W, W_ref)
    assert cond.shape == tree.prob.shape and cond[0] == 1.0
    for i in tree.nonterminal:
        assert np.array_equal(cond[tree.children[i]], cond_ref[i])
    x = rng.normal(size=tree.n_leaves)
    assert np.array_equal(conditional_expectation(tree, m, x).values,
                          reference_conditional_expectation(tree, m, x))
    assert martingale_residual(tree, m) == reference_martingale_residual(tree, m)
    shape = (tree.n_nodes, tree.n_assets)
    for mode in ("shares", "fractions"):
        a, b = Strategy(rng.normal(size=shape), mode), Strategy(rng.normal(size=shape), mode)
        assert bracket_distance(tree, m, a, b) == reference_bracket_distance(tree, m, a, b)
    X = AdaptedProcess(rng.normal(size=tree.n_nodes))
    assert _wealth_martingale_defect(tree, m, X) == reference_wealth_martingale_defect(tree, m, X)
    wealth = AdaptedProcess(rng.uniform(0.5, 2.0, size=tree.n_nodes))
    tilde = AdaptedProcess(rng.uniform(0.5, 2.0, size=tree.n_nodes))
    assert ratio_defects(tree, m, wealth, tilde, -3.0) == \
        reference_ratio_defects(tree, m, wealth, tilde, -3.0)
    assert np.array_equal(_admissible_box(tree), reference_admissible_box(tree))
