"""Shared market builders, closed-form one-step optima, random tree generator,
and the probe loop that solves every LP, as a reference for the probes."""
import numpy as np
from scipy.optimize import linprog

from stablab import (Measure, NoMartingaleMeasure, ScenarioTree, branching_tree,
                     build_tree, gains_matrix)


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
