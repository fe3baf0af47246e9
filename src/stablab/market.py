"""Finite scenario-tree markets.

A market is a non-recombining event tree with an adapted price process on it.
Node ids are topologically ordered (parents before children, root first) but
need not be grouped by date, so the tree keeps a level layout (the node ids of
each date) and forward passes take one array step per date.  Trees are
immutable once built, so derived geometry is cached for a tree's lifetime.
Probability measures live on the leaves; everything conditional is recovered
by aggregating leaf weights up the tree, one batched product per child block
(the non-terminal nodes of one date with one child count).  A process on the
tree (wealth, a conditional expectation) is a plain (n_nodes,) array by node
id: X[tree.leaves] is its terminal value and X[0] its root value.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

# children of one node must carry a conditional distribution
PROB_SUM_TOL = 1e-12
# checks on each non-terminal node's children, in the order they are applied
_CHILD_CHECKS = ("node {} has fewer than 2 branches",
                 "transition probabilities at node {} must lie in (0, 1)",
                 "transition probabilities at node {} do not sum to 1")


class TreeValidationError(ValueError):
    """A tree specification violates the market invariants."""


class AdmissibilityViolation(RuntimeError):
    """A fraction strategy drives wealth to zero or below somewhere."""


class ScenarioTree:
    """Non-recombining event tree with an adapted, strictly positive price process.

    Attributes
    ----------
    parent : (n,) int array, -1 at the root
    time : (n,) int array, 0 at the root
    prob : (n,) float array, one-step transition probability from the parent
        (1.0 at the root)
    prices : (n, d) float array
    levels : list of int arrays, levels[t] are the node ids at date t, ascending
    child_blocks : per date 0..T-1, one (nodes, kids) block per child count c:
        the date's nodes with c children, ascending, and their (k, c) child ids;
        every walk over a node's children goes through these blocks
    count_blocks : per child count c, ascending, one (nodes, kids) block that
        stacks every date's block of that count, dates in order; for per-node
        work that needs no date order (the one-step geometry)
    leaves : int array of node ids at the terminal date
    nonterminal : int array of the other node ids, ascending
    column : (n,) int array, the row of each non-terminal node in stacked
        per-node arrays (column[nonterminal[k]] = k), -1 at the leaves
    paths : (L, T+1) int array, paths[k] is the node path from root to leaf k
    path_prob : (n,) float array, probability of reaching each node under the
        tree's own measure

    Every array is read-only: a tree never changes after construction.
    """

    def __init__(self, parent, time, prob, prices):
        # copies, so freezing them below never touches the caller's arrays
        parent = np.array(parent, dtype=np.int64)
        time = np.array(time, dtype=np.int64)
        prob = np.array(prob, dtype=float)
        prices = np.array(prices, dtype=float)
        if prices.ndim == 1:
            prices = prices[:, None]
        n = parent.shape[0]
        if not (time.shape == (n,) and prob.shape == (n,) and prices.shape[0] == n):
            raise TreeValidationError("node arrays have inconsistent lengths")
        if n == 0 or parent[0] != -1 or time[0] != 0:
            raise TreeValidationError("first node must be the root (parent -1, time 0)")
        if np.any(parent[1:] < 0) or np.any(parent[1:] >= np.arange(1, n)):
            raise TreeValidationError("nodes must be topologically ordered")
        if not np.all(np.isfinite(prices) & (prices > 0.0)):
            raise TreeValidationError("prices must be strictly positive")
        if np.any(time[1:] != time[parent[1:]] + 1):
            raise TreeValidationError("child time must be parent time + 1")

        self.parent = parent
        self.time = time
        self.prob = prob
        self.prices = prices
        self.n_nodes = n
        self.n_assets = prices.shape[1]
        self.horizon = int(time.max())

        # a stable sort by parent lists each node's children in ascending id order
        n_children = np.bincount(parent[1:], minlength=n)
        by_parent = np.argsort(parent[1:], kind="stable") + 1
        first_child = np.cumsum(n_children) - n_children
        self.levels = np.split(np.argsort(time, kind="stable"),
                               np.cumsum(np.bincount(time))[:-1])

        is_leaf = n_children == 0
        if np.any(is_leaf & (time != self.horizon)):
            raise TreeValidationError("every non-terminal node needs children")
        # one child block per date and child count; first failed check per node
        # (0: none) in the order the messages list them; lowest failing node reported
        failed = np.zeros(n, dtype=np.int64)
        blocks = []
        by_count = {}
        for level in self.levels[:-1]:
            counts = n_children[level]
            blocks.append([])
            for c in np.unique(counts):
                nodes = level[counts == c]
                kids = by_parent[first_child[nodes, None] + np.arange(c)]
                blocks[-1].append((nodes, kids))
                by_count.setdefault(c, []).append((nodes, kids))
                # one row per node, so each row sums exactly as a per-node sum does
                p = prob[kids]
                failed[nodes] = 1 if c < 2 else np.select(
                    [~np.all((p > 0.0) & (p < 1.0), axis=1),
                     np.abs(p.sum(axis=1) - 1.0) > PROB_SUM_TOL], [2, 3])
        self.child_blocks = tuple(tuple(level) for level in blocks)
        self.count_blocks = tuple(tuple(map(np.concatenate, zip(*by_count[c])))
                                  for c in sorted(by_count))
        bad = np.flatnonzero(failed)
        if bad.size:
            i = int(bad[0])
            raise TreeValidationError(_CHILD_CHECKS[failed[i] - 1].format(i))
        if not (prob[0] == 1.0):
            raise TreeValidationError("root probability must be 1")

        self.leaves = np.flatnonzero(is_leaf)
        self.nonterminal = np.flatnonzero(~is_leaf)
        self.n_leaves = self.leaves.shape[0]

        # root-to-leaf node paths, one row per leaf
        paths = np.empty((self.n_leaves, self.horizon + 1), dtype=np.int64)
        paths[:, -1] = self.leaves
        for t in range(self.horizon, 0, -1):
            paths[:, t - 1] = parent[paths[:, t]]
        self.paths = paths

        self.path_prob = path_prob = _path_products(self, prob)

        # price increment from the parent, per node (root row is zero)
        d_prices = np.zeros_like(prices)
        d_prices[1:] = prices[1:] - prices[parent[1:]]
        self.d_prices = d_prices
        d_returns = np.zeros_like(prices)
        d_returns[1:] = d_prices[1:] / prices[parent[1:]]
        self.d_returns = d_returns

        column = np.full(n, -1, dtype=np.int64)
        column[self.nonterminal] = np.arange(self.nonterminal.shape[0])
        self.column = column

        for a in (parent, time, prob, prices, paths, path_prob, d_prices, d_returns,
                  column, self.leaves, self.nonterminal, *self.levels,
                  *(x for level in self.child_blocks for block in level for x in block),
                  *(x for block in self.count_blocks for x in block)):
            a.flags.writeable = False
        self._cache = {}

    # ------------------------------------------------------------------
    def cached(self, key: str, build):
        """build(self), computed once per `key` and kept for the tree's lifetime."""
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    def market_measure(self) -> "Measure":
        """The tree's own measure, as leaf weights."""
        return Measure(self.path_prob[self.leaves].copy())

    def terminal_prices(self) -> np.ndarray:
        """(L, d) price vectors at the leaves, in leaf order."""
        return self.prices[self.leaves]


def _path_products(tree: ScenarioTree, cond: np.ndarray) -> np.ndarray:
    """Node weights of the measure whose step into node i has probability cond[i]."""
    W = np.ones(tree.n_nodes)
    for nodes in tree.levels[1:]:
        W[nodes] = W[tree.parent[nodes]] * cond[nodes]
    return W


@dataclass(frozen=True)
class Measure:
    """Probability measure given by one weight per leaf (leaf order of the tree)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not np.all(w >= 0.0):
            raise TreeValidationError("measure weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise TreeValidationError("measure weights must sum to 1")

    def is_equivalent(self) -> bool:
        return bool(np.all(self.weights > 0.0))


@dataclass(frozen=True)
class Strategy:
    """Per-node holdings, read at non-terminal nodes only.

    mode 'shares' stores units of each asset; mode 'fractions' stores
    fractions of current wealth per asset.
    """

    values: np.ndarray  # (n_nodes, d)
    mode: str

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", v)
        if self.mode not in ("shares", "fractions"):
            raise ValueError(f"unknown strategy mode {self.mode!r}")

    @staticmethod
    def constant(tree: ScenarioTree, vec, mode: str = "shares") -> "Strategy":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        return Strategy(np.tile(vec, (tree.n_nodes, 1)), mode)

    @staticmethod
    def zero(tree: ScenarioTree, mode: str = "shares") -> "Strategy":
        return Strategy(np.zeros((tree.n_nodes, tree.n_assets)), mode)


# ----------------------------------------------------------------------
# construction


def _number(value, what: str, error=TreeValidationError, kind=float):
    """The entry `what` of a JSON document as a `kind`: a finite int or float,
    whole for kind int.  Raises `error` naming the entry for anything else, such
    as a boolean, a string, NaN, an infinity or an int beyond float range."""
    if (isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and (kind is float or float(value).is_integer())):
        return kind(value)
    raise error(f"{what} must be a finite {'whole ' if kind is int else ''}number, got {value!r}")


def build_tree(spec: dict) -> ScenarioTree:
    """Build a tree from a specification dict; a malformed spec raises
    TreeValidationError and no other error.

    Two forms are accepted: {"lattice": {"s0", "u", "d", "q", "steps"}} for a
    binomial tree expanded into a full (non-recombining) event tree, and
    {"nodes": [{"parent", "prob", "prices"}, ...]} for an explicit node list
    in topological order ("time" entries are optional and derived).  Every
    number goes through `_number`.
    """
    if not (isinstance(spec, dict) and isinstance(spec.get("lattice", {}), dict)):
        raise TreeValidationError("a tree spec and its lattice must be JSON objects")
    if "lattice" in spec:
        lat = spec["lattice"]
        s0, u, d, q = (_number(lat.get(k), f"lattice {k}") for k in ("s0", "u", "d", "q"))
        steps = _number(lat.get("steps"), "lattice steps", kind=int)
        if not u > d:
            raise TreeValidationError("lattice requires u > d")
        if not (0.0 < q < 1.0):
            raise TreeValidationError("lattice probability must lie in (0, 1)")
        if not (s0 > 0.0 and d > 0.0):
            raise TreeValidationError("lattice prices must stay positive")
        return branching_tree(s0, [u, d], [q, 1.0 - q], steps)
    if "nodes" in spec:
        nodes = spec["nodes"]
        if not (isinstance(nodes, list) and all(isinstance(nd, dict) for nd in nodes)):
            raise TreeValidationError("tree nodes must be a list of JSON objects")
        parent, time, prob, prices = [], [], [], []
        for i, nd in enumerate(nodes):
            p = _number(nd.get("parent", -1), f"node {i} parent", kind=int)
            if not (0 <= p < i if i else p == -1):
                raise TreeValidationError(f"node {i} parent must be an earlier node (root: -1)")
            pr = nd.get("prices")
            if not isinstance(pr, list) or not pr or prices and len(pr) != len(prices[0]):
                raise TreeValidationError(f"node {i} prices must list one number per asset")
            parent.append(p)
            time.append(time[p] + 1 if i else 0)
            prob.append(_number(nd.get("prob", 1.0), f"node {i} prob"))
            prices.append([_number(x, f"node {i} price") for x in pr])
        return ScenarioTree(parent, time, prob, prices)
    raise TreeValidationError("tree spec needs a 'lattice' or 'nodes' entry")


def tree_from_file(path) -> ScenarioTree:
    with open(path) as fh:
        return build_tree(json.load(fh))


def branching_tree(s0, factors, probs, steps: int) -> ScenarioTree:
    """Tree applying the same multiplicative branch factors at every node.

    `s0` may be a scalar (one asset) or a vector; `factors` is a sequence of
    per-branch multipliers (scalars, or vectors matching s0).  Raises
    TreeValidationError for fewer than one step.
    """
    if steps < 1:
        raise TreeValidationError(f"tree steps must be at least 1, got {steps}")
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    factors = [np.atleast_1d(np.asarray(f, dtype=float)) for f in factors]
    probs = np.asarray(probs, dtype=float)
    if len(factors) != probs.shape[0]:
        raise TreeValidationError("factors and probs must pair up")
    F = np.vstack([np.broadcast_to(f, s0.shape) for f in factors])
    # level by level: parents in id order, each parent's children in branch order
    parent, prob, prices = [np.array([-1])], [np.ones(1)], [s0[None, :]]
    for _ in range(steps):
        k = prices[-1].shape[0]
        first = sum(p.size for p in parent) - k
        parent.append(np.repeat(np.arange(first, first + k), len(factors)))
        prob.append(np.tile(probs, k))
        prices.append((prices[-1][:, None, :] * F).reshape(-1, s0.shape[0]))
    time = np.repeat(np.arange(steps + 1), [p.size for p in parent])
    return ScenarioTree(np.concatenate(parent), time, np.concatenate(prob), np.vstack(prices))


# ----------------------------------------------------------------------
# measure plumbing


def _child_sums(tree: ScenarioTree, cond, Y: np.ndarray, out=None) -> np.ndarray:
    """E[Y_child | node], i.e. cond[ch] @ Y[ch], at every non-terminal node for Y
    of shape (n,) or (n, d); with cond None, the plain child sum, last id first.
    One batched `@` per child block runs the per-node product's BLAS kernel, so
    both forms match the per-node loops bit for bit.  A new result is zero at
    the leaves.  Dates run last first: with out=Y each date reads the values
    just written for the date below it (backward induction)."""
    out = np.zeros(Y.shape) if out is None else out
    for level in reversed(tree.child_blocks):
        for nodes, kids in level:
            if cond is None:
                total = sum(Y[kids[:, j]] for j in range(kids.shape[1] - 1, -1, -1))
            else:
                total = np.matmul(cond[kids][:, None, :], Y[kids].reshape(kids.shape + (-1,)))
            out[nodes] = total.reshape(nodes.shape + Y.shape[1:])
    return out


def node_weights(tree: ScenarioTree, m: Measure) -> np.ndarray:
    """Probability of passing through each node under m (leaf weights summed up)."""
    w = np.zeros(tree.n_nodes)
    w[tree.leaves] = m.weights
    return _child_sums(tree, None, w, out=w)


def conditional_probs(tree: ScenarioTree, m: Measure):
    """One-step transition probabilities under m.

    Returns (W, cond): node weights, and an (n,) array parallel to `tree.prob`
    with cond[i] = W[i] / W[parent[i]] (1 at the root).  Below nodes m never
    reaches it holds the tree's own transition probabilities; they carry zero
    weight in any expectation under m.
    """
    W = node_weights(tree, m)
    cond = tree.prob.copy()
    child = np.flatnonzero(W[tree.parent[1:]] > 0.0) + 1
    cond[child] = W[child] / W[tree.parent[child]]
    return W, cond


def conditional_expectation(tree: ScenarioTree, m: Measure, terminal) -> np.ndarray:
    """Backward conditional expectation of terminal leaf values under m.

    `terminal` holds one value per leaf.  The result holds E_m[x | node] at
    every node; its root entry is the unconditional expectation.
    """
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (tree.n_leaves,):
        raise ValueError("terminal values must give one entry per leaf")
    _, cond = conditional_probs(tree, m)
    val = np.zeros(tree.n_nodes)
    val[tree.leaves] = terminal
    return _child_sums(tree, cond, val, out=val)


def martingale_residual(tree: ScenarioTree, m: Measure) -> float:
    """Worst one-step drift of the price process under m.

    Maximum over reachable non-terminal nodes and assets of
    |E_m[S_{t+1} - S_t | node]|.  Zero (up to tolerance) characterises the
    martingale measures of the tree.
    """
    W, cond = conditional_probs(tree, m)
    live = tree.nonterminal[W[tree.nonterminal] > 0.0]
    return float(np.abs(_child_sums(tree, cond, tree.d_prices)[live]).max(initial=0.0))


# ----------------------------------------------------------------------
# wealth dynamics


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] per row, by the dot kernel of a 1-D `@` and so bit for bit
    equal to it (einsum or a summed product round differently once d > 1)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def wealth_additive(tree: ScenarioTree, strategy: Strategy, x0: float = 0.0) -> np.ndarray:
    """Wealth of a share strategy: X_child = X_node + H_node . (S_child - S_node)."""
    if strategy.mode != "shares":
        raise ValueError("wealth_additive needs a 'shares' strategy")
    step = np.empty(tree.n_nodes)
    step[1:] = _row_dot(strategy.values[tree.parent[1:]], tree.d_prices[1:])
    X = np.empty(tree.n_nodes)
    X[0] = x0
    for nodes in tree.levels[1:]:
        X[nodes] = X[tree.parent[nodes]] + step[nodes]
    return X


def wealth_multiplicative(tree: ScenarioTree, strategy: Strategy, x0: float) -> np.ndarray:
    """Wealth of a fraction strategy: X_child = X_node * (1 + pi_node . dR_child).

    Raises AdmissibilityViolation at the lowest node id where wealth leaves (0, inf).
    """
    if strategy.mode != "fractions":
        raise ValueError("wealth_multiplicative needs a 'fractions' strategy")
    if x0 <= 0.0:
        raise AdmissibilityViolation("initial wealth must be strictly positive")
    growth = np.empty(tree.n_nodes)
    growth[1:] = 1.0 + _row_dot(strategy.values[tree.parent[1:]], tree.d_returns[1:])
    bad = np.flatnonzero(growth[1:] <= 0.0)
    if bad.size:
        i = int(bad[0]) + 1
        raise AdmissibilityViolation(
            f"wealth becomes nonpositive at node {i} (growth factor {growth[i]:.6g})")
    X = np.empty(tree.n_nodes)
    X[0] = x0
    for nodes in tree.levels[1:]:
        X[nodes] = X[tree.parent[nodes]] * growth[nodes]
    return X


# ----------------------------------------------------------------------
# strategy geometry


def bracket_distance(tree: ScenarioTree, m: Measure, a: Strategy, b: Strategy) -> float:
    """Predictable quadratic bracket of the gains difference of two strategies.

    Sum over dates of E_m[(a-b)' Cov_m(increment | node) (a-b)], where the
    increment is the price change for share strategies and the simple return
    for fraction strategies.  Both strategies must be in the same mode; for
    mixed comparisons convert to comparable units first.
    """
    if a.mode != b.mode:
        raise ValueError("bracket_distance needs strategies in the same mode")
    inc = tree.d_prices if a.mode == "shares" else tree.d_returns
    W, cond = conditional_probs(tree, m)
    delta = a.values - b.values
    # inc[child] . delta[parent] per block, by the per-node matrix-vector kernel
    proj = np.zeros(tree.n_nodes)
    for level in tree.child_blocks:
        for nodes, kids in level:
            proj[kids] = np.matmul(inc[kids], delta[nodes][:, :, None])[:, :, 0]
    mean = _child_sums(tree, cond, proj)
    # centered quadratic form, kept nonnegative term by term
    spread = _child_sums(tree, cond, (proj - mean[tree.parent]) ** 2)
    live = tree.nonterminal[W[tree.nonterminal] > 0.0]
    # a running sum in ascending id, as the per-node loop adds the terms
    return float(np.cumsum(np.append(0.0, W[live] * spread[live]))[-1])
