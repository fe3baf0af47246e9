"""Terminal-wealth utility maximization on the real line, and its dual side.

The primal problem is sup_H E_P[U((H.S)_T + xi)] over all per-node share
strategies; nothing constrains the strategy, so the optimum is the unique
stationary point of a smooth strictly concave function of the stacked
holdings.  Newton minimizes the shortfall E_P[U(inf) - U] >= 0 from each
node's one-step exponential optimum (the whole optimum on an iid tree with no
endowment) and stops on the Newton decrement relative to the shortfall
(`DECREMENT`), a rule that cash translation, price units and the utility's
scale leave unchanged.

The dual side: leaf weights proportional to P * U'(terminal wealth) form the
optimal martingale measure, and the entropy-minimal measure is computed
independently by a Newton iteration over the cone of unnormalized
martingale measures.  It starts at the product of each node's one-step
exponential measure, scaled to the exponential optimum's y, which is the
optimal pair itself for exponential utility on an iid tree.  Martingale
measures are products of one-step ones, so viability, the supermartingale
certificate and price bounds come from the few vertices of each node's
one-step polytope, with no global LP.

One damped-Newton core, `_newton`, serves the primal, the entropy dual, and
the fraction solver and the opportunity process of `positive`: Newton steps
with a steepest-descent fallback, and a backtracking Armijo search.  One
one-step kernel, `_one_step_min`, serves the opportunity process (power
integrand, stopped by OPPORTUNITY_TOL) and the starts, `_one_step_start`,
stopped by the `DECREMENT` rule: the fraction solver's (power integrand) and
that of the primal and the entropy dual (exponential integrand).  Each
solver supplies one evaluation per point, the value and a closure over its
intermediates that gives the gradient, residual and step, so no point is
evaluated twice.  The primal, the fraction solver and the entropy dual
share one Newton system, min sum_l (a_l/2) s_l^2 + b_l s_l +
sum_n h_n' E_n h_n / 2, s_l the gains of the step along leaf l's path, its
moves given per node: the entropy dual's step is equality-constrained
Newton on the measure, whose multiplier solves that system.  The gains
belong to one layout per kind of move, `_Moves`, the one reader of the leaf
paths, and only this module picks the route: on small trees (K*d up to
DENSE_NEWTON_MAX) the solvers factor the dense (K*d)^2 matrix built from the
(L, K*d) gains matrix; on larger ones `_tree_step` solves the system exactly
by one backward Riccati pass over the child blocks and one forward pass, in
O(K*d^3) and a few numpy calls per date, and every product with the gains
takes one step per node, so no (L, K*d) array is built.
Per-node arrays of the system are stacked in `tree.column` order.  Each node
holds its assets in a frame from the SVD of its children's moves, the
identity where they have full rank (where their Gram matrix is well
conditioned, without the SVD); holdings the moves cannot see get no
gradient and a unit diagonal, so they stay zero.  The one-step kernel uses
the same frames.  Both solve their blocks by `_dense_step`: least squares
where singular, a division where 1x1 (one asset).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations

import numpy as np

from .market import (Measure, ScenarioTree, Strategy, _child_sums, _path_products,
                     conditional_probs, martingale_residual, wealth_additive)
from .utilities import UtilityOnR

__all__ = [
    "PrimalSolution", "DualMeasure", "OptimalityReport",
    "NoMartingaleMeasure", "NonConvergence",
    "solve_primal", "extract_dual", "minimal_entropy_measure",
    "generalized_entropy", "verify_optimality",
    "martingale_price_bounds",
]

GRAD_TOL = 1e-12      # absolute gradient sup-norm of the entropy dual on G' mu = 0
OPPORTUNITY_TOL = 1e-13   # per node: gradient sup-norm relative to its value * max(1, -p)
NEWTON_STEPS = 200
DENSE_NEWTON_MAX = 64     # K*d up to which primal and fraction steps factor the dense Hessian
VERTEX_TOL = 1e-12    # one-step vertex: drift over the node's largest move, least weight
DUAL_TOL = 1e-8       # martingale residual above which extract_dual rejects its measure
PROBE_TOL = 1e-8      # martingale residual above which a probe measure is rejected


class NoMartingaleMeasure(RuntimeError):
    """No (equivalent) martingale measure; names the first arbitrage node and its date."""


class NonConvergence(RuntimeError):
    """An iteration stopped above its residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.message = message
        self.residual = residual


@dataclass(frozen=True)
class PrimalSolution:
    """Optimal share strategy for a real-line problem.

    wealth, one entry per node, starts at 0; the initial capital sits inside
    the endowment.
    `total` holds terminal wealth plus endowment per leaf, the argument the
    marginal utility is evaluated at.  `shortfall` is E_P[U(inf) - U(total)]
    >= 0, the objective the solver minimized, and `value` is E_P[U(total)].
    """

    strategy: Strategy
    wealth: np.ndarray
    value: float
    shortfall: float
    endowment: np.ndarray
    total: np.ndarray
    gradient_norm: float
    iterations: int


@dataclass(frozen=True)
class DualMeasure:
    """A candidate optimal dual pair: martingale measure plus scale y > 0."""

    measure: Measure
    y: float
    residual: float


@dataclass(frozen=True)
class OptimalityReport:
    first_order_residual: float
    martingale_defect: float
    supermartingale_slack: float
    probe_slacks: np.ndarray


# ----------------------------------------------------------------------
# geometry shared by primal and dual


def _node_vertices(tree: ScenarioTree):
    """Per child block, date by date, (nodes, kids, verts), cached on the tree
    as "node_vertices": verts (k, m, c) holds each node's m candidate vertices
    of M_n = {q >= 0, 1'q = 1, dS_children' q = 0} as child weights, zero
    rows where not a vertex.

    A candidate solves [dS_S'; 1'] q = e_{d+1} on a support S of at most d+1
    children, moves over the node's largest |dS|.  One child is a vertex, of
    weight exactly 1, where its move is at most VERTEX_TOL.  A larger support
    takes one batched SVD per child count and |S|, every date stacked (the
    tree's `count_blocks`): a vertex if S has full rank, its least singular
    value above (d + 1) * eps * sigma_max, and the drift and every weight
    clear VERTEX_TOL (so only on its own S).
    """
    d = tree.n_assets
    e = np.eye(d + 1)[d]
    out = []
    for nodes, kids in tree.count_blocks:
        k, c = kids.shape
        dS = tree.d_prices[kids]
        dS = dS / np.maximum(np.abs(dS).max(axis=(1, 2)), np.finfo(float).tiny)[:, None, None]
        verts = [(np.abs(dS).max(axis=2) <= VERTEX_TOL)[:, :, None] * np.eye(c)]
        for s in range(2, min(d + 1, c) + 1):
            supp = np.array(list(combinations(range(c), s)))
            m = len(supp)
            M = np.concatenate([dS[:, supp].transpose(0, 1, 3, 2), np.ones((k, m, 1, s))],
                               axis=2)
            u, sv, vh = np.linalg.svd(M, full_matrices=False)
            good = sv[..., -1] > (d + 1) * np.finfo(float).eps * sv[..., 0]
            # pseudo-inverse times e_{d+1}, plus one refinement step
            pinv = np.divide(vh, sv[..., None], out=np.zeros_like(vh),
                             where=good[..., None, None]).swapaxes(-1, -2) @ u.swapaxes(-1, -2)
            q = pinv[..., d]
            q += (pinv @ (e - (M @ q[..., None])[..., 0])[..., None])[..., 0]
            q /= np.where(good, q.sum(axis=-1), 1.0)[..., None]
            drift = np.abs(np.matmul(q[..., None, :], dS[:, supp])[..., 0, :]).max(axis=-1)
            good &= (drift <= VERTEX_TOL) & np.all(q > VERTEX_TOL, axis=-1)
            verts.append(np.zeros((k, m, c)))
            verts[-1][:, np.arange(m)[:, None], supp] = np.where(good[..., None], q, 0.0)
        verts = np.concatenate(verts, axis=1)
        verts.flags.writeable = False
        # back to the dates' blocks, which the stack holds date by date
        cuts = np.flatnonzero(np.diff(tree.time[nodes])) + 1
        out += zip(np.split(nodes, cuts), np.split(kids, cuts), np.split(verts, cuts))
    return sorted(out, key=lambda block: (tree.time[block[0][0]], block[1].shape[1]))


def assert_market_viable(tree: ScenarioTree) -> None:
    """NoMartingaleMeasure naming the lowest node with a child on no vertex's
    support, if there is one.  Otherwise every node's vertex centroid is
    positive, and their product is an equivalent martingale measure.  Decided
    once per tree: the failing node (n_nodes if none) is kept on the tree."""
    node = tree.cached("arbitrage_node", lambda t: min(
        int(nodes[~verts.any(axis=1).all(axis=1)].min(initial=t.n_nodes))
        for nodes, _, verts in t.cached("node_vertices", _node_vertices)))
    if node < tree.n_nodes:
        raise NoMartingaleMeasure("tree admits no equivalent martingale measure: one-step "
                                  f"arbitrage at node {node} (date {tree.time[node]})")


# ----------------------------------------------------------------------
# damped Newton core


def _dense_step(hess, grad):
    """The Newton step -hess^-1 grad by LU, for one matrix or a stack of
    independent blocks; grad holds one column or more per matrix, (..., n, m).
    A singular matrix takes the least-squares (minimum-norm) step, block by
    block.  1x1 blocks divide, bit for bit LAPACK's step with one column, and
    a zero block takes the least-squares step 0."""
    if hess.shape[-1] == 1:
        return np.divide(-grad, hess, out=np.zeros(grad.shape), where=hess != 0.0)
    try:
        return np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return -(np.linalg.pinv(hess) @ grad)


@dataclass(frozen=True)
class _Decrement:
    """The scale-free stop for an objective f >= 0 computed without
    cancellation (Boyd & Vandenberghe, Convex Optimization, 9.5.1): with
    lambda^2 = -grad . step the Newton decrement, stop once lambda^2 <=
    stop * f, after taking that step, and take full steps without the
    sufficient-decrease test once lambda^2 <= full * f, where f rounds flat
    (a step to an infeasible point is still halved).  lambda^2 / f is
    invariant under affine changes of the variables and under scaling f."""

    stop: float
    full: float


DECREMENT = _Decrement(stop=1e-24, full=1e-14)


def _newton(x, evaluate, tol, what):
    """Minimize a smooth convex function by damped Newton steps.

    evaluate(x) returns (value, derivatives): the value, inf where x is
    infeasible, and a zero-argument callable over that evaluation's
    intermediates returning (grad, residual, step), step a zero-argument
    callable giving the Newton direction, so a converged iterate need not
    build its system.  Each point is evaluated once: an accepted line-search
    candidate keeps its derivatives.  Stops once residual <= tol or, where
    tol is a `_Decrement`, by that rule, the residual then being |lambda^2| / f
    (the derivatives' own is not read) and the value the one before the last
    step.  Below the rule's `full` bound the line search takes its first
    finite candidate, the full step if that is feasible.  Otherwise a
    direction that is not a finite descent direction falls back to the
    scaled steepest-descent step.
    Returns (x, value, residual, iterations); raises NonConvergence when the
    start value is not finite, the line search stalls or NEWTON_STEPS steps
    do not reach the tolerance.
    """
    decrement = isinstance(tol, _Decrement)
    val, derivatives = evaluate(x)
    if not np.isfinite(val):
        raise NonConvergence(f"{what} start value is not finite", np.inf)
    for it in range(1, NEWTON_STEPS + 1):
        grad, residual, newton_step = derivatives()
        if not decrement and residual <= tol:
            return x, val, residual, it
        step = newton_step()
        slope = float(grad @ step)
        if decrement:
            # lambda^2 >= 0 but for rounding, which may give either sign
            residual = abs(slope) / val if val > 0.0 else abs(slope)
            if residual <= tol.stop:
                # the step changes the value by lambda^2 / 2, below its rounding
                return x + step, val, residual, it
        full = decrement and residual <= tol.full
        if not full and (not np.isfinite(slope) or slope >= 0.0):
            step = -grad / max(1.0, float(np.max(np.abs(grad))))
            slope = float(grad @ step)
        # backtracking line search with a noise cushion for the flat tail
        stepsize = 1.0
        cushion = 1e-15 * (1.0 + abs(val))
        while stepsize >= 1e-14:
            cand = x + stepsize * step
            valc, derivc = evaluate(cand)
            if valc < np.inf if full else valc <= val + 1e-4 * stepsize * slope + cushion:
                x, val, derivatives = cand, valc, derivc
                break
            stepsize *= 0.5
        else:
            raise NonConvergence(f"{what} line search stalled", residual)
    raise NonConvergence(f"{what} Newton did not reach gradient tolerance", residual)


def _one_step_min(cond, dR, Lc, p, extra, tol=DECREMENT):
    """Per node n of a block, min over x_n of sum_c cond * Lc * f(x_n . dR_c).

    cond and Lc are (k, c), dR is (k, c, d).  The integrand f is the power
    (1 + z)^p, convex for p < 0, or for p None the exponential exp(-z).  The
    nodes are independent: one Newton iteration over the stacked (k*d,) x
    whose steps are one batched (k, d, d) solve, extra (k, d, d) added to
    each Hessian.  It stops by `tol`: the `DECREMENT` rule (the starts), or
    OPPORTUNITY_TOL on the worst node's gradient relative to its value *
    max(1, -p) (the opportunity process).  Returns the (k,) values and (k, d)
    minimizers.
    """
    k, _, d = dR.shape
    w0 = cond * Lc
    expo = p is None
    # f' = lead * f / g and f'' = curv * f / g^2, g = 1 + z (1 for exp(-z))
    lead, curv = (-1.0, 1.0) if expo else (p, p * (p - 1.0))

    def moves(x):
        return np.matmul(dR, x.reshape(k, d, 1))[..., 0]

    def evaluate(x):
        z = moves(x)
        if not expo and np.any(z <= -1.0):
            return np.inf, None

        def derivatives():
            g = np.ones_like(z) if expo else 1.0 + z
            gp = w0 * (np.exp(-z) if expo else g ** p)
            w = dR / g[..., None]
            grad = lead * np.matmul(gp[:, None, :], w)[:, 0]
            scale = np.maximum(gp.sum(axis=1), 1e-300) * max(1.0, -lead)

            def step():
                hess = curv * np.matmul(w.transpose(0, 2, 1), w * gp[..., None]) + extra
                return _dense_step(hess, grad[..., None]).ravel()

            return grad.ravel(), float(np.max(np.max(np.abs(grad), axis=1) / scale)), step

        # exp(p log1p(z)) is accurate to an ulp or so; g**p would multiply the
        # rounding of g = 1 + z by |p|, past the line search's noise cushion
        with np.errstate(over="ignore"):
            return float((w0 * np.exp(-z if expo else p * np.log1p(z))).sum()), derivatives

    x = _newton(np.zeros(k * d), evaluate, tol,
                "predictor" if tol is DECREMENT else "opportunity")[0].reshape(k, d)
    z = moves(x)
    return (w0 * (np.exp(-z) if expo else (1.0 + z) ** p)).sum(axis=1), x


# ----------------------------------------------------------------------
# the Newton system of the primal and the fraction solver


@dataclass(frozen=True)
class _Moves:
    """One kind of per-node move (price or return increments) laid out for
    the stacked holdings h (K, d) of the non-terminal nodes, row
    `tree.column` of each.

    Each node holds its assets in a frame: the right singular vectors of its
    children's moves, the identity where those have full rank: every
    singular value above max(c, d) * eps * sigma_max.  `node` is each node's
    move in its parent's frame, the components outside the row space set to
    exactly 0; `null` marks those redundant holdings and `unit` (K, d, d)
    puts 1 on their diagonals.  Every layout carries all three: a full-rank
    node has the identity frame, no null holding and a zero unit block.
    `up` is the column of each non-root node's parent and `paths` the tree's
    own root-to-leaf paths, the one array with a leaf axis; every product
    with the gains takes per-node moves (n, m).  `dense` is the (L, K*d)
    gains matrix of `node`, built on first use (the dense route only).
    """

    node: np.ndarray
    up: np.ndarray
    paths: np.ndarray
    frames: np.ndarray
    null: np.ndarray
    unit: np.ndarray

    def path_sum(self, v):
        """Per leaf, the sum of the per-node v (n,) along its path (v[0] is 0)."""
        return np.einsum("lt->l", v[self.paths])

    def gains(self, h, move):
        """The gains matrix of the per-node moves move (n, d) times the stacked
        holdings h: each node's step h[up] . move, summed along the paths."""
        step = np.einsum("nd,nd->n", h.reshape(-1, move.shape[1])[self.up], move[1:])
        return self.path_sum(np.concatenate(([0.0], step)))

    def adjoint(self, r, move):
        """The transposed gains matrix of the per-node moves move (n, m) times
        the leaf vector r, (K*m,): each node's sum of r over the leaves below
        it, times its move, added into its parent's column."""
        below = self.paths[:, 1:]
        R = np.bincount(below.ravel(), np.repeat(r, below.shape[1]), len(move))
        m = move.shape[1]
        return np.bincount((self.up[:, None] * m + np.arange(m)).ravel(),
                           (R[1:, None] * move[1:]).ravel(), len(self.null) * m)

    def matrix(self, move):
        """The (L, K*m) gains matrix of the per-node moves move (n, m): row l
        holds the move into each child on leaf l's path in the columns of its
        parent."""
        kids = self.paths[:, 1:]
        A = np.zeros((len(kids), len(self.null), move.shape[1]))
        # a node occurs at most once on a path, so every entry is written once
        A[np.arange(len(kids))[:, None], self.up[kids - 1]] = move[kids]
        return A.reshape(len(kids), -1)

    @cached_property
    def dense(self):
        A = self.matrix(self.node)
        A.flags.writeable = False
        return A

    def to_frame(self, h):
        """(K, d) holdings in the node frames, redundant ones dropped."""
        z = np.matmul(h[:, None, :], self.frames)[:, 0]
        z[self.null] = 0.0
        return z

    def from_frame(self, z):
        return np.matmul(self.frames, z[..., None])[..., 0]


def _layout(tree: ScenarioTree, move: np.ndarray) -> _Moves:
    """The `_Moves` of the per-node moves `move` (n, d): per child count,
    every date stacked (the tree's `count_blocks`), a screen by each node's
    d x d Gram matrix W'W of its children's moves W, then one batched SVD of
    the nodes it does not clear.  A node whose least Gram eigenvalue exceeds
    1e3 * eps times its largest has sigma_min / sigma_max above 4e-7, far
    above the rank cut, so it keeps the identity frame with no SVD; the SVD
    of each other node is the one it would take in any batch."""
    K, d = tree.nonterminal.shape[0], tree.n_assets
    framed = move.copy()
    frames = np.tile(np.eye(d), (K, 1, 1))
    null = np.zeros((K, d), dtype=bool)
    for nodes, kids in tree.count_blocks:
        W = move[kids]
        ev = np.linalg.eigvalsh(np.matmul(W.transpose(0, 2, 1), W))
        screen = ~(ev[:, 0] > 1e3 * np.finfo(float).eps * ev[:, -1])
        if not screen.any():
            continue
        nodes, kids = nodes[screen], kids[screen]
        _, sv, vh = np.linalg.svd(move[kids])
        rank = np.sum(sv > max(kids.shape[1], d) * np.finfo(float).eps * sv[:, :1], axis=1)
        low = rank < d
        V = vh[low].transpose(0, 2, 1)
        drop = np.arange(d) >= rank[low][:, None]
        framed[kids[low]] = np.where(drop[:, None, :], 0.0, np.matmul(move[kids[low]], V))
        frames[tree.column[nodes[low]]] = V
        null[tree.column[nodes[low]]] = drop
    out = _Moves(framed, tree.column[tree.parent[1:]], tree.paths, frames, null,
                 null[:, :, None] * np.eye(d))
    for a in (out.node, out.up, frames, null, out.unit):
        a.flags.writeable = False
    return out


def _price_moves(tree: ScenarioTree) -> _Moves:
    """The primal's layout of the price increments, cached on the tree."""
    return tree.cached("price_moves", lambda t: _layout(t, t.d_prices))


def _return_moves(tree: ScenarioTree) -> _Moves:
    """The fraction solver's layout of the return increments, cached on the tree."""
    return tree.cached("return_moves", lambda t: _layout(t, t.d_returns))


def _dense_route(tree: ScenarioTree) -> bool:
    """Whether the primal and fraction steps factor the dense (K*d)^2 Hessian
    (K*d <= DENSE_NEWTON_MAX, where that is faster) or run `_tree_step`."""
    return tree.nonterminal.shape[0] * tree.n_assets <= DENSE_NEWTON_MAX


def _tree_step(tree: ScenarioTree, move, a, b, extra):
    """Minimizer h (K*d,) of sum_l (a_l/2) s_l^2 + b_l s_l + sum_n h_n' E_n h_n / 2,
    s_l = sum over the nodes n on leaf l's path of h_n . move[child of n on it].

    One backward Riccati pass over the child blocks, dates last first: a
    node's cost to go is a_n x^2 / 2 + b_n x in the gains x accrued above it,
    a row of the (n, 2) coefficients.  Per block, W the (k, c, d) child moves:
    M = W' diag(a_c) W + E_n, [u v] = W' [a_c b_c], the gain -M^-1 [u v] by
    one `_dense_step`, and [a_n b_n] = sum [a_c b_c] - u' M^-1 [u v].  The
    forward pass reruns the kept blocks, dates in order:
    h_n = -M^-1 (u x_n + v), x_child = x_n + h_n . w_child.  Exact, in
    O(K d^3) and a few numpy calls per block; extra (K, d, d) is E per
    non-terminal node, in `tree.column` order.
    """
    coef = np.zeros((tree.n_nodes, 2))
    coef[tree.leaves, 0] = a
    coef[tree.leaves, 1] = b
    blocks = []
    for level in reversed(tree.child_blocks):
        for nodes, kids in level:
            w = move[kids]
            wt = w.transpose(0, 2, 1)
            ab = coef[kids]
            M = np.matmul(wt, w * ab[..., :1]) + extra[tree.column[nodes]]
            uv = np.matmul(wt, ab)
            gain = _dense_step(M, uv)
            # einsum sums over the children far faster than ab.sum(axis=1)
            coef[nodes] = np.einsum("kcj->kj", ab) + np.matmul(uv[:, None, :, 0], gain)[:, 0]
            blocks.append((nodes, kids, w, gain))
    x = np.zeros(tree.n_nodes)
    h = np.zeros((tree.n_nodes, tree.n_assets))
    for nodes, kids, w, gain in reversed(blocks):
        xn = x[nodes, None]
        h[nodes] = hn = gain[..., 0] * xn + gain[..., 1]
        x[kids] = xn + np.matmul(w, hn[..., None])[..., 0]
    return h[tree.nonterminal].ravel()


def _holding_step(tree: ScenarioTree, moves: _Moves, move, a, b, extra):
    """Newton step of the system above for the per-node moves move (n, d) in
    the frames of the layout `moves`: on the dense route by factoring
    G' diag(a) G + blockdiag(E) against G' b, G the gains matrix of move (the
    cached one when move is the layout's own), else by `_tree_step`."""
    if not _dense_route(tree):
        return _tree_step(tree, move, a, b, extra)
    G = moves.dense if move is moves.node else moves.matrix(move)
    hess = G.T @ (G * a[:, None])
    K, d = extra.shape[:2]
    hess.reshape(K, d, K, d)[np.arange(K), :, np.arange(K), :] += extra
    return _dense_step(hess, (G.T @ b)[:, None])[:, 0]


# ----------------------------------------------------------------------
# primal solver


def _exponential_start(tree: ScenarioTree) -> np.ndarray:
    """Per non-terminal node, in `tree.column` order and the frames of
    `_price_moves`, x*_n = argmin_x sum_c p_c exp(-x . dS_c): the one-step
    optimum of exponential utility with risk aversion 1, so x* / alpha is that
    of risk aversion alpha.  On a tree with iid returns and no endowment it is
    the whole optimum, since exponential holdings do not depend on wealth.
    `_one_step_start` with the exponential integrand; null holdings stay 0.
    Read-only; the primal and the entropy dual start from it."""
    start = _one_step_start(tree, _price_moves(tree), None)
    start.flags.writeable = False
    return start


def _one_step_start(tree: ScenarioTree, moves: _Moves, p: float | None) -> np.ndarray:
    """Per non-terminal node, in `tree.column` order and the frames of
    `moves`, the minimizer of sum_c p_c f(x . move_c) under the tree's
    probabilities, f the `_one_step_min` integrand of p: one `_one_step_min`
    per child count, every date stacked (the tree's `count_blocks`), each
    stopped by the `DECREMENT` rule."""
    x = np.zeros((tree.n_nodes, tree.n_assets))
    for nodes, kids in tree.count_blocks:
        x[nodes] = _one_step_min(tree.prob[kids], moves.node[kids], 1.0, p,
                                 moves.unit[tree.column[nodes]])[1]
    return x[tree.nonterminal]


def solve_primal(tree: ScenarioTree, utility: UtilityOnR, endowment=0.0, *,
                 initial: Strategy | None = None) -> PrimalSolution:
    """Maximize E_P[U((H.S)_T + endowment)] over per-node share strategies.

    endowment may be a constant or one value per leaf.  The Newton iteration
    minimizes the shortfall E_P[U(inf) - U(total)] >= 0 and stops by the
    `DECREMENT` rule.  It starts at `initial` if given, else at each node's
    one-step exponential optimum for the utility's alpha (kept on the tree,
    `_exponential_start`).  gradient_norm is the gradient's sup-norm at the
    strategy returned.
    """
    xi = np.broadcast_to(np.asarray(endowment, dtype=float), (tree.n_leaves,)).copy()
    assert_market_viable(tree)
    moves = _price_moves(tree)
    P = tree.path_prob[tree.leaves]
    K = tree.nonterminal.shape[0]
    d = tree.n_assets
    if _dense_route(tree):
        gains, adjoint = moves.dense.__matmul__, moves.dense.T.__matmul__
    else:
        gains, adjoint = (partial(f, move=moves.node) for f in (moves.gains, moves.adjoint))

    if initial is not None:
        h = moves.to_frame(initial.values[tree.nonterminal].astype(float)).reshape(K * d).copy()
    else:
        h = (tree.cached("exponential_start", _exponential_start) / utility.alpha).ravel()

    def evaluate(hvec):
        total = gains(hvec) + xi

        def derivatives():
            b = -(P * utility.marginal(total))
            # the decrement rule reads no residual
            return adjoint(b), None, lambda: _holding_step(
                tree, moves, moves.node, -(P * utility.curvature(total)), b, moves.unit)

        # a step far out along a loss overflows the shortfall to inf (or nan):
        # the line search rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            return float(P @ utility.shortfall(total)), derivatives

    h, _, _, it = _newton(h, evaluate, DECREMENT, "primal")
    h = moves.from_frame(h.reshape(K, d))
    values = np.zeros((tree.n_nodes, d))
    values[tree.nonterminal] = h
    strategy = Strategy(values, "shares")
    wealth = wealth_additive(tree, strategy, 0.0)
    total = wealth[tree.leaves] + xi
    grad = adjoint(-(P * utility.marginal(total)))
    short = utility.shortfall(total)
    return PrimalSolution(strategy=strategy, wealth=wealth,
                          value=float(P @ (utility.value_at_inf - short)),
                          shortfall=float(P @ short), endowment=xi, total=total,
                          gradient_norm=float(np.max(np.abs(grad), initial=0.0)), iterations=it)


def _hedge(tree: ScenarioTree, q: np.ndarray, claim: np.ndarray) -> np.ndarray:
    """Per-node share holdings (n, d) whose gains best replicate the leaf
    claim C = claim - E_q[claim] under the leaf weights q: the minimizer of
    E_q[(C - (h.S)_T)^2], by one `_holding_step` with a = q and b = -q C.
    Under the dual measure this is the claim's Galtchouk-Kunita-Watanabe
    hedge, the first-order change of the optimal strategy when the claim is
    added; on a complete market, its replicating strategy."""
    moves = _price_moves(tree)
    K, d = tree.nonterminal.shape[0], tree.n_assets
    h = np.zeros((tree.n_nodes, d))
    step = _holding_step(tree, moves, moves.node, q, -q * (claim - q @ claim), moves.unit)
    h[tree.nonterminal] = moves.from_frame(step.reshape(K, d))
    return h


# ----------------------------------------------------------------------
# dual extraction and entropy minimization


def extract_dual(tree: ScenarioTree, utility: UtilityOnR, sol: PrimalSolution) -> DualMeasure:
    """Dual measure with leaf weights P * U'(total wealth), normalized.

    The scale y is the normalizing constant E_P[U'(total)].  Raises
    NonConvergence when the implied measure fails the martingale check at
    DUAL_TOL; a clean primal solve always passes.
    """
    P = tree.path_prob[tree.leaves]
    mu = P * utility.marginal(sol.total)
    y = float(mu.sum())
    q = Measure(mu / y)
    residual = martingale_residual(tree, q)
    if residual > DUAL_TOL:
        raise NonConvergence("dual measure is not a martingale measure", residual)
    return DualMeasure(measure=q, y=y, residual=residual)


def generalized_entropy(tree: ScenarioTree, m: Measure, utility: UtilityOnR) -> float:
    """E_P[V(dm/dP)] for the conjugate V of the given utility."""
    P = tree.path_prob[tree.leaves]
    return float(P @ np.asarray(utility.conjugate(m.weights / P)))


def minimal_entropy_measure(tree: ScenarioTree, utility: UtilityOnR) -> DualMeasure:
    """Minimize the generalized entropy E_P[V(dmu/dP)] over the cone of
    unnormalized martingale measures.

    With mu = y*m, a convex program over {mu >= 0, G' mu = 0}, G the gains,
    whose unique minimizer P * U'(optimal terminal wealth) reproduces
    extract_dual's pair (y = sum(mu), m = mu/y) for every family member,
    without the strategy-space solver.  Newton over mu itself, from y0 * q:
    q the product of each node's one-step exponential measure q_c ~ p_c
    exp(-x*_n . dS_c), x*_n the node's `_exponential_start`, and y0 =
    exp(-E_q[log(q/P)]).  For exponential utility on an iid tree that is the
    optimum at any alpha: the optimal wealth is x* . dS / alpha summed along
    the path, a martingale under q, so y = E_P[exp(-alpha X*)] is y0.
    `assert_market_viable` still checks viability first.  Each step solves
    min F(mu + dmu) to second order subject to G' dmu = 0, F the entropy.  Its
    multiplier lam minimizes sum_l (a_l/2) s_l^2 + b_l s_l, s = G lam, with
    a = P / V''(mu/P) and b = a * V'(mu/P): the primal's system, so
    `_holding_step` solves it on either route.  Then r = V'(mu/P) + G lam is
    the gradient on the martingale set (it differs from V' by a vector of
    range(G), so r . dmu is the slope of any dmu in null(G')), the residual
    is its sup-norm, and the step is -a * r, of slope -sum_l a_l r_l^2 < 0
    while the residual exceeds GRAD_TOL.  A non-finite step comes with a
    non-finite r, so the line search rejects the fallback step -r too, and mu
    never leaves null(G').  The line search keeps mu > 0.
    """
    assert_market_viable(tree)
    P = tree.path_prob[tree.leaves]
    moves = _price_moves(tree)
    # each node's one-step exponential measure q_c ~ p_c exp(-x*_n . dS_c),
    # its exponents shifted by their least so that none overflows
    x = tree.cached("exponential_start", _exponential_start)
    z = np.zeros(tree.n_nodes)
    z[1:] = np.einsum("nd,nd->n", x[moves.up], moves.node[1:])
    cond = np.ones(tree.n_nodes)
    for _, kids in tree.count_blocks:
        w = tree.prob[kids] * np.exp(z[kids].min(axis=1, keepdims=True) - z[kids])
        cond[kids] = w / w.sum(axis=1, keepdims=True)
    q = _path_products(tree, cond)[tree.leaves]
    mu = np.exp(-(q @ np.log(q / P))) * q

    def evaluate(mu):
        if not np.all(mu > 0.0):
            return np.inf, None
        z = mu / P
        x = np.asarray(utility.inverse_marginal(z))

        def derivatives():
            # V'(z) = -I(z) and V''(z) = -1 / U''(I(z))
            a = P / (-1.0 / np.asarray(utility.curvature(x)))
            grad = -x
            lam = _holding_step(tree, moves, moves.node, a, a * grad, moves.unit)
            r = grad + moves.gains(lam, moves.node)
            return r, float(np.max(np.abs(r))), lambda: -a * r

        # V(z) = U(I(z)) - z I(z), as `conjugate` computes it for z > 0
        return float(P @ (np.asarray(utility.value(x)) - z * x)), derivatives

    mu, _, _, _ = _newton(mu, evaluate, GRAD_TOL, "entropy")
    y = float(mu.sum())
    m = Measure(mu / y)
    return DualMeasure(measure=m, y=y, residual=martingale_residual(tree, m))


# ----------------------------------------------------------------------
# optimality verification


def _wealth_martingale_defect(tree: ScenarioTree, m: Measure, X: np.ndarray) -> float:
    W, cond = conditional_probs(tree, m)
    live = tree.nonterminal[W[tree.nonterminal] > 0.0]
    return float(np.abs(_child_sums(tree, cond, X)[live] - X[live]).max(initial=0.0))


def verify_optimality(tree: ScenarioTree, utility: UtilityOnR, sol: PrimalSolution,
                      dual: DualMeasure, probes=()) -> OptimalityReport:
    """First-order and supermartingale certificates for a primal/dual pair.

    Checks (a) the leafwise proportionality y*dQ/dP = U'(total), (b) that the
    wealth process is a martingale under the dual measure, (c) that its
    terminal expectation is <= 0 under every martingale measure: the
    supremum, by one `_cheapest_vertices` pass.  Probes the caller passes
    (None passes none) are rejected where they fail the martingale check at
    PROBE_TOL; their expectations are `probe_slacks`.
    """
    P = tree.path_prob[tree.leaves]
    lhs = dual.y * dual.measure.weights / P
    first_order = float(np.max(np.abs(lhs - np.asarray(utility.marginal(sol.total)))))
    defect = _wealth_martingale_defect(tree, dual.measure, sol.wealth)
    XT = sol.wealth[tree.leaves]
    slacks = []
    for m in probes or ():
        r = martingale_residual(tree, m)
        if r > PROBE_TOL:
            raise ValueError(f"probe measure is not in the martingale polytope (residual {r:.3e})")
        slacks.append(m.weights @ XT)
    return OptimalityReport(
        first_order_residual=first_order,
        martingale_defect=defect,
        supermartingale_slack=-_cheapest_vertices(tree, -XT)[0],
        probe_slacks=np.array(slacks, dtype=float),
    )


# ----------------------------------------------------------------------
# exact backward passes over the martingale polytope


def _cheapest_vertices(tree: ScenarioTree, cost: np.ndarray):
    """(min of cost . q over martingale measures q, cond) by the backward pass
    V_n = min over vertices v of v . V_children, cond[i] the argmin vertex's
    weight on i (its `_path_products` is the minimizer).  V = inf at nodes all
    of whose vertices, if any, reach such nodes; NoMartingaleMeasure at the root."""
    V = np.zeros(tree.n_nodes)
    V[tree.leaves] = cost
    cond = np.ones(tree.n_nodes)
    for nodes, kids, verts in reversed(tree.cached("node_vertices", _node_vertices)):
        finite = np.isfinite(V[kids])
        vals = np.matmul(verts, np.where(finite, V[kids], 0.0)[:, :, None])[:, :, 0]
        vals[~verts.any(axis=2) | np.any((verts > 0.0) & ~finite[:, None, :], axis=2)] = np.inf
        V[nodes] = vals.min(axis=1)
        cond[kids] = verts[np.arange(len(nodes)), vals.argmin(axis=1)]
    if V[0] == np.inf:
        # some node has a child on no vertex's support, so this raises
        assert_market_viable(tree)
    return float(V[0]), cond


def martingale_price_bounds(tree: ScenarioTree, payoff) -> tuple[float, float]:
    """Exact no-arbitrage interval [min, max] of E_m[payoff] over martingale
    measures: two backward passes over the per-node vertices."""
    payoff = np.asarray(payoff, dtype=float)
    if not np.all(np.isfinite(payoff)):
        raise ValueError("payoff must be finite")
    return _cheapest_vertices(tree, payoff)[0], -_cheapest_vertices(tree, -payoff)[0]
