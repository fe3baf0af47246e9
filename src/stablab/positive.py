"""Positive-wealth utility maximization with fraction strategies.

Strategies here are wealth fractions; wealth compounds multiplicatively and
must stay positive, so the solver works in log-wealth and treats any
candidate with a nonpositive growth factor as value minus infinity.  The
gradient certificate is relative to the natural objective scale
sum_l P_l D_l |U'(X_l) X_l|; at strongly negative exponents the absolute
magnitudes are astronomical and an absolute tolerance would be meaningless.

Also here: the backward-recursive opportunity process for pure power
utility (an independent dynamic-programming route to the same optimum), the
terminal-wealth-weighted auxiliary measure, and the ratio diagnostics used
to compare a perturbed investor against the pure power one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropic import _newton, assert_market_viable
from .market import (AdaptedProcess, Measure, ScenarioTree, Strategy, _child_sums,
                     conditional_probs, wealth_multiplicative)
from .utilities import UtilityOnRPlus, make_power

__all__ = [
    "PositiveSolution", "OpportunityProcess", "RatioDiagnostics",
    "solve_power_field", "opportunity_process", "exponential_hedge",
    "share_amounts", "scaled_strategy_distance",
    "auxiliary_measure", "numeraire_audit", "ratio_defects", "ratio_diagnostics",
]

POWER_TOL = 1e-11     # gradient sup-norm relative to sum_l P_l D_l |U'(X_l) X_l|


@dataclass(frozen=True)
class PositiveSolution:
    strategy: Strategy
    wealth: AdaptedProcess
    value: float
    terminal: np.ndarray
    y: float
    gradient_norm: float
    iterations: int


@dataclass(frozen=True)
class OpportunityProcess:
    """Backward dynamic-programming value coefficients for pure power utility.

    values[i] is the node coefficient L_i, so the node value function is
    L_i * x^p / p; y is the marginal value L_0 * x0^(p-1) at the root.
    """

    values: AdaptedProcess
    strategy: Strategy
    value: float
    y: float


@dataclass(frozen=True)
class RatioDiagnostics:
    """Distance diagnostics between a perturbed and the pure power optimum."""

    mean_product: float
    product_bound: float
    r_l1: float
    rp_l1: float
    y_ratio: float
    y_lower: float
    y_upper: float


# ----------------------------------------------------------------------
# fraction-strategy solver


def _path_weights(tree: ScenarioTree, pi: np.ndarray):
    """Log-wealth and sensitivity rows for stacked fractions pi (K*d,).

    Returns (logX, W) with W[l, (k,a)] = dR_a(child)/(1 + pi_k . dR(child))
    for node k on leaf l's path, or (None, None) if some growth factor is
    not positive.
    """
    K = tree.nonterminal.shape[0]
    d = tree.n_assets
    col_of = np.full(tree.n_nodes, -1)
    col_of[tree.nonterminal] = np.arange(K)
    pim = pi.reshape(K, d)
    L = tree.n_leaves
    logX = np.zeros(L)
    W = np.zeros((L, K * d))
    rows = np.arange(L)
    for t in range(tree.horizon):
        nodes = tree.paths[:, t]
        childs = tree.paths[:, t + 1]
        k = col_of[nodes]
        dR = tree.d_returns[childs]
        g = 1.0 + np.einsum("la,la->l", pim[k], dR)
        if np.any(g <= 0.0):
            return None, None
        logX += np.log(g)
        cols = (k * d)[:, None] + np.arange(d)[None, :]
        W[rows[:, None], cols] = dR / g[:, None]
    return logX, W


def solve_power_field(tree: ScenarioTree, utility: UtilityOnRPlus, x0: float = 1.0,
                      field=None) -> PositiveSolution:
    """Maximize sum_l P_l D_l U(X_l) over fraction strategies, X multiplicative.

    `field` weights the leaves (default all ones).  The Newton iteration
    minimizes the negated objective and stops once the gradient, relative
    to the objective's marginal scale, is below POWER_TOL.
    """
    if x0 <= 0.0:
        raise ValueError("initial capital must be positive")
    assert_market_viable(tree)
    P = tree.path_prob[tree.leaves]
    D = np.ones(tree.n_leaves) if field is None else np.asarray(field.weights, dtype=float)
    K = tree.nonterminal.shape[0]
    d = tree.n_assets

    def objective(pvec):
        logX, _ = _path_weights(tree, pvec)
        if logX is None:
            return np.inf
        with np.errstate(over="ignore"):
            val = float(P @ (D * np.asarray(utility.value(np.exp(np.log(x0) + logX)))))
        return -val if np.isfinite(val) else np.inf

    def derivatives(pvec):
        logX, W = _path_weights(tree, pvec)
        X = np.exp(np.log(x0) + logX)
        mXp = P * D * np.asarray(utility.marginal(X)) * X
        grad = -(W.T @ mXp)
        gnorm = float(np.max(np.abs(grad))) / float(np.sum(np.abs(mXp))) if grad.size else 0.0

        def hessian():
            cA = P * D * np.asarray(utility.curvature(X)) * X * X
            hess = W.T @ (W * (cA + mXp)[:, None])
            # same-node second derivatives of X vanish (each node hits a path once)
            for k in range(K):
                Wk = W[:, k * d:(k + 1) * d]
                hess[k * d:(k + 1) * d, k * d:(k + 1) * d] -= Wk.T @ (Wk * mXp[:, None])
            return -hess

        return grad, gnorm, hessian

    pi, val, gnorm, it = _newton(np.zeros(K * d), objective, derivatives, POWER_TOL, "fraction")
    values = np.zeros((tree.n_nodes, d))
    values[tree.nonterminal] = pi.reshape(K, d)
    strategy = Strategy(values, "fractions")
    wealth = wealth_multiplicative(tree, strategy, x0)
    terminal = wealth.at_leaves(tree)
    y = float(np.sum(P * D * np.asarray(utility.marginal(terminal)) * terminal)) / x0
    return PositiveSolution(strategy=strategy, wealth=wealth, value=-val,
                            terminal=terminal, y=y, gradient_norm=gnorm, iterations=it)


# ----------------------------------------------------------------------
# opportunity process (pure power, dynamic programming)


def _node_power_min(cond, dR, Lc, p, tol=1e-13, max_iter=100):
    """min over pi of sum_c cond_c * Lc_c * (1 + pi.dR_c)^p; convex for p < 0."""
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
            break
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
            break
    return val, pi


def opportunity_process(tree: ScenarioTree, p: float, x0: float = 1.0,
                        field=None) -> OpportunityProcess:
    """Backward recursion for the pure power problem; independent of the
    stacked-Newton solver.

    Terminal coefficients are the field weights (ones by default); each
    non-terminal node solves a small convex minimization over its one-step
    fraction.  The recovered strategy attains the global optimum, which the
    forward solver must match.
    """
    if p >= 0.0:
        raise ValueError("exponent must be negative")
    Lvals = np.zeros(tree.n_nodes)
    if field is None:
        Lvals[tree.leaves] = 1.0
    else:
        Lvals[tree.leaves] = np.asarray(field.weights, dtype=float)
    frac = np.zeros((tree.n_nodes, tree.n_assets))
    _, cond = conditional_probs(tree, tree.market_measure())
    for i in tree.nonterminal[::-1]:
        ch = tree.children[i]
        val, pi = _node_power_min(cond[ch], tree.d_returns[ch], Lvals[ch], p)
        Lvals[i] = val
        frac[i] = pi
    value = Lvals[0] * x0 ** p / p
    return OpportunityProcess(values=AdaptedProcess(Lvals),
                              strategy=Strategy(frac, "fractions"),
                              value=float(value), y=float(Lvals[0] * x0 ** (p - 1.0)))


# ----------------------------------------------------------------------
# exponential hedge and strategy comparison


def exponential_hedge(tree: ScenarioTree, utility, claim=0.0, x0: float = 0.0, **kw):
    """Entropic hedge of a terminal claim: solve the real-line problem with
    endowment x0 - claim.  Returns the underlying PrimalSolution."""
    from .entropic import solve_primal
    B = np.broadcast_to(np.asarray(claim, dtype=float), (tree.n_leaves,))
    return solve_primal(tree, utility, x0 - B, **kw)


def share_amounts(tree: ScenarioTree, strategy: Strategy) -> np.ndarray:
    """Money positions H_i * S_i per node for a share strategy."""
    if strategy.mode != "shares":
        raise ValueError("share_amounts expects a share strategy")
    return strategy.values * tree.prices


def scaled_strategy_distance(tree: ScenarioTree, p: float, fractions: Strategy,
                             hedge: Strategy) -> float:
    """sup-node distance between (1-p) * fractions and the hedge's money
    positions, over non-terminal nodes."""
    if fractions.mode != "fractions":
        raise ValueError("first strategy must be in fractions")
    amounts = share_amounts(tree, hedge)
    diff = (1.0 - p) * fractions.values - amounts
    return float(np.max(np.abs(diff[tree.nonterminal])))


# ----------------------------------------------------------------------
# auxiliary measure and ratio diagnostics


def auxiliary_measure(tree: ScenarioTree, utility: UtilityOnRPlus,
                      sol: PositiveSolution, field=None) -> Measure:
    """Leaf measure with weights proportional to P * D * U'(X_T) * X_T."""
    P = tree.path_prob[tree.leaves]
    D = np.ones(tree.n_leaves) if field is None else np.asarray(field.weights, dtype=float)
    w = P * D * np.asarray(utility.marginal(sol.terminal)) * sol.terminal
    return Measure(w / w.sum())


def _admissible_box(tree: ScenarioTree) -> np.ndarray:
    """Per-node, per-asset symmetric fraction bounds keeping growth positive
    when the whole box is used (bound split across assets)."""
    box = np.zeros(tree.d_returns.shape)
    for level in tree.child_blocks:
        for nodes, kids in level:
            amax = np.max(np.abs(tree.d_returns[kids]), axis=1)
            amax[amax == 0.0] = 1.0
            box[nodes] = 1.0 / (amax * tree.n_assets)
    return box


def _random_wealth(tree: ScenarioTree, rng, x0: float, shrink: float = 0.6) -> AdaptedProcess:
    box = _admissible_box(tree)
    pi = rng.uniform(-1.0, 1.0, size=box.shape) * box * shrink
    return wealth_multiplicative(tree, Strategy(pi, "fractions"), x0)


@dataclass(frozen=True)
class NumeraireAudit:
    max_expectation: float
    max_super_defect: float
    min_sub_defect: float


def ratio_defects(tree: ScenarioTree, aux: Measure, wealth: AdaptedProcess,
                  tilde: AdaptedProcess, p: float) -> tuple[float, float]:
    """One-step defects of r = wealth/tilde under aux.

    Returns (max supermartingale defect of r, min submartingale defect of
    r**p); for the optimal tilde both should be numerical noise around or
    inside their one-sided bounds.
    """
    W, cond = conditional_probs(tree, aux)
    r = wealth.values / tilde.values
    rp = r ** p
    live = tree.nonterminal[W[tree.nonterminal] > 0.0]
    return (float((_child_sums(tree, cond, r) - r)[live].max(initial=0.0)),
            float((_child_sums(tree, cond, rp) - rp)[live].min(initial=0.0)))


def numeraire_audit(tree: ScenarioTree, aux: Measure, tilde: AdaptedProcess,
                    p: float, trials: int = 10, seed: int = 0,
                    x0: float | None = None) -> NumeraireAudit:
    """Check the optimal wealth's numeraire property under the auxiliary measure.

    For random admissible wealths X started at tilde's initial value:
    E_aux[X_T / tilde_T] <= 1, the ratio X/tilde is a supermartingale under
    aux, and its p-th power is a submartingale.  Returns the worst slack of
    each statement over the trials.
    """
    rng = np.random.default_rng(seed)
    if x0 is None:
        x0 = float(tilde.at_root())
    worst_exp = -np.inf
    worst_super = 0.0
    worst_sub = 0.0
    for _ in range(trials):
        X = _random_wealth(tree, rng, x0)
        worst_exp = max(worst_exp, float(aux.weights @ (X.at_leaves(tree) / tilde.at_leaves(tree))))
        sup_d, sub_d = ratio_defects(tree, aux, X, tilde, p)
        worst_super = max(worst_super, sup_d)
        worst_sub = min(worst_sub, sub_d)
    return NumeraireAudit(max_expectation=worst_exp, max_super_defect=worst_super,
                          min_sub_defect=worst_sub)


def ratio_diagnostics(tree: ScenarioTree, utility: UtilityOnRPlus,
                      sol: PositiveSolution, ref: PositiveSolution,
                      aux: Measure | None = None) -> RatioDiagnostics:
    """Diagnostics for r = perturbed wealth / pure power wealth.

    mean_product is E_aux[|F(X_T) r_T^(p-1) - 1| * |1 - r_T|], which the
    ratio certificates bound by product_bound; y_ratio compares the marginal
    value scales and must land in [y_lower, y_upper] = [1/upper, 1/lower].
    """
    p = utility.p
    if aux is None:
        aux = auxiliary_measure(tree, make_power(p), ref)
    r = sol.terminal / ref.terminal
    F = np.asarray(utility.ratio(sol.terminal))
    mean_product = float(aux.weights @ (np.abs(F * r ** (p - 1.0) - 1.0) * np.abs(1.0 - r)))
    u, l = utility.upper, utility.lower
    q = 1.0 / (1.0 - p)
    product_bound = 2.0 * max((u - 1.0) * (u ** q - 1.0), (1.0 - l) * (1.0 - l ** q))
    return RatioDiagnostics(
        mean_product=mean_product,
        product_bound=product_bound,
        r_l1=float(aux.weights @ np.abs(r - 1.0)),
        rp_l1=float(aux.weights @ np.abs(r ** p - 1.0)),
        y_ratio=float(ref.y / sol.y),
        y_lower=1.0 / u,
        y_upper=1.0 / l,
    )
