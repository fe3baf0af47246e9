"""Positive-wealth utility maximization with fraction strategies.

Strategies here are wealth fractions; wealth compounds multiplicatively and
must stay positive, so the solver works in log-wealth, grown once per node,
and treats any candidate with a nonpositive growth factor as value minus
infinity.  Newton minimizes the shortfall sum_l P_l D_l (U(inf) - U(X_l)) >= 0
from each node's one-step power optimum (the whole optimum of pure power on
an iid tree) and stops on the Newton decrement relative to the shortfall
(`entropic.DECREMENT`): at strongly negative exponents the absolute
magnitudes are astronomical, and that rule does not see them.  The reported
gradient norm is relative to the objective's scale sum_l P_l D_l |U'(X_l) X_l|.

Also here: the opportunity process for pure power utility (an independent
dynamic-programming route to the same optimum, one `entropic._one_step_min`
call per child block), the auxiliary measure dQ/dP ~ D U'(X_T) X_T, whose field
weights D each solution records, and the ratio diagnostics comparing a
perturbed investor against the pure power one.
Both solvers hand `entropic._newton` one evaluation per point, whose
derivatives reuse its growth factors.  The numeraire audit bounds
E_aux[X_T / tilde_T] over the whole admissible box in one exact backward pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropic import (DECREMENT, OPPORTUNITY_TOL, _holding_step, _newton, _one_step_min,
                       _one_step_start, _return_moves, assert_market_viable)
from .market import (Measure, ScenarioTree, Strategy, _child_sums, conditional_probs,
                     wealth_multiplicative)
from .utilities import UtilityOnRPlus, make_power

__all__ = [
    "PositiveSolution", "OpportunityProcess", "RatioDiagnostics",
    "solve_power_field", "opportunity_process", "share_amounts", "scaled_strategy_distance",
    "auxiliary_measure", "numeraire_audit", "ratio_defects", "ratio_diagnostics",
]


@dataclass(frozen=True)
class PositiveSolution:
    """Optimal fractions; wealth has one entry per node, terminal and the
    field weights D it was solved with (ones without a field) one per leaf."""

    strategy: Strategy
    wealth: np.ndarray
    value: float
    terminal: np.ndarray
    field_weights: np.ndarray
    y: float
    gradient_norm: float
    iterations: int


@dataclass(frozen=True)
class OpportunityProcess:
    """Backward dynamic-programming value coefficients for pure power utility.

    values[i] is the node coefficient L_i, so the node value function is
    L_i * x^p / p; y is the marginal value L_0 * x0^(p-1) at the root.
    """

    values: np.ndarray
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


def solve_power_field(tree: ScenarioTree, utility: UtilityOnRPlus, x0: float = 1.0,
                      field=None) -> PositiveSolution:
    """Maximize sum_l P_l D_l U(X_l) over fraction strategies, X multiplicative.

    `field` weights the leaves (default all ones).  The Newton iteration
    minimizes the shortfall sum_l P_l D_l (U(inf) - U(X_l)) >= 0 and stops
    by the `DECREMENT` rule.  It starts at each node's one-step optimum of
    the reference power x**p / p under the tree's probabilities
    (`entropic._one_step_start`, stopped by the `DECREMENT` rule too): on a
    tree with iid returns and no field, the whole optimum of pure power.  Each
    evaluation takes the growth 1 + pi . dR once per child node, in the
    frames of `entropic._return_moves`, and the leaf log-wealth as the
    layout's path sum of log growth; its derivatives take the gradient and
    the same-node Hessian blocks as adjoint products of the sensitivities
    w = dR / growth per node (and of w w'), and its steps solve the primal's
    Newton system (`entropic._holding_step`) with w as moves.  gradient_norm
    is the gradient's sup-norm at the fractions returned, relative to
    sum_l P_l D_l |U'(X_l) X_l|.
    """
    if x0 <= 0.0:
        raise ValueError("initial capital must be positive")
    assert_market_viable(tree)
    moves = _return_moves(tree)
    P = tree.path_prob[tree.leaves]
    D = np.ones(tree.n_leaves) if field is None else np.asarray(field.weights, dtype=float)
    K = tree.nonterminal.shape[0]
    d = tree.n_assets

    def evaluate(pvec):
        g = np.ones(tree.n_nodes)
        g[1:] = 1.0 + np.einsum("na,na->n", pvec.reshape(-1, d)[moves.up], moves.node[1:])
        if np.any(g <= 0.0):
            return np.inf, None
        with np.errstate(over="ignore"):
            X = np.exp(np.log(x0) + moves.path_sum(np.log(g)))

        def derivatives():
            mXp = P * D * np.asarray(utility.marginal(X)) * X
            move = moves.node / g[:, None]
            grad = moves.adjoint(-mXp, move)
            gnorm = float(np.max(np.abs(grad))) / float(np.sum(np.abs(mXp))) if grad.size else 0.0

            def step():
                cA = P * D * np.asarray(utility.curvature(X)) * X * X
                # same-node second derivatives of X vanish (each node hits a path
                # once): add to each node's block sum_l mXp_l w w' over the leaves
                # below it, w the move into its child on leaf l's path
                outer = (move[:, :, None] * move[:, None, :]).reshape(-1, d * d)
                same = moves.adjoint(mXp, outer).reshape(K, d, d)
                return _holding_step(tree, moves, move, -(cA + mXp), -mXp, same + moves.unit)

            return grad, gnorm, step

        # a candidate near the edge of the box overflows the shortfall to inf
        # (or nan): the line search rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            return float((P * D) @ np.asarray(utility.shortfall(X))), derivatives

    pi, _, _, it = _newton(_one_step_start(tree, moves, utility.p).ravel(), evaluate, DECREMENT,
                           "fraction")
    _, derivatives = evaluate(pi)
    gnorm = derivatives()[1]
    values = np.zeros((tree.n_nodes, d))
    values[tree.nonterminal] = moves.from_frame(pi.reshape(K, d))
    strategy = Strategy(values, "fractions")
    wealth = wealth_multiplicative(tree, strategy, x0)
    terminal = wealth[tree.leaves]
    y = float(np.sum(P * D * np.asarray(utility.marginal(terminal)) * terminal)) / x0
    return PositiveSolution(strategy=strategy, wealth=wealth,
                            value=float(P @ (D * np.asarray(utility.value(terminal)))),
                            terminal=terminal, field_weights=D, y=y, gradient_norm=gnorm,
                            iterations=it)


# ----------------------------------------------------------------------
# opportunity process (pure power, dynamic programming)


def opportunity_process(tree: ScenarioTree, p: float, x0: float = 1.0,
                        field=None) -> OpportunityProcess:
    """Backward recursion for the pure power problem; independent of the
    stacked-Newton solver.

    Terminal coefficients are the field weights (ones by default); the
    non-terminal nodes of each child block solve their one-step convex
    minimizations in one Newton iteration, dates last first.  Each node
    holds its fractions in the frame of `entropic._return_moves`, as the
    forward solver does: redundant holdings get a unit diagonal and stay 0.
    The recovered strategy attains the global optimum, which the forward
    solver must match.
    """
    if p >= 0.0:
        raise ValueError("exponent must be negative")
    assert_market_viable(tree)
    moves = _return_moves(tree)
    Lvals = np.zeros(tree.n_nodes)
    Lvals[tree.leaves] = 1.0 if field is None else np.asarray(field.weights, dtype=float)
    frac = np.zeros((tree.n_nodes, tree.n_assets))
    _, cond = conditional_probs(tree, tree.market_measure())
    for level in reversed(tree.child_blocks):
        for nodes, kids in level:
            Lvals[nodes], frac[nodes] = _one_step_min(cond[kids], moves.node[kids], Lvals[kids],
                                                      p, moves.unit[tree.column[nodes]],
                                                      OPPORTUNITY_TOL)
    frac[tree.nonterminal] = moves.from_frame(frac[tree.nonterminal])
    value = Lvals[0] * x0 ** p / p
    return OpportunityProcess(values=Lvals,
                              strategy=Strategy(frac, "fractions"),
                              value=float(value), y=float(Lvals[0] * x0 ** (p - 1.0)))


# ----------------------------------------------------------------------
# strategy comparison


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
                      sol: PositiveSolution) -> Measure:
    """Leaf measure with weights proportional to P * D * U'(X_T) * X_T, D the
    field weights `sol` was solved with."""
    P = tree.path_prob[tree.leaves]
    w = P * sol.field_weights * np.asarray(utility.marginal(sol.terminal)) * sol.terminal
    return Measure(w / w.sum())


def _admissible_box(tree: ScenarioTree) -> np.ndarray:
    """Per-node, per-asset symmetric fraction bounds keeping growth nonnegative
    (0 at some corners) when the whole box is used (bound split across assets)."""
    box = np.zeros(tree.d_returns.shape)
    for level in tree.child_blocks:
        for nodes, kids in level:
            amax = np.max(np.abs(tree.d_returns[kids]), axis=1)
            amax[amax == 0.0] = 1.0
            box[nodes] = 1.0 / (amax * tree.n_assets)
    return box


@dataclass(frozen=True)
class NumeraireAudit:
    max_expectation: float
    max_super_defect: float
    min_sub_defect: float
    worst_node: int


def ratio_defects(tree: ScenarioTree, aux: Measure, wealth: np.ndarray,
                  tilde: np.ndarray, p: float) -> tuple[float, float]:
    """One-step defects of r = wealth/tilde under aux.

    Returns (max supermartingale defect of r, min submartingale defect of
    r**p); for the optimal tilde both should be numerical noise around or
    inside their one-sided bounds.
    """
    W, cond = conditional_probs(tree, aux)
    r = wealth / tilde
    rp = r ** p
    live = tree.nonterminal[W[tree.nonterminal] > 0.0]
    return (float((_child_sums(tree, cond, r) - r)[live].max(initial=0.0)),
            float((_child_sums(tree, cond, rp) - rp)[live].min(initial=0.0)))


def numeraire_audit(tree: ScenarioTree, aux: Measure, tilde: np.ndarray,
                    p: float) -> NumeraireAudit:
    """Exact certificate of tilde's numeraire property under aux.

    E_aux[X_T / tilde_T] is affine in each node's fractions, so its supremum
    over `_admissible_box` from X_0 = tilde_0 is one backward pass: V = 1 at
    the leaves and, with aux's one-step weights a, g_c = tilde_c / tilde_n,
        V_n = sum_c a_c V_c / g_c + sum_i box_{n,i} |sum_c a_c V_c R_{c,i} / g_c|.
    max_expectation is V_0.  s_n, the same with V = 1 below n, less 1, bounds
    E_aux[r_c | n] / r_n - 1 for r = X / tilde: max_super_defect = max(0, s_n)
    at worst_node, the largest s_n aux reaches, and (Jensen, p < 0) min_sub_defect
    = (1 + max_super_defect)**p - 1.  Both are relative, clamped at 0 like `ratio_defects`.
    """
    W, cond = conditional_probs(tree, aux)
    box = _admissible_box(tree)
    V, s = np.ones(tree.n_nodes), np.zeros(tree.n_nodes)
    for level in reversed(tree.child_blocks):
        for nodes, kids in level:
            a = cond[kids] * tilde[nodes, None] / tilde[kids]
            w = np.stack((a, a * V[kids]))    # the suprema with 1 and with V below
            tilt = np.abs(np.matmul(w[..., None, :], tree.d_returns[kids]))[..., 0, :]
            one, V[nodes] = w.sum(axis=-1) + (box[nodes] * tilt).sum(axis=-1)
            s[nodes] = one - 1.0
    live = tree.nonterminal[W[tree.nonterminal] > 0.0]
    worst = int(live[np.argmax(s[live])])
    sup = max(0.0, float(s[worst]))
    return NumeraireAudit(max_expectation=float(V[0]), max_super_defect=sup,
                          min_sub_defect=(1.0 + sup) ** p - 1.0, worst_node=worst)


def ratio_diagnostics(tree: ScenarioTree, utility: UtilityOnRPlus,
                      sol: PositiveSolution, ref: PositiveSolution) -> RatioDiagnostics:
    """Diagnostics for r = perturbed wealth / pure power wealth.

    mean_product is E_aux[|F(X_T) r_T^(p-1) - 1| * |1 - r_T|], which the
    ratio certificates bound by product_bound; y_ratio compares the marginal
    value scales and must land in [y_lower, y_upper] = [1/upper, 1/lower].
    aux is the pure power optimum's auxiliary measure, under ref's field.
    """
    p = utility.p
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
