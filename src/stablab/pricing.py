"""Davis (fair) prices and indifference buyer's prices for terminal claims.

The Davis price is the claim's expectation under the agent's dual measure.
The indifference price p is the root of g(p) = V(x0 + B - p) - V(x0), V the
optimal value.  g is concave and decreasing, with g'(p) = -y_p, y_p =
E_P[U'(X*_p)] the marginal utility of the optimal wealth with the claim
bought at p, and weak duality with the base problem's dual measure Q gives
g(E_Q[B]) <= 0.  So Newton's method p <- p + g(p)/y_p, started at the Davis
price E_Q[B], falls monotonically to the root and never solves at the ends
of the claim's range [min B, max B].  It stops once a step is below
PRICE_STEP_TOL and takes that last step; the value gap it reports, and
checks against `tol`, is relative to the base shortfall E_P[U(inf) - U(X*)],
so neither depends on the scale e^{-alpha x0} of the values.  Each iterate
is one primal solve.  The first starts at the base strategy less the
claim's hedge under Q (the first-order change of the optimum when the claim
is added), the later ones at the previous optimum.  On a complete market the
Davis price is already the root and the hedge replicates the claim, so the
price costs one solve that starts at its optimum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropic import (DualMeasure, NonConvergence, PrimalSolution, _hedge, extract_dual,
                       solve_primal)
from .market import ScenarioTree, Strategy, _number
from .utilities import UtilityOnR

__all__ = ["PriceResult", "davis_price", "indifference_price"]

PRICE_STEP_TOL = 1e-12   # Newton step at which the price stops, relative to max(1, |p|)
PRICE_STEPS = 50         # Newton iterations before the price gives up


@dataclass(frozen=True)
class PriceResult:
    price: float
    method: str
    residual: float
    bracket: tuple[float, float]


def _check_claim(B, error=ValueError) -> np.ndarray:
    """B as a float array, if it is finite and nonnegative; raises `error` otherwise."""
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)):
        raise error("claim must be finite on every leaf")
    if np.any(B < 0.0):
        raise error("claim must be nonnegative")
    return B


def _check_tol(tol, error=ValueError) -> float:
    """tol as a float, if it is a positive finite number; raises `error` otherwise."""
    try:
        if (out := _number(tol, "tolerance", error)) > 0.0:
            return out
    except error:
        pass
    raise error("tolerance must be positive and finite")


def davis_price(dual: DualMeasure, B) -> PriceResult:
    """Expectation of a nonnegative leaf claim under the dual measure."""
    B = _check_claim(B)
    price = float(dual.measure.weights @ B)
    return PriceResult(price=price, method="davis", residual=0.0,
                       bracket=(float(np.min(B)), float(np.max(B))))


def indifference_price(tree: ScenarioTree, utility: UtilityOnR, x0: float, B,
                       tol: float = 1e-9) -> PriceResult:
    """Buyer's price p solving E[U(x0 + B - p + gains)] = value without the claim.

    `tol` bounds the value gap at the price relative to the base shortfall
    E_P[U(inf) - U(x0 + gains)]."""
    _check_tol(tol)
    B = _check_claim(np.broadcast_to(np.asarray(B, dtype=float), (tree.n_leaves,)))
    base = solve_primal(tree, utility, x0)
    return _indifference(tree, utility, x0, B, tol, base, extract_dual(tree, utility, base))


def _indifference(tree: ScenarioTree, utility: UtilityOnR, x0: float, B: np.ndarray,
                  tol: float, base: PrimalSolution, dual: DualMeasure) -> PriceResult:
    """The indifference price of the checked leaf claim B, given the solve
    without the claim at x0 and its dual: Newton from the Davis price.  The
    value gap is measured from the shortfalls and relative to the base
    shortfall E_P[U(inf) - U(X_0)], as the primal's stop is, so `tol` is
    relative and the price does not depend on the scale e^{-alpha x0} of the
    values.  The last Newton step is taken, as the decrement rule takes it."""
    P = tree.path_prob[tree.leaves]
    scale = base.shortfall
    lo, hi = float(np.min(B)), float(np.max(B))
    warm = base.strategy
    # a constant claim is priced outright by cash translation, and needs no hedge
    if hi - lo <= 0.0:
        p = lo
    else:
        p = min(max(float(dual.measure.weights @ B), lo), hi)
        warm = Strategy(warm.values - _hedge(tree, dual.measure.weights, B), "shares")
    for it in range(1, PRICE_STEPS + 1):
        where = f"indifference Newton iteration {it} at price {p!r}"
        try:
            sol = solve_primal(tree, utility, x0 + B - p, initial=warm)
        except NonConvergence as e:
            raise NonConvergence(f"{where}: {e.message}", e.residual) from e
        warm = sol.strategy
        dvalue = scale - sol.shortfall
        gap = dvalue / scale
        if hi - lo <= 0.0:
            break
        step = dvalue / float(P @ utility.marginal(sol.total))
        if abs(step) <= PRICE_STEP_TOL * max(1.0, abs(p)):
            p = min(max(p + step, lo), hi)
            break
        # g is concave with g(p) <= 0 from the Davis price on, so every step falls
        if not step < 0.0:
            raise NonConvergence(f"{where}: step {step:.3e} does not fall", abs(gap))
        p = max(p + step, lo)
    else:
        raise NonConvergence(f"{where}: no convergence in {PRICE_STEPS} steps", abs(gap))
    residual = abs(gap)
    if residual > tol:
        raise RuntimeError(f"indifference residual {residual:.3e} above tolerance {tol:.1e}")
    return PriceResult(price=p, method="indifference", residual=residual,
                       bracket=(lo, hi))
