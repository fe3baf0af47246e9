"""Davis (fair) prices and indifference buyer's prices for terminal claims.

The Davis price is the claim's expectation under the agent's dual measure.
The indifference price solves u(x0 + B - p) = u(x0) by bisection: the value
is strictly decreasing in p (cash translation), and the claim's leafwise
range [min B, max B] always brackets the root.  Bisection is deliberate;
each step re-solves the primal with the previous optimum as warm start, so
robustness costs little.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropic import DualMeasure, solve_primal
from .market import ScenarioTree
from .utilities import UtilityOnR

__all__ = ["PriceResult", "davis_price", "indifference_price"]


@dataclass(frozen=True)
class PriceResult:
    price: float
    method: str
    residual: float
    bracket: tuple[float, float]


def _check_claim(B) -> np.ndarray:
    """B as a float array, after checking it is finite and nonnegative."""
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)):
        raise ValueError("claim must be finite on every leaf")
    if np.any(B < 0.0):
        raise ValueError("claim must be nonnegative")
    return B


def davis_price(dual: DualMeasure, B) -> PriceResult:
    """Expectation of a nonnegative leaf claim under the dual measure."""
    B = _check_claim(B)
    price = float(dual.measure.weights @ B)
    return PriceResult(price=price, method="davis", residual=0.0,
                       bracket=(float(np.min(B)), float(np.max(B))))


def indifference_price(tree: ScenarioTree, utility: UtilityOnR, x0: float, B,
                       tol: float = 1e-9, iterations: int = 60) -> PriceResult:
    """Buyer's price p solving E[U(x0 + B - p + gains)] = value without the claim."""
    if not 0.0 < tol < np.inf:
        raise ValueError("tolerance must be positive and finite")
    B = _check_claim(np.broadcast_to(np.asarray(B, dtype=float), (tree.n_leaves,)))
    base = solve_primal(tree, utility, x0)
    lo, hi = float(np.min(B)), float(np.max(B))

    warm = base.strategy

    def shifted_value(p):
        nonlocal warm
        sol = solve_primal(tree, utility, x0 + B - p, initial=warm)
        warm = sol.strategy
        return sol.value

    if hi - lo <= 0.0:
        # constant claim: cash translation gives the price outright
        price = lo
        return PriceResult(price=price, method="indifference",
                           residual=abs(shifted_value(price) - base.value), bracket=(lo, hi))

    flo = shifted_value(lo) - base.value
    fhi = shifted_value(hi) - base.value
    # value is decreasing in the price paid, so flo >= 0 >= fhi
    if flo < -1e-12 or fhi > 1e-12:
        raise RuntimeError(
            f"indifference bracket failed: value differences ({flo:.3e}, {fhi:.3e})")
    a, b = lo, hi
    for _ in range(iterations):
        mid = 0.5 * (a + b)
        if shifted_value(mid) - base.value >= 0.0:
            a = mid
        else:
            b = mid
    price = 0.5 * (a + b)
    residual = abs(shifted_value(price) - base.value)
    if residual > tol:
        raise RuntimeError(f"indifference residual {residual:.3e} above tolerance {tol:.1e}")
    return PriceResult(price=price, method="indifference", residual=residual,
                       bracket=(lo, hi))
