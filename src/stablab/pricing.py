"""Davis (fair) prices and indifference buyer's prices for terminal claims.

The Davis price is the claim's expectation under the agent's dual measure.
The indifference price solves u(x0 + B - p) = u(x0) with Brent's method: the
value is smooth and strictly decreasing in p (cash translation), and the
claim's leafwise range [min B, max B] always brackets the root.  Each value
re-solves the primal with the previous optimum as warm start.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

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


def _check_claim(B, error=ValueError) -> np.ndarray:
    """B as a float array, if it is finite and nonnegative; raises `error` otherwise."""
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)):
        raise error("claim must be finite on every leaf")
    if np.any(B < 0.0):
        raise error("claim must be nonnegative")
    return B


def _check_tol(tol, error=ValueError) -> float:
    """tol as a float, if it is positive and finite; raises `error` otherwise."""
    if not 0.0 < float(tol) < np.inf:
        raise error("tolerance must be positive and finite")
    return float(tol)


def davis_price(dual: DualMeasure, B) -> PriceResult:
    """Expectation of a nonnegative leaf claim under the dual measure."""
    B = _check_claim(B)
    price = float(dual.measure.weights @ B)
    return PriceResult(price=price, method="davis", residual=0.0,
                       bracket=(float(np.min(B)), float(np.max(B))))


def indifference_price(tree: ScenarioTree, utility: UtilityOnR, x0: float, B,
                       tol: float = 1e-9) -> PriceResult:
    """Buyer's price p solving E[U(x0 + B - p + gains)] = value without the claim."""
    _check_tol(tol)
    B = _check_claim(np.broadcast_to(np.asarray(B, dtype=float), (tree.n_leaves,)))
    base = solve_primal(tree, utility, x0)
    lo, hi = float(np.min(B)), float(np.max(B))

    warm = base.strategy
    gaps = {}

    def gap(p):
        # value with the claim bought at p minus the value without it; one solve per p
        nonlocal warm
        if p not in gaps:
            sol = solve_primal(tree, utility, x0 + B - p, initial=warm)
            warm = sol.strategy
            gaps[p] = sol.value - base.value
        return gaps[p]

    if hi - lo <= 0.0:
        # constant claim: cash translation gives the price outright
        return PriceResult(price=lo, method="indifference", residual=abs(gap(lo)),
                           bracket=(lo, hi))

    flo, fhi = gap(lo), gap(hi)
    # value is decreasing in the price paid, so flo >= 0 >= fhi
    if flo < -1e-12 or fhi > 1e-12:
        raise RuntimeError(
            f"indifference bracket failed: value differences ({flo:.3e}, {fhi:.3e})")
    # an endpoint whose gap has the wrong sign within that slack is the price
    ends = {lo: max(flo, 0.0), hi: min(fhi, 0.0)}
    price = float(brentq(lambda p: ends[p] if p in ends else gap(p), lo, hi,
                         xtol=1e-15, rtol=1e-15))
    residual = abs(gap(price))
    if residual > tol:
        raise RuntimeError(f"indifference residual {residual:.3e} above tolerance {tol:.1e}")
    return PriceResult(price=price, method="indifference", residual=residual,
                       bracket=(lo, hi))
