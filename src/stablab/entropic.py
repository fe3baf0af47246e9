"""Terminal-wealth utility maximization on the real line, and its dual side.

The primal problem is sup_H E_P[U((H.S)_T + xi)] over all per-node share
strategies; nothing constrains the strategy, so the optimum is the unique
stationary point of a smooth strictly concave function of the stacked
holdings.

The dual side: leaf weights proportional to P * U'(terminal wealth) form the
optimal martingale measure, and the entropy-minimal measure is computed
independently by a reduced Newton iteration over the cone of unnormalized
martingale measures (feasible interior start from an LP that also certifies
that the market admits an equivalent martingale measure at all).

One damped-Newton core, `_newton`, serves the primal, the entropy dual and
the fraction solver of `positive`: Newton steps with a least-squares and a
steepest-descent fallback, and a backtracking Armijo search.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import brentq, linprog

from .market import (AdaptedProcess, Measure, ScenarioTree, Strategy, _child_sums,
                     conditional_probs, martingale_residual, wealth_additive)
from .utilities import UtilityOnR

__all__ = [
    "PrimalSolution", "DualMeasure", "OptimalityReport",
    "NoMartingaleMeasure", "NonConvergence",
    "gains_matrix", "solve_primal", "extract_dual", "minimal_entropy_measure",
    "generalized_entropy", "verify_optimality",
    "martingale_polytope_probes", "martingale_price_bounds",
]

GRAD_TOL = 1e-12      # absolute gradient sup-norm of the primal and the entropy dual
NEWTON_STEPS = 200


class NoMartingaleMeasure(RuntimeError):
    """The tree admits no equivalent martingale measure (one-step arbitrage)."""


class NonConvergence(RuntimeError):
    """An iteration stopped above its residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class PrimalSolution:
    """Optimal share strategy for a real-line problem.

    wealth starts at 0; the initial capital sits inside the endowment.
    `total` holds terminal wealth plus endowment per leaf, the argument the
    marginal utility is evaluated at.
    """

    strategy: Strategy
    wealth: AdaptedProcess
    value: float
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


def gains_matrix(tree: ScenarioTree) -> np.ndarray:
    """(L, K*d) map from stacked non-terminal holdings to terminal gains (cached, read-only)."""
    return tree.gains


def _interior_martingale_point(tree: ScenarioTree):
    """LP for max-min-weight point of the martingale polytope.

    Returns (q, t) with q a martingale measure whose smallest leaf weight is
    maximal.  t <= 0 means the polytope has no interior, i.e. no equivalent
    martingale measure exists.  q is read-only.
    """
    A = gains_matrix(tree)
    L = tree.n_leaves
    ncon = A.shape[1]
    # variables [q_1..q_L, t]; maximize t
    c = np.zeros(L + 1)
    c[-1] = -1.0
    A_eq = np.zeros((ncon + 1, L + 1))
    A_eq[:ncon, :L] = A.T
    A_eq[ncon, :L] = 1.0
    b_eq = np.zeros(ncon + 1)
    b_eq[ncon] = 1.0
    A_ub = np.hstack([-np.eye(L), np.ones((L, 1))])
    b_ub = np.zeros(L)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0.0, 1.0)] * L + [(0.0, 1.0)], method="highs")
    if not res.success:
        return None, -1.0
    res.x.flags.writeable = False
    return res.x[:L], float(res.x[-1])


def assert_market_viable(tree: ScenarioTree) -> np.ndarray:
    """Return an interior martingale measure, or raise NoMartingaleMeasure.

    The LP runs once per tree; its result, failure included, is kept on the tree.
    """
    q, t = tree.cached("interior_martingale_point", _interior_martingale_point)
    if q is None or t <= 1e-12:
        raise NoMartingaleMeasure(
            "tree admits no equivalent martingale measure (one-step arbitrage)")
    return q


# ----------------------------------------------------------------------
# damped Newton core


def _newton(x, objective, derivatives, tol, what):
    """Minimize a smooth convex function by damped Newton steps.

    objective(x) is the value, inf where x is infeasible; derivatives(x)
    returns (grad, residual, hessian), hessian a zero-argument callable so
    the converged iterate never builds one.  Stops once residual <= tol.
    A singular Hessian falls back to least squares, and a direction that is
    not a finite descent direction to the scaled steepest-descent step.
    Returns (x, value, residual, iterations); raises NonConvergence when the
    line search stalls or NEWTON_STEPS steps do not reach the tolerance.
    """
    val = objective(x)
    for it in range(1, NEWTON_STEPS + 1):
        grad, residual, hessian = derivatives(x)
        if residual <= tol:
            return x, val, residual, it
        hess = hessian()
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        slope = float(grad @ step)
        if not np.isfinite(slope) or slope >= 0.0:
            step = -grad / max(1.0, float(np.max(np.abs(grad))))
            slope = float(grad @ step)
        # backtracking line search with a noise cushion for the flat tail
        stepsize = 1.0
        cushion = 1e-15 * (1.0 + abs(val))
        while stepsize >= 1e-14:
            cand = x + stepsize * step
            valc = objective(cand)
            if valc <= val + 1e-4 * stepsize * slope + cushion:
                x, val = cand, valc
                break
            stepsize *= 0.5
        else:
            raise NonConvergence(f"{what} line search stalled", residual)
    raise NonConvergence(f"{what} Newton did not reach gradient tolerance", residual)


# ----------------------------------------------------------------------
# primal solver


def solve_primal(tree: ScenarioTree, utility: UtilityOnR, endowment=0.0, *,
                 initial: Strategy | None = None) -> PrimalSolution:
    """Maximize E_P[U((H.S)_T + endowment)] over per-node share strategies.

    endowment may be a constant or one value per leaf.  `initial` warm-starts
    the Newton iteration, which minimizes the negated expected utility.
    """
    xi = np.broadcast_to(np.asarray(endowment, dtype=float), (tree.n_leaves,)).copy()
    assert_market_viable(tree)
    A = gains_matrix(tree)
    P = tree.path_prob[tree.leaves]
    K = tree.nonterminal.shape[0]
    d = tree.n_assets

    if initial is not None:
        h = initial.values[tree.nonterminal].reshape(K * d).astype(float).copy()
    else:
        h = np.zeros(K * d)

    def objective(hvec):
        return -float(P @ utility.value(A @ hvec + xi))

    def derivatives(hvec):
        total = A @ hvec + xi
        grad = -(A.T @ (P * utility.marginal(total)))
        gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        return grad, gnorm, lambda: -(A.T @ (A * (P * utility.curvature(total))[:, None]))

    h, _, gnorm, it = _newton(h, objective, derivatives, GRAD_TOL, "primal")
    values = np.zeros((tree.n_nodes, d))
    values[tree.nonterminal] = h.reshape(K, d)
    strategy = Strategy(values, "shares")
    wealth = wealth_additive(tree, strategy, 0.0)
    total = wealth.at_leaves(tree) + xi
    return PrimalSolution(strategy=strategy, wealth=wealth, value=float(P @ utility.value(total)),
                          endowment=xi, total=total, gradient_norm=gnorm, iterations=it)


# ----------------------------------------------------------------------
# dual extraction and entropy minimization


def extract_dual(tree: ScenarioTree, utility: UtilityOnR, sol: PrimalSolution,
                 tol: float = 1e-8) -> DualMeasure:
    """Dual measure with leaf weights P * U'(total wealth), normalized.

    The scale y is the normalizing constant E_P[U'(total)].  Raises
    NonConvergence when the implied measure fails the martingale check at
    `tol`; a clean primal solve always passes.
    """
    P = tree.path_prob[tree.leaves]
    mu = P * utility.marginal(sol.total)
    y = float(mu.sum())
    q = Measure(mu / y)
    residual = martingale_residual(tree, q)
    if residual > tol:
        raise NonConvergence("dual measure is not a martingale measure", residual)
    return DualMeasure(measure=q, y=y, residual=residual)


def generalized_entropy(tree: ScenarioTree, m: Measure, utility: UtilityOnR) -> float:
    """E_P[V(dm/dP)] for the conjugate V of the given utility."""
    P = tree.path_prob[tree.leaves]
    return float(P @ np.asarray(utility.conjugate(m.weights / P)))


def _dual_scale(m: Measure, P: np.ndarray, utility: UtilityOnR) -> float:
    """Minimizer y of E_P[V(y * dm/dP)]: root of E_P[(dm/dP) V'(y dm/dP)]."""
    z = m.weights / P

    def slope(y):
        return float(m.weights @ np.asarray(utility.conjugate_prime(y * z)))

    lo, hi = 1e-8, 1e8
    flo, fhi = slope(lo), slope(hi)
    if flo > 0.0 or fhi < 0.0:  # pragma: no cover - certificates keep this bracketed
        raise NonConvergence("dual scale bracketing failed", max(abs(flo), abs(fhi)))
    return float(brentq(slope, lo, hi, xtol=1e-15, rtol=1e-15))


def minimal_entropy_measure(tree: ScenarioTree, utility: UtilityOnR) -> DualMeasure:
    """Minimize the generalized entropy E_P[V(dmu/dP)] over the cone of
    unnormalized martingale measures.

    Substituting mu = y*m turns the joint scale/measure problem into a plain
    convex program over {mu >= 0, gains have zero mu-expectation}: its unique
    minimizer is P * U'(optimal terminal wealth), so y = sum(mu) and
    m = mu/y reproduce extract_dual's pair for every family member, without
    touching the strategy-space solver.  Newton in the nullspace of the
    constraint matrix, mu = mu0 + N t, started from the LP interior point at
    the reference scale, positivity enforced by line search.
    """
    q0 = assert_market_viable(tree)
    P = tree.path_prob[tree.leaves]
    A = gains_matrix(tree)
    N = null_space(A.T)       # contains the ray through every martingale measure
    mu0 = _dual_scale(Measure(q0), P, utility) * q0

    def objective(t):
        mu = mu0 + N @ t
        if not np.all(mu > 0.0):
            return np.inf
        return float(P @ np.asarray(utility.conjugate(mu / P)))

    def derivatives(t):
        z = (mu0 + N @ t) / P
        grad = N.T @ np.asarray(utility.conjugate_prime(z))
        return grad, float(np.max(np.abs(grad))), \
            lambda: N.T @ (N * (np.asarray(utility.conjugate_curvature(z)) / P)[:, None])

    t, _, _, _ = _newton(np.zeros(N.shape[1]), objective, derivatives, GRAD_TOL, "entropy")
    mu = mu0 + N @ t
    y = float(mu.sum())
    m = Measure(mu / y)
    return DualMeasure(measure=m, y=y, residual=martingale_residual(tree, m))


# ----------------------------------------------------------------------
# optimality verification


def _wealth_martingale_defect(tree: ScenarioTree, m: Measure, wealth: AdaptedProcess) -> float:
    W, cond = conditional_probs(tree, m)
    X = wealth.values
    live = tree.nonterminal[W[tree.nonterminal] > 0.0]
    return float(np.abs(_child_sums(tree, cond, X)[live] - X[live]).max(initial=0.0))


def verify_optimality(tree: ScenarioTree, utility: UtilityOnR, sol: PrimalSolution,
                      dual: DualMeasure, probes=None, probe_tol: float = 1e-8) -> OptimalityReport:
    """First-order and supermartingale certificates for a primal/dual pair.

    Checks (a) the leafwise proportionality y*dQ/dP = U'(total), (b) that the
    wealth process is a martingale under the dual measure, (c) that its
    terminal expectation under every probe martingale measure is <= 0.
    Probes failing the martingale check at `probe_tol` are rejected.
    """
    P = tree.path_prob[tree.leaves]
    lhs = dual.y * dual.measure.weights / P
    first_order = float(np.max(np.abs(lhs - np.asarray(utility.marginal(sol.total)))))
    defect = _wealth_martingale_defect(tree, dual.measure, sol.wealth)
    if probes is None:
        probes = martingale_polytope_probes(tree)
    slacks = []
    XT = sol.wealth.at_leaves(tree)
    for m in probes:
        r = martingale_residual(tree, m)
        if r > probe_tol:
            raise ValueError(f"probe measure is not in the martingale polytope (residual {r:.3e})")
        slacks.append(float(m.weights @ XT))
    slacks = np.asarray(slacks) if slacks else np.zeros(0)
    return OptimalityReport(
        first_order_residual=first_order,
        martingale_defect=defect,
        supermartingale_slack=float(slacks.max()) if slacks.size else 0.0,
        probe_slacks=slacks,
    )


# ----------------------------------------------------------------------
# probe measures


def _polish_vertex(C: np.ndarray, b: np.ndarray,
                   q: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """Re-solve the active equality system on the LP support to machine precision.

    Returns the polished point (None if the support system does not give an
    accurate probability vector) and whether the martingale polytope is that
    single point as far as the probe tolerances can tell.  That needs full
    support and full column rank, by the rank of the same least-squares
    solve, and a margin: any point within the 1e-9 residual tolerance of
    C q = b lies within sqrt(rows) * 1e-9 / (smallest singular value) of the
    solution, and it must keep every entry above the 1e-9 support threshold.
    Then no other LP vertex passes this polish or the raw-point fallback.
    """
    supp = q > 1e-9
    if not np.any(supp):
        return None, False
    qs, _, rank, sv = np.linalg.lstsq(C[:, supp], b, rcond=None)
    if np.any(qs < -1e-10):
        return None, False
    out = np.zeros_like(q)
    out[supp] = np.clip(qs, 0.0, None)
    if abs(out.sum() - 1.0) > 1e-9 or np.max(np.abs(C @ out - b)) > 1e-9:
        return None, False
    q = out / out.sum()
    # 2e-9: the support threshold plus slack for the raw point's normalization
    single = rank == q.size and sv[-1] * (q.min() - 2e-9) > np.sqrt(len(b)) * 1e-9
    return q, bool(single)


def martingale_polytope_probes(tree: ScenarioTree, n_vertices: int = 8,
                               n_interior: int = 4, seed: int = 0) -> list[Measure]:
    """Vertices of the martingale polytope plus random interior mixtures.

    Vertices come from LPs with random objectives (polished to machine
    precision on their support); interior points are Dirichlet mixtures of
    the vertices found.  Deterministic for a fixed seed.

    When a polished vertex shows that the polytope is a single point (the
    complete-market case, e.g. every binomial lattice, unless C q = b is too
    ill-conditioned to tell at the polish tolerances), each later LP would
    return that vertex again and the dedupe would drop it, so such a tree
    costs one LP and one polish.  The random objectives are still drawn, so
    the generator reaches the Dirichlet mixtures in the same state and every
    probe is bit for bit what the full loop gives.
    """
    A = gains_matrix(tree)
    L = tree.n_leaves
    C = np.vstack([np.ones((1, L)), A.T])
    b = np.zeros(C.shape[0])
    b[0] = 1.0
    rng = np.random.default_rng(seed)
    vertices = []
    seen = set()
    single_point = False
    for _ in range(max(n_vertices, 1) * 3):
        if len(vertices) >= n_vertices:
            break
        cost = rng.standard_normal(L)
        if single_point:
            continue
        res = linprog(cost, A_eq=C, b_eq=b, bounds=[(0.0, 1.0)] * L, method="highs")
        if not res.success:
            continue
        q, single_point = _polish_vertex(C, b, res.x)
        if q is None:
            # keep the raw LP point if it is accurate enough on its own
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
    for _ in range(n_interior):
        w = rng.dirichlet(np.ones(len(vertices)))
        probes.append(Measure(w @ V))
    return probes


def martingale_price_bounds(tree: ScenarioTree, payoff) -> tuple[float, float]:
    """Exact no-arbitrage interval [min, max] of E_m[payoff] over martingale measures."""
    payoff = np.asarray(payoff, dtype=float)
    A = gains_matrix(tree)
    L = tree.n_leaves
    C = np.vstack([np.ones((1, L)), A.T])
    b = np.zeros(C.shape[0])
    b[0] = 1.0
    out = []
    for sign in (1.0, -1.0):
        res = linprog(sign * payoff, A_eq=C, b_eq=b, bounds=[(0.0, 1.0)] * L, method="highs")
        if not res.success:
            raise NoMartingaleMeasure("price-bound LP infeasible")
        out.append(sign * res.fun)
    return out[0], out[1]
