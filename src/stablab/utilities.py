"""Utility families certified against a reference marginal.

Families on the real line are compared with an exponential marginal
exp(-alpha*x); families on the positive half-line with a power marginal
x**(p-1).  Every family here keeps its ratio to the reference marginal of
the parametric form

    F(x) = 1 + shift + amp * sin(freq * z),    z = x  or  z = log x,

which is closed under the mixing construction used for the power families
and gives exact antiderivatives, so values, marginals and conjugates never
rely on numerical quadrature (tests cross-check against quadrature).  The
(shift, amp) pair yields hard two-sided ratio certificates
lower = 1 + shift - |amp| and upper = 1 + shift + |amp|.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "UtilityOnR", "UtilityOnRPlus", "UtilityField",
    "make_exponential", "make_perturbed_exponential",
    "make_power", "make_perturbed_power", "make_power_family_member",
    "shifted_inverse_mix", "rescale_to_unit_alpha",
    "certify_ratio_bounds", "conjugate_sandwich_audit",
    "RatioCertificate", "SandwichAudit",
]


def _maybe_scalar(out, like):
    if np.isscalar(like) or (isinstance(like, np.ndarray) and like.ndim == 0):
        return float(out)
    return out


def _bracketed_root(f, fprime, lo, hi, iters: int = 100):
    """Solve f(x) = 0 componentwise for strictly decreasing f with f(lo) >= 0 >= f(hi).

    Newton steps safeguarded by the shrinking bracket; falls back to bisection
    whenever the Newton candidate leaves the bracket.  A candidate equal to
    its iterate has converged, even where the iterate is a bracket end.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    x = 0.5 * (lo + hi)
    for _ in range(iters):
        fx = f(x)
        pos = fx > 0.0
        lo = np.where(pos, x, lo)
        hi = np.where(pos, hi, x)
        dfx = fprime(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - fx / dfx
        inside = (xn == x) | (np.isfinite(xn) & (xn > lo) & (xn < hi))
        x_new = np.where(inside, xn, 0.5 * (lo + hi))
        if np.all(np.abs(x_new - x) <= 1e-16 * (1.0 + np.abs(x_new))):
            x = x_new
            break
        x = x_new
    return x


# ----------------------------------------------------------------------
# shared certificate, inverse marginal and conjugate


class _CertifiedUtility:
    """Marginal F(x) * reference marginal with certified lower <= F <= upper.

    Subclasses hold `shift` and `amp`, evaluate value, marginal and
    curvature, and invert their reference marginal in `_reference_inverse`.
    """

    @property
    def lower(self) -> float:
        return 1.0 + self.shift - abs(self.amp)

    @property
    def upper(self) -> float:
        return 1.0 + self.shift + abs(self.amp)

    @property
    def f_bound(self) -> float:
        """Certified sup |F - 1|."""
        return abs(self.shift) + abs(self.amp)

    def inverse_marginal(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise ValueError("inverse marginal needs y > 0")
        if self.amp == 0.0:
            return _maybe_scalar(self._reference_inverse(y / (1.0 + self.shift)), y)
        # certified bracket from lower <= F <= upper
        lo = self._reference_inverse(y / self.lower)
        hi = self._reference_inverse(y / self.upper)
        yv = np.atleast_1d(y)
        root = _bracketed_root(lambda x: self.marginal(x) - yv, self.curvature,
                               np.broadcast_to(lo, yv.shape), np.broadcast_to(hi, yv.shape))
        return _maybe_scalar(root.reshape(np.shape(y)), y)

    def conjugate(self, y):
        """V(y) = sup_x (U(x) - x*y); V(0) is the supremum of U."""
        y = np.asarray(y, dtype=float)
        yv = np.atleast_1d(y).astype(float)
        out = np.empty_like(yv)
        zero = yv == 0.0
        if np.any(yv < 0.0):
            raise ValueError("conjugate is defined for y >= 0")
        out[zero] = self.value_at_inf
        if np.any(~zero):
            x = self.inverse_marginal(yv[~zero])
            out[~zero] = self.value(x) - yv[~zero] * x
        return _maybe_scalar(out.reshape(np.shape(y)), y)

    def conjugate_prime(self, y):
        return _maybe_scalar(-np.asarray(self.inverse_marginal(y)), y)

    def conjugate_curvature(self, y):
        x = self.inverse_marginal(y)
        return _maybe_scalar(-1.0 / np.asarray(self.curvature(x)), y)


# ----------------------------------------------------------------------
# utilities on the real line


@dataclass(frozen=True)
class UtilityOnR(_CertifiedUtility):
    """Utility on R whose marginal is a certified perturbation of exp(-alpha*x).

    marginal U'(x) = F(x) * exp(-alpha*x) with F(x) = 1 + shift + amp*sin(omega*x),
    and certified bounds lower <= F <= upper.  `value_at_zero` anchors the
    utility itself (the marginal determines U only up to a constant).
    """

    alpha: float
    shift: float = 0.0
    amp: float = 0.0
    omega: float = 0.0
    value_at_zero: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise ValueError("risk aversion alpha must be positive")
        if not np.all(np.isfinite([self.shift, self.amp, self.omega])):
            raise ValueError("shift, amp and omega must be finite")
        if self.value_at_zero is None:
            object.__setattr__(self, "value_at_zero", -1.0 / self.alpha)
        elif not np.isfinite(self.value_at_zero):
            raise ValueError("value_at_zero must be finite")

    # -- certificate ----------------------------------------------------
    @property
    def g_bound(self) -> float:
        """Distance |alpha - 1| of the reference risk aversion from 1."""
        return abs(self.alpha - 1.0)

    # -- evaluators -----------------------------------------------------
    def ratio(self, x):
        x = np.asarray(x, dtype=float)
        out = 1.0 + self.shift + self.amp * np.sin(self.omega * x)
        return _maybe_scalar(out, x)

    def marginal(self, x):
        x = np.asarray(x, dtype=float)
        out = (1.0 + self.shift + self.amp * np.sin(self.omega * x)) * np.exp(-self.alpha * x)
        return _maybe_scalar(out, x)

    def curvature(self, x):
        """Second derivative U''(x)."""
        x = np.asarray(x, dtype=float)
        F = 1.0 + self.shift + self.amp * np.sin(self.omega * x)
        dF = self.amp * self.omega * np.cos(self.omega * x)
        return _maybe_scalar((dF - self.alpha * F) * np.exp(-self.alpha * x), x)

    def shortfall(self, x):
        """U(inf) - U(x) = exp(-alpha*x) * tail(x) > 0, computed without cancellation."""
        x = np.asarray(x, dtype=float)
        tail = (1.0 + self.shift) / self.alpha
        if self.amp != 0.0:
            # amp * int_x^inf exp(-alpha*s) sin(omega*s) ds, over exp(-alpha*x)
            tail = tail + self.amp * (self.alpha * np.sin(self.omega * x)
                                      + self.omega * np.cos(self.omega * x)) \
                / (self.alpha ** 2 + self.omega ** 2)
        return _maybe_scalar(np.exp(-self.alpha * x) * tail, x)

    def value(self, x):
        # constants sit in value_at_inf: nothing cancels as exp(-alpha*x) -> 0
        return _maybe_scalar(self.value_at_inf - np.asarray(self.shortfall(x)), x)

    @property
    def value_at_inf(self) -> float:
        """sup_x U(x), the x -> +inf limit of the anchored utility."""
        out = self.value_at_zero + (1.0 + self.shift) / self.alpha
        if self.amp != 0.0:
            out += self.amp * self.omega / (self.alpha ** 2 + self.omega ** 2)
        return float(out)

    def _reference_inverse(self, v):
        return -np.log(v) / self.alpha


def make_exponential(alpha: float) -> UtilityOnR:
    """Exponential utility -(1/alpha) * exp(-alpha*x)."""
    return UtilityOnR(alpha=float(alpha))


def make_perturbed_exponential(delta: float, alpha: float = 1.0, kind: str = "sine",
                               a: float = 0.2, omega: float = 1.0,
                               value_at_zero: float | None = None) -> UtilityOnR:
    """Certified perturbation of the exponential marginal.

    kind 'sine' uses F(x) = 1 + a*delta*sin(omega*x); kind 'constant-shift'
    uses F(x) = 1 + a*delta.  Construction fails when the perturbation is
    large enough to break strict monotonicity of the marginal or positivity
    of the ratio.
    """
    delta = float(delta)
    alpha = float(alpha)
    if not delta >= 0.0:
        raise ValueError("delta must be nonnegative")
    size = a * delta
    if kind == "sine":
        if not a >= 0.0:
            raise ValueError("sine amplitude a must be nonnegative")
        if not size < 1.0:
            raise ValueError("a*delta >= 1 leaves no positive ratio certificate")
        if not size * omega < alpha * (1.0 - size):
            raise ValueError("marginal monotonicity needs a*delta*omega < alpha*(1 - a*delta)")
        return UtilityOnR(alpha=alpha, amp=size, omega=float(omega),
                          value_at_zero=value_at_zero)
    if kind in ("constant-shift", "constant_shift"):
        if not -1.0 < size < 1.0:
            raise ValueError("|a*delta| >= 1 leaves no positive ratio certificate")
        return UtilityOnR(alpha=alpha, shift=size, value_at_zero=value_at_zero)
    raise ValueError(f"unknown ratio kind {kind!r}")


def rescale_to_unit_alpha(u: UtilityOnR) -> UtilityOnR:
    """The normalized utility x -> alpha * U(x / alpha), whose reference risk aversion is 1."""
    return UtilityOnR(alpha=1.0, shift=u.shift, amp=u.amp, omega=u.omega / u.alpha,
                      value_at_zero=u.alpha * u.value_at_zero)


# ----------------------------------------------------------------------
# utilities on the positive half-line


@dataclass(frozen=True)
class UtilityOnRPlus(_CertifiedUtility):
    """Utility on (0, inf) whose marginal is a certified perturbation of x**(p-1).

    marginal U'(x) = F(x) * x**(p-1) with F(x) = 1 + shift + amp*sin(nu*log x)
    and certified bounds lower <= F <= upper.  `value_at_one` anchors U.
    """

    p: float
    shift: float = 0.0
    amp: float = 0.0
    nu: float = 0.0
    value_at_one: float | None = None

    def __post_init__(self):
        if not -np.inf < self.p < 0.0:
            raise ValueError("exponent p must be negative")
        if not np.all(np.isfinite([self.shift, self.amp, self.nu])):
            raise ValueError("shift, amp and nu must be finite")
        if self.value_at_one is None:
            object.__setattr__(self, "value_at_one", 1.0 / self.p)
        elif not np.isfinite(self.value_at_one):
            raise ValueError("value_at_one must be finite")

    def ratio(self, x):
        x = np.asarray(x, dtype=float)
        out = 1.0 + self.shift + self.amp * np.sin(self.nu * np.log(x))
        return _maybe_scalar(out, x)

    def marginal(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.ratio(x)) * np.power(x, self.p - 1.0)
        return _maybe_scalar(out, x)

    def curvature(self, x):
        x = np.asarray(x, dtype=float)
        F = np.asarray(self.ratio(x))
        dF = self.amp * self.nu * np.cos(self.nu * np.log(x)) / x
        out = dF * np.power(x, self.p - 1.0) + (self.p - 1.0) * F * np.power(x, self.p - 2.0)
        return _maybe_scalar(out, x)

    def shortfall(self, x):
        """U(inf) - U(x) = x**p * tail(x) > 0, computed without cancellation;
        pure power -x**p / p."""
        x = np.asarray(x, dtype=float)
        xp = np.power(x, self.p)
        out = (1.0 + self.shift) * xp / -self.p
        if self.amp != 0.0:
            # amp * int_x^inf s**(p-1) sin(nu log s) ds
            nlx = self.nu * np.log(x)
            out = out - self.amp * xp * (self.p * np.sin(nlx) - self.nu * np.cos(nlx)) \
                / (self.p ** 2 + self.nu ** 2)
        return _maybe_scalar(out, x)

    def value(self, x):
        # constants sit in value_at_inf: nothing cancels as x**p -> 0
        return _maybe_scalar(self.value_at_inf - np.asarray(self.shortfall(x)), x)

    def _reference_inverse(self, v):
        return np.power(v, 1.0 / (self.p - 1.0))

    @property
    def value_at_inf(self) -> float:
        """sup_x U(x), the x -> +inf limit of the anchored utility."""
        out = self.value_at_one - (1.0 + self.shift) / self.p
        if self.amp != 0.0:
            out += self.amp * self.nu / (self.p ** 2 + self.nu ** 2)
        return float(out)


def make_power(p: float) -> UtilityOnRPlus:
    """Power utility x**p / p for p < 0."""
    return UtilityOnRPlus(p=float(p))


def _check_rplus_monotone(p: float, shift: float, amp: float, nu: float) -> None:
    low = 1.0 + shift - abs(amp)
    if not low > 0.0:
        raise ValueError("ratio certificate must stay positive")
    if not abs(amp) * abs(nu) < (1.0 - p) * low:
        raise ValueError("marginal monotonicity needs |amp|*nu < (1-p)*(ratio lower bound)")


def make_perturbed_power(p: float, b: float = 0.1, nu: float = 1.0,
                         value_at_one: float | None = None) -> UtilityOnRPlus:
    """Power marginal modulated by a log-periodic ratio 1 + b*sin(nu*log x)."""
    p = float(p)
    if not p < 0.0:
        raise ValueError("exponent p must be negative")
    _check_rplus_monotone(p, 0.0, b, nu)
    return UtilityOnRPlus(p=p, amp=float(b), nu=float(nu), value_at_one=value_at_one)


def shifted_inverse_mix(p0: float) -> Callable[[float], float]:
    """The canonical mixing weight fmix(p) = 1 / (1 - p + p0), equal to 1 at p0."""
    def fmix(p: float) -> float:
        return 1.0 / (1.0 - p + p0)
    return fmix


def make_power_family_member(base: UtilityOnRPlus, p: float,
                             fmix: Callable[[float], float]) -> UtilityOnRPlus:
    """Member at exponent p <= p0 of the family interpolating `base` toward pure power.

    The member's marginal is
        fmix(p) * x**(p - p0) * base_marginal(x) + (1 - fmix(p)) * x**(p-1),
    i.e. its ratio to x**(p-1) is fmix(p)*F_base + (1 - fmix(p)).  Certified
    bounds tighten accordingly: lower_p = fmix(p)*(lower-1)+1 and likewise for
    the upper bound.  The caller guarantees the family-level growth condition
    on fmix (bounded (1-p)*fmix(p) as p -> -inf); per-member positivity and
    marginal monotonicity are verified here.
    """
    p = float(p)
    p0 = base.p
    if not p <= p0:
        raise ValueError("family members need p <= p0")
    w0 = float(fmix(p0))
    if abs(w0 - 1.0) > 1e-12:
        raise ValueError("fmix(p0) must equal 1")
    w = float(fmix(p))
    if not (0.0 < w <= 1.0):
        raise ValueError("fmix(p) must lie in (0, 1]")
    shift = w * base.shift
    amp = w * base.amp
    _check_rplus_monotone(p, shift, amp, base.nu)
    return UtilityOnRPlus(p=p, shift=shift, amp=amp, nu=base.nu)


@dataclass(frozen=True)
class UtilityField:
    """A bounded terminal factor weighting a positive-half-line utility.

    weights holds D_T per leaf; the objective is E[D_T * U(X_T)].  Bounds
    k1 <= D_T <= k2 with k1 > 0 are recorded at construction.
    """

    weights: np.ndarray
    k1: float = field(init=False)
    k2: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.size == 0 or np.any(~np.isfinite(w)):
            raise ValueError("terminal weights must be finite and nonempty")
        k1, k2 = float(w.min()), float(w.max())
        if k1 <= 0.0:
            raise ValueError("terminal weights must be strictly positive")
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)

    @staticmethod
    def from_claim(claim_values) -> "UtilityField":
        """Field with weights exp(B) for a bounded claim B given per leaf."""
        return UtilityField(np.exp(np.asarray(claim_values, dtype=float)))


# ----------------------------------------------------------------------
# certification helpers


@dataclass(frozen=True)
class RatioCertificate:
    """Empirical ratio bounds of a marginal against its reference on a grid."""

    lower_hat: float
    upper_hat: float
    f_hat: float
    marginal_monotone: bool
    grid_min: float
    grid_max: float
    n_points: int


def certify_ratio_bounds(u, grid=None) -> RatioCertificate:
    """Empirical counterpart of the declared ratio certificate.

    Evaluates the ratio marginal/reference on a grid ([-20, 20] uniformly for
    real-line utilities, log-spaced on [1e-6, 1e4] for positive ones) and
    reports min, max, sup |ratio - 1| and a strict-monotonicity flag for the
    marginal itself.  Uses only the marginal evaluator, so it cross-checks
    the closed-form ratio.
    """
    if isinstance(u, UtilityOnRPlus):
        if grid is None:
            grid = np.logspace(-6.0, 4.0, 2001)
        ref = np.power(grid, u.p - 1.0)
    else:
        if grid is None:
            grid = np.linspace(-20.0, 20.0, 2001)
        ref = np.exp(-u.alpha * grid)
    grid = np.asarray(grid, dtype=float)
    mv = np.asarray(u.marginal(grid))
    ratio = mv / ref
    return RatioCertificate(
        lower_hat=float(ratio.min()),
        upper_hat=float(ratio.max()),
        f_hat=float(np.max(np.abs(ratio - 1.0))),
        marginal_monotone=bool(np.all(np.diff(mv) < 0.0)),
        grid_min=float(grid.min()),
        grid_max=float(grid.max()),
        n_points=int(grid.size),
    )


@dataclass(frozen=True)
class SandwichAudit:
    """Worst violation of the two-sided conjugate envelope on a y-grid."""

    max_violation: float
    worst_y: float
    n_points: int


def conjugate_sandwich_audit(u, ygrid=None) -> SandwichAudit:
    """Check the conjugate against its reference-conjugate envelope.

    With vtilde the conjugate of the reference utility (exponential or pure
    power) and bounds lower <= F <= upper, the conjugate must satisfy

        upper*vtilde(y/upper) + V(0) <= V(y) <= lower*vtilde(y/lower) + V(0)

    pointwise (V(0) is the supremum of U).  Returns the maximum violation of
    either side over the grid; for an exact reference member both sides
    collapse onto V and the violation is numerical noise.
    """
    if ygrid is None:
        ygrid = np.logspace(-3.0, 2.0, 200)
    ygrid = np.asarray(ygrid, dtype=float)
    if np.any(ygrid <= 0.0):
        raise ValueError("sandwich audit needs a positive y-grid")

    if isinstance(u, UtilityOnRPlus):
        q = u.p / (u.p - 1.0)

        def vtilde(y):
            return -np.power(y, q) / q
    else:
        def vtilde(y):
            return (y * np.log(y) - y) / u.alpha

    v0 = u.value_at_inf
    v = np.asarray(u.conjugate(ygrid))
    lo_env = u.upper * vtilde(ygrid / u.upper) + v0
    hi_env = u.lower * vtilde(ygrid / u.lower) + v0
    viol = np.maximum(lo_env - v, v - hi_env)
    k = int(np.argmax(viol))
    return SandwichAudit(max_violation=float(max(viol[k], 0.0)),
                         worst_y=float(ygrid[k]), n_points=int(ygrid.size))
