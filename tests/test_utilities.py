import math

import numpy as np
import pytest
from scipy.integrate import quad

from stablab import (UtilityField, UtilityOnR, UtilityOnRPlus,
                     certify_ratio_bounds, conjugate_sandwich_audit,
                     make_exponential, make_perturbed_exponential,
                     make_perturbed_power, make_power,
                     make_power_family_member, rescale_to_unit_alpha,
                     shifted_inverse_mix)

REAL_CASES = [
    make_exponential(1.0),
    make_exponential(2.3),
    make_perturbed_exponential(0.2, a=0.2, omega=1.0),
    make_perturbed_exponential(0.35, alpha=1.4, a=0.2, omega=1.7),
    make_perturbed_exponential(0.1, kind="constant-shift", a=0.3),
]
POSITIVE_CASES = [
    make_power(-1.0),
    make_power(-7.0),
    make_perturbed_power(-2.0, b=0.1, nu=1.0),
    make_perturbed_power(-7.0, b=0.05, nu=2.0),
]


@pytest.mark.parametrize("u", REAL_CASES)
def test_real_line_derivative_consistency(u):
    rng = np.random.default_rng(0)
    x = rng.uniform(-4.0, 4.0, size=40)
    h = 1e-6
    fd_marg = (u.value(x + h) - u.value(x - h)) / (2 * h)
    assert np.allclose(fd_marg, u.marginal(x), rtol=1e-7, atol=1e-9)
    fd_curv = (u.marginal(x + h) - u.marginal(x - h)) / (2 * h)
    assert np.allclose(fd_curv, u.curvature(x), rtol=1e-6, atol=1e-8)
    # concave and strictly increasing
    assert np.all(np.asarray(u.marginal(x)) > 0.0)
    assert np.all(np.asarray(u.curvature(x)) < 0.0)


@pytest.mark.parametrize("u", POSITIVE_CASES)
def test_positive_derivative_consistency(u):
    rng = np.random.default_rng(1)
    x = np.exp(rng.uniform(-2.0, 2.0, size=40))
    h = 1e-7
    fd_marg = (u.value(x + h) - u.value(x - h)) / (2 * h)
    assert np.allclose(fd_marg, u.marginal(x), rtol=1e-5)
    fd_curv = (u.marginal(x + h) - u.marginal(x - h)) / (2 * h)
    assert np.allclose(fd_curv, u.curvature(x), rtol=1e-4)
    assert np.all(np.asarray(u.marginal(x)) > 0.0)
    assert np.all(np.asarray(u.curvature(x)) < 0.0)


@pytest.mark.parametrize("u", [REAL_CASES[2], REAL_CASES[3]])
def test_real_value_matches_quadrature(u):
    for x in (-2.0, -0.3, 0.7, 3.0):
        integral, err = quad(u.marginal, 0.0, x)
        assert u.value(x) - u.value(0.0) == pytest.approx(integral, abs=1e-10)


@pytest.mark.parametrize("u", [POSITIVE_CASES[2], POSITIVE_CASES[3]])
def test_positive_value_matches_quadrature(u):
    for x in (0.2, 0.8, 1.7, 5.0):
        integral, err = quad(u.marginal, 1.0, x)
        assert u.value(x) - u.value(1.0) == pytest.approx(integral, abs=1e-10)


@pytest.mark.parametrize("u", REAL_CASES + POSITIVE_CASES)
def test_inverse_marginal_round_trip(u):
    y = np.logspace(-3.0, 2.0, 37)
    x = np.asarray(u.inverse_marginal(y))
    assert np.allclose(np.asarray(u.marginal(x)), y, rtol=1e-11)
    # scalar in, scalar out
    assert np.isscalar(u.inverse_marginal(0.5)) or np.ndim(u.inverse_marginal(0.5)) == 0
    with pytest.raises(ValueError):
        u.inverse_marginal(-1.0)


def test_inverse_marginal_stops_once_every_entry_converges(monkeypatch):
    # one curvature call per root-finding iteration: an entry whose Newton
    # candidate lands on its own iterate (a bracket end) has converged and
    # must not restart a bisection, so the vector takes as long as a single
    # value does (7 iterations each on this grid)
    calls = []
    curvature = UtilityOnR.curvature
    monkeypatch.setattr(UtilityOnR, "curvature",
                        lambda self, x: calls.append(1) or curvature(self, x))
    u = make_perturbed_exponential(0.2)
    y = np.linspace(0.05, 3.0, 256)
    x = u.inverse_marginal(y)
    assert len(calls) <= 8
    assert np.max(np.abs(np.asarray(u.marginal(x)) - y) / y) <= 4.0 * np.finfo(float).eps


def test_exponential_conjugate_closed_form():
    for alpha in (1.0, 1.5, 3.0):
        u = make_exponential(alpha)
        y = np.logspace(-2, 2, 25)
        assert np.allclose(u.conjugate(y), (y * np.log(y) - y) / alpha, atol=1e-12)
        assert u.conjugate(0.0) == pytest.approx(0.0)
        assert np.allclose(u.conjugate_prime(y), np.log(y) / alpha, atol=1e-12)
    with pytest.raises(ValueError):
        make_exponential(1.0).conjugate(-0.5)


def test_power_conjugate_closed_form():
    for p in (-1.0, -4.0):
        u = make_power(p)
        q = p / (p - 1.0)
        y = np.logspace(-2, 2, 25)
        assert np.allclose(u.conjugate(y), -np.power(y, q) / q, rtol=1e-12)
        assert u.conjugate(0.0) == pytest.approx(0.0)


@pytest.mark.parametrize("u", REAL_CASES + POSITIVE_CASES)
def test_conjugate_derivatives(u):
    y = np.logspace(-1.5, 1.5, 21)
    h = 1e-6
    fd = (np.asarray(u.conjugate(y + y * h)) - np.asarray(u.conjugate(y - y * h))) / (2 * y * h)
    assert np.allclose(fd, u.conjugate_prime(y), rtol=1e-5, atol=1e-8)
    fd2 = (np.asarray(u.conjugate_prime(y * (1 + h)))
           - np.asarray(u.conjugate_prime(y * (1 - h)))) / (2 * y * h)
    assert np.allclose(fd2, u.conjugate_curvature(y), rtol=1e-4)
    # convexity
    assert np.all(np.asarray(u.conjugate_curvature(y)) > 0.0)


def test_value_at_inf_is_the_supremum():
    u = make_perturbed_exponential(0.3, alpha=1.2, a=0.2, omega=1.5)
    assert u.value(35.0) == pytest.approx(u.value_at_inf, abs=1e-12)
    assert u.value(5.0) < u.value_at_inf
    up = make_perturbed_power(-2.0, b=0.1, nu=1.0)
    assert up.value(1e9) == pytest.approx(up.value_at_inf, abs=1e-8)


@pytest.mark.parametrize("x", [20.0, 40.0, 700.0])
def test_exponential_value_keeps_its_digits_at_large_wealth(x):
    # anchored at value_at_inf = 0, nothing cancels: U(x) = -exp(-x)
    exact = -math.exp(-x)
    assert abs(make_exponential(1.0).value(x) - exact) <= 4 * np.spacing(abs(exact))


@pytest.mark.parametrize("u", [make_power(-3.0), make_perturbed_power(-2.0, b=0.1, nu=1.0)])
def test_power_shortfall_keeps_its_digits(u):
    # U(inf) - U(x) = x^p [(1 + shift)/(-p) - amp (p sin(nu log x) - nu cos(nu log x))
    # / (p^2 + nu^2)] > 0, computed without the subtraction from U(inf)
    x = np.array([0.5, 1.0, 3.0, 1e3, 1e9])
    nlx = u.nu * np.log(x)
    want = x ** u.p * ((1.0 + u.shift) / -u.p - u.amp * (u.p * np.sin(nlx) - u.nu * np.cos(nlx))
                       / (u.p ** 2 + u.nu ** 2))
    got = np.asarray(u.shortfall(x))
    assert np.all(got > 0.0) and np.max(np.abs(got / want - 1.0)) <= 8 * np.finfo(float).eps
    assert np.array_equal(u.value(x), u.value_at_inf - got)


SINE = make_perturbed_exponential(0.3, alpha=1.2, a=0.2, omega=1.5)


@pytest.mark.parametrize("x", [10.0, 20.0, 40.0])
def test_sine_value_gap_to_its_supremum(x):
    # U(x) - U(inf) = -exp(-alpha x) [(1 + shift)/alpha
    #                  + amp (alpha sin wx + w cos wx)/(alpha^2 + w^2)],
    # off by the rounding of one subtraction from U(inf)
    u, inf = SINE, SINE.value_at_inf
    wave = u.alpha * math.sin(u.omega * x) + u.omega * math.cos(u.omega * x)
    gap = -math.exp(-u.alpha * x) * (
        (1.0 + u.shift) / u.alpha + u.amp * wave / (u.alpha ** 2 + u.omega ** 2))
    assert abs((u.value(x) - inf) - gap) <= np.spacing(inf) + 8 * np.spacing(abs(gap))


@pytest.mark.parametrize("a, b", [(-2.0, 3.0), (10.0, 20.0), (20.0, 40.0)])
def test_sine_value_differences_match_quadrature(a, b):
    integral, _ = quad(SINE.marginal, a, b, epsabs=0.0, epsrel=1e-13)
    top = max(abs(SINE.value(a)), abs(SINE.value(b)))
    assert abs(SINE.value(b) - SINE.value(a) - integral) \
        <= 1e-12 * integral + 2 * np.spacing(top)


@pytest.mark.parametrize("u", REAL_CASES + POSITIVE_CASES)
def test_certified_bounds_hold_empirically(u):
    cert = certify_ratio_bounds(u)
    assert cert.marginal_monotone
    assert cert.lower_hat >= u.lower - 1e-12
    assert cert.upper_hat <= u.upper + 1e-12
    assert cert.f_hat <= u.f_bound + 1e-12
    # sine ratios actually attain their bounds on a wide grid
    if getattr(u, "amp", 0.0) and getattr(u, "omega", getattr(u, "nu", 0.0)) >= 1.0:
        assert cert.lower_hat == pytest.approx(u.lower, abs=1e-4)
        assert cert.upper_hat == pytest.approx(u.upper, abs=1e-4)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_exponential(0.0)
    with pytest.raises(ValueError):
        make_perturbed_exponential(-0.1)
    with pytest.raises(ValueError):
        make_perturbed_exponential(0.5, a=2.5)  # ratio can touch zero
    with pytest.raises(ValueError):
        # a*delta*omega too large for monotonicity of the marginal
        make_perturbed_exponential(0.5, a=0.9, omega=5.0)
    with pytest.raises(ValueError):
        make_perturbed_exponential(0.2, kind="cosine")
    with pytest.raises(ValueError):
        make_power(0.5)
    with pytest.raises(ValueError):
        make_power(0.0)
    with pytest.raises(ValueError):
        make_perturbed_power(-1.0, b=1.2)
    with pytest.raises(ValueError):
        make_perturbed_power(-1.0, b=0.5, nu=10.0)
    # NaN parameters fail every check
    nan = float("nan")
    for make in (lambda: make_exponential(nan), lambda: make_power(nan),
                 lambda: make_perturbed_exponential(nan),
                 lambda: make_perturbed_exponential(0.2, alpha=nan),
                 lambda: make_perturbed_exponential(0.2, a=nan),
                 lambda: make_perturbed_exponential(0.2, omega=nan),
                 lambda: make_perturbed_exponential(0.2, kind="constant-shift", a=nan),
                 lambda: make_perturbed_power(nan), lambda: make_perturbed_power(-1.0, b=nan),
                 lambda: make_perturbed_power(-1.0, nu=nan)):
        with pytest.raises(ValueError):
            make()
    # infinite parameters, and NaN or infinite ratio parameters
    inf = float("inf")
    for make in (lambda: make_exponential(inf), lambda: make_power(-inf),
                 lambda: make_perturbed_exponential(0.2, alpha=inf),
                 lambda: make_perturbed_power(-inf),
                 *(lambda k=k, v=v: UtilityOnR(alpha=1.0, **{k: v})
                   for k in ("shift", "amp", "omega") for v in (nan, inf, -inf)),
                 *(lambda k=k, v=v: UtilityOnRPlus(p=-2.0, **{k: v})
                   for k in ("shift", "amp", "nu") for v in (nan, inf, -inf))):
        with pytest.raises(ValueError):
            make()
    # a NaN or infinite anchor, which would make every value NaN or infinite
    for v in (nan, inf, -inf):
        with pytest.raises(ValueError, match="^value_at_zero must be finite$"):
            UtilityOnR(alpha=1.0, value_at_zero=v)
        with pytest.raises(ValueError, match="^value_at_one must be finite$"):
            UtilityOnRPlus(p=-2.0, value_at_one=v)


def test_rescale_to_unit_alpha_identity():
    u = make_perturbed_exponential(0.3, alpha=2.0, a=0.2, omega=1.2)
    r = rescale_to_unit_alpha(u)
    assert r.alpha == 1.0
    x = np.linspace(-3.0, 3.0, 11)
    assert np.allclose(r.value(x), u.alpha * np.asarray(u.value(x / u.alpha)), atol=1e-12)
    assert np.allclose(r.marginal(x), u.marginal(x / u.alpha), atol=1e-12)
    # certificates are preserved
    assert r.lower == u.lower and r.upper == u.upper


def test_family_member_construction():
    base = make_perturbed_power(-7.0, b=0.1, nu=1.0)
    fmix = shifted_inverse_mix(-7.0)
    assert fmix(-7.0) == pytest.approx(1.0)
    member = make_power_family_member(base, -16.0, fmix)
    # fmix(-16) = 1/(1 + 16 - 7) = 0.1, so the certificates are 1 -/+ 0.01
    assert member.lower == pytest.approx(0.99)
    assert member.upper == pytest.approx(1.01)
    # member ratio is the mixed ratio
    x = np.exp(np.linspace(-2, 2, 9))
    w = fmix(-16.0)
    assert np.allclose(member.ratio(x), w * np.asarray(base.ratio(x)) + (1 - w))
    # member at the base exponent is the base itself
    m0 = make_power_family_member(base, -7.0, fmix)
    assert m0.amp == pytest.approx(base.amp) and m0.p == base.p
    with pytest.raises(ValueError):
        make_power_family_member(base, -3.0, fmix)  # p above the base exponent
    with pytest.raises(ValueError):
        make_power_family_member(base, -16.0, lambda p: 0.5)  # fmix(p0) != 1


def test_member_bounds_tighten_with_depth():
    base = make_perturbed_power(-7.0, b=0.1, nu=1.0)
    fmix = shifted_inverse_mix(-7.0)
    widths = [make_power_family_member(base, p, fmix).f_bound
              for p in (-7.0, -15.0, -31.0, -63.0)]
    assert all(np.diff(widths) < 0.0)
    # width scales like fmix(p)
    assert widths[-1] == pytest.approx(0.1 * fmix(-63.0), rel=1e-12)


def test_utility_field():
    B = np.array([0.0, 0.5, 1.0])
    fld = UtilityField.from_claim(B)
    assert np.allclose(fld.weights, np.exp(B))
    assert fld.k1 == pytest.approx(1.0)
    assert fld.k2 == pytest.approx(np.exp(1.0))
    with pytest.raises(ValueError):
        UtilityField(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        UtilityField(np.array([1.0, np.inf]))


def test_sandwich_collapses_for_pure_members():
    assert conjugate_sandwich_audit(make_exponential(1.7)).max_violation < 1e-12
    assert conjugate_sandwich_audit(make_power(-3.0)).max_violation < 1e-12


@pytest.mark.parametrize("u", [REAL_CASES[2], REAL_CASES[4], POSITIVE_CASES[2],
                               POSITIVE_CASES[3]])
def test_sandwich_holds_for_perturbed_members(u):
    audit = conjugate_sandwich_audit(u)
    assert audit.max_violation <= 1e-10
    assert audit.n_points == 200


def test_sandwich_is_anchor_invariant():
    # moving the additive anchor moves V and V(0) together
    u1 = make_perturbed_exponential(0.2, a=0.2, omega=1.0)
    u2 = make_perturbed_exponential(0.2, a=0.2, omega=1.0, value_at_zero=4.2)
    assert conjugate_sandwich_audit(u2).max_violation <= 1e-10
    y = np.logspace(-2, 1, 11)
    shift = u2.value_at_zero - u1.value_at_zero
    assert np.allclose(np.asarray(u2.conjugate(y)) - np.asarray(u1.conjugate(y)),
                       shift, atol=1e-10)


def test_dataclass_guards():
    with pytest.raises(ValueError):
        UtilityOnR(alpha=-1.0)
    with pytest.raises(ValueError):
        UtilityOnRPlus(p=0.5)
