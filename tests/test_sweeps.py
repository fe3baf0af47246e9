import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

import stablab.pricing
import stablab.sweeps
from conftest import two_step_binomial
from stablab import (AuditReport, ConfigError, SweepReport, SweepSpec, UtilityField,
                     audit_probabilistic_lemmas, build_tree, fit_rate, load_config,
                     make_power, report_csv, report_json, shipped_families, solve_power_field,
                     solve_primal, sweep_delta, sweep_p)
from stablab.sweeps import DELTA_COLUMNS, P_COLUMNS, _nnls2, _run_grid

LATTICE = {"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 2}}
TRINOMIAL = {"nodes": [
    {"parent": -1, "prob": 1.0, "prices": [1.0]},
    {"parent": 0, "prob": 0.3333333333333333, "prices": [2.0]},
    {"parent": 0, "prob": 0.3333333333333333, "prices": [1.0]},
    {"parent": 0, "prob": 0.3333333333333333, "prices": [0.5]},
]}
TWO_ASSET = {"nodes": [
    {"parent": -1, "prob": 1.0, "prices": [1.0, 1.0]},
    {"parent": 0, "prob": 0.5, "prices": [1.2, 0.9]},
    {"parent": 0, "prob": 0.5, "prices": [0.8, 1.1]},
]}


def delta_doc(**overrides):
    doc = {"market": LATTICE, "family": {"kind": "sine", "a": 0.2, "omega": 1.0},
           "grid": [0.2, 0.1, 0.05, 0.025]}
    doc.update(overrides)
    return doc


# ----------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("market"),
    lambda d: d.pop("family"),
    lambda d: d.pop("grid"),
    lambda d: d.update(grid=[]),
    lambda d: d.update(grid=[0.1, 0.3, 0.2]),
    lambda d: d.update(grid=[0.2, -0.1]),
    lambda d: d.update(market={"lattice": {"s0": 1.0, "u": 0.5, "d": 2.0,
                                           "q": 0.5, "steps": 2}}),
    lambda d: d.update(family={"kind": "mystery"}),
    lambda d: d.update(claim={"kind": "mystery"}),
    lambda d: d.update(claim=[1.0, 2.0]),
    lambda d: d.update(claim=[1.0, -2.0, 0.0, 0.0]),
    lambda d: d.update(claim=[1.0, float("inf"), 0.0, 0.0]),
    lambda d: d.update(family={"kind": "sine", "a": 40.0}),
    lambda d: d.update(tol=-1.0),
    lambda d: d.update(tol=float("nan")),
    lambda d: d.update(claim={"kind": "call", "asset": 3}),
    lambda d: d.update(claim={"kind": "call", "asset": True}),
    lambda d: d.update(claim={"kind": "call", "asset": -1}),
    lambda d: d.update(x0=float("nan")),
    lambda d: d.update(x0=float("inf")),
    lambda d: d.update(seed=float("inf")),
    lambda d: d.update(family={"kind": "sine", "a": float("nan")}),
    lambda d: d.update(family={"kind": "constant-shift", "a": float("nan")}),
    lambda d: d.update(family={"kind": "sine", "omega": float("nan")}),
    lambda d: d.update(market={"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5,
                                           "steps": 2.5}}),
    lambda d: d.update(market={"lattice": {"s0": float("nan"), "u": 2.0, "d": 0.5, "q": 0.5,
                                           "steps": 2}}),
    # booleans are not numbers, and whole-number entries take no fraction
    lambda d: d.update(seed=2.5),
    lambda d: d.update(seed=True),
    lambda d: d.update(x0=True),
    lambda d: d.update(claim={"kind": "call", "asset": 0.9}),
    lambda d: d.update(market=TWO_ASSET, claim={"kind": "call", "asset": 0.9}),
    lambda d: d.update(market=TWO_ASSET, claim={"kind": "call", "asset": True}),
    # strings are not numbers either, in the config or in its family
    lambda d: d.update(x0="0.5"),
    lambda d: d.update(seed="3"),
    lambda d: d.update(grid=["0.2", "0.1"]),
    lambda d: d.update(claim={"kind": "call", "strike": "1.0"}),
    lambda d: d.update(family={"kind": "sine", "a": True}),
    lambda d: d.update(family={"kind": "sine", "a": "0.2"}),
    lambda d: d.update(family={"kind": "sine", "omega": True}),
    lambda d: d.update(family={"kind": "constant-shift", "alpha_slope": "0.5"}),
    lambda d: d.update(market={"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5,
                                           "steps": True}}),
    lambda d: d.update(market={"lattice": {"s0": 1.0, "u": "2", "d": 0.5, "q": 0.5,
                                           "steps": 2}}),
    lambda d: d.update(market={"nodes": [dict(TRINOMIAL["nodes"][0]),
                                         *({**nd, "prob": str(nd["prob"])}
                                           for nd in TRINOMIAL["nodes"][1:])]}),
    lambda d: d.update(market={"nodes": [*TRINOMIAL["nodes"][:3],
                                         {**TRINOMIAL["nodes"][3], "parent": 0.7}]}),
    # a tolerance and explicit claim leaves are JSON numbers too
    lambda d: d.update(tol=True),
    lambda d: d.update(tol="1e-9"),
    lambda d: d.update(claim=["1", "2", "3", "4"]),
    lambda d: d.update(claim=[True, False, True, False]),
    lambda d: d.update(claim=[[1.0], [2.0], [3.0], [4.0]]),
    lambda d: d.update(claim="1234"),
    # missing, mistyped or infinite market entries
    lambda d: d.update(market={"lattice": {"s0": 1.0, "d": 0.5, "q": 0.5, "steps": 2}}),
    lambda d: d.update(market={"lattice": {"s0": float("inf"), "u": 2.0, "d": 0.5, "q": 0.5,
                                           "steps": 2}}),
    lambda d: d.update(market={"nodes": 5}),
    lambda d: d.update(market={"nodes": [dict(TRINOMIAL["nodes"][0], parent=1e300),
                                         *TRINOMIAL["nodes"][1:]]}),
    lambda d: d.update(market={"nodes": [*TRINOMIAL["nodes"][:3],
                                         {"parent": 0, "prob": 0.3333333333333333}]}),
    lambda d: d.update(market={"nodes": [*TRINOMIAL["nodes"][:3],
                                         {**TRINOMIAL["nodes"][3], "prices": ["0.5"]}]}),
    lambda d: d.update(market={"nodes": [*TRINOMIAL["nodes"][:3],
                                         {**TRINOMIAL["nodes"][3], "prices": "0.5"}]}),
    lambda d: d.update(market={"nodes": [*TRINOMIAL["nodes"][:3],
                                         {**TRINOMIAL["nodes"][3], "prob": float("nan")}]}),
    lambda d: d.update(market={"nodes": [*TRINOMIAL["nodes"][:3],
                                         {**TRINOMIAL["nodes"][3],
                                          "prices": [float("inf")]}]}),
])
def test_load_config_rejects_bad_delta_docs(mutate):
    doc = delta_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        load_config(doc, "delta")


def test_load_config_rejects_bad_p_docs():
    base = {"market": LATTICE, "family": {"kind": "power"}, "grid": [-7.0, -15.0]}
    with pytest.raises(ConfigError):
        load_config(dict(base, grid=[-7.0, 0.5]), "p")
    with pytest.raises(ConfigError):
        load_config(dict(base, x0=0.0), "p")
    with pytest.raises(ConfigError):
        load_config(dict(base, family={"kind": "power-member", "b": 40.0}), "p")
    with pytest.raises(ConfigError):
        load_config(dict(base, family={"kind": "power-member", "b": float("nan")}), "p")
    for key, value in (("p0", True), ("p0", "-7"), ("b", "0.05"), ("b", True), ("nu", "1"),
                       ("nu", False)):
        with pytest.raises(ConfigError):
            load_config(dict(base, family={"kind": "power-member", key: value}), "p")
    with pytest.raises(ConfigError):
        load_config(dict(base, x0="1.0"), "p")
    # a member above the family's anchor p0 is a config error, not a failed grid point
    with pytest.raises(ConfigError, match="bad family"):
        load_config(dict(base, family={"kind": "power-member", "p0": -7.0},
                         grid=[-3.0, -7.0, -15.0]), "p")
    with pytest.raises(ConfigError):
        load_config(base, "q")
    with pytest.raises(ConfigError):
        load_config("not a dict", "p")


def test_load_config_defaults():
    spec = load_config(delta_doc(), "delta")
    assert spec.claim == {"kind": "zero"}
    assert spec.x0 == 0.0 and spec.tol == 1e-9 and spec.seed == 0
    pspec = load_config({"market": LATTICE, "family": {"kind": "power"},
                         "grid": [-7.0, -15.0]}, "p")
    assert pspec.x0 == 1.0


def test_each_sweep_builds_its_tree_once(monkeypatch):
    import stablab.sweeps as sweeps_mod
    calls = []

    def counted(spec):
        calls.append(spec)
        return build_tree(spec)

    monkeypatch.setattr(sweeps_mod, "build_tree", counted)
    sweep_delta(load_config(delta_doc(), "delta"))
    assert len(calls) == 1
    sweep_p(load_config({"market": LATTICE, "family": {"kind": "power-member"},
                         "grid": [-7.0, -15.0]}, "p"))
    assert len(calls) == 2


def test_sweep_spec_builds_its_own_inputs():
    # a spec built directly, or copied with dataclasses.replace, builds and
    # checks its own tree, claim and members rather than carrying another's
    spec = load_config(delta_doc(), "delta")
    direct = SweepSpec(kind="delta", market=LATTICE, family=dict(spec.family),
                       grid=spec.grid, claim={"kind": "zero"}, x0=0.0, tol=1e-9, seed=0)
    assert direct == spec
    assert report_csv(sweep_delta(direct)) == report_csv(sweep_delta(spec))
    moved = replace(spec, market=TRINOMIAL, grid=(0.2, 0.1))
    tree, B, members = moved.inputs
    assert tree.n_nodes == 4 and len(B) == 3 and sorted(members) == [0.1, 0.2]
    fresh = load_config(delta_doc(market=TRINOMIAL, grid=[0.2, 0.1]), "delta")
    assert report_csv(sweep_delta(moved)) == report_csv(sweep_delta(fresh))
    pspec = load_config({"market": LATTICE, "family": {"kind": "power-member"},
                         "grid": [-7.0, -15.0]}, "p")
    with pytest.raises(ConfigError, match="bad family"):
        replace(pspec, grid=(-3.0, -7.0))
    with pytest.raises(ConfigError, match="positive initial capital"):
        replace(pspec, x0=0.0)
    with pytest.raises(ConfigError, match="bad market spec"):
        SweepSpec(kind="p", market={"lattice": {"steps": 0}}, family={}, grid=(-7.0,),
                  claim={"kind": "zero"}, x0=1.0, tol=1e-9, seed=0)
    # the spec checks its kind and grid however it is built, reading each grid
    # value as a config number does
    power = load_config({"market": LATTICE, "family": {"kind": "power"},
                         "grid": [-3.0, -7.0]}, "p")
    assert replace(power, grid=(-3, -7)).grid == (-3.0, -7.0)
    for bad, changes in (("p grid values must be < 0", dict(grid=(-3.0, 0.5))),
                         ("grid value must be a finite number, got nan",
                          dict(grid=(float("nan"),))),
                         ("grid value must be a finite number, got 'a'", dict(grid=("a",))),
                         ("grid value must be a finite number, got True",
                          dict(grid=(-3.0, True))),
                         ("strictly monotone", dict(grid=(-3.0, -7.0, -3.0))),
                         ("non-empty", dict(grid=())),
                         ("unknown sweep kind 'gamma'", dict(kind="gamma"))):
        with pytest.raises(ConfigError, match=bad):
            replace(power, **changes)
    for bad, grid in (("strictly monotone", (0.1, 0.2, 0.1)),
                      ("delta grid values must be >= 0", (0.1, -0.1)),
                      ("grid value must be a finite number, got nan", (float("nan"),)),
                      ("grid value must be a finite number, got 'a'", ("a",))):
        with pytest.raises(ConfigError, match=bad):
            replace(spec, grid=grid)


# ----------------------------------------------------------------------
# delta sweeps


def test_exponential_family_rows_follow_exact_law():
    # alpha_delta = 1 + delta scales the optimal wealth by 1/(1+delta), so
    # every row is known in closed form
    spec = load_config(delta_doc(family={"kind": "exponential"},
                                 grid=[0.4, 0.2, 0.1, 0.05]), "delta")
    rep = sweep_delta(spec)
    assert rep.columns == DELTA_COLUMNS
    assert [row["delta"] for row in rep.rows] == [0.4, 0.2, 0.1, 0.05]
    for row in rep.rows:
        d = row["delta"]
        exact = d / (1.0 + d) * (16.0 / 27.0) * np.log(2.0)
        assert row["f"] == 0.0
        assert row["g"] == pytest.approx(d, abs=1e-15)
        assert row["l1_wealth_err"] == pytest.approx(exact, abs=1e-12)
        assert row["davis_err"] == 0.0
        assert row["indiff_err"] == 0.0
        assert row["dq_l1"] < 1e-14
    # first-order law: the non-negative least-squares fit against (f^2, g)
    # loads everything on g.  The exact error is c*delta/(1+delta), so the
    # fitted slope sits inside [c/(1+max delta), c] for the half grid {0.05, 0.1}
    c = (16.0 / 27.0) * np.log(2.0)
    fit = rep.fits["f2g_half"]
    assert fit.coefficients["C1"] == pytest.approx(0.0, abs=1e-8)
    assert c / 1.1 - 1e-12 <= fit.coefficients["C2"] <= c
    # two half points make the log-log fit an exact secant of
    # log(c*delta/(1+delta)): slope = 1 - log(1.1/1.05)/log 2
    secant = 1.0 - np.log(1.1 / 1.05) / np.log(2.0)
    assert rep.fits["loglog_half"].coefficients["slope"] == pytest.approx(
        secant, abs=1e-9)


def test_sine_family_rows_record_certificates():
    spec = load_config(delta_doc(), "delta")
    rep = sweep_delta(spec)
    for row in rep.rows:
        assert row["f"] == pytest.approx(0.2 * row["delta"], abs=1e-15)
        assert row["g"] == 0.0
    errs = rep.column("l1_wealth_err")
    assert np.all(np.diff(errs) < 0.0)


def test_trinomial_price_gaps_shrink():
    spec = load_config({"market": TRINOMIAL,
                        "family": {"kind": "sine", "a": 0.2, "omega": 1.0},
                        "grid": [0.4, 0.2, 0.1, 0.05],
                        "claim": {"kind": "call", "strike": 1.0}}, "delta")
    rep = sweep_delta(spec)
    for col in ("davis_err", "indiff_err", "dq_l1"):
        vals = rep.column(col)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 1e-10)


def test_delta_sweep_prices_from_its_own_solves(monkeypatch):
    # the base and each grid point are solved once, and each price reuses
    # that solve and its dual: on the complete lattice, one more solve at
    # the Davis price settles it
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return solve_primal(*args, **kwargs)

    monkeypatch.setattr(stablab.sweeps, "solve_primal", counted)
    monkeypatch.setattr(stablab.pricing, "solve_primal", counted)
    with open("configs/binomial_sine.json") as fh:
        rep = sweep_delta(load_config(json.load(fh), "delta"))
    assert len(rep.rows) == 5 and not rep.meta.get("incomplete")
    assert count[0] <= 12


# ----------------------------------------------------------------------
# p sweeps


def test_p_sweep_member_rows():
    spec = load_config({"market": LATTICE,
                        "family": {"kind": "power-member", "p0": -7.0,
                                   "b": 0.05, "nu": 1.0},
                        "grid": [-7.0, -15.0], "x0": 1.0}, "p")
    rep = sweep_p(spec)
    assert rep.columns == P_COLUMNS
    assert rep.rows[0]["p"] == -7.0
    assert rep.rows[0]["fmix"] == pytest.approx(1.0, abs=1e-15)
    assert rep.rows[1]["fmix"] == pytest.approx(1.0 / 9.0, abs=1e-15)
    for row in rep.rows:
        assert row["pure_distance"] > 0.0
        assert row["member_distance"] > 0.0
        assert 0.99 < row["y_ratio"] < 1.01
    # no fits below 4 grid points
    assert rep.fits == {}


def test_p_sweep_pure_family_collapses_member_columns():
    spec = load_config({"market": LATTICE, "family": {"kind": "power"},
                        "grid": [-7.0, -15.0], "x0": 1.0}, "p")
    rep = sweep_p(spec)
    for row in rep.rows:
        assert row["member_distance"] == row["pure_distance"]
        assert row["ratio_product"] == 0.0
        assert row["y_ratio"] == 1.0


def test_p_sweep_ratio_columns_under_a_claim_use_the_field_weighted_measure():
    spec = load_config({"market": {"lattice": {"s0": 1.0, "u": 1.2, "d": 0.9, "q": 0.6,
                                               "steps": 4}},
                        "family": {"kind": "power-member", "p0": -7.0, "b": 0.05, "nu": 1.0},
                        "grid": [-7.0], "claim": {"kind": "call", "strike": 1.0},
                        "x0": 1.0}, "p")
    row = sweep_p(spec).rows[0]
    tree, B, members = spec.inputs
    p, member = -7.0, members[-7.0][0]
    pure = solve_power_field(tree, make_power(p), 1.0, UtilityField.from_claim(B))
    sol = solve_power_field(tree, member, 1.0, UtilityField.from_claim(B))
    r = sol.terminal / pure.terminal
    product = np.abs(member.ratio(sol.terminal) * r ** (p - 1.0) - 1.0) * np.abs(1.0 - r)
    w = tree.path_prob[tree.leaves] * make_power(p).marginal(pure.terminal) * pure.terminal
    weighted = w * np.exp(B)
    assert row["ratio_product"] == pytest.approx(weighted @ product / weighted.sum(), rel=1e-12)
    assert row["rp_l1"] == pytest.approx(weighted @ np.abs(r ** p - 1.0) / weighted.sum(),
                                         rel=1e-12)
    # the measure without the field reads a different product
    assert abs(w @ product / w.sum() / row["ratio_product"] - 1.0) > 0.05


# ----------------------------------------------------------------------
# rate fitting


def synthetic_delta_report(deltas, f, g, y):
    rows = [{"delta": d, "f": fv, "g": gv, "l1_wealth_err": yv}
            for d, fv, gv, yv in zip(deltas, f, g, y)]
    return SweepReport(kind="delta", columns=["delta", "f", "g", "l1_wealth_err"],
                       rows=rows)


def test_fit_recovers_planted_f2_plus_g():
    d = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    f, g = d, 0.3 * d
    y = 3.0 * f ** 2 + 5.0 * g
    fit = fit_rate(synthetic_delta_report(d, f, g, y), "f2_plus_g", subset="full")
    assert fit.coefficients["C1"] == pytest.approx(3.0, rel=1e-10)
    assert fit.coefficients["C2"] == pytest.approx(5.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 5


@st.composite
def nnls_problems(draw):
    """(kind, X, y) with n = 2..8 rows of entries 0 or +-m * 10^k, k = -9..3.

    kind "zero column" and "zero X" clear columns; "y <= 0" pairs |X| with
    -|y|, so the answer is 0; "clipped" sets y = a x_1 - b x_2 (a, b > 0),
    whose least-squares coefficient on x_2 is negative; "collinear" sets
    x_2 to a power-of-two multiple of x_1, exactly."""
    entry = st.one_of(st.just(0.0), st.builds(
        lambda s, m, k: s * m * 10.0 ** k,
        st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99), st.integers(-9, 3)))
    n = draw(st.integers(2, 8))
    X = np.array(draw(st.lists(entry, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
    y = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["any", "zero column", "zero X", "y <= 0", "clipped",
                                 "collinear"]))
    if kind == "zero column":
        X[:, draw(st.integers(0, 1))] = 0.0
    elif kind == "zero X":
        X[:] = 0.0
    elif kind == "y <= 0":
        X, y = np.abs(X), -np.abs(y)
    elif kind == "clipped":
        y = draw(st.floats(0.1, 10.0)) * X[:, 0] - draw(st.floats(0.1, 10.0)) * X[:, 1]
    elif kind == "collinear":
        X[:, 1] = draw(st.sampled_from([-2.0, -0.5, 0.5, 1.0, 4.0])) * X[:, 0]
    return kind, X, y


@settings(max_examples=200, deadline=None, derandomize=True)
@given(problem=nnls_problems())
# cond 2e5: the two solvers differ by 8e-12 of |y| / sigma_min
@example(problem=("any", np.array([[0.0, -1e-5], [-1.0, 1.0]]), np.array([-1.0, 0.0])))
# each fit lowers |y|^2 by less than its rounding
@example(problem=("any", np.array([[0.0, 10.0], [0.0, -1e3], [-1e-5, 0.0], [1e3, 5e3]]),
                  np.array([1e-5, 0.0, -1.0, 0.0])))
# nearly parallel columns: the two fits lower |y|^2 by nearly the same
@example(problem=("clipped", np.array([[-1e-9, 0.0], [-1e2, -1e-1]]),
                  np.array([-1e-9, -99.9])))
def test_two_column_fit_matches_nnls(problem):
    """The closed-form fit against scipy's active-set NNLS.

    The residual is no larger than nnls's, up to 1e-12 relative and the
    rounding of evaluating X c - y.  Where cond(X) <= 1e8 the coefficients
    agree within 1e-12 * cond(X) of |y| / sigma_min(X), the size a
    least-squares coefficient can reach: two backward-stable solvers differ
    by about eps * cond(X) on that scale."""
    kind, X, y = problem
    c = _nnls2(X, y)
    ref, rnorm = nnls(X, y)
    assert c.shape == (2,) and np.all(c >= 0.0)
    rounding = 16 * np.finfo(float).eps * (np.linalg.norm(X) * np.linalg.norm(c)
                                           + np.linalg.norm(y))
    assert np.linalg.norm(X @ c - y) <= rnorm * (1.0 + 1e-12) + rounding
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[1] > 0.0 and sv[0] <= 1e8 * sv[1]:
        assert np.abs(c - ref).max() <= 1e-12 * (sv[0] / sv[1]) * np.linalg.norm(y) / sv[1]
        if kind == "clipped":
            assert c.min() == 0.0
    if kind in ("zero X", "y <= 0"):
        assert not c.any()


def test_two_column_fit_scales_out_of_underflow():
    # x.x of the column 4e-170 underflows to 0; the power-of-two scale keeps it
    c = _nnls2(np.array([[0.0, -4e-170], [0.0, 0.0]]), np.array([-1.0, 0.0]))
    assert c[0] == 0.0 and c[1] == pytest.approx(1.0 / 4e-170, rel=1e-15)
    with pytest.raises(ValueError):
        _nnls2(np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([1.0, 1.0]))


def test_fit_recovers_planted_loglog_slope():
    d = np.array([0.4, 0.2, 0.1, 0.05])
    y = d ** 1.8
    fit = fit_rate(synthetic_delta_report(d, d, d, y), "loglog_slope", subset="full")
    assert fit.coefficients["slope"] == pytest.approx(1.8, abs=1e-12)
    assert fit.coefficients["intercept"] == pytest.approx(0.0, abs=1e-12)
    half = fit_rate(synthetic_delta_report(d, d, d, y), "loglog_slope")
    assert half.subset == "half" and half.n_points == 2


def test_fit_recovers_planted_inverse_law():
    p = np.array([-7.0, -15.0, -31.0, -63.0])
    rows = [{"p": pv, "pure_distance": 7.0 / (1.0 - pv)} for pv in p]
    rep = SweepReport(kind="p", columns=["p", "pure_distance"], rows=rows)
    fit = fit_rate(rep, "inverse_one_minus_p", subset="full")
    assert fit.coefficients["C"] == pytest.approx(7.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_validation():
    d = np.array([0.4, 0.2, 0.1])
    rep = synthetic_delta_report(d, d, d, d)
    with pytest.raises(ValueError):
        fit_rate(rep, "loglog_slope")         # too few points
    d = np.array([0.4, 0.2, 0.1, 0.05])
    rep = synthetic_delta_report(d, d, d, d)
    with pytest.raises(ValueError):
        fit_rate(rep, "mystery")
    with pytest.raises(ValueError):
        fit_rate(rep, "loglog_slope", subset="third")


# ----------------------------------------------------------------------
# grid execution and serialization


def test_run_grid_keeps_prefix_on_failure():
    def one(g):
        if g == 0.1:
            raise RuntimeError("boom")
        return {"delta": g}

    rows, meta = _run_grid(one, (0.4, 0.2, 0.1, 0.05))
    assert [row["delta"] for row in rows] == [0.4, 0.2]
    assert meta["incomplete"] is True
    assert "0.1" in meta["error"] and "boom" in meta["error"]


def test_incomplete_sweep_skips_fits(monkeypatch):
    import stablab.sweeps as sweeps_mod

    def broken(one, grid):
        return [], {"incomplete": True, "error": "synthetic"}

    monkeypatch.setattr(sweeps_mod, "_run_grid", broken)
    rep = sweep_delta(load_config(delta_doc(), "delta"))
    assert rep.rows == [] and rep.fits == {}
    assert rep.meta["incomplete"]


def test_csv_round_trip():
    spec = load_config(delta_doc(family={"kind": "exponential"}), "delta")
    rep = sweep_delta(spec)
    text = report_csv(rep)
    lines = text.splitlines()
    assert lines[0] == ",".join(DELTA_COLUMNS)
    assert len(lines) == 1 + len(rep.rows)
    assert text.endswith("\n") and "\r" not in text
    for line, row in zip(lines[1:], rep.rows):
        parsed = [float(v) for v in line.split(",")]
        assert parsed == [row[c] for c in DELTA_COLUMNS]


def test_json_shape_and_determinism():
    spec = load_config(delta_doc(), "delta")
    text = report_json(sweep_delta(spec))
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["kind"] == "delta"
    assert doc["columns"] == DELTA_COLUMNS
    assert "loglog_half" in doc["fits"]
    # canonical form: sorted keys, indent 2, trailing newline
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


def test_thread_count_does_not_change_bytes():
    spec = load_config(delta_doc(), "delta")
    outputs = []
    for _ in range(2):
        rep = sweep_delta(spec)
        outputs.append((report_csv(rep), report_json(rep)))
    assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# audits


def test_audit_ok_on_binomial():
    rep = audit_probabilistic_lemmas(two_step_binomial(), seed=7, trials=150)
    assert isinstance(rep, AuditReport)
    assert rep.doob_violations == 0
    assert 0.0 < rep.doob_max_ratio <= 1.0
    assert rep.sandwich_max_violation <= 1e-8
    assert rep.ok
    assert len(rep.families) == 6


def test_audit_requires_enough_trials():
    with pytest.raises(ValueError):
        audit_probabilistic_lemmas(two_step_binomial(), trials=50)


def test_audit_memory_is_bounded_by_its_blocks():
    # all 4000 trials at once hold 4000 x 256 x 9 path values (74 MB)
    tree = build_tree({"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 8}})
    tracemalloc.start()
    try:
        rep = audit_probabilistic_lemmas(tree, seed=3, trials=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.trials == 4000 and rep.ok
    assert peak <= 16 * 2 ** 20


def test_shipped_families_are_unique():
    fams = shipped_families()
    names = [name for name, _ in fams]
    assert len(set(names)) == len(names) == 6
    for _, u in fams:
        assert np.isfinite(u.marginal(1.0) if hasattr(u, "p") else u.marginal(0.0))
