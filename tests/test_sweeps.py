import json

import numpy as np
import pytest

from conftest import two_step_binomial
from stablab import (AuditReport, ConfigError, SweepReport,
                     audit_probabilistic_lemmas, fit_rate, load_config,
                     report_csv, report_json, shipped_families, sweep_delta,
                     sweep_p)
from stablab.sweeps import DELTA_COLUMNS, P_COLUMNS, _run_grid

LATTICE = {"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 2}}
TRINOMIAL = {"nodes": [
    {"parent": -1, "prob": 1.0, "prices": [1.0]},
    {"parent": 0, "prob": 0.3333333333333333, "prices": [2.0]},
    {"parent": 0, "prob": 0.3333333333333333, "prices": [1.0]},
    {"parent": 0, "prob": 0.3333333333333333, "prices": [0.5]},
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
    lambda d: d.update(family={"kind": "sine", "a": 40.0}),
    lambda d: d.update(tol=-1.0),
    lambda d: d.update(tol=float("nan")),
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
    # first-order law: nnls against (f^2, g) loads everything on g.  The
    # exact error is c*delta/(1+delta), so the fitted slope sits inside
    # [c/(1+max delta), c] for the half grid {0.05, 0.1}
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


def test_shipped_families_are_unique():
    fams = shipped_families()
    names = [name for name, _ in fams]
    assert len(set(names)) == len(names) == 6
    for _, u in fams:
        assert np.isfinite(u.marginal(1.0) if hasattr(u, "p") else u.marginal(0.0))
