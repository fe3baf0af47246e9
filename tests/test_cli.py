import json

import pytest

import stablab.cli as cli_mod
import stablab.pricing as pricing_mod
import stablab.sweeps as sweeps_mod
from stablab.cli import main
from stablab.sweeps import DELTA_COLUMNS

CONFIGS = "configs"


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def read_json(out_dir, name):
    return json.loads((out_dir / name).read_text())


def test_solve_exponential(tmp_path, capsys):
    rc = main(["solve", "--config", f"{CONFIGS}/solve_exponential.json",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "solve: value" in capsys.readouterr().out
    doc = read_json(tmp_path, "solve.json")
    assert doc["problem"] == "real-line"
    assert doc["schema_version"] == 1
    assert doc["gradient_norm"] < 1e-11
    assert doc["dual_residual"] < 1e-11
    assert doc["first_order_residual"] < 1e-9
    assert len(doc["dual_weights"]) == 8      # 3-step lattice


def test_solve_positive_power(tmp_path):
    cfg = write_config(tmp_path, "p.json", {
        "market": {"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 2}},
        "utility": {"kind": "power", "p": -2.0},
        "x0": 1.0,
    })
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = read_json(tmp_path / "out", "solve.json")
    assert doc["problem"] == "positive"
    assert doc["value"] < 0.0
    assert doc["dp_value_gap"] < 1e-10


def test_price_call(tmp_path, capsys):
    rc = main(["price", "--config", f"{CONFIGS}/price_call.json",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = read_json(tmp_path, "price.json")
    assert doc["davis"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert doc["indifference"] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert doc["bracket"] == [0.0, 3.0]
    assert "davis" in capsys.readouterr().out


def test_sweep_delta_writes_reports(tmp_path):
    rc = main(["sweep-delta", "--config", f"{CONFIGS}/binomial_sine.json",
               "--out", str(tmp_path)])
    assert rc == 0
    csv_text = (tmp_path / "binomial_sine.csv").read_text()
    assert csv_text.splitlines()[0] == ",".join(DELTA_COLUMNS)
    assert len(csv_text.splitlines()) == 6    # header + 5 grid rows
    doc = read_json(tmp_path, "binomial_sine.json")
    assert doc["schema_version"] == 1
    assert doc["kind"] == "delta"
    assert "loglog_half" in doc["fits"]


def test_sweep_is_deterministic(tmp_path):
    texts = []
    for sub in ("a", "b"):
        rc = main(["sweep-delta", "--config", f"{CONFIGS}/binomial_sine.json",
                   "--out", str(tmp_path / sub)])
        assert rc == 0
        texts.append(((tmp_path / sub / "binomial_sine.csv").read_bytes(),
                      (tmp_path / sub / "binomial_sine.json").read_bytes()))
    assert texts[0] == texts[1]


def test_audit_default_market(tmp_path):
    rc = main(["audit", "--out", str(tmp_path), "--trials", "120"])
    assert rc == 0
    doc = read_json(tmp_path, "audit.json")
    assert doc["ok"] is True
    assert doc["trials"] == 120
    assert doc["doob_violations"] == 0
    assert len(doc["families"]) == 6


def test_config_errors_exit_2(tmp_path, capsys):
    # missing file
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    # no market entry
    cfg = write_config(tmp_path, "nomarket.json", {"utility": {"kind": "exponential"}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    # unknown utility kind
    cfg = write_config(tmp_path, "badutil.json", {
        "market": {"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 1}},
        "utility": {"kind": "mystery"}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    # power utility without exponent
    cfg = write_config(tmp_path, "nop.json", {
        "market": {"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 1}},
        "utility": {"kind": "power"}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    # pricing with a half-line utility
    cfg = write_config(tmp_path, "pp.json", {
        "market": {"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 1}},
        "utility": {"kind": "power", "p": -2.0}})
    assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == 2
    # a NaN tolerance would switch the indifference residual check off
    assert main(["price", "--config", f"{CONFIGS}/price_call.json", "--tol", "nan",
                 "--out", str(tmp_path)]) == 2
    # non-monotone sweep grid
    cfg = write_config(tmp_path, "grid.json", {
        "market": {"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 2}},
        "family": {"kind": "sine"}, "grid": [0.1, 0.3, 0.2]})
    assert main(["sweep-delta", "--config", cfg, "--out", str(tmp_path)]) == 2
    # too few audit trials
    assert main(["audit", "--out", str(tmp_path), "--trials", "50"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_arbitrage_market_exits_3(tmp_path, capsys):
    market = {"nodes": [
        {"parent": -1, "prob": 1.0, "prices": [1.0]},
        {"parent": 0, "prob": 0.5, "prices": [1.5]},
        {"parent": 0, "prob": 0.5, "prices": [1.1]},
    ]}
    cfg = write_config(tmp_path, "arb.json", {
        "market": market, "utility": {"kind": "exponential"}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 3
    cfg = write_config(tmp_path, "arbsweep.json", {
        "market": market, "family": {"kind": "sine"}, "grid": [0.2, 0.1]})
    assert main(["sweep-delta", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "solver error" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["solve", "--config", f"{CONFIGS}/solve_exponential.json", "--tol", "5"],
    ["solve", "--config", f"{CONFIGS}/solve_exponential.json", "--seed", "9"],
    ["price", "--config", f"{CONFIGS}/price_call.json", "--seed", "9"],
    ["audit", "--tol", "1"],
])
def test_flags_a_subcommand_does_not_read_exit_via_argparse(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_tolerance_exits_before_any_solve(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(solver):
        def run(*args, **kw):
            calls.append(solver.__name__)
            return solver(*args, **kw)
        return run

    for mod in (cli_mod, sweeps_mod, pricing_mod):
        monkeypatch.setattr(mod, "solve_primal", counted(mod.solve_primal))
    monkeypatch.setattr(sweeps_mod, "solve_power_field", counted(sweeps_mod.solve_power_field))
    for argv in (["price", "--config", f"{CONFIGS}/price_call.json", "--tol", "nan"],
                 ["price", "--config", f"{CONFIGS}/price_call.json", "--tol", "0"],
                 ["sweep-delta", "--config", f"{CONFIGS}/binomial_sine.json", "--tol", "-1"],
                 ["sweep-p", "--config", f"{CONFIGS}/binomial_power.json", "--tol", "inf"]):
        assert main(argv + ["--out", str(tmp_path)]) == 2
    assert calls == []
    assert capsys.readouterr().err.count("tolerance must be positive and finite") == 4
